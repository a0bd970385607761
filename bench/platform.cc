// Platform characterization on the simulated cluster. Both sweeps accept
// the common flags for uniform driving by scripts/run_experiments.sh, but
// their experiments are fixed-size.
//
//   table1     Table 1's microbenchmarks: minimum roundtrip of a 4-byte
//              message (~40 us), network bandwidth (~20 MB/s), and the
//              dual-cpu 3-hop read miss of a 128-byte block (~93 us: reader
//              -> home -> exclusive owner -> home -> reader), plus the 2-hop
//              miss and the single-cpu variant for context.
//   fig1_msgs  Figure 1's protocol messages for one producer-consumer block
//              transfer: the invalidation protocol's read and write chains
//              versus the compiler-directed direct update.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench/driver.h"
#include "src/proto/stache.h"
#include "src/sim/sync.h"
#include "src/tempest/cluster.h"
#include "src/tempest/types.h"
#include "src/util/table.h"

namespace fgdsm::bench {
namespace {

using tempest::Cluster;
using tempest::ClusterConfig;
using tempest::MsgType;
using tempest::Node;

sim::Message mp_message(int dst, std::int64_t arg, std::size_t bytes) {
  sim::Message m;
  m.dst = dst;
  m.type = static_cast<std::uint16_t>(MsgType::kMpData);
  m.arg[0] = arg;
  m.payload.resize(bytes);
  return m;
}

void write_word(Node& n, sim::Task& t, tempest::GAddr a, double v) {
  n.ensure_writable(t, a, 8);
  std::memcpy(n.mem(a), &v, 8);
  n.note_writes(a, 8);
}

// Roundtrip: node 0 sends a 4-byte payload to node 1, whose handler echoes
// it; repeat and average.
sim::Time measure_roundtrip(int reps) {
  ClusterConfig cfg;
  cfg.nnodes = 2;
  Cluster c(cfg);
  c.allocate("pad", 64);
  sim::Semaphore* pong_sem = nullptr;
  c.register_handler(MsgType::kMpData,
                     [&](Node& self, sim::Message& m, tempest::HandlerClock& clk) {
                       if (m.arg[0] == 0) {  // ping: echo back
                         self.send_from_handler(clk, mp_message(m.src, 1, 4));
                       } else {  // pong
                         pong_sem->post(clk.t);
                       }
                     });
  sim::Time total = 0;
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() != 0) {
      t.charge(reps * sim::kMs);  // stay around to serve echoes
      return;
    }
    sim::Semaphore sem;
    pong_sem = &sem;
    for (int i = 0; i < reps; ++i) {
      const sim::Time t0 = t.now();
      n.send(t, mp_message(1, 0, 4));
      sem.wait(t);
      total += t.now() - t0;
    }
  });
  return total / reps;
}

// Bandwidth: stream large payloads 0 -> 1, measure delivered bytes/sec.
double measure_bandwidth_mbps() {
  ClusterConfig cfg;
  cfg.nnodes = 2;
  Cluster c(cfg);
  c.allocate("pad", 64);
  constexpr int kMsgs = 64;
  constexpr std::size_t kBytes = 16384;
  sim::Time last_arrival = 0;
  c.register_handler(MsgType::kMpData,
                     [&](Node&, sim::Message&, tempest::HandlerClock& clk) {
                       last_arrival = clk.t;
                     });
  c.run([&](Node& n, sim::Task& t) {
    if (n.id() != 0) {
      t.charge(200 * sim::kMs);
      return;
    }
    for (int i = 0; i < kMsgs; ++i) n.send(t, mp_message(1, 0, kBytes));
  });
  return static_cast<double>(kMsgs) * kBytes / (sim::to_seconds(last_arrival)) /
         1e6;
}

// Read miss, 128-byte block. hops==2: block idle at its home. hops==3: a
// third node holds it exclusive, forcing the recall chain of Figure 1(a).
sim::Time measure_read_miss(bool dual_cpu, int hops) {
  ClusterConfig cfg;
  cfg.nnodes = 4;
  cfg.block_size = 128;
  cfg.dual_cpu = dual_cpu;
  Cluster c(cfg);
  proto::Stache proto(c);
  const tempest::GAddr a = c.allocate("x", 4096);  // home node 0
  sim::Time miss_time = 0;
  c.run([&](Node& n, sim::Task& t) {
    // Optionally give node 2 an exclusive copy first.
    if (hops == 3 && n.id() == 2) write_word(n, t, a, 33.0);
    n.barrier(t);
    if (n.id() == 1) {
      const sim::Time t0 = t.now();
      n.ensure_readable(t, a, 8);
      miss_time = t.now() - t0;
    }
    n.barrier(t);
  });
  return miss_time;
}

struct Counts {
  std::uint64_t messages = 0;
  sim::Time per_iter_ns = 0;
};

// Producer p(=2) writes one block, consumer q(=3) reads it, repeatedly, with
// the home at node 0 (3-hop). Returns protocol messages per iteration in
// steady state.
Counts measure_transfer(bool optimized, int iters) {
  ClusterConfig cfg;
  cfg.nnodes = 4;
  cfg.block_size = 128;
  Cluster c(cfg);
  proto::Stache proto(c);
  const tempest::GAddr a = c.allocate("x", 4096);  // home node 0
  const tempest::BlockId b = c.block_of(a);
  // Count protocol messages directly by wrapping every coherence/CCC
  // handler (barrier and reduction traffic excluded by construction).
  std::uint64_t proto_msgs = 0;
  for (MsgType mt :
       {MsgType::kReadReq, MsgType::kPutDataReq, MsgType::kPutDataResp,
        MsgType::kReadResp, MsgType::kWriteReq, MsgType::kInval,
        MsgType::kInvalAck, MsgType::kWriteGrant, MsgType::kFetchExclReq,
        MsgType::kFetchExclResp, MsgType::kDirectData}) {
    const Cluster::Handler orig = c.handler(mt);
    c.register_handler(mt, [&proto_msgs, orig](Node& n, sim::Message& m,
                                               tempest::HandlerClock& clk) {
      ++proto_msgs;
      orig(n, m, clk);
    });
  }
  std::uint64_t msgs_before = 0;
  sim::Time time_before = 0;
  Counts out;
  c.run([&](Node& n, sim::Task& t) {
    for (int it = 0; it < iters; ++it) {
      if (it == 1 && n.id() == 2) {  // skip the cold iteration
        msgs_before = proto_msgs;
        time_before = t.now();
      }
      // Optimized steady state: the producer is already exclusive
      // (mk_writable elided).
      if (n.id() == 2) write_word(n, t, a, it);
      if (optimized) {
        if (n.id() == 3 && it == 0) proto.implicit_writable(n, t, b, b);
        n.barrier(t);
        if (n.id() == 2)
          proto.send_blocks(n, t, a, cfg.block_size, {3}, cfg.block_size);
        if (n.id() == 3) {
          proto.ready_to_recv(n, t, 1);
          double v;
          std::memcpy(&v, n.mem(a), 8);
          (void)v;
        }
        n.barrier(t);
      } else {
        n.barrier(t);
        if (n.id() == 3) n.ensure_readable(t, a, 8);
        n.barrier(t);
      }
    }
    if (n.id() == 2) {
      out.messages = (proto_msgs - msgs_before) / (iters - 1);
      out.per_iter_ns = (t.now() - time_before) / (iters - 1);
    }
  });
  return out;
}

}  // namespace

int run_table1(const Args& a) {
  const sim::Time rtt = measure_roundtrip(16);
  const double bw = measure_bandwidth_mbps();
  const sim::Time miss2_dual = measure_read_miss(true, 2);
  const sim::Time miss3_dual = measure_read_miss(true, 3);
  const sim::Time miss3_single = measure_read_miss(false, 3);

  util::Table t({"Quantity", "Paper (Table 1)", "Simulated"});
  t.add_row({"Min roundtrip, 4-byte message", "40 us",
             util::Table::cell(sim::to_us(rtt), 1) + " us"});
  t.add_row({"Network bandwidth", "20 MB/s",
             util::Table::cell(bw, 1) + " MB/s"});
  t.add_row({"Read miss, 128B block (dual-cpu, 3-hop)", "93 us",
             util::Table::cell(sim::to_us(miss3_dual), 1) + " us"});
  t.add_row({"Read miss, 128B block (dual-cpu, 2-hop)", "-",
             util::Table::cell(sim::to_us(miss2_dual), 1) + " us"});
  t.add_row({"Read miss, 128B block (single-cpu, 3-hop)", "-",
             util::Table::cell(sim::to_us(miss3_single), 1) + " us"});
  std::printf("Table 1: cluster configuration microbenchmarks\n");
  t.print(std::cout);

  JsonReport jr(a);
  jr.add_metric("roundtrip_us", sim::to_us(rtt));
  jr.add_metric("bandwidth_mbps", bw);
  jr.add_metric("read_miss_3hop_dual_us", sim::to_us(miss3_dual));
  jr.add_metric("read_miss_2hop_dual_us", sim::to_us(miss2_dual));
  jr.add_metric("read_miss_3hop_single_us", sim::to_us(miss3_single));
  jr.write();
  return 0;
}

int run_fig1_msgs(const Args& a) {
  const auto def = measure_transfer(false, 9);
  const auto opt = measure_transfer(true, 9);
  std::printf("Figure 1: protocol messages per producer-consumer transfer\n");
  util::Table t({"scheme", "msgs/iteration", "paper", "time/iter (us)"});
  t.add_row({"default protocol (Fig 1a)",
             util::Table::cell(static_cast<std::int64_t>(def.messages)),
             "8 (4 read chain + 4 write chain)",
             util::Table::cell(sim::to_us(def.per_iter_ns), 1)});
  t.add_row({"compiler-directed (Fig 1b)",
             util::Table::cell(static_cast<std::int64_t>(opt.messages)),
             "1 direct update",
             util::Table::cell(sim::to_us(opt.per_iter_ns), 1)});
  t.print(std::cout);

  JsonReport jr(a);
  jr.add_metric("default_msgs_per_iter", static_cast<double>(def.messages));
  jr.add_metric("default_us_per_iter", sim::to_us(def.per_iter_ns));
  jr.add_metric("opt_msgs_per_iter", static_cast<double>(opt.messages));
  jr.add_metric("opt_us_per_iter", sim::to_us(opt.per_iter_ns));
  jr.write();
  return 0;
}

}  // namespace fgdsm::bench
