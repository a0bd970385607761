#include "src/tempest/cluster.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "src/sim/trace.h"
#include "src/tempest/protocol.h"
#include "src/util/assert.h"
#include "src/util/log.h"

namespace fgdsm::tempest {

namespace {
std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) / align * align;
}

double reduce_combine(int op, double a, double b) {
  switch (static_cast<Node::ReduceOp>(op)) {
    case Node::ReduceOp::kSum: return a + b;
    case Node::ReduceOp::kMax: return std::max(a, b);
    case Node::ReduceOp::kMin: return std::min(a, b);
  }
  return a;
}

sim::Message collective_msg(int dst, MsgType type, std::int64_t arg0 = 0,
                            std::int64_t arg1 = 0) {
  sim::Message m;
  m.dst = dst;
  m.type = static_cast<std::uint16_t>(type);
  m.arg[0] = arg0;
  m.arg[1] = arg1;
  return m;
}
}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      net_(engine_, cfg_.costs, cfg.nnodes),
      pools_(static_cast<std::size_t>(cfg.nnodes)) {
  cfg_.validate();
  // One event partition per node, ALWAYS — regardless of sim_threads — so
  // window boundaries, sequence numbers, and merge order are identical at
  // any thread count (the bit-identity contract). The worker count only
  // changes which host thread drains a partition.
  engine_.set_partitions(cfg_.nnodes);
  engine_.set_window_lookahead(net_.min_link_latency());
  // The tracer appends flow spans in drain order; keep that order
  // deterministic by draining single-threaded when tracing. Results are
  // unchanged (thread count never affects them).
  engine_.set_sim_threads(cfg_.tracer != nullptr ? 1 : cfg_.sim_threads);
  if (cfg_.faults.enabled) {
    // Chaos mode: deterministic faults on the wire, reliable channel under
    // every node. Defaults derive from the cost model so the knobs scale
    // with the platform: delay window 8x wire latency, base RTO 20x (well
    // past a round trip plus handler occupancy), pure acks at RTO/4.
    fault_ = std::make_unique<sim::FaultInjector>(
        cfg_.faults, cfg_.nnodes, 8 * cfg_.costs.wire_latency);
    net_.set_fault_injector(fault_.get());
    sim::ChannelConfig ch;
    ch.rto_ns = cfg_.faults.rto_ns > 0 ? cfg_.faults.rto_ns
                                       : 20 * cfg_.costs.wire_latency;
    ch.ack_delay_ns = std::max<sim::Time>(1, ch.rto_ns / 4);
    ch.max_retries = cfg_.faults.max_retries;
    ch.ack_type = static_cast<std::uint16_t>(MsgType::kChannelAck);
    channel_ = std::make_unique<sim::ReliableChannel>(engine_, net_,
                                                      cfg_.nnodes, ch);
    channel_->set_type_namer([](std::uint16_t t) {
      return to_string(static_cast<MsgType>(t));
    });
  }
  std::vector<util::NodeStats*> stat_sinks;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(*this, i));
    Node* n = nodes_.back().get();
    stat_sinks.push_back(&n->stats);
    auto sink = [this, n](sim::Message&& m, sim::Time arrival) {
      // Timeline filter: a message stamped by a pre-rollback epoch is dead
      // traffic from an abandoned timeline. This matters for loopback
      // self-sends, which bypass the channel's duplicate suppression.
      // Outside crash runs the stamp and the counter are both 0.
      if (m.epoch != recovery_epoch_) return;
      n->deliver(std::move(m), arrival);
    };
    if (channel_ != nullptr)
      channel_->attach(i, std::move(sink));
    else
      net_.attach(i, std::move(sink));
  }
  if (fault_ != nullptr) fault_->set_stats(stat_sinks);
  if (channel_ != nullptr) channel_->set_stats(std::move(stat_sinks));
  if (fault_ != nullptr && cfg_.faults.has_crashes() && cfg_.nnodes > 1) {
    // Fail-stop mode: stamp outbound traffic with the recovery epoch, let
    // the channel observe fail-stopped endpoints (a down node stops acking
    // — the detection signal), and install the rollback hook the engine
    // calls when the cluster stops making progress.
    net_.set_epoch_stamp(&recovery_epoch_);
    channel_->set_down_probe([this](int node) {
      return nodes_[static_cast<std::size_t>(node)]->crashed();
    });
    engine_.set_recovery_hook([this] { return recover(); });
  }
  if (cfg_.checkpoint_every > 0 && cfg_.nnodes > 1)
    engine_.set_window_hook([this] {
      if (!ckpt_request_) return;
      ckpt_request_ = false;
      capture_checkpoint(ckpt_request_t_, /*at_barrier=*/true);
    });
  // Lookahead: a lower bound on how quickly one node's compute task can
  // affect another node — composing a message plus the wire latency.
  engine_.set_lookahead(cfg_.costs.msg_send_overhead +
                        cfg_.costs.wire_latency);
  engine_.set_watchdog(cfg_.watchdog_ns);
  engine_.set_stall_reporter([this] {
    std::string out;
    if (channel_ != nullptr) out += channel_->describe_state();
    for (const auto& n : nodes_) {
      if (n->protocol == nullptr) continue;
      for (const std::string& v : n->protocol->find_violations())
        out += "  node " + std::to_string(n->id()) + ": " + v + "\n";
      break;  // protocols share global state; one node's view suffices
    }
    return out;
  });
  register_builtin_handlers();
}

Cluster::~Cluster() = default;

GAddr Cluster::allocate(const std::string& name, std::size_t bytes) {
  FGDSM_ASSERT_MSG(!ran_, "allocate after run");
  const GAddr addr = round_up(segment_bytes_, cfg_.page_size);
  regions_.emplace_back(name, addr);
  segment_bytes_ = addr + round_up(bytes, cfg_.page_size);
  return addr;
}

std::size_t Cluster::num_blocks() const {
  return (segment_bytes_ + cfg_.block_size - 1) / cfg_.block_size;
}

void Cluster::register_handler(MsgType t, Handler h) {
  handlers_[static_cast<std::size_t>(t)] = std::move(h);
}

const Cluster::Handler& Cluster::handler(MsgType t) const {
  const Handler& h = handlers_[static_cast<std::size_t>(t)];
  FGDSM_ASSERT_MSG(h, "no handler registered for message type "
                          << static_cast<int>(t));
  return h;
}

int Cluster::resolve_group(int nnodes, int group) {
  if (group > 0) return group;
  int g = 1;
  while (g * g < nnodes) ++g;  // ceil(sqrt(n)) balances the two levels
  return g;
}

int Cluster::collective_parent(Collectives topo, int node, int nnodes,
                               int group) {
  FGDSM_ASSERT(node > 0 && node < nnodes);
  switch (topo) {
    case Collectives::kFlat:
      return 0;
    case Collectives::kBinary:
      return (node - 1) / 2;
    case Collectives::kBinomial:
      return node & (node - 1);  // clear the lowest set bit
    case Collectives::kTwoLevel: {
      const int g = resolve_group(nnodes, group);
      const int leader = node / g * g;
      return node == leader ? 0 : leader;
    }
  }
  return 0;
}

std::vector<int> Cluster::collective_children(Collectives topo, int node,
                                              int nnodes, int group) {
  // Children are always produced in ascending node order: the fan-out loops
  // below send in list order, and ascending order is part of the
  // bit-identity contract (it matches the historical binary fan-out).
  std::vector<int> out;
  switch (topo) {
    case Collectives::kFlat:
      if (node == 0)
        for (int i = 1; i < nnodes; ++i) out.push_back(i);
      break;
    case Collectives::kBinary:
      if (2 * node + 1 < nnodes) out.push_back(2 * node + 1);
      if (2 * node + 2 < nnodes) out.push_back(2 * node + 2);
      break;
    case Collectives::kBinomial: {
      // Node i's children are i | (1<<k) for each bit k below i's lowest
      // set bit (all powers of two for the root). Ascending in k.
      const int low = node == 0 ? nnodes : node & -node;
      for (int bit = 1; bit < low; bit <<= 1) {
        const int c = node | bit;
        if (c >= nnodes) break;  // children only grow with k
        out.push_back(c);
      }
      break;
    }
    case Collectives::kTwoLevel: {
      const int g = resolve_group(nnodes, group);
      if (node % g == 0) {
        // Leader: the members of its group...
        for (int c = node + 1; c < std::min(node + g, nnodes); ++c)
          out.push_back(c);
        // ...and, for the root, every other leader. Members of group 0 all
        // precede the first leader, so the list stays ascending.
        if (node == 0)
          for (int c = g; c < nnodes; c += g) out.push_back(c);
      }
      break;
    }
  }
  return out;
}

int Cluster::collective_depth(Collectives topo, int nnodes, int group) {
  if (nnodes <= 1) return 0;
  switch (topo) {
    case Collectives::kFlat:
      return 1;
    case Collectives::kBinary: {
      int d = 0;
      for (int span = 1; span < nnodes; span = 2 * span + 1) ++d;
      return d;
    }
    case Collectives::kBinomial: {
      // Node i sits popcount(i) hops below the root.
      int d = 0;
      for (int i = 1; i < nnodes; ++i)
        d = std::max(d, std::popcount(static_cast<unsigned>(i)));
      return d;
    }
    case Collectives::kTwoLevel:
      return resolve_group(nnodes, group) >= nnodes ? 1 : 2;
  }
  return 1;
}

Cluster::CollectiveRecord& Cluster::record(int node) {
  FGDSM_DCHECK(engine_.partition_of_node(node) ==
               engine_.current_partition_id());
  return colls_[static_cast<std::size_t>(node)];
}

void Cluster::record_op(CollectiveRecord& r, int op) {
  if (!r.red_self && r.red_arrived == 0)
    r.red_op = op;  // first contribution of the round
  else
    FGDSM_ASSERT_MSG(r.red_op == op, "mismatched reduction ops across nodes");
}

void Cluster::arrive_barrier(Node& n, sim::Task& task) {
  const SendFn send = [&](sim::Message m) { n.send(task, std::move(m)); };
  if (loopback_root_ && n.id() == 0) {
    send(collective_msg(0, MsgType::kBarrierArrive));
    return;
  }
  record(n.id()).self_arrived = true;
  barrier_step(n.id(), task.now(), send);
}

void Cluster::arrive_reduce(Node& n, sim::Task& task, double v, int op) {
  const SendFn send = [&](sim::Message m) { n.send(task, std::move(m)); };
  if (loopback_root_ && n.id() == 0) {
    send(collective_msg(0, MsgType::kReduceUp, std::bit_cast<std::int64_t>(v),
                        op));
    return;
  }
  CollectiveRecord& r = record(n.id());
  record_op(r, op);
  r.partial = v;
  r.red_self = true;
  reduce_step(n.id(), task.now(), send);
}

void Cluster::barrier_step(int node, sim::Time t, const SendFn& send) {
  CollectiveRecord& r = record(node);
  const std::size_t nkids =
      tree_children_[static_cast<std::size_t>(node)].size();
  if (!r.self_arrived || static_cast<std::size_t>(r.arrived) != nkids) return;
  // Subtree complete: reset for the next round, then combine upward (or
  // release downward at the root).
  r.self_arrived = false;
  r.arrived = 0;
  if (node != 0) {
    send(collective_msg(tree_parent_[static_cast<std::size_t>(node)],
                        MsgType::kBarrierArrive));
    return;
  }
  // Barrier complete, nothing released yet: every node has drained its
  // transactions and is blocked waiting for release — the one globally
  // quiescent, race-free point where the protocol's invariants can be
  // checked.
  if (cfg_.check_coherence && nodes_[0]->protocol != nullptr)
    nodes_[0]->protocol->check_invariants(*nodes_[0]);
  if (on_barrier_complete(t)) return;  // releases deferred past the capture
  if (fan_out_from_root(MsgType::kBarrierRelease, 0, send))
    nodes_[0]->barrier_sem.post(t);
}

void Cluster::reduce_step(int node, sim::Time t, const SendFn& send) {
  CollectiveRecord& r = record(node);
  if (!r.red_self ||
      static_cast<std::size_t>(r.red_arrived) != r.red_contrib.size())
    return;
  r.red_self = false;
  r.red_arrived = 0;
  // Fold in a fixed order — own value first, then children ascending — so
  // the subtree's floating-point result is independent of arrival order
  // (chaos delays reorder kReduceUp messages; results must not move).
  double partial = r.partial;
  for (const double c : r.red_contrib)
    partial = reduce_combine(r.red_op, partial, c);
  const std::int64_t bits = std::bit_cast<std::int64_t>(partial);
  if (node != 0) {
    send(collective_msg(tree_parent_[static_cast<std::size_t>(node)],
                        MsgType::kReduceUp, bits, r.red_op));
    return;
  }
  if (fan_out_from_root(MsgType::kReduceDown, bits, send)) {
    nodes_[0]->reduce_result = partial;
    nodes_[0]->reduce_sem.post(t);
  }
}

bool Cluster::fan_out_from_root(MsgType type, std::int64_t arg,
                                const SendFn& send) {
  if (loopback_root_) send(collective_msg(0, type, arg));
  for (const int c : tree_children_[0]) send(collective_msg(c, type, arg));
  return !loopback_root_;
}

void Cluster::forward_down(Node& self, const sim::Message& m,
                           HandlerClock& clk) {
  if (self.id() == 0) return;
  for (const int c : tree_children_[static_cast<std::size_t>(self.id())])
    self.send_from_handler(
        clk, collective_msg(c, static_cast<MsgType>(m.type), m.arg[0]));
}

void Cluster::register_builtin_handlers() {
  // Precompute the configured shape once; the steps and handlers below are
  // topology-agnostic table walks.
  const std::size_t n = static_cast<std::size_t>(cfg_.nnodes);
  tree_parent_.assign(n, 0);
  tree_children_.assign(n, {});
  colls_.assign(n, {});
  for (int i = 0; i < cfg_.nnodes; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    if (i > 0)
      tree_parent_[k] = collective_parent(cfg_.collectives, i, cfg_.nnodes,
                                          cfg_.collective_group);
    tree_children_[k] = collective_children(cfg_.collectives, i, cfg_.nnodes,
                                            cfg_.collective_group);
    colls_[k].red_contrib.resize(tree_children_[k].size(), 0.0);
  }
  loopback_root_ = cfg_.collectives == Collectives::kFlat;

  // An arrival from the node itself is a loopback root's own arrival.
  register_handler(MsgType::kBarrierArrive,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     CollectiveRecord& r = record(self.id());
                     if (m.src == self.id())
                       r.self_arrived = true;
                     else
                       ++r.arrived;
                     barrier_step(self.id(), clk.t, [&](sim::Message msg) {
                       self.send_from_handler(clk, std::move(msg));
                     });
                   });
  register_handler(MsgType::kBarrierRelease,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     forward_down(self, m, clk);
                     self.barrier_sem.post(clk.t);
                   });
  register_handler(
      MsgType::kReduceUp,
      [this](Node& self, sim::Message& m, HandlerClock& clk) {
        CollectiveRecord& r = record(self.id());
        const double v = std::bit_cast<double>(m.arg[0]);
        record_op(r, static_cast<int>(m.arg[1]));
        if (m.src == self.id()) {
          r.partial = v;
          r.red_self = true;
        } else {
          // Buffer the child's value in its slot; reduce_step folds once the
          // subtree is complete, in child order.
          const std::vector<int>& kids =
              tree_children_[static_cast<std::size_t>(self.id())];
          const auto it = std::lower_bound(kids.begin(), kids.end(), m.src);
          FGDSM_ASSERT_MSG(it != kids.end() && *it == m.src,
                           "kReduceUp from a non-child node");
          r.red_contrib[static_cast<std::size_t>(it - kids.begin())] = v;
          ++r.red_arrived;
        }
        reduce_step(self.id(), clk.t, [&](sim::Message msg) {
          self.send_from_handler(clk, std::move(msg));
        });
      });
  register_handler(MsgType::kReduceDown,
                   [this](Node& self, sim::Message& m, HandlerClock& clk) {
                     forward_down(self, m, clk);
                     self.reduce_result = std::bit_cast<double>(m.arg[0]);
                     self.reduce_sem.post(clk.t);
                   });
}

// ---- Fail-stop crashes + checkpoint/rollback recovery ----

bool Cluster::on_barrier_complete(sim::Time t) {
  if (cfg_.nnodes <= 1) return false;
  ++barrier_epoch_;
  if (fault_ != nullptr && cfg_.faults.crashp > 0.0) {
    // Per-(seed, node, epoch) counter-mode draws: the verdicts are fixed by
    // the configuration, identical at any --jobs/--sim-threads. The crash
    // lands one window out so the event clears the merge horizon when it
    // crosses partitions.
    for (int i = 0; i < cfg_.nnodes; ++i) {
      if (!fault_->crash_at_barrier(i, barrier_epoch_)) continue;
      Node* np = nodes_[static_cast<std::size_t>(i)].get();
      const sim::Time tc = t + engine_.window_lookahead();
      engine_.schedule_node(i, tc, [np, tc] {
        if (!np->crashed()) np->crash(tc);
      });
    }
  }
  if (cfg_.checkpoint_every <= 0 ||
      barrier_epoch_ % static_cast<std::uint64_t>(cfg_.checkpoint_every) != 0)
    return false;
  // Checkpoint epoch: request the capture — it runs at the engine's window
  // barrier, the only point where every task fiber is host-quiescent (this
  // code runs inside one partition's drain; a late arriver's fiber may
  // still be executing on another worker) — and hold the release fan-out
  // until the window after it, so no node moves past the barrier before
  // the capture sees it. The replayed fan-out is epoch-guarded: should a
  // rollback intervene, the stale release must not fire.
  ckpt_request_ = true;
  ckpt_request_t_ = t;
  const sim::Time tr = t + engine_.window_lookahead();
  engine_.schedule_node(0, tr, [this, tr, e = recovery_epoch_] {
    if (e == recovery_epoch_) finish_barrier_release(tr);
  });
  return true;
}

void Cluster::finish_barrier_release(sim::Time t) {
  Node& root = *nodes_[0];
  // A root that crashed in the deferral window sends nothing; the parked
  // survivors stop the clock, and the engine's drained-queue path hands
  // control to the recovery hook.
  if (root.crashed()) return;
  HandlerClock clk{root.proto_res().acquire(t, 0)};
  if (fan_out_from_root(MsgType::kBarrierRelease, 0, [&](sim::Message m) {
        root.send_from_handler(clk, std::move(m));
      }))
    root.barrier_sem.post(clk.t);
  root.proto_res().set_available(clk.t);
}

void Cluster::capture_always(GAddr base, std::size_t bytes) {
  if (bytes == 0) return;
  capture_always_ranges_.emplace_back(base, bytes);
  capture_always_blocks_.clear();  // rebuilt at the next capture
}

void Cluster::capture_checkpoint(sim::Time t, bool at_barrier) {
  const std::size_t bs = cfg_.block_size;
  const std::size_t nb = num_blocks();
  if (capture_always_blocks_.size() != nb) {
    capture_always_blocks_.assign(nb, 0);
    for (const auto& [base, bytes] : capture_always_ranges_) {
      const BlockId last = block_of(base + bytes - 1);
      for (BlockId b = block_of(base); b <= last && b < nb; ++b)
        capture_always_blocks_[b] = 1;
    }
  }
  ckpt_.t = t;
  ckpt_.nodes.assign(static_cast<std::size_t>(cfg_.nnodes), NodeCheckpoint{});
  ckpt_.host_blobs.clear();
  ckpt_.host_blobs.reserve(host_hooks_.size());
  for (const HostStateHook& h : host_hooks_)
    ckpt_.host_blobs.push_back(h.capture ? h.capture() : nullptr);
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node& n = *nodes_[static_cast<std::size_t>(i)];
    NodeCheckpoint& c = ckpt_.nodes[static_cast<std::size_t>(i)];
    c.tags.assign(n.tags_data(), n.tags_data() + n.ntags());
    // Memory: only blocks this node can legitimately read, or homes (their
    // backing is the directory's ground truth even while invalid locally),
    // plus capture-always ranges — storage outside the protocol's view.
    // Everything else re-faults through the protocol after rollback.
    for (BlockId b = 0; b < nb; ++b)
      if (c.tags[b] != Access::kInvalid || home_of(b) == i ||
          capture_always_blocks_[b] != 0)
        c.blocks.push_back(b);
    c.data.resize(c.blocks.size() * bs);
    for (std::size_t k = 0; k < c.blocks.size(); ++k)
      std::memcpy(c.data.data() + k * bs, n.mem(block_addr(c.blocks[k])), bs);
    c.task = n.task()->snapshot();
    // At a barrier capture the completed barrier's never-resent release is
    // folded in as a count of 1: a restored node resumes inside
    // barrier_sem.wait and proceeds as if the release had just arrived.
    c.barrier_sem = at_barrier ? 1 : n.barrier_sem.count();
    c.reduce_sem = n.reduce_sem.count();
    c.recv_sem = n.recv_sem.count();
    c.drain_sem = n.drain_sem.count();
    c.reduce_result = n.reduce_result;
    c.protocol =
        n.protocol != nullptr ? n.protocol->capture_snapshot(n) : nullptr;
    c.bytes = static_cast<std::int64_t>(c.data.size() +
                                        c.tags.size() * sizeof(Access)) +
              sim::CostModel::kCkptTaskContextBytes +
              (c.task.entered() ? sim::CostModel::kCkptTaskStackBytes : 0);
    // The serialization charge — and the checkpoint counters with it —
    // lands when this node's release arrives: the first point its task runs
    // after the capture. (The initial t=0 capture is free and uncounted: it
    // models the job's pristine on-disk image.)
    if (at_barrier) n.set_pending_checkpoint(c.bytes);
  }
  ckpt_.valid = true;
  FGDSM_LOG("ckpt", "checkpoint @" << t << " barrier_epoch="
                                   << barrier_epoch_);
}

bool Cluster::recover() {
  int dead = -1;
  for (int i = 0; i < cfg_.nnodes; ++i)
    if (nodes_[static_cast<std::size_t>(i)]->crashed()) {
      dead = i;
      break;
    }
  if (dead < 0) return false;  // a genuine stall/deadlock, not a crash
  if (!ckpt_.valid) {
    std::ostringstream os;
    os << "node " << dead
       << " crashed with no checkpoint to roll back to "
          "(run with --checkpoint-every=K to enable recovery)\n"
       << engine_.describe_blocked_tasks();
    throw sim::CrashError(os.str());
  }
  // Coordinated rollback-restart. Resume strictly after every partition's
  // committed time (events must not land in the past), plus the fixed
  // coordination cost of the restart itself.
  const sim::Time t_rec = engine_.max_partition_now() + cfg_.costs.ckpt_base_ns;
  ++recovery_epoch_;  // everything stamped before this instant is now dead
  if (channel_ != nullptr) channel_->reset_for_recovery();
  const std::size_t bs = cfg_.block_size;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node& n = *nodes_[static_cast<std::size_t>(i)];
    const NodeCheckpoint& c = ckpt_.nodes[static_cast<std::size_t>(i)];
    n.reincarnate();
    n.clear_inbox();  // survivors too: queued handlers are dead-timeline work
    std::copy(c.tags.begin(), c.tags.end(), n.tags_data());
    for (std::size_t k = 0; k < c.blocks.size(); ++k)
      std::memcpy(n.mem(block_addr(c.blocks[k])), c.data.data() + k * bs, bs);
    n.barrier_sem.restore_for_recovery(c.barrier_sem);
    n.reduce_sem.restore_for_recovery(c.reduce_sem);
    n.recv_sem.restore_for_recovery(c.recv_sem);
    n.drain_sem.restore_for_recovery(c.drain_sem);
    n.reduce_result = c.reduce_result;
    if (n.protocol != nullptr) n.protocol->restore_snapshot(n, c.protocol);
    n.set_pending_checkpoint(-1);
    n.task()->restore(c.task, t_rec);
    // Stats deliberately NOT rolled back: re-executed work is real simulated
    // work, and the bit-identity gate covers results, not effort counters.
    n.stats.recoveries += 1;
    n.stats.rollback_ns += static_cast<std::int64_t>(t_rec - ckpt_.t);
  }
  // Collective books restart from scratch; partial arrivals belong to the
  // abandoned timeline.
  for (CollectiveRecord& r : colls_) {
    r.self_arrived = r.red_self = false;
    r.arrived = r.red_arrived = 0;
  }
  ckpt_request_ = false;  // any capture requested on the dead timeline
  for (std::size_t h = 0; h < host_hooks_.size(); ++h)
    if (host_hooks_[h].restore) host_hooks_[h].restore(ckpt_.host_blobs[h]);
  if (sim::Tracer* tr = cfg_.tracer)
    tr->span(sim::Tracer::compute_track(dead), "recovery", "rollback",
             ckpt_.t, t_rec);
  FGDSM_LOG("ckpt", "rollback: node " << dead << " crashed; restored @"
                                      << ckpt_.t << ", resuming @" << t_rec);
  return true;
}

util::RunStats Cluster::run(
    const std::function<void(Node&, sim::Task&)>& program) {
  FGDSM_ASSERT_MSG(!ran_, "Cluster::run is one-shot");
  ran_ = true;
  const std::size_t seg = std::max<std::size_t>(segment_bytes_, cfg_.page_size);
  for (auto& n : nodes_)
    n->finalize_memory(seg, num_blocks(), cfg_.dual_cpu);

  if (sim::Tracer* tr = cfg_.tracer) {
    for (int i = 0; i < cfg_.nnodes; ++i) {
      tr->set_track_name(sim::Tracer::compute_track(i),
                         "node " + std::to_string(i) + " compute");
      tr->set_track_name(sim::Tracer::protocol_track(i),
                         "node " + std::to_string(i) + " protocol");
    }
  }

  tasks_.reserve(nodes_.size());
  for (int i = 0; i < cfg_.nnodes; ++i) {
    Node* n = nodes_[static_cast<std::size_t>(i)].get();
    tasks_.push_back(std::make_unique<sim::Task>(
        engine_, "node" + std::to_string(i),
        [n, &program](sim::Task& t) { program(*n, t); }));
    sim::Task* t = tasks_.back().get();
    t->set_partition(i);  // node i's compute task lives in partition i
    t->set_cpu(&n->cpu_res());
    t->set_node_id(i);
    t->set_steal_counter(&n->stats.handler_steal_ns);
    n->bind_task(t);
    t->start(0);
  }
  // Explicit fail-stop schedules (--faults=crash=N@T). Single-node runs
  // have no peers to detect or recover a crash, so injection is skipped
  // there (no recovery hook is installed); out-of-range nodes are tolerated
  // so one fault spec can serve several cluster sizes.
  if (fault_ != nullptr && cfg_.nnodes > 1) {
    for (const std::pair<int, sim::Time>& cr : cfg_.faults.crashes) {
      const int nd = cr.first;
      if (nd < 0 || nd >= cfg_.nnodes) continue;
      Node* np = nodes_[static_cast<std::size_t>(nd)].get();
      const sim::Time tc = cr.second;
      engine_.schedule_node(nd, tc, [np, tc] {
        if (!np->crashed()) np->crash(tc);
      });
    }
  }
  // Initial checkpoint: a crash before the first checkpointed barrier must
  // still be recoverable. Capture the pristine post-layout state at t=0 —
  // tasks are created but not yet activated, and a kReady snapshot restores
  // through the first-activation path.
  if (cfg_.checkpoint_every > 0 && cfg_.nnodes > 1)
    capture_checkpoint(0, /*at_barrier=*/false);
  engine_.run();

  util::RunStats rs(cfg_.nnodes);
  rs.elapsed_ns = 0;
  for (int i = 0; i < cfg_.nnodes; ++i) {
    rs.node[static_cast<std::size_t>(i)] = nodes_[static_cast<std::size_t>(i)]->stats;
    rs.elapsed_ns = std::max(rs.elapsed_ns, tasks_[static_cast<std::size_t>(i)]->now());
    nodes_[static_cast<std::size_t>(i)]->bind_task(nullptr);
  }
  return rs;
}

}  // namespace fgdsm::tempest
