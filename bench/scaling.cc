// Weak scaling and crash recovery: fixed work per node while the cluster
// grows (jacobi n ~ tile * sqrt(nodes); spmv n ~ rows * nodes).
//
//   scale  simulated time per point, which would stay flat under perfect
//          weak scaling (what remains is collective depth, hence binomial by
//          default: a flat coordinator serializes the barrier at 1024 nodes,
//          plus protocol contention), and the simulator's host cost per
//          point, because its memory and allocations must grow with active
//          links and touched pages, not nodes^2 (--perf-json, gated against
//          BENCH_SCALE.json by scripts/check_perf.py).
//   crash  per point: a fault-free baseline; the checkpoint premium at each
//          K in --intervals; then one fail-stop of node nodes/2 at a third
//          of the baseline's time plus optional per-barrier crashes
//          (--crashp, normalized so the expected cluster-wide count does not
//          grow with the cluster). Recovered scalars must be bit-identical
//          to the baseline's; MTTR is rollback_ns per recovery (lost work,
//          detection and restart).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "src/apps/apps.h"
#include "src/tempest/config.h"
#include "src/util/table.h"

namespace fgdsm::bench {
namespace {

// Per-node jacobi tile edge at --scale.
std::int64_t jacobi_tile(double scale) {
  return std::max<std::int64_t>(
      8, static_cast<std::int64_t>(64 * std::max(0.05, scale) * 4));
}

// The bit-identity gate: every checksum scalar equal, not approximately.
bool scalars_identical(const std::map<std::string, double>& a,
                       const std::map<std::string, double>& b) {
  if (a.size() != b.size()) return false;
  auto ib = b.begin();
  for (const auto& [k, v] : a) {
    if (ib->first != k || std::memcmp(&ib->second, &v, sizeof(double)) != 0)
      return false;
    ++ib;
  }
  return true;
}

}  // namespace

int run_scale(const Args& args) {
  Args a = args;
  const std::string nodes_list = a.flags.get("nodes-list", "8,64,256");
  const std::vector<int> node_counts =
      parse_int_list(nodes_list, "--nodes-list", 1, tempest::kMaxNodes);
  const std::string perf_json = a.flags.get("perf-json", "");
  const int reps = static_cast<int>(a.flags.get_int("reps", 1));
  // Per-node work: sweeps/iterations stay fixed while the grid grows.
  const std::int64_t sweeps = a.flags.get_int("sweeps", 8);
  const std::int64_t iters = a.flags.get_int("iters", 4);
  require(reps >= 1, "--reps must be >= 1");
  // --collectives=flat still measures exactly the flat serialization.
  if (!a.flags.has("collectives"))
    a.run.cluster.collectives = tempest::Collectives::kBinomial;
  a.nodes = node_counts.back();  // JSON config block: the largest point
  const char* collectives = tempest::to_string(a.run.cluster.collectives);

  // At scale 1 each node owns a 64x64 jacobi tile and 512 spmv rows.
  const std::int64_t tile = jacobi_tile(a.scale);
  const std::int64_t spmv_rows = std::max<std::int64_t>(
      64, static_cast<std::int64_t>(512 * std::max(0.05, a.scale) * 4));

  std::printf(
      "Weak scaling (fixed work per node), collectives=%s, block=%zuB, "
      "best of %d\n",
      collectives, a.block, reps);
  std::size_t workloads = 0;
  for (const char* app : {"jacobi", "spmv"})
    workloads += a.selected(app) ? node_counts.size() : 0;
  Calibration calibration(workloads);

  struct Point {
    std::string app;
    int nodes;
    std::int64_t n;
    Measurement m;
    exec::RunResult result;
  };
  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers
  std::vector<Point> points;
  for (const int nodes : node_counts) {
    for (const char* app : {"jacobi", "spmv"}) {
      if (!a.selected(app)) continue;
      const bool jacobi = app[0] == 'j';
      const std::int64_t n =
          jacobi ? std::max<std::int64_t>(nodes, tile * isqrt(nodes))
                 : spmv_rows * nodes;
      progs.push_back(jacobi ? apps::jacobi(n, sweeps)
                             : apps::spmv(n, 8, iters, /*pattern=*/0));
      exec::ExperimentSpec spec = make_spec(
          a, progs.back(), core::shmem_opt_full(), nodes, true, a.block);
      if (points.empty()) spec.config.trace_path = a.trace_path;
      calibration.before(points.size());
      std::fprintf(stderr, "[%s @%d] n=%lld x %d reps...\n", app, nodes,
                   static_cast<long long>(n), reps);
      Point& p = points.emplace_back();
      p.app = app;
      p.nodes = nodes;
      p.n = n;
      p.m = measure(p.app + "@" + std::to_string(nodes), {spec}, reps,
                    &p.result);
    }
  }

  const double calib = calibration.finish();

  util::Table t({"app", "nodes", "n", "sim elapsed", "events", "wall s",
                 "events/s", "allocs/event", "norm (ev/Mop)"});
  for (const Point& p : points)
    t.add_row({p.app, std::to_string(p.nodes), std::to_string(p.n),
               util::format_ns(p.result.stats.elapsed_ns),
               util::format_count(p.m.events),
               util::Table::cell(p.m.seconds, 2),
               util::format_count(
                   static_cast<std::uint64_t>(p.m.events_per_sec())),
               util::Table::cell(p.m.allocs_per_event(), 2),
               util::Table::cell(p.m.events_per_sec() / (calib * 1e6), 4)});
  t.print(std::cout);

  // Weak-scaling efficiency: simulated elapsed time relative to the first
  // point of the same app (1.0 = perfect).
  JsonReport jr(a);
  std::vector<Measurement> rows;
  std::map<std::string, const Point*> first;  // app -> its first point
  for (const Point& p : points) {
    jr.add_run(p.app, std::to_string(p.nodes) + "n", p.result);
    rows.push_back(p.m);
    const Point& base = *first.try_emplace(p.app, &p).first->second;
    if (&base != &p)
      jr.add_metric(p.m.name + "_elapsed_vs_" + std::to_string(base.nodes),
                    static_cast<double>(p.result.stats.elapsed_ns) /
                        static_cast<double>(base.result.stats.elapsed_ns));
  }
  jr.write();
  if (perf_json.empty()) return 0;
  return write_host_json(perf_json, "fgdsm-scale-v1", calib,
                         [&](util::JsonWriter& w) {
                           w.kv("scale", a.scale);
                           w.kv("nodes_list", nodes_list);
                           w.kv("block", static_cast<std::uint64_t>(a.block));
                           w.kv("collectives", collectives);
                           w.kv("reps", static_cast<std::uint64_t>(reps));
                         },
                         rows);
}

int run_crash(const Args& args) {
  Args a = args;
  const std::vector<int> node_counts =
      parse_int_list(a.flags.get("nodes-list", "8,256"), "--nodes-list", 2,
                     tempest::kMaxNodes);
  const std::vector<int> intervals = parse_int_list(
      a.flags.get("intervals", "1,4,16"), "--intervals", 1, 1 << 20);
  const int crash_interval =
      static_cast<int>(a.flags.get_int("crash-interval", 4));
  const double crashp = a.flags.get_double("crashp", 0.0);
  const std::int64_t sweeps = a.flags.get_int("sweeps", 12);
  require(crash_interval >= 1 && crashp >= 0.0 && crashp <= 1.0 &&
              sweeps >= 1,
          "bad --crash-interval/--crashp/--sweeps value");
  a.nodes = node_counts.back();  // JSON config block: the largest point
  const tempest::Collectives collectives = a.run.cluster.collectives;

  std::printf(
      "Crash recovery: checkpoint overhead + MTTR (jacobi, %lld sweeps), "
      "block=%zuB, collectives=%s\n",
      static_cast<long long>(sweeps), a.block,
      tempest::to_string(collectives));

  JsonReport jr(a);
  util::Table t({"nodes", "config", "sim elapsed", "vs base", "ckpts",
                 "ckpt bytes", "crashes", "recov", "MTTR", "checksum"});
  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers
  bool traced = false;

  for (const int nodes : node_counts) {
    const std::int64_t n =
        std::max<std::int64_t>(nodes, jacobi_tile(a.scale) * isqrt(nodes));
    progs.push_back(apps::jacobi(n, sweeps));
    const std::string row = "jacobi@" + std::to_string(nodes);
    const auto run_with = [&](const sim::FaultConfig& faults,
                              int checkpoint_every) {
      exec::ExperimentSpec s = make_spec(a, progs.back(),
                                         core::shmem_opt_full(), nodes, true,
                                         a.block);
      s.config.cluster.faults = faults;
      s.config.cluster.checkpoint_every = checkpoint_every;
      if (faults.enabled)
        s.config.cluster.watchdog_ns =
            tempest::default_watchdog_ns(nodes, collectives);
      if (!traced) s.config.trace_path = a.trace_path;
      traced = true;
      return run_spec(s);
    };

    std::fprintf(stderr, "[%d nodes] baseline n=%lld...\n", nodes,
                 static_cast<long long>(n));
    const exec::RunResult base = run_with(sim::FaultConfig{}, 0);
    const double base_ns = static_cast<double>(base.stats.elapsed_ns);
    // One table row and one JSON run per simulation.
    const auto report = [&](const std::string& label,
                            const std::string& config,
                            const exec::RunResult& r, const std::string& mttr,
                            const std::string& checksum) {
      const util::NodeStats tot = r.stats.totals();
      t.add_row({std::to_string(nodes), label,
                 util::format_ns(r.stats.elapsed_ns),
                 util::Table::cell(
                     static_cast<double>(r.stats.elapsed_ns) / base_ns, 3),
                 util::format_count(tot.checkpoints),
                 util::format_count(tot.checkpoint_bytes),
                 util::format_count(tot.crashes),
                 util::format_count(tot.recoveries / r.stats.node.size()),
                 mttr, checksum});
      jr.add_run(row, config, r);
    };
    report("baseline", "baseline", base, "-", "-");

    for (const int k : intervals) {
      std::fprintf(stderr, "[%d nodes] checkpoint-every=%d...\n", nodes, k);
      const exec::RunResult r = run_with(sim::FaultConfig{}, k);
      report("ckpt K=" + std::to_string(k), "ckpt_k" + std::to_string(k), r,
             "-", scalars_identical(base.scalars, r.scalars) ? "ok"
                                                             : "MISMATCH");
      jr.add_metric(
          "overhead_k" + std::to_string(k) + "@" + std::to_string(nodes),
          static_cast<double>(r.stats.elapsed_ns) / base_ns);
    }

    sim::FaultConfig crash_faults;
    crash_faults.enabled = true;
    crash_faults.crashes.emplace_back(
        nodes / 2, std::max<sim::Time>(1, base.stats.elapsed_ns / 3));
    crash_faults.crashp = crashp > 0.0 ? crashp * 8.0 / nodes : 0.0;
    std::fprintf(stderr, "[%d nodes] crash run (node %d @ %lld ns)...\n",
                 nodes, nodes / 2,
                 static_cast<long long>(base.stats.elapsed_ns / 3));
    const exec::RunResult r = run_with(crash_faults, crash_interval);
    const util::NodeStats tot = r.stats.totals();
    // recoveries and rollback_ns count on every node per rollback, so
    // their ratio is already the per-rollback mean.
    const double mttr = tot.recoveries > 0
                            ? static_cast<double>(tot.rollback_ns) /
                                  static_cast<double>(tot.recoveries)
                            : 0.0;
    const bool identical = scalars_identical(base.scalars, r.scalars);
    report("crash K=" + std::to_string(crash_interval), "crash", r,
           util::format_ns(static_cast<sim::Time>(mttr)),
           identical ? "ok" : "MISMATCH");
    jr.add_metric("mttr_ns@" + std::to_string(nodes), mttr);
    jr.add_metric("checksum_identical@" + std::to_string(nodes),
                  identical ? 1.0 : 0.0);
    if (!identical) {
      t.print(std::cout);
      std::fprintf(stderr,
                   "fgdsm: recovered run diverged from the fault-free "
                   "baseline at %d nodes\n",
                   nodes);
      return 1;
    }
  }
  t.print(std::cout);
  jr.write();
  return 0;
}

}  // namespace fgdsm::bench
