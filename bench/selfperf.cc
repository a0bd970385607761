// Host-side performance of the simulator itself, the perf-regression gate:
// events/sec, ns/event and allocs/event (every heap allocation the process
// makes while a workload runs) over five workloads:
//   paper      the paper sweep's six configurations x six apps
//   paper_st4  the same at four engine workers (the intra-run scaling axis;
//              compare its events/s with paper's)
//   jacobi     the six configurations of jacobi alone
//   spmv       the irregular gather path, as in the irreg sweep
//   chaos      jacobi under fault injection (reliable channel on the path)
// --sim-threads=N applies N engine workers to all but paper_st4. Raw
// events/sec depends on the machine, so each workload's throughput is also
// normalized by the splitmix64 calibration; scripts/check_perf.py gates on
// the normalized number (EXPERIMENTS.md has the method and caveats).
// Simulations run one at a time; --reps=N keeps the fastest of N.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <iostream>
#include <string>
#include <vector>

#include "bench/driver.h"
#include "src/apps/apps.h"
#include "src/sim/fault.h"
#include "src/util/table.h"

namespace fgdsm::bench {

int run_selfperf(const Args& a) {
  const int reps = static_cast<int>(a.flags.get_int("reps", 1));
  const std::string only = a.flags.get("workload", "");
  require(reps >= 1, "--reps must be >= 1");

  std::deque<hpf::Program> progs;  // stable addresses; specs hold pointers
  using Specs = std::vector<exec::ExperimentSpec>;
  const auto cells = [&](Specs& out, hpf::Program prog,
                         std::initializer_list<const char*> configs) {
    progs.push_back(std::move(prog));
    for (const char* c : configs) out.push_back(make_spec(a, progs.back(), c));
  };
  const auto paper_configs = {"serial", "u2", "o2", "u1", "o1", "mp"};
  Specs paper, jacobi, spmv, chaos;
  for (const auto& app : apps::registry())
    cells(paper, app.scaled(a.scale), paper_configs);
  Specs paper_st4 = paper;
  for (exec::ExperimentSpec& s : paper_st4) s.config.cluster.sim_threads = 4;
  cells(jacobi, app_named("jacobi").scaled(a.scale), paper_configs);
  cells(spmv,
        apps::spmv(std::max<std::int64_t>(
                       512, static_cast<std::int64_t>(4096 * a.scale)),
                   8,
                   std::max<std::int64_t>(
                       4, static_cast<std::int64_t>(20 * a.scale)),
                   /*pattern=*/0),
        {"serial", "u2", "o2", "mp"});
  cells(chaos, app_named("jacobi").scaled(a.scale), {"o2", "mp"});
  std::string err;
  for (exec::ExperimentSpec& s : chaos) {
    s.config.cluster.faults = sim::FaultConfig::parse(
        "drop=0.01,dup=0.002,delay=0.05,reorder=0.01,seed=1", &err);
    s.config.cluster.watchdog_ns = 2'000'000'000;
  }
  const std::vector<std::pair<std::string, Specs>> workloads = {
      {"paper", paper}, {"paper_st4", paper_st4}, {"jacobi", jacobi},
      {"spmv", spmv},   {"chaos", chaos}};

  bool known = only.empty();
  for (const auto& w : workloads) known = known || w.first == only;
  require(known, "unknown --workload=" + only +
                     " (known: paper, paper_st4, jacobi, spmv, chaos)");

  std::printf("Simulator self-performance (scale=%.2f, %d nodes, %zuB "
              "blocks, best of %d)\n",
              a.scale, a.nodes, a.block, reps);

  std::vector<Measurement> rows;
  Calibration calibration(only.empty() ? workloads.size() : 1);
  for (const auto& [name, specs] : workloads) {
    if (!only.empty() && only != name) continue;
    calibration.before(rows.size());
    std::fprintf(stderr, "[%s] %zu runs x %d reps...\n", name.c_str(),
                 specs.size(), reps);
    rows.push_back(measure(name, specs, reps));
  }
  const double calib = calibration.finish();

  util::Table t({"workload", "events", "seconds", "events/s", "ns/event",
                 "allocs/event", "norm (ev/Mop)"});
  for (const Measurement& m : rows) {
    t.add_row({m.name, util::format_count(m.events),
               util::Table::cell(m.seconds, 2),
               util::format_count(
                   static_cast<std::uint64_t>(m.events_per_sec())),
               util::Table::cell(m.ns_per_event(), 1),
               util::Table::cell(m.allocs_per_event(), 2),
               util::Table::cell(m.events_per_sec() / (calib * 1e6), 4)});
  }
  t.print(std::cout);
  if (a.json_path.empty()) return 0;
  return write_host_json(a.json_path, "fgdsm-selfperf-v1", calib,
                         [&](util::JsonWriter& jw) {
                           jw.kv("scale", a.scale);
                           jw.kv("nodes", a.nodes);
                           jw.kv("block", static_cast<std::uint64_t>(a.block));
                           jw.kv("reps", static_cast<std::uint64_t>(reps));
                         },
                         rows);
}

}  // namespace fgdsm::bench
