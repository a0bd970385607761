// Design studies beyond the paper's tables.
//
//   ablation  1. block-size sweep (32/64/128 B) on jacobi: smaller blocks
//                shrink the edge effect but raise per-block protocol costs;
//             2. bulk-transfer payload sweep on pde: the value of coalescing;
//             3. grav's edge effect: 129-point vs 128-point arrays at 128 B
//                blocks (the paper's §6 explanation of grav's miss
//                reduction);
//             4. the comm-plan cache: host wall-clock of one optimized run
//                per app re-analyzing every loop visit vs served from the
//                cache, plus its hit rate. Runs sequentially because it
//                measures host time.
//   irreg     the inspector-executor runtime on spmv (--pattern=band|hash):
//             serial, sm-unopt (every gather faults), sm-opt (cached
//             schedule over compiler-directed coherence), sm-opt-nocache
//             (re-inspect every visit: the no-amortization endpoint) and
//             msg-passing. The headline is msg_reduction_pct, the share of
//             the default protocol's messages the schedule eliminates.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/driver.h"
#include "src/apps/apps.h"
#include "src/util/assert.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace fgdsm::bench {

int run_ablation(const Args& a) {
  JsonReport jr(a);
  const core::Options unopt = core::shmem_unopt();
  const core::Options opt = core::shmem_opt_full();

  std::printf("Ablation 1: block-size sweep (jacobi, scale=%.2f, %d "
              "nodes, sm-opt+bulk+rtelim)\n",
              a.scale, a.nodes);
  {
    util::Table t({"block", "elapsed (ms)", "misses/node",
                   "% misses removed vs unopt"});
    const hpf::Program prog = app_named("jacobi").scaled(a.scale);
    RunMatrix m(a, /*traced=*/true);
    for (std::size_t block : {32u, 64u, 128u}) {
      const std::string row = std::to_string(block);
      m.add(row, "unopt", make_spec(a, prog, unopt, a.nodes, true, block));
      m.add(row, "opt", make_spec(a, prog, opt, a.nodes, true, block));
    }
    m.run();
    for (std::size_t block : {32u, 64u, 128u}) {
      const std::string row = std::to_string(block);
      const auto& u = m.at(row, "unopt");
      const auto& o = m.at(row, "opt");
      t.add_row({util::Table::cell(static_cast<std::int64_t>(block)),
                 util::Table::cell(o.stats.elapsed_ns / 1e6, 1),
                 util::Table::cell(o.stats.avg_misses_per_node(), 0),
                 util::Table::percent(util::percent_reduction(
                     u.stats.avg_misses_per_node(),
                     o.stats.avg_misses_per_node()))});
      jr.add_run("jacobi", "block" + row + "/unopt", u);
      jr.add_run("jacobi", "block" + row + "/opt", o);
    }
    t.print(std::cout);
    if (a.per_loop) print_per_loop("jacobi opt 128B", m.at("128", "opt"));
  }

  std::printf("\nAblation 2: bulk-transfer payload sweep (pde)\n");
  {
    util::Table t({"max payload", "elapsed (ms)", "ccc msgs/node"});
    const hpf::Program prog = app_named("pde").scaled(a.scale);
    RunMatrix m(a);
    for (std::size_t payload : {128u, 512u, 2048u, 4096u, 16384u}) {
      core::Options o = opt;
      o.max_payload = payload;
      m.add(std::to_string(payload), "run",
            make_spec(a, prog, o, a.nodes, true, a.block));
    }
    m.run();
    for (std::size_t payload : {128u, 512u, 2048u, 4096u, 16384u}) {
      const auto& r = m.at(std::to_string(payload), "run");
      jr.add_run("pde", "payload" + std::to_string(payload), r);
      t.add_row({util::Table::cell(static_cast<std::int64_t>(payload)),
                 util::Table::cell(r.stats.elapsed_ns / 1e6, 1),
                 util::Table::cell(
                     static_cast<double>(r.stats.totals().ccc_messages_sent) /
                         a.nodes,
                     0)});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation 3: the grav edge effect (128B blocks)\n");
  {
    util::Table t({"grid", "% misses removed", "note"});
    // Arrays are (g+1)^2: 128 vs 129 points per column.
    const hpf::Program g127 = apps::grav(127, 2);
    const hpf::Program g128 = apps::grav(128, 2);
    RunMatrix m(a);
    for (const hpf::Program* p : {&g127, &g128}) {
      const std::string row = p == &g127 ? "127" : "128";
      m.add(row, "unopt", make_spec(a, *p, unopt, a.nodes, true, 128));
      m.add(row, "opt", make_spec(a, *p, opt, a.nodes, true, 128));
    }
    m.run();
    for (std::int64_t g : {127, 128}) {
      const std::string row = std::to_string(g);
      jr.add_run("grav", "grid" + row + "/unopt", m.at(row, "unopt"));
      jr.add_run("grav", "grid" + row + "/opt", m.at(row, "opt"));
      t.add_row({util::Table::cell(g + 1) + "^2",
                 util::Table::percent(util::percent_reduction(
                     m.at(row, "unopt").stats.avg_misses_per_node(),
                     m.at(row, "opt").stats.avg_misses_per_node())),
                 g == 127 ? "columns block-aligned"
                          : "129-point columns: pronounced edges (paper)"});
    }
    t.print(std::cout);
  }

  std::printf("\nAblation 4: comm-plan cache (host wall-clock, "
              "sm-opt+bulk+rtelim, scale=%.2f, %d nodes)\n",
              a.scale, a.nodes);
  util::Table t({"app", "host ms (re-analyze)", "host ms (cached)", "saved",
                 "hit rate", "plan visits"});
  for (const auto& e : apps::registry()) {
    if (!a.selected(e.name)) continue;
    const hpf::Program prog = e.scaled(a.scale);
    // Untimed warmup, then best-of-3 per variant, interleaved: the min is
    // the run least disturbed by a shared machine.
    exec::ExperimentSpec spec = make_spec(a, prog, opt, a.nodes, true, a.block);
    (void)run_spec(spec);
    double ms[2] = {1e300, 1e300};
    exec::RunResult res[2];
    for (int rep = 0; rep < 3; ++rep) {
      for (int cached = 0; cached < 2; ++cached) {
        spec.config.opt.plan_cache = cached != 0;
        ms[cached] = std::min(
            ms[cached], 1e3 * measure("", {spec}, 1, &res[cached]).seconds);
      }
    }
    FGDSM_ASSERT(res[0].stats.elapsed_ns == res[1].stats.elapsed_ns);
    // Host wall-clock is not reproducible: only the simulated run goes to
    // JSON.
    jr.add_run(e.name, "opt-cached", res[1]);
    if (a.per_loop) print_per_loop(e.name + " opt-cached", res[1]);
    const auto tot = res[1].stats.totals();
    const double visits =
        static_cast<double>(tot.plan_cache_hits + tot.plan_cache_misses);
    t.add_row({e.name, util::Table::cell(ms[0], 1),
               util::Table::cell(ms[1], 1),
               util::Table::percent(util::percent_reduction(ms[0], ms[1])),
               util::Table::percent(
                   visits == 0 ? 0.0
                               : 100.0 *
                                     static_cast<double>(tot.plan_cache_hits) /
                                     visits),
               util::Table::cell(visits, 0)});
  }
  t.print(std::cout);
  jr.write();
  return 0;
}

int run_irreg(const Args& a) {
  const std::string pattern_name = a.flags.get("pattern", "band");
  require(pattern_name == "band" || pattern_name == "hash",
          "bad --pattern '" + pattern_name + "' (band|hash)");
  const std::int64_t n =
      std::max<std::int64_t>(512, static_cast<std::int64_t>(4096 * a.scale));
  const std::int64_t k = 8;
  const std::int64_t iters =
      std::max<std::int64_t>(4, static_cast<std::int64_t>(20 * a.scale));
  const hpf::Program prog =
      apps::spmv(n, k, iters, pattern_name == "hash" ? 1 : 0);

  std::printf(
      "Inspector-executor irregular gather (spmv: n=%lld k=%lld iters=%lld "
      "pattern=%s, %d nodes, %zuB blocks)\n",
      static_cast<long long>(n), static_cast<long long>(k),
      static_cast<long long>(iters), pattern_name.c_str(), a.nodes, a.block);

  RunMatrix m(a, /*traced=*/true);
  m.add("spmv", "serial", prog, "serial");
  m.add("spmv", "sm-unopt", prog, "u2");
  m.add("spmv", "sm-opt", prog, "o2");
  exec::ExperimentSpec nocache = make_spec(a, prog, "o2");
  nocache.config.opt.plan_cache = false;
  m.add("spmv", "sm-opt-nocache", std::move(nocache));
  m.add("spmv", "msg-passing", prog, "mp");
  m.run();

  const auto& serial = m.at("spmv", "serial");
  util::Table t({"config", "elapsed", "speedup", "messages", "sched h/m",
                 "inspections"});
  for (const char* cfg :
       {"serial", "sm-unopt", "sm-opt", "sm-opt-nocache", "msg-passing"}) {
    const auto& r = m.at("spmv", cfg);
    const util::NodeStats tot = r.stats.totals();
    t.add_row({cfg, util::format_ns(r.stats.elapsed_ns),
               util::Table::cell(speedup(serial, r)),
               util::Table::cell(tot.messages_sent),
               util::Table::cell(tot.sched_cache_hits) + "/" +
                   util::Table::cell(tot.sched_cache_misses),
               util::Table::cell(tot.irreg_inspections)});
  }
  t.print(std::cout);

  const auto& unopt = m.at("spmv", "sm-unopt");
  const auto& opt = m.at("spmv", "sm-opt");
  const double msg_red = util::percent_reduction(
      static_cast<double>(unopt.stats.totals().messages_sent),
      static_cast<double>(opt.stats.totals().messages_sent));
  const double reuse_gain = util::percent_reduction(
      static_cast<double>(m.at("spmv", "sm-opt-nocache").stats.elapsed_ns),
      static_cast<double>(opt.stats.elapsed_ns));
  std::printf("message reduction (sm-opt vs sm-unopt):      %5.1f%%\n",
              msg_red);
  std::printf("schedule-reuse elapsed gain (vs re-inspect): %5.1f%%\n",
              reuse_gain);
  if (a.per_loop) {
    print_per_loop("spmv sm-unopt", unopt);
    print_per_loop("spmv sm-opt", opt);
  }

  JsonReport jr(a);
  m.export_to(jr);
  jr.add_metric("msg_reduction_pct", msg_red);
  jr.add_metric("schedule_reuse_gain_pct", reuse_gain);
  jr.write();
  return 0;
}

}  // namespace fgdsm::bench
