// The paper's §6 evaluation as declarative sweeps: apps x named
// configurations (driver.h), plus the columns each table renders.
//
//   fig3    speedups vs the uniprocessor. Expected (paper §6): optimization
//           improves every app, single-cpu configurations gain more,
//           message passing wins only on lu, grav improves least.
//   table3  compute and communication time, miss counts, and their
//           reduction under optimization. Expected: miss reductions of
//           >= ~65% except grav (~40%, 129-point arrays vs 128-byte
//           blocks); communication time falls less than misses do.
//   fig4    execution time of each optimization level as a fraction of the
//           unoptimized run (dual-cpu). Expected: base > +bulk >
//           +bulk+rtelim, bulk transfer mattering more; +pre is this
//           reproduction's extension (§4.3/§7 future work).
//   paper   Figure 3 and Table 3 from one set of runs, one batch per app,
//           with partial tables streamed after every app.
//   table2  the application suite: sizes and memory at the paper's sizes
//           (our arrays are REAL*8 throughout, see DESIGN.md).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <vector>

#include "bench/driver.h"
#include "src/apps/apps.h"
#include "src/hpf/analysis.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace fgdsm::bench {
namespace {

// One app's results, addressed by configuration name.
using Row = std::function<const exec::RunResult&(const char* config)>;

struct Column {
  const char* header;
  std::function<std::string(const Row&)> cell;
};

struct Grid {
  const char* title;
  bool block_in_title;
  bool stream;  // one batch per app, tables printed after every app
  std::vector<const char*> configs;
  std::vector<std::vector<Column>> tables;
  std::vector<std::pair<const char*, const char*>> per_loop;  // config, label
};

Column speedup_col(const char* header, const char* config) {
  return {header, [config](const Row& r) {
            return util::Table::cell(speedup(r("serial"), r(config)));
          }};
}

const std::vector<Column> kSpeedups = {
    speedup_col("sm-unopt 1cpu", "u1"), speedup_col("sm-opt 1cpu", "o1"),
    speedup_col("sm-unopt 2cpu", "u2"), speedup_col("sm-opt 2cpu", "o2"),
    speedup_col("msg-passing", "mp")};

double comm_s(const Row& r, const char* config) {
  return r(config).stats.avg_comm_ns_per_node() / 1e9;
}

Column comm_col(const char* header, const char* unopt) {
  return {header, [unopt](const Row& r) {
            return util::Table::cell(comm_s(r, unopt), 2);
          }};
}

Column comm_red_col(const char* header, const char* unopt, const char* opt) {
  return {header, [unopt, opt](const Row& r) {
            return util::Table::percent(
                util::percent_reduction(comm_s(r, unopt), comm_s(r, opt)));
          }};
}

const std::vector<Column> kTable3 = {
    {"compute (s)",
     [](const Row& r) {
       return util::Table::cell(
           r("u2").stats.avg_compute_ns_per_node() / 1e9, 1);
     }},
    comm_col("comm 2cpu (s)", "u2"),
    comm_red_col("% red 2cpu", "u2", "o2"),
    comm_col("comm 1cpu (s)", "u1"),
    comm_red_col("% red 1cpu", "u1", "o1"),
    {"misses/node (K)",
     [](const Row& r) {
       return util::Table::cell(r("u2").stats.avg_misses_per_node() / 1e3, 1);
     }},
    {"% red misses", [](const Row& r) {
       return util::Table::percent(
           util::percent_reduction(r("u2").stats.avg_misses_per_node(),
                                   r("o2").stats.avg_misses_per_node()));
     }}};

std::vector<Column> fig3_columns() {
  std::vector<Column> c = kSpeedups;
  c.push_back({"opt gain 2cpu", [](const Row& r) {
                 const double u2 =
                     static_cast<double>(r("u2").stats.elapsed_ns);
                 const double o2 =
                     static_cast<double>(r("o2").stats.elapsed_ns);
                 return util::Table::percent(100.0 * (u2 - o2) / u2);
               }});
  return c;
}

Column fraction_col(const char* header, const char* level) {
  return {header, [level](const Row& r) {
            return util::Table::cell(
                static_cast<double>(r(level).stats.elapsed_ns) /
                static_cast<double>(r("unopt").stats.elapsed_ns));
          }};
}

const std::vector<Column> kFig4 = {
    {"unopt", [](const Row&) { return std::string("1.00"); }},
    fraction_col("base opts", "base"), fraction_col("+bulk", "bulk"),
    fraction_col("+bulk+rtelim", "full"), fraction_col("+pre (ext.)", "pre")};

int run_grid(const Grid& g, const Args& a) {
  std::printf("%s (scale=%.2f, %d nodes", g.title, a.scale, a.nodes);
  if (g.block_in_title) std::printf(", %zuB blocks", a.block);
  std::printf(")\n");

  std::vector<std::pair<std::string, hpf::Program>> progs;
  for (const auto& app : apps::registry())
    if (a.selected(app.name)) progs.emplace_back(app.name, app.scaled(a.scale));

  std::vector<util::Table> tables;
  for (const auto& cols : g.tables) {
    std::vector<std::string> headers = {"app"};
    for (const Column& c : cols) headers.push_back(c.header);
    tables.emplace_back(headers);
  }
  JsonReport jr(a);
  // All apps in one batch, or (streaming) one batch per app.
  const std::size_t per_batch = g.stream ? 1 : progs.size();
  for (std::size_t first = 0; first < progs.size(); first += per_batch) {
    const std::size_t last = std::min(progs.size(), first + per_batch);
    RunMatrix m(a, /*traced=*/first == 0);
    for (std::size_t i = first; i < last; ++i)
      for (const char* config : g.configs)
        m.add(progs[i].first, config, progs[i].second, config);
    if (g.stream)
      std::fprintf(stderr, "[%s] %zu configurations, %d jobs...\n",
                   progs[first].first.c_str(), g.configs.size(), a.jobs);
    m.run();
    for (std::size_t i = first; i < last; ++i) {
      const std::string& app = progs[i].first;
      const Row row = [&](const char* config) -> const exec::RunResult& {
        return m.at(app, config);
      };
      for (std::size_t t = 0; t < tables.size(); ++t) {
        std::vector<std::string> cells = {app};
        for (const Column& c : g.tables[t]) cells.push_back(c.cell(row));
        tables[t].add_row(cells);
      }
    }
    if (g.stream) {
      std::printf("--- after %s ---\n", progs[first].first.c_str());
      for (const util::Table& t : tables) t.print(std::cout);
      if (a.per_loop)
        for (const auto& [config, label] : g.per_loop)
          print_per_loop(progs[first].first + " " + label,
                         m.at(progs[first].first, config));
      std::fflush(stdout);
    }
    m.export_to(jr);
  }
  if (!g.stream)
    for (const util::Table& t : tables) t.print(std::cout);
  jr.write();
  return 0;
}

}  // namespace

int run_fig3(const Args& a) {
  return run_grid({"Figure 3: speedups vs uniprocessor", true, false,
                   {"serial", "u1", "o1", "u2", "o2", "mp"},
                   {fig3_columns()}, {}},
                  a);
}

int run_table3(const Args& a) {
  return run_grid(
      {"Table 3: communication time and miss-count reductions",
       false, false, {"u2", "o2", "u1", "o1"}, {kTable3}, {}},
      a);
}

int run_fig4(const Args& a) {
  return run_grid({"Figure 4: normalized execution time, dual-cpu",
                   false, false, {"unopt", "base", "bulk", "full", "pre"},
                   {kFig4}, {}},
                  a);
}

int run_paper(const Args& a) {
  return run_grid({"Figure 3 + Table 3", true, true,
                   {"serial", "u2", "o2", "u1", "o1", "mp"},
                   {kSpeedups, kTable3},
                   {{"u2", "sm-unopt 2cpu"}, {"o2", "sm-opt 2cpu"}}},
                  a);
}

int run_table2(const Args& a) {
  JsonReport jr(a);
  util::Table t({"Application", "Problem Size", "Paper Mem (MB)",
                 "Our Mem (MB)", "Arrays", "Distribution"});
  for (const auto& app : apps::registry()) {
    const hpf::Program prog = app.paper();
    hpf::Bindings b = prog.sizes;
    b.set(hpf::kSymNProcs, 8);
    b.set(hpf::kSymProc, 0);
    double bytes = 0;
    std::string dists;
    for (const auto& arr : prog.arrays) {
      double e = 8;
      for (const auto& x : arr.extents) e *= static_cast<double>(x.eval(b));
      bytes += e;
      if (dists.empty()) dists = to_string(arr.dist);
      else if (dists.find(to_string(arr.dist)) == std::string::npos)
        dists += std::string("+") + to_string(arr.dist);
    }
    t.add_row({app.name, app.paper_problem,
               util::Table::cell(app.paper_memory_mb, 1),
               util::Table::cell(bytes / 1e6, 1),
               util::Table::cell(static_cast<std::int64_t>(prog.arrays.size())),
               dists});
    jr.add_metric(app.name + "_mem_mb", bytes / 1e6);
  }
  std::printf("Table 2: application suite\n");
  t.print(std::cout);
  jr.write();
  return 0;
}

}  // namespace fgdsm::bench
