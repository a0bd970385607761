// Host-side microbenchmarks (google-benchmark) for the simulator's own
// machinery: event engine throughput, section algebra, access-set analysis
// and plan construction. These gate the wall-clock cost of full-scale
// experiment runs.
#include <benchmark/benchmark.h>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace fgdsm {
namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) e.schedule(e.now() + 10, chain);
    };
    e.schedule(0, chain);
    e.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_TaskChargeYield(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    e.set_lookahead(100);
    sim::Task a(e, "a", [](sim::Task& t) {
      for (int i = 0; i < 200; ++i) t.charge(1000);
    });
    sim::Task b(e, "b", [](sim::Task& t) {
      for (int i = 0; i < 200; ++i) t.charge(1000);
    });
    a.start(0);
    b.start(0);
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_TaskChargeYield);

void BM_SectionSubtract(benchmark::State& state) {
  const hpf::ConcreteSection owned{{{0, 2047, 1}, {256, 511, 1}}};
  const hpf::ConcreteSection read{{{1, 2046, 1}, {255, 512, 1}}};
  for (auto _ : state) {
    auto r = hpf::ConcreteSet(read).subtract(owned);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SectionSubtract);

hpf::Program bench_prog() {
  hpf::Program prog;
  const hpf::AffineExpr N = hpf::AffineExpr::sym("n");
  const hpf::AffineExpr I = hpf::AffineExpr::sym("i"),
                        J = hpf::AffineExpr::sym("j");
  prog.arrays.push_back({"u", {N, N}, hpf::DistKind::kBlock});
  prog.sizes.set("n", 2048);
  hpf::ParallelLoop loop;
  loop.dist = hpf::LoopVar{"j", hpf::AffineExpr(1), N - 2};
  loop.free.push_back(hpf::LoopVar{"i", hpf::AffineExpr(1), N - 2});
  loop.home_array = std::string("u");  // GCC 12 -Wrestrict false positive
  loop.home_sub = J;
  loop.reads = {{"u", {I, J - 1}}, {"u", {I, J + 1}}};
  loop.writes = {{"u", {I, J}}};
  prog.phases.push_back(hpf::Phase::make(std::move(loop)));
  return prog;
}

void BM_AnalyzeTransfers(benchmark::State& state) {
  const hpf::Program prog = bench_prog();
  hpf::Bindings b = prog.sizes;
  b.set(hpf::kSymNProcs, 8);
  b.set(hpf::kSymProc, 0);
  for (auto _ : state) {
    auto t = hpf::analyze_transfers(*prog.phases[0].loop, prog, b, 8);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_AnalyzeTransfers);

void BM_BuildCommPlan(benchmark::State& state) {
  const hpf::Program prog = bench_prog();
  hpf::Bindings b = prog.sizes;
  b.set(hpf::kSymNProcs, 8);
  b.set(hpf::kSymProc, 0);
  core::LayoutMap layouts;
  layouts["u"] = hpf::ArrayLayout{"u", 0, {2048, 2048}, 8};
  for (auto _ : state) {
    auto p = core::build_comm_plan(*prog.phases[0].loop, prog, b, layouts,
                                   8, 3, 128);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_BuildCommPlan);

}  // namespace
}  // namespace fgdsm

BENCHMARK_MAIN();
