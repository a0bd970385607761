// Equivalence of the per-node communication-plan view (core::PlanCache)
// with fresh analysis: a cached CommPlan must equal a freshly built one in
// every schedule, count, and flag; the cache key must miss exactly when a
// referenced symbol changes; and the executor must produce bit-identical
// runs with the cache on or off while counting hits in util::RunStats.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/plan.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_store.h"
#include "src/exec/executor.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {
namespace {

// Collect every ParallelLoop in the program (descending into time loops)
// and bind each time-loop counter to 0 so loop structure is evaluable.
void collect_loops(const std::vector<hpf::Phase>& phases,
                   std::vector<const hpf::ParallelLoop*>& out,
                   hpf::Bindings& b) {
  for (const auto& p : phases) {
    switch (p.kind) {
      case hpf::Phase::Kind::kParallelLoop:
        out.push_back(p.loop.get());
        break;
      case hpf::Phase::Kind::kTimeLoop:
        b.set(p.time->counter, 0);
        collect_loops(p.time->phases, out, b);
        break;
      case hpf::Phase::Kind::kScalar:
        break;
    }
  }
}

// Standalone layouts with the same packing rule the executor uses
// (block-aligned consecutive allocations); any consistent bases work as
// long as cache and fresh paths share them.
LayoutMap make_layouts(const hpf::Program& prog, const hpf::Bindings& b,
                       std::size_t block) {
  LayoutMap m;
  hpf::GAddr base = 0;
  for (const auto& a : prog.arrays) {
    hpf::ArrayLayout lay;
    lay.name = a.name;
    for (const auto& e : a.extents) lay.extents.push_back(e.eval(b));
    lay.elem = 8;
    lay.base = base;
    m[a.name] = lay;
    base += ((lay.bytes() + block - 1) / block) * block;
  }
  return m;
}

// The shared cluster-level entry a view references (the executor gets it
// from its run's PlanStore; these tests build it directly).
std::shared_ptr<const ClusterPlan> share(std::vector<hpf::Transfer> transfers,
                                         const LayoutMap& layouts, int np,
                                         bool align = true) {
  return std::make_shared<const ClusterPlan>(std::move(transfers), layouts,
                                             np, 128, align);
}

hpf::Bindings base_bindings(const hpf::Program& prog, int np) {
  hpf::Bindings b = prog.sizes;
  b.set(hpf::kSymNProcs, np);
  b.set(hpf::kSymProc, 0);
  return b;
}

TEST(PlanCache, CachedPlanEqualsFreshBuild) {
  constexpr int kNp = 4;
  constexpr std::size_t kBlock = 128;
  for (const hpf::Program& prog :
       {apps::jacobi(96, 4), apps::pde(48, 2), apps::grav(32, 2)}) {
    hpf::Bindings b = base_bindings(prog, kNp);
    std::vector<const hpf::ParallelLoop*> loops;
    collect_loops(prog.phases, loops, b);
    ASSERT_FALSE(loops.empty()) << prog.name;
    const LayoutMap layouts = make_layouts(prog, b, kBlock);

    for (bool align : {true, false}) {
      for (int me = 0; me < kNp; ++me) {
        PlanCache cache;
        for (const hpf::ParallelLoop* loop : loops) {
          // First visit must miss; populate exactly as the executor does.
          ASSERT_EQ(cache.lookup(*loop, prog, b), nullptr)
              << prog.name << "/" << loop->name;
          auto transfers = hpf::analyze_transfers(*loop, prog, b, kNp);
          CommPlan fresh =
              plan_from_transfers(transfers, layouts, me, kBlock, align);
          cache.insert(*loop, prog, b,
                       std::make_shared<const ClusterPlan>(
                           transfers, layouts, kNp, kBlock, align),
                       fresh);

          // Second visit: hit, and the cached plan is structurally equal to
          // a from-scratch build_comm_plan (schedules, counts, flags — the
          // full CommPlan operator==).
          const PlanCache::Entry* e = cache.lookup(*loop, prog, b);
          ASSERT_NE(e, nullptr) << prog.name << "/" << loop->name;
          EXPECT_EQ(e->plan, fresh) << prog.name << "/" << loop->name;
          EXPECT_EQ(e->plan, build_comm_plan(*loop, prog, b, layouts, kNp, me,
                                             kBlock, align))
              << prog.name << "/" << loop->name << " me=" << me
              << " align=" << align;
          EXPECT_EQ(e->shared->transfers().size(), transfers.size());
        }
        EXPECT_EQ(cache.misses(), loops.size());
        EXPECT_EQ(cache.hits(), loops.size());
      }
    }
  }
}

TEST(PlanCache, KeySymbolChangeMissesUnrelatedChangeHits) {
  constexpr int kNp = 4;
  const hpf::Program prog = apps::jacobi(96, 4);
  hpf::Bindings b = base_bindings(prog, kNp);
  std::vector<const hpf::ParallelLoop*> loops;
  collect_loops(prog.phases, loops, b);
  const hpf::ParallelLoop& loop = *loops.front();

  const std::vector<std::string> keys = plan_key_symbols(loop, prog);
  ASSERT_FALSE(keys.empty());  // jacobi bounds/extents reference the size
  const std::string& key_sym = keys.front();

  const LayoutMap layouts = make_layouts(prog, b, 128);
  PlanCache cache;
  auto transfers = hpf::analyze_transfers(loop, prog, b, kNp);
  CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
  cache.insert(loop, prog, b, share(transfers, layouts, kNp), plan);
  ASSERT_NE(cache.lookup(loop, prog, b), nullptr);

  // Changing a symbol the loop never references must not invalidate.
  hpf::Bindings unrelated = b;
  unrelated.set("$some_unreferenced_symbol", 42);
  EXPECT_NE(cache.lookup(loop, prog, unrelated), nullptr);

  // Changing a referenced symbol must miss...
  hpf::Bindings changed = b;
  changed.set(key_sym, b.get(key_sym) + 8);
  EXPECT_EQ(cache.lookup(loop, prog, changed), nullptr);

  // ...and re-inserting under the new key serves the new value, not stale.
  auto transfers2 = hpf::analyze_transfers(loop, prog, changed, kNp);
  const LayoutMap layouts2 = make_layouts(prog, changed, 128);
  CommPlan plan2 = plan_from_transfers(transfers2, layouts2, 0, 128, true);
  cache.insert(loop, prog, changed, share(transfers2, layouts2, kNp), plan2);
  const PlanCache::Entry* e = cache.lookup(loop, prog, changed);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->plan, plan2);
  // The old key is gone (single-entry per loop): original bindings miss now.
  EXPECT_EQ(cache.lookup(loop, prog, b), nullptr);
}

TEST(PlanCache, GivesUpOnLoopsThatNeverHit) {
  // LU-style loops key on the time counter and miss every visit; after
  // kGiveUpAfter consecutive misses the cache abandons the loop (frees the
  // entry, stops storing) but keeps counting misses.
  constexpr int kNp = 4;
  const hpf::Program prog = apps::jacobi(96, 4);
  hpf::Bindings b = base_bindings(prog, kNp);
  std::vector<const hpf::ParallelLoop*> loops;
  collect_loops(prog.phases, loops, b);
  const hpf::ParallelLoop& loop = *loops.front();
  const std::string key_sym = plan_key_symbols(loop, prog).front();
  const LayoutMap layouts = make_layouts(prog, b, 128);

  PlanCache cache;
  hpf::Bindings cur = b;
  for (int visit = 0; visit < PlanCache::kGiveUpAfter; ++visit) {
    cur.set(key_sym, b.get(key_sym) + visit);  // new key: always a miss
    ASSERT_EQ(cache.lookup(loop, prog, cur), nullptr);
    if (cache.should_store(loop)) {
      auto transfers = hpf::analyze_transfers(loop, prog, cur, kNp);
      CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
      cache.insert(loop, prog, cur, share(std::move(transfers), layouts, kNp),
                   std::move(plan));
    }
  }
  EXPECT_FALSE(cache.should_store(loop));
  // Even a key that was stored earlier no longer hits: the slot is dead.
  EXPECT_EQ(cache.lookup(loop, prog, cur), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(),
            static_cast<std::uint64_t>(PlanCache::kGiveUpAfter) + 1);
  // Other loops are unaffected.
  EXPECT_TRUE(cache.should_store(*loops.back()));
}

// The caller-supplied extra key (the inspector's index-array write
// versions) participates in the cache key: same extra hits, different
// extra misses, and a lookup with no extra does not alias an entry stored
// with one.
TEST(PlanCache, ExtraKeyParticipatesInKey) {
  constexpr int kNp = 4;
  const hpf::Program prog = apps::jacobi(96, 4);
  hpf::Bindings b = base_bindings(prog, kNp);
  std::vector<const hpf::ParallelLoop*> loops;
  collect_loops(prog.phases, loops, b);
  const hpf::ParallelLoop& loop = *loops.front();
  const LayoutMap layouts = make_layouts(prog, b, 128);

  PlanCache cache;
  auto transfers = hpf::analyze_transfers(loop, prog, b, kNp);
  CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
  cache.insert(loop, prog, b, share(transfers, layouts, kNp), plan,
               /*extra_key=*/{7});

  const PlanCache::Entry* e = cache.lookup(loop, prog, b, {7});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->plan, plan);
  EXPECT_EQ(cache.lookup(loop, prog, b, {8}), nullptr);   // version bumped
  EXPECT_EQ(cache.lookup(loop, prog, b, {}), nullptr);    // no extra at all
  EXPECT_EQ(cache.lookup(loop, prog, b, {7, 7}), nullptr);  // extra length
  // The stored entry is intact after all those misses.
  ASSERT_NE(cache.lookup(loop, prog, b, {7}), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
}

// The abandonment threshold is configurable (--plan-cache-misses=N): with
// give_up_after(2), two consecutive misses kill the slot; non-positive
// values clamp to 1.
TEST(PlanCache, GiveUpThresholdIsConfigurable) {
  constexpr int kNp = 4;
  const hpf::Program prog = apps::jacobi(96, 4);
  hpf::Bindings b = base_bindings(prog, kNp);
  std::vector<const hpf::ParallelLoop*> loops;
  collect_loops(prog.phases, loops, b);
  const hpf::ParallelLoop& loop = *loops.front();
  const LayoutMap layouts = make_layouts(prog, b, 128);
  auto transfers = hpf::analyze_transfers(loop, prog, b, kNp);
  const CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
  const auto shared = share(transfers, layouts, kNp);

  {
    PlanCache cache;
    cache.set_give_up_after(2);
    EXPECT_EQ(cache.give_up_after(), 2);
    // Drive misses by bumping the extra key each visit (the inspector's
    // index-array version changing every timestep).
    for (std::int64_t v = 0; v < 2; ++v) {
      ASSERT_EQ(cache.lookup(loop, prog, b, {v}), nullptr);
      if (cache.should_store(loop))
        cache.insert(loop, prog, b, shared, plan, {v});
    }
    EXPECT_FALSE(cache.should_store(loop));
    // The slot is dead: even the most recently stored key misses.
    EXPECT_EQ(cache.lookup(loop, prog, b, {1}), nullptr);
    EXPECT_EQ(cache.hits(), 0u);
    // A hit before the streak completes resets it — fresh cache, default
    // kGiveUpAfter would be 8, but 2 still allows hit-miss-hit patterns.
    PlanCache c2;
    c2.set_give_up_after(2);
    c2.insert(loop, prog, b, shared, plan, {0});
    ASSERT_EQ(c2.lookup(loop, prog, b, {1}), nullptr);  // one miss
    ASSERT_NE(c2.lookup(loop, prog, b, {0}), nullptr);  // hit resets streak
    ASSERT_EQ(c2.lookup(loop, prog, b, {1}), nullptr);  // one miss again
    EXPECT_TRUE(c2.should_store(loop));                 // still alive
  }
  {
    PlanCache cache;
    cache.set_give_up_after(0);
    EXPECT_EQ(cache.give_up_after(), 1);  // clamps: 0 would never store
    cache.set_give_up_after(-3);
    EXPECT_EQ(cache.give_up_after(), 1);
    ASSERT_EQ(cache.lookup(loop, prog, b, {0}), nullptr);
    EXPECT_FALSE(cache.should_store(loop));  // one miss is the limit
  }
}

// Executor integration: with the cache enabled, iterative apps serve loop
// visits from cache (hits counted in RunStats) and every simulated
// observable is bit-identical to a cache-disabled run.
TEST(PlanCache, ExecutorRunsIdenticalWithAndWithoutCache) {
  for (const hpf::Program& prog : {apps::jacobi(96, 12), apps::pde(48, 6)}) {
    for (const core::Options& base :
         {core::shmem_opt_full(), core::shmem_opt_pre(),
          core::msg_passing()}) {
      exec::RunConfig on;
      on.cluster.nnodes = 4;
      on.opt = base;
      on.opt.plan_cache = true;
      exec::RunConfig off = on;
      off.opt.plan_cache = false;

      const exec::RunResult a = exec::run(prog, on);
      const exec::RunResult b = exec::run(prog, off);
      const std::string label = prog.name + "/" + base.label();

      EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns) << label;
      EXPECT_EQ(a.scalars, b.scalars) << label;
      for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
        EXPECT_EQ(a.stats.node[i].messages_sent, b.stats.node[i].messages_sent)
            << label << " node " << i;
        EXPECT_EQ(a.stats.node[i].bytes_sent, b.stats.node[i].bytes_sent)
            << label << " node " << i;
        EXPECT_EQ(a.stats.node[i].total_misses(),
                  b.stats.node[i].total_misses())
            << label << " node " << i;
        EXPECT_EQ(a.stats.node[i].ccc_runtime_calls,
                  b.stats.node[i].ccc_runtime_calls)
            << label << " node " << i;
        EXPECT_EQ(a.stats.node[i].ccc_calls_elided,
                  b.stats.node[i].ccc_calls_elided)
            << label << " node " << i;
      }

      // Iterative apps revisit the same loops each timestep: the cache must
      // actually engage. Hits only exist on the cached run.
      EXPECT_GT(a.stats.totals().plan_cache_hits, 0u) << label;
      EXPECT_GT(a.stats.totals().plan_cache_hits,
                a.stats.totals().plan_cache_misses)
          << label;
      EXPECT_EQ(b.stats.totals().plan_cache_hits, 0u) << label;
      EXPECT_EQ(b.stats.totals().plan_cache_misses, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace fgdsm::core
