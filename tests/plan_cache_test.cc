// The run's plan cache as one node sees it — the store's visit keys
// (core::PlanStore::key_into) and the node's per-loop records
// (core::PlanRecord) — against fresh analysis: a cached CommPlan must equal
// a freshly built one in every schedule, count, and flag; the key must miss
// exactly when a referenced symbol changes; and the executor must produce
// bit-identical runs with the cache on or off while counting hits in
// util::RunStats.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/plan.h"
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

// The shared cluster-level entry a record holds (the executor gets it from
// its run's PlanStore; these tests build it directly).
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

// One node's plan records, looked up and filled as the executor does: the
// visit's key from the store, a hit exactly when the loop's record holds
// that key.
class NodePlans {
 public:
  explicit NodePlans(const hpf::Program& prog) : store_(prog) {}

  // The record of `loop` if this visit's key repeats the last stored one;
  // nullptr on a miss (including the first visit).
  const PlanRecord* lookup(const hpf::ParallelLoop& loop,
                           const hpf::Bindings& b,
                           const PlanStore::Key& extra = {}) {
    store_.key_into(loop, b, extra, &probe_);
    const PlanRecord& rec = records_[&loop];
    if (rec.hit(probe_)) {
      ++hits_;
      return &rec;
    }
    ++misses_;
    return nullptr;
  }

  // Replaces the record of `loop` with the visit keyed by `b` and `extra`.
  void insert(const hpf::ParallelLoop& loop, const hpf::Bindings& b,
              std::shared_ptr<const ClusterPlan> shared, CommPlan plan,
              const PlanStore::Key& extra = {}) {
    PlanRecord& rec = records_[&loop];
    store_.key_into(loop, b, extra, &rec.key);
    rec.shared = std::move(shared);
    rec.plan = std::move(plan);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  PlanStore store_;
  std::map<const hpf::ParallelLoop*, PlanRecord> records_;
  PlanStore::Key probe_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

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
        NodePlans cache(prog);
        for (const hpf::ParallelLoop* loop : loops) {
          // First visit must miss; populate exactly as the executor does.
          ASSERT_EQ(cache.lookup(*loop, b), nullptr)
              << prog.name << "/" << loop->name;
          auto transfers = hpf::analyze_transfers(*loop, prog, b, kNp);
          CommPlan fresh =
              plan_from_transfers(transfers, layouts, me, kBlock, align);
          cache.insert(*loop, b,
                       std::make_shared<const ClusterPlan>(
                           transfers, layouts, kNp, kBlock, align),
                       fresh);

          // Second visit: hit, and the cached plan is structurally equal to
          // a from-scratch build_comm_plan (schedules, counts, flags — the
          // full CommPlan operator==).
          const PlanRecord* e = cache.lookup(*loop, b);
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
  NodePlans cache(prog);
  auto transfers = hpf::analyze_transfers(loop, prog, b, kNp);
  CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
  cache.insert(loop, b, share(transfers, layouts, kNp), plan);
  ASSERT_NE(cache.lookup(loop, b), nullptr);

  // Changing a symbol the loop never references must not invalidate.
  hpf::Bindings unrelated = b;
  unrelated.set("$some_unreferenced_symbol", 42);
  EXPECT_NE(cache.lookup(loop, unrelated), nullptr);

  // Changing a referenced symbol must miss...
  hpf::Bindings changed = b;
  changed.set(key_sym, b.get(key_sym) + 8);
  EXPECT_EQ(cache.lookup(loop, changed), nullptr);

  // ...and re-inserting under the new key serves the new value, not stale.
  auto transfers2 = hpf::analyze_transfers(loop, prog, changed, kNp);
  const LayoutMap layouts2 = make_layouts(prog, changed, 128);
  CommPlan plan2 = plan_from_transfers(transfers2, layouts2, 0, 128, true);
  cache.insert(loop, changed, share(transfers2, layouts2, kNp), plan2);
  const PlanRecord* e = cache.lookup(loop, changed);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->plan, plan2);
  // The old key is gone (single-entry per loop): original bindings miss now.
  EXPECT_EQ(cache.lookup(loop, b), nullptr);
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

  NodePlans cache(prog);
  auto transfers = hpf::analyze_transfers(loop, prog, b, kNp);
  CommPlan plan = plan_from_transfers(transfers, layouts, 0, 128, true);
  cache.insert(loop, b, share(transfers, layouts, kNp), plan,
               /*extra=*/{7});

  const PlanRecord* e = cache.lookup(loop, b, {7});
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->plan, plan);
  EXPECT_EQ(cache.lookup(loop, b, {8}), nullptr);   // version bumped
  EXPECT_EQ(cache.lookup(loop, b, {}), nullptr);    // no extra at all
  EXPECT_EQ(cache.lookup(loop, b, {7, 7}), nullptr);  // extra length
  // The stored entry is intact after all those misses.
  ASSERT_NE(cache.lookup(loop, b, {7}), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
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
