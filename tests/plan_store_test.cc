// The run's cluster-level plan store (core::PlanStore) and its lowered
// entries (core::ClusterPlan): a key is computed once however many nodes ask
// for it; every node's slice equals the full per-node lowering
// (core::plan_from_transfers) for every loop of the suite, in shared-memory
// and message-passing form; entries no node's record holds are released; and
// concurrent lookups on one key are safe (the PlanStoreThreads tests run
// under ThreadSanitizer in scripts/ci.sh tsan — plain threads, no fibers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/plan.h"
#include "src/core/plan_store.h"
#include "src/exec/executor.h"
#include "src/hpf/analysis.h"
#include "src/hpf/distribution.h"
#include "src/hpf/ir.h"
#include "src/irreg/inspector.h"

namespace fgdsm::core {
namespace {

constexpr std::size_t kBlock = 128;

// Every ParallelLoop of the program with the bindings of its first visit
// (enclosing time-loop counters bound to `counter`).
struct Site {
  const hpf::ParallelLoop* loop;
  hpf::Bindings bind;
};
void collect(const std::vector<hpf::Phase>& phases, const hpf::Bindings& b,
             std::int64_t counter, std::vector<Site>* out) {
  for (const auto& ph : phases) {
    if (ph.kind == hpf::Phase::Kind::kParallelLoop) {
      out->push_back({ph.loop.get(), b});
    } else if (ph.kind == hpf::Phase::Kind::kTimeLoop) {
      hpf::Bindings inner = b;
      inner.set(ph.time->counter, counter);
      collect(ph.time->phases, inner, counter, out);
    }
  }
}

std::vector<Site> sites(const hpf::Program& prog, int np,
                        std::int64_t counter = 0) {
  hpf::Bindings b = prog.sizes;
  b.set(hpf::kSymNProcs, np);
  b.set(hpf::kSymProc, 0);
  std::vector<Site> out;
  collect(prog.phases, b, counter, &out);
  return out;
}

// Block-aligned consecutive allocations, like the executor's.
LayoutMap make_layouts(const hpf::Program& prog, const hpf::Bindings& b) {
  LayoutMap m;
  hpf::GAddr base = 0;
  for (const auto& a : prog.arrays) {
    hpf::ArrayLayout lay;
    lay.name = a.name;
    for (const auto& e : a.extents) lay.extents.push_back(e.eval(b));
    lay.elem = 8;
    lay.base = base;
    m[a.name] = lay;
    base += ((lay.bytes() + kBlock - 1) / kBlock) * kBlock;
  }
  return m;
}

// Deterministic pseudo-random need lists for a loop's gather arrays: a few
// sorted, disjoint intervals per node, some spanning several owners.
std::vector<std::vector<irreg::Need>> synthetic_needs(
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, int np, std::uint64_t seed) {
  const std::vector<std::string> canon = irreg::gather_arrays(loop, prog);
  std::uint64_t s = seed;
  const auto next = [&s] {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<irreg::Need>> out(static_cast<std::size_t>(np));
  for (auto& list : out) {
    for (std::size_t a = 0; a < canon.size(); ++a) {
      const std::int64_t n = hpf::array_extents(prog.array(canon[a]), b)[0];
      std::int64_t at = static_cast<std::int64_t>(next() % 7);
      while (at < n) {
        const std::int64_t len =
            1 + static_cast<std::int64_t>(next() % (n / 4 + 1));
        const std::int64_t hi = std::min(n - 1, at + len - 1);
        list.push_back({static_cast<std::int64_t>(a), at, hi});
        at = hi + 2 + static_cast<std::int64_t>(next() % (n / 3 + 1));
      }
    }
  }
  return out;
}

TEST(PlanStore, ComputesEachKeyOncePerCluster) {
  constexpr int kNp = 64;
  const hpf::Program prog = apps::jacobi(128, 2);
  const std::vector<Site> ss = sites(prog, kNp);
  const LayoutMap layouts = make_layouts(prog, ss.front().bind);
  const Site* comm = nullptr;  // the stencil sweep: it communicates
  for (const Site& s : ss)
    if (comm == nullptr &&
        !hpf::analyze_transfers(*s.loop, prog, s.bind, kNp).empty())
      comm = &s;
  ASSERT_NE(comm, nullptr);
  const hpf::ParallelLoop& loop = *comm->loop;

  PlanStore store(prog);
  std::vector<std::shared_ptr<const ClusterPlan>> held;
  for (int me = 0; me < kNp; ++me)
    held.push_back(store.acquire(loop, {128}, [&] {
      return ClusterPlan(hpf::analyze_transfers(loop, prog, comm->bind, kNp),
                         layouts, kNp, kBlock, true);
    }));
  EXPECT_EQ(store.computations(), 1u);
  for (const auto& p : held) EXPECT_EQ(p.get(), held.front().get());
  EXPECT_FALSE(held.front()->transfers().empty());

  // A different key, or the same key of another loop, is a new entry.
  const auto empty = [] { return ClusterPlan({}, {}, 1, kBlock, true); };
  store.acquire(loop, {129}, empty);
  const hpf::ParallelLoop& other =
      ss.front().loop == &loop ? *ss.back().loop : *ss.front().loop;
  store.acquire(other, {128}, empty);
  EXPECT_EQ(store.computations(), 3u);
}

// The sliced lowering must reproduce plan_from_transfers exactly — order of
// sends and flushes, normalized receive/writable ranges, counts, and the
// global flags — for every loop of the suite, block-aligned (shared memory)
// and exact-byte (message passing), at several cluster sizes.
TEST(PlanStore, SliceEqualsPlanFromTransfersAcrossSuite) {
  const std::vector<std::pair<std::string, hpf::Program>> progs = {
      {"jacobi", apps::jacobi(96, 2)},
      {"shallow", apps::shallow(65, 33, 2)},
      {"lu", apps::lu(96)},
      {"cg", apps::cg(48, 96, 2)},
      {"spmv", apps::spmv(4096, 8, 2, 0)},
  };
  for (const int np : {3, 8, 64}) {
    for (const auto& [name, prog] : progs) {
      // LU's loops key on the pivot: check an interior step too.
      for (const std::int64_t counter : {0, 5}) {
        for (const Site& s : sites(prog, np, counter)) {
          const LayoutMap layouts = make_layouts(prog, s.bind);
          std::vector<hpf::Transfer> transfers =
              hpf::analyze_transfers(*s.loop, prog, s.bind, np);
          if (irreg::has_indirect(*s.loop)) {
            auto g = irreg::needs_to_transfers(
                synthetic_needs(*s.loop, prog, s.bind, np, 11 + np), *s.loop,
                prog, s.bind, np);
            ASSERT_FALSE(g.empty()) << name;
            transfers.insert(transfers.end(), g.begin(), g.end());
          }
          for (const bool align : {true, false}) {
            const ClusterPlan cp(transfers, layouts, np, kBlock, align);
            for (int me = 0; me < np; ++me)
              ASSERT_EQ(cp.slice(me, layouts),
                        plan_from_transfers(transfers, layouts, me, kBlock,
                                            align))
                  << name << "/" << s.loop->name << " np=" << np
                  << " me=" << me << " align=" << align
                  << " counter=" << counter;
          }
        }
      }
    }
  }
}

// Bounded memory: an entry survives only while someone holds it or while it
// is its loop's latest key, so per-visit keys (LU's pivot) do not pile up.
TEST(PlanStore, ReleasesEntriesNoViewReferences) {
  const hpf::Program prog = apps::lu(64);
  const hpf::ParallelLoop& loop = *sites(prog, 4).front().loop;
  const auto empty = [] { return ClusterPlan({}, {}, 1, kBlock, true); };
  PlanStore store(prog);
  for (std::int64_t k = 0; k < 50; ++k) store.acquire(loop, {k}, empty);
  EXPECT_EQ(store.resident(), 1u);  // only the latest key
  EXPECT_EQ(store.computations(), 50u);

  // A held entry outlives newer keys; re-acquiring it does not recompute.
  const auto held = store.acquire(loop, {100}, empty);
  store.acquire(loop, {101}, empty);
  EXPECT_EQ(store.resident(), 2u);
  EXPECT_EQ(store.acquire(loop, {100}, empty).get(), held.get());
  EXPECT_EQ(store.computations(), 52u);
}

// Sharing one schedule per cluster is invisible to the simulation: with the
// plan store in use (--plan-cache=1) every app's run equals the
// re-analyze-per-node path in shared memory and message passing. The
// irregular app (spmv) matches in its answers only: the uncached path
// re-inspects every visit, which costs simulated time.
TEST(PlanStore, ExecutorMatchesPerNodeAnalysis) {
  const std::vector<hpf::Program> progs = {
      apps::jacobi(64, 3), apps::shallow(33, 17, 3), apps::lu(48),
      apps::cg(48, 96, 3), apps::spmv(192, 8, 3, 0)};
  for (const int np : {3, 8}) {
    for (const hpf::Program& prog : progs) {
      for (const Options& base : {shmem_opt_full(), msg_passing()}) {
        exec::RunConfig on;
        on.cluster.nnodes = np;
        on.opt = base;
        exec::RunConfig off = on;
        off.opt.plan_cache = false;
        const exec::RunResult a = exec::run(prog, on);
        const exec::RunResult b = exec::run(prog, off);
        const std::string label =
            prog.name + "/" + base.label() + " np=" + std::to_string(np);
        EXPECT_EQ(a.scalars, b.scalars) << label;
        if (irreg::has_indirect(prog)) continue;
        EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns) << label;
        for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
          EXPECT_EQ(a.stats.node[i].messages_sent,
                    b.stats.node[i].messages_sent)
              << label << " node " << i;
          EXPECT_EQ(a.stats.node[i].ccc_runtime_calls,
                    b.stats.node[i].ccc_runtime_calls)
              << label << " node " << i;
        }
      }
    }
  }
}

// Plain threads hammering one key: exactly one computation, and every
// caller sees the same published entry. Runs under TSan (ci.sh tsan).
TEST(PlanStoreThreads, ConcurrentAcquireComputesOnce) {
  const hpf::Program prog = apps::jacobi(32, 1);
  const hpf::ParallelLoop& loop = *sites(prog, 1).front().loop;
  PlanStore store(prog);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<const ClusterPlan*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto p = store.acquire(loop, {7}, [] {
        // Widen the race window: everyone else arrives mid-computation.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return ClusterPlan({}, {}, 1, kBlock, true, /*needs_digest=*/7);
      });
      seen[static_cast<std::size_t>(i)] = p.get();
      EXPECT_EQ(p->needs_digest(), 7u);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.computations(), 1u);
  for (const ClusterPlan* p : seen) EXPECT_EQ(p, seen.front());
}

// Many keys, taken and dropped concurrently: entries are created, shared,
// released and pruned under contention; each entry read matches its key.
TEST(PlanStoreThreads, ConcurrentKeysStayConsistent) {
  const hpf::Program prog = apps::jacobi(32, 1);
  const hpf::ParallelLoop& loop = *sites(prog, 1).front().loop;
  PlanStore store(prog);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&, i] {
      for (std::int64_t round = 0; round < 400; ++round) {
        const std::int64_t k = (round + i) % 5;
        const auto p = store.acquire(loop, {k}, [k] {
          return ClusterPlan({}, {}, 1, kBlock, true,
                             static_cast<std::uint64_t>(k));
        });
        EXPECT_EQ(p->needs_digest(), static_cast<std::uint64_t>(k));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_LE(store.resident(), 1u);
  EXPECT_GE(store.computations(), 5u);
}

}  // namespace
}  // namespace fgdsm::core
