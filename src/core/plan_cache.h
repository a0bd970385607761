// One node's view of the run's communication plans across repeated visits to
// the same parallel loop (iterative apps run the same loops every timestep).
//
// The paper's model is a compiler that emits the communication schedule
// once. The analysis (hpf::analyze_transfers, plus the inspector's fold for
// loops with indirect reads) is a pure function of
//   (loop structure, array declarations, referenced symbol values, np),
// and its lowering adds only the layouts, block size and alignment, which
// are fixed per run. So the key of a loop visit is the value vector of
// exactly the non-loop-variable symbols its bounds, subscripts, home
// reference, and referenced arrays' extents mention (plus a caller-supplied
// extra key, e.g. the inspector's index-array write versions): if none of
// those changed, the schedule is byte-identical to a fresh computation.
//
// The work is split in two:
//   - core::PlanStore (plan_store.h) holds the cluster's one ClusterPlan per
//     key — the global transfer set, analyzed once per run and indexed by
//     sender and receiver;
//   - a PlanCache is one node's slim view over it: the key of its last
//     visit, the miss streak and give-up, its own lowered CommPlan slice,
//     and a reference to the shared entry. It decides, deterministically
//     and per node, which visits hit — the decision the simulation sees
//     (plan_cache_* counters; for irregular loops also whether the node
//     re-inspects, which costs virtual time).
//
// Loops whose structure references a time-loop counter (e.g. LU's
// elimination loops, whose bounds shift with the pivot) key on that counter
// and correctly miss every timestep; stencil sweeps (jacobi/pde/shallow)
// key only on problem sizes and hit from the second visit on.
//
// Loops that never hit (give_up_after consecutive misses — e.g. LU) are
// abandoned: the view frees its entry and should_store() turns false, so
// every later visit is a miss (still counted, keeping the hit-rate
// statistics per visit). The key is still evaluated on every lookup: a miss
// fetches its plan from the PlanStore by that key.
//
// A PlanCache belongs to one node of one run and is touched only by that
// node's task; the PlanStore it references is the run's shared, thread-safe
// part.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/plan.h"
#include "src/core/plan_store.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {

// The non-loop-variable symbols whose values the transfer analysis of
// `loop` can observe: dist/free bounds, the home subscript, every read and
// write subscript, and the extents of every referenced array (including the
// home array). Sorted, deduplicated. Loop variables themselves (dist + free)
// are excluded — the analysis ranges over them symbolically.
std::vector<std::string> plan_key_symbols(const hpf::ParallelLoop& loop,
                                          const hpf::Program& prog);

class PlanCache {
 public:
  struct Entry {
    std::vector<std::int64_t> key;             // key symbols, then extra key
    std::shared_ptr<const ClusterPlan> shared;  // the cluster's schedule
    CommPlan plan;                              // this node's slice of it
  };

  // Evaluates the key of this visit (the key symbols' values under `b`,
  // then `extra_key`) into last_key(), and returns the stored entry if it
  // matches; nullptr on miss (including first visit and abandoned loops).
  const Entry* lookup(const hpf::ParallelLoop& loop,
                      const hpf::Program& prog, const hpf::Bindings& b,
                      const std::vector<std::int64_t>& extra_key = {});

  // The key the last lookup() evaluated: what a miss acquires from the
  // run's PlanStore.
  const std::vector<std::int64_t>& last_key() const { return probe_; }

  // Stores (replacing any previous entry) the shared schedule and this
  // node's plan for `loop` under the key extracted from `b` (appended with
  // `extra_key`), and returns the stored entry.
  const Entry& insert(const hpf::ParallelLoop& loop,
                      const hpf::Program& prog, const hpf::Bindings& b,
                      std::shared_ptr<const ClusterPlan> shared,
                      CommPlan plan,
                      const std::vector<std::int64_t>& extra_key = {});

  // False once `loop` has been abandoned (give_up_after consecutive
  // misses): callers should not bother storing an entry.
  bool should_store(const hpf::ParallelLoop& loop) const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  // Abandonment threshold (consecutive misses). Set before the first
  // lookup; benches wire --plan-cache-misses=N through here.
  void set_give_up_after(int n) { give_up_after_ = n > 0 ? n : 1; }
  int give_up_after() const { return give_up_after_; }

  static constexpr int kGiveUpAfter = 8;  // the default threshold

 private:
  struct Slot {
    std::vector<std::string> symbols;  // computed once per loop (structural)
    Entry entry;
    bool filled = false;
    int miss_streak = 0;  // consecutive lookup misses; >= give_up_after_: dead
  };
  Slot& slot(const hpf::ParallelLoop& loop, const hpf::Program& prog);
  static void key_into(const Slot& s, const hpf::Bindings& b,
                       const std::vector<std::int64_t>& extra,
                       std::vector<std::int64_t>* out);

  std::map<const hpf::ParallelLoop*, Slot> slots_;
  std::vector<std::int64_t> probe_;  // last evaluated key (reused)
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  int give_up_after_ = kGiveUpAfter;
};

}  // namespace fgdsm::core
