// One communication plan per cluster: the run's only plan cache, holding
// the analyzed loop schedules every node of one simulation shares.
//
// The paper's model is a compiler that emits each loop's communication
// schedule once (§4.1–4.2). hpf::analyze_transfers (and, for loops with
// indirect reads, the inspector's fold of the exchanged need lists) returns
// the *global* transfer set of a loop visit — every (sender, receiver,
// section) of every node. Within one run it is a pure function of the
// visit's key: the values of exactly the non-loop-variable symbols the
// loop's bounds, subscripts, home reference and referenced arrays' extents
// mention, then a caller-supplied extra key (the inspector's index-array
// write versions). The layouts, np, block size and alignment are fixed per
// run. Computing it on every node is np-fold redundant, so the executor
// keeps one PlanStore per run:
//
//   - the key symbols of every parallel loop are found once, when the store
//     is built; they never change, so partition workers read them without a
//     lock;
//   - the first node to miss on a key computes the ClusterPlan under that
//     key's once-guard; every other node, on any --sim-threads partition
//     worker, reuses it. The computation is pure host code — it never
//     charges virtual time or switches fibers — so no lock is held across a
//     fiber switch;
//   - a ClusterPlan settles the global any_comm/any_flush flags once and
//     indexes the transfers by sender and by receiver, so each node lowers
//     only its own slice into its CommPlan instead of the whole set.
//
// Each node memoizes its last visit of every loop in a PlanRecord: a visit
// hits exactly when its key equals that record's key. Loops whose structure
// references a time-loop counter (LU's elimination loops, whose bounds shift
// with the pivot) miss every timestep; stencil sweeps (jacobi/pde/shallow)
// key only on problem sizes and hit from the second visit on. Which visits
// hit is each node's own, deterministic decision — the one the simulation
// sees (plan_cache_* counters; for irregular loops also whether the node
// re-inspects, which costs virtual time).
//
// Entries are immutable once published, so readers need no lock. An entry
// lives only while some node's record holds it or while it is its loop's
// latest key: loops whose key changes every visit keep one live entry, not
// one per visit, even when message-passing nodes drift across visits. A
// node that arrives after an entry was released simply recomputes it —
// identical by purity.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {

// The non-loop-variable symbols whose values the transfer analysis of
// `loop` can observe: dist/free bounds, the home subscript, every read and
// write subscript, and the extents of every referenced array (including the
// home array). Sorted, deduplicated. Loop variables themselves (dist + free)
// are excluded — the analysis ranges over them symbolically.
std::vector<std::string> plan_key_symbols(const hpf::ParallelLoop& loop,
                                          const hpf::Program& prog);

// A loop visit's global transfer set, analyzed once for the whole cluster
// and indexed so each node lowers only its own part.
class ClusterPlan {
 public:
  // Lowers every transfer once, exactly as plan_from_transfers does
  // (linearize, then block_align_inner when block_align), to settle the
  // global any_comm/any_flush flags, and indexes the transfers that keep at
  // least one run by sender and by receiver. `needs_digest` records, for
  // loops with indirect reads, the digest of the need lists the gathers
  // were folded from (irreg::needs_digest); 0 otherwise.
  ClusterPlan(std::vector<hpf::Transfer> transfers, const LayoutMap& layouts,
              int np, std::size_t block_size, bool block_align,
              std::uint64_t needs_digest = 0);

  // Node `me`'s plan, lowering only the transfers it sends or receives:
  // equal (operator==, including order) to
  // plan_from_transfers(transfers(), layouts, me, block_size, block_align)
  // for the layouts the plan was built with. Lowered runs are not kept in
  // the ClusterPlan: each node's plan already holds its own, and a second,
  // cluster-wide copy costs more memory (strided sections lower to one run
  // per element) than re-lowering a node's own transfers costs time.
  CommPlan slice(int me, const LayoutMap& layouts) const;

  const std::vector<hpf::Transfer>& transfers() const { return transfers_; }
  std::uint64_t needs_digest() const { return needs_digest_; }

 private:
  std::vector<hpf::Transfer> transfers_;
  // Per-node ascending lists of the transfers that lower to >= 1 run (CSR):
  // node p sends send_idx_[send_begin_[p], send_begin_[p + 1]) and receives
  // recv_idx_[recv_begin_[p], recv_begin_[p + 1]).
  std::vector<std::uint32_t> send_begin_, send_idx_;
  std::vector<std::uint32_t> recv_begin_, recv_idx_;
  std::size_t block_size_;
  bool block_align_;
  bool any_comm_ = false;
  bool any_flush_ = false;
  std::uint64_t needs_digest_;
};

class PlanStore {
 public:
  using Key = std::vector<std::int64_t>;

  // Finds the key symbols of every parallel loop of `prog`.
  explicit PlanStore(const hpf::Program& prog);

  // The key of a visit to `loop` (a loop of the store's program) under `b`:
  // the values of its key symbols, then `extra`.
  void key_into(const hpf::ParallelLoop& loop, const hpf::Bindings& b,
                const Key& extra, Key* out) const;

  // The shared plan of (loop, key). If no live entry exists, one caller runs
  // `compute` (others asking for the same key wait for it) and the result is
  // published. `compute` must be pure host work: no fiber switch, no
  // virtual-time charge.
  std::shared_ptr<const ClusterPlan> acquire(
      const hpf::ParallelLoop& loop, const Key& key,
      const std::function<ClusterPlan()>& compute);

  // How many times acquire() ran `compute` (once per key while nodes stay
  // within one entry's lifetime).
  std::uint64_t computations() const {
    return computations_.load(std::memory_order_relaxed);
  }
  // Entries currently alive (held by a record or latest for their loop).
  std::size_t resident() const;

 private:
  struct Cell {
    std::once_flag once;
    std::optional<ClusterPlan> plan;
  };
  struct LoopEntries {
    std::map<Key, std::weak_ptr<Cell>> cells;
    std::shared_ptr<Cell> latest;  // keeps the newest key alive unreferenced
  };

  // Fixed at construction: read without the lock.
  std::unordered_map<const hpf::ParallelLoop*, std::vector<std::string>>
      key_symbols_;
  mutable std::mutex mu_;  // guards loops_; never held while computing
  std::unordered_map<const hpf::ParallelLoop*, LoopEntries> loops_;
  std::atomic<std::uint64_t> computations_{0};
};

// One node's memo of one loop: the key of its last visit, the run's plan
// for that key and the node's own lowered slice of it. Touched only by that
// node's task.
struct PlanRecord {
  PlanStore::Key key;
  std::shared_ptr<const ClusterPlan> shared;  // null before the first visit
  CommPlan plan;

  // A visit with key `k` hits exactly when it repeats the last visit's key.
  bool hit(const PlanStore::Key& k) const {
    return shared != nullptr && key == k;
  }
};

}  // namespace fgdsm::core
