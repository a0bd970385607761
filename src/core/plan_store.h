// One communication plan per cluster: the immutable, run-wide store of
// analyzed loop schedules that every node of one simulation shares.
//
// hpf::analyze_transfers (and, for loops with indirect reads, the
// inspector's fold of the exchanged need lists) returns the *global*
// transfer set of a loop visit — every (sender, receiver, section) of every
// node. Within one run it is a pure function of (loop, key-symbol values,
// extra key): the layouts, np, block size and alignment are fixed per run.
// Computing it on every node is np-fold redundant, so the executor keeps one
// PlanStore per run and each node only asks it for the entry of its key:
//
//   - the first node to miss on a key computes the ClusterPlan under that
//     key's once-guard; every other node, on any --sim-threads partition
//     worker, reuses it (the paper's compiler emits a schedule once, §4.1–
//     4.2). The computation is pure host code — it never charges virtual
//     time or switches fibers — so no lock is held across a fiber switch;
//   - a ClusterPlan settles the global any_comm/any_flush flags once and
//     indexes the transfers by sender and by receiver, so each node lowers
//     only its own slice into its CommPlan instead of the whole set.
//
// Entries are immutable once published, so readers need no lock. An entry
// lives only while some node's core::PlanCache view references it or while
// it is its loop's latest key: loops whose key changes every visit (LU's
// per-pivot bounds) keep one live entry, not one per visit, even when
// message-passing nodes drift across visits. A node that arrives after an
// entry was released simply recomputes it — identical by purity.
//
// Which visits hit is still each node's own decision (PlanCache): the store
// changes host work only, never a simulated observable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"

namespace fgdsm::core {

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
  // Entries currently alive (referenced by a view or latest for their loop).
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

  mutable std::mutex mu_;  // guards loops_; never held while computing
  std::unordered_map<const hpf::ParallelLoop*, LoopEntries> loops_;
  std::atomic<std::uint64_t> computations_{0};
};

}  // namespace fgdsm::core
