// Inspector half of the inspector–executor runtime for irregular accesses
// (CHAOS/PARTI lineage): the compiler cannot form the access set of
// A(idx(i)) — only *which index elements* each node reads is affine. The
// inspector closes the gap at run time:
//
//   1. scan(): each node reads its local iterations' slice of the
//      indirection array(s) and derives the set of data elements it needs
//      but does not own, merged into maximal disjoint intervals (Need
//      records).
//   2. The need lists are broadcast (irreg::IrregRuntime::exchange) so every
//      node holds all np lists.
//   3. needs_to_transfers(): the identical global need set is folded into
//      hpf::Transfer records — the same currency the affine planner
//      produces — once per cluster (the executor shares the fold through
//      core::PlanStore), and each node lowers its slice of the union into a
//      CommPlan. Block alignment (shmem_limits trimming) happens there:
//      partially-owned blocks fall back to the default protocol, exactly as
//      for affine sections.
//
// Determinism contract: scan() is a pure function of (loop, bindings,
// layouts, memory contents); needs_to_transfers() of its inputs. Every node
// plans from the same transfer set, so the counting semaphores of the
// executor contract stay consistent without any reply round.
//
// Scope: gather only (indirect reads of 1-D BLOCK-distributed arrays).
// Indirect writes (scatter) stay with the default protocol — a runtime
// scatter schedule would need multi-writer flush merging the CCC contract
// does not provide.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/ir.h"
#include "src/hpf/layout.h"
#include "src/sim/task.h"
#include "src/tempest/node.h"

namespace fgdsm::irreg {

// One needed element interval [lo, hi] of one gathered data array, as found
// by one node's scan. `array` indexes the loop's canonical gather-array list
// (gather_arrays) — the id space the needs exchange serializes.
struct Need {
  std::int64_t array = 0;
  std::int64_t lo = 0;  // inclusive, element units
  std::int64_t hi = 0;  // inclusive
  bool operator==(const Need& o) const {
    return array == o.array && lo == o.lo && hi == o.hi;
  }
};

// True if the loop (or any loop of the program) carries indirect reads.
bool has_indirect(const hpf::ParallelLoop& loop);
bool has_indirect(const hpf::Program& prog);

// Canonical (sorted, deduplicated) list of the data arrays `loop` gathers
// through indirection, excluding replicated arrays (their reads are local).
// Asserts the remaining arrays are 1-D and BLOCK-distributed.
std::vector<std::string> gather_arrays(const hpf::ParallelLoop& loop,
                                       const hpf::Program& prog);
// Allocation-free form: clears and refills *out, reusing its capacity.
void gather_arrays_into(const hpf::ParallelLoop& loop,
                        const hpf::Program& prog,
                        std::vector<std::string>* out);

struct ScanResult {
  std::vector<Need> needs;             // sorted by (array, lo), disjoint
  std::int64_t elements_scanned = 0;   // index elements read
};

// Reusable arena for scan()'s need-list temporaries. Iterative apps with a
// changing indirection array (the spmv sweep) re-inspect every timestep;
// holding one of these per node across timesteps keeps the steady-state
// scan allocation-free — the element log replaces the per-element
// node-allocating std::set the scan used to build.
struct ScanScratch {
  std::vector<std::string> canon;  // canonical gather-array list
  // Out-of-owner elements as (array id, element); sorted + deduplicated in
  // place, then folded into maximal intervals.
  std::vector<std::pair<std::int64_t, std::int64_t>> elems;
  std::vector<hpf::Run> runs;      // linearized index-slice runs
};

// Scan the indirection arrays over this node's local iterations and return
// the non-owned data intervals it needs. With ensure_index set (shared
// memory) the index blocks are faulted readable through the default protocol
// first; without it (message passing) the index footprint must already be
// owned by this node (aligned indirection arrays) — asserted.
// Charges the deterministic inspection cost to `task`. `scratch` (optional)
// donates reusable temporaries; pass the same one across timesteps to make
// repeat inspections allocation-free.
ScanResult scan(const hpf::ParallelLoop& loop, const hpf::Program& prog,
                const hpf::Bindings& b, const core::LayoutMap& layouts,
                int np, tempest::Node& node, sim::Task& task,
                bool ensure_index, ScanScratch* scratch = nullptr);

// Fold all nodes' need lists (indexed by node id, each sorted/disjoint as
// produced by scan) into the implied transfer set: for every needed interval
// of node p, one Transfer per owning node q != p of the overlap, q
// ascending. Pure and deterministic — identical inputs give an identical
// list on every node. Cost is linear in the number of (need, owner) pairs.
std::vector<hpf::Transfer> needs_to_transfers(
    const std::vector<std::vector<Need>>& needs_by_node,
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, int np);

// 64-bit digest of a needs exchange's result (every node's list, in node
// order). The run's shared schedule records the digest of the lists it was
// folded from, so a node whose own exchange differs is caught instead of
// silently reusing another node's schedule.
std::uint64_t needs_digest(const std::vector<std::vector<Need>>& needs_by_node);

}  // namespace fgdsm::irreg
