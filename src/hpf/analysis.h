// Access-set analysis (paper §4.1): for each distributed array referenced in
// a parallel loop, compute — per processor — the sections read and written,
// the owned section, and from their difference the *non-owner-read* and
// *non-owner-write* sets, partitioned by the owning (sending) processor.
//
// The analysis is deterministic and runs identically on every node (the
// compiled program evaluates the same parametric expressions with the same
// symbol values), so senders and receivers independently agree on every
// transfer — including the expected block counts for ready_to_recv.
#pragma once

#include <string>
#include <vector>

#include "src/hpf/ir.h"
#include "src/hpf/section.h"

namespace fgdsm::hpf {

// A single producer->consumer section movement implied by a parallel loop.
struct Transfer {
  std::string array;
  int sender = -1;    // the HPF owner of the section
  int receiver = -1;  // the non-owner reader (or writer)
  ConcreteSection section;
  // false: non-owner read (owner ships data before the loop).
  // true:  non-owner write (owner ships data before; writer flushes back
  //        after the loop).
  bool for_write = false;
};

// Evaluate a subscript expression over concrete ranges for the loop
// variables it references (at most one), with every other symbol bound.
ConcreteInterval eval_subscript(
    const AffineExpr& sub,
    const std::vector<std::pair<std::string, ConcreteInterval>>& ranges,
    const Bindings& b);

// Concrete extents of an array under the given bindings.
std::vector<std::int64_t> array_extents(const ArrayDecl& a,
                                        const Bindings& b);

// The full section owned by processor p (all dims full, last dim the
// distribution's owned interval).
ConcreteSection owned_section(const ArrayDecl& a, const Bindings& b, int np,
                              int p);

// Which dist-loop iterations processor p executes (owner-computes or
// block-by-index).
ConcreteInterval local_iters(const ParallelLoop& loop, const Program& prog,
                             const Bindings& b, int np, int p);

// Section of `ref.array` touched by `ref` as the dist variable ranges over
// dist_range and free variables over their bounds. Free-variable bounds must
// not reference the dist variable (rectangular sections only).
ConcreteSection ref_section(const ParallelLoop& loop, const ArrayRef& ref,
                            const Program& prog, const Bindings& b,
                            const ConcreteInterval& dist_range);

// Reusable temporaries for chunk_footprint_into: the loop-variable range
// list. Loop-variable names are short (SSO), so once the vector has grown
// to the loop's variable count a refill touches no allocator.
struct FootprintScratch {
  std::vector<std::pair<std::string, ConcreteInterval>> ranges;
};

// Footprint of `ref` for a single chunk (dist variable fixed); free-variable
// bounds may reference the dist variable here. Allocation-free for per-chunk
// hot loops: clears and refills out->dims, drawing temporaries from
// `scratch`; both keep their capacity across calls.
void chunk_footprint_into(const ParallelLoop& loop, const ArrayRef& ref,
                          const Program& prog, const Bindings& b,
                          std::int64_t dist_value, FootprintScratch& scratch,
                          ConcreteSection* out);

// All transfers implied by one parallel loop: non-owner reads and non-owner
// writes, merged per (array, sender, receiver).
std::vector<Transfer> analyze_transfers(const ParallelLoop& loop,
                                        const Program& prog,
                                        const Bindings& b, int np);

}  // namespace fgdsm::hpf
