#include "src/hpf/analysis.h"

#include <algorithm>

#include "src/util/assert.h"

namespace fgdsm::hpf {

ConcreteInterval eval_subscript(
    const AffineExpr& sub,
    const std::vector<std::pair<std::string, ConcreteInterval>>& ranges,
    const Bindings& b) {
  // Find the (single) loop variable this subscript references.
  const std::string* var = nullptr;
  std::int64_t coeff = 0;
  for (const auto& [sym, iv] : ranges) {
    (void)iv;
    const std::int64_t c = sub.coeff(sym);
    if (c != 0) {
      FGDSM_ASSERT_MSG(var == nullptr,
                       "subscript references two loop variables: "
                           << sub.to_string());
      var = &sym;
      coeff = c;
    }
  }
  // Evaluate `sub` with every loop variable in `ranges` bound to 0 and all
  // other symbols from `b` — the copy-free equivalent of duplicating the
  // bindings and zeroing the loop variables (this runs per chunk).
  const auto eval_outside_loop_vars = [&] {
    std::int64_t v = sub.constant_term();
    for (const auto& [s, c] : sub.terms()) {
      bool is_loop_var = false;
      for (const auto& [sym, iv] : ranges) {
        (void)iv;
        if (sym == s) {
          is_loop_var = true;
          break;
        }
      }
      if (!is_loop_var) v += c * b.get(s);
    }
    return v;
  };
  if (var == nullptr) {
    // Constant in loop variables; evaluate directly.
    const std::int64_t v = eval_outside_loop_vars();
    return ConcreteInterval{v, v, 1};
  }
  // sub = coeff * var + rest. Evaluate rest with var := 0.
  ConcreteInterval r;
  for (const auto& [sym, iv] : ranges)
    if (sym == *var) r = iv.normalized();
  const std::int64_t rest = eval_outside_loop_vars();
  if (r.empty()) return {0, -1, 1};
  const std::int64_t a = coeff * r.lo + rest;
  const std::int64_t z = coeff * r.hi + rest;
  return ConcreteInterval{std::min(a, z), std::max(a, z),
                          std::abs(coeff) * r.stride}
      .normalized();
}

std::vector<std::int64_t> array_extents(const ArrayDecl& a,
                                        const Bindings& b) {
  std::vector<std::int64_t> e;
  e.reserve(a.extents.size());
  for (const auto& x : a.extents) e.push_back(x.eval(b));
  return e;
}

ConcreteSection owned_section(const ArrayDecl& a, const Bindings& b, int np,
                              int p) {
  const auto ext = array_extents(a, b);
  ConcreteSection s;
  s.dims.reserve(ext.size());
  for (std::size_t d = 0; d + 1 < ext.size(); ++d)
    s.dims.push_back(ConcreteInterval{0, ext[d] - 1, 1});
  s.dims.push_back(owned_interval(a.dist, p, ext.back(), np));
  return s;
}

ConcreteInterval local_iters(const ParallelLoop& loop, const Program& prog,
                             const Bindings& b, int np, int p) {
  const ConcreteInterval range =
      ConcreteInterval{loop.dist.lo.eval(b), loop.dist.hi.eval(b), 1}
          .normalized();
  if (range.empty()) return range;
  switch (loop.comp) {
    case ParallelLoop::Comp::kOwnerComputes: {
      const ArrayDecl& home = prog.array(loop.home_array);
      const auto ext = array_extents(home, b);
      // home_sub must be dist_var + const (unit coefficient) so the owned
      // home indices map back to a strided iteration interval.
      const std::int64_t c = loop.home_sub.coeff(loop.dist.sym);
      FGDSM_ASSERT_MSG(c == 1, "ON HOME subscript must be <distvar> + const");
      const std::int64_t off = eval_with(loop.home_sub, b, loop.dist.sym, 0);
      ConcreteInterval owned =
          owned_interval(home.dist, p, ext.back(), np);
      if (owned.empty()) return {0, -1, 1};
      owned.lo -= off;
      owned.hi -= off;
      return intersect(owned, range);
    }
    case ParallelLoop::Comp::kBlockByIndex: {
      const std::int64_t n = range.count();
      const std::int64_t bsz = (n + np - 1) / np;
      const std::int64_t lo = range.lo + p * bsz;
      const std::int64_t hi = std::min(range.lo + (p + 1) * bsz, range.hi + 1) - 1;
      return ConcreteInterval{lo, std::min(hi, range.hi), 1}.normalized();
    }
  }
  return {0, -1, 1};
}

namespace {
// Loop-variable ranges for a ref evaluation: dist + free variables. Clears
// and refills `ranges` (the per-chunk callers reuse one vector; the symbol
// names are short enough for SSO, so a refill touches no allocator).
void var_ranges_into(
    const ParallelLoop& loop, const Bindings& b,
    const ConcreteInterval& dist_range, bool allow_dist_dependent_free,
    std::vector<std::pair<std::string, ConcreteInterval>>& ranges) {
  ranges.clear();
  ranges.emplace_back(loop.dist.sym, dist_range);
  for (const auto& fv : loop.free) {
    FGDSM_ASSERT_MSG(
        allow_dist_dependent_free ||
            (!fv.lo.references(loop.dist.sym) &&
             !fv.hi.references(loop.dist.sym)),
        "free loop bounds of " << fv.sym
                               << " reference the distributed variable; "
                                  "whole-loop sections must be rectangular");
    // dist.sym's binding is only used when dist-dependent bounds are allowed
    ranges.emplace_back(
        fv.sym,
        ConcreteInterval{eval_with(fv.lo, b, loop.dist.sym, dist_range.lo),
                         eval_with(fv.hi, b, loop.dist.sym, dist_range.lo), 1}
            .normalized());
  }
}

void section_for_into(const ParallelLoop& loop, const ArrayRef& ref,
                      const Program& prog, const Bindings& b,
                      const ConcreteInterval& dist_range,
                      bool allow_dist_dependent_free,
                      std::vector<std::pair<std::string, ConcreteInterval>>&
                          ranges,
                      ConcreteSection* out) {
  const ArrayDecl& a = prog.array(ref.array);
  FGDSM_ASSERT_MSG(ref.subs.size() == a.extents.size(),
                   "rank mismatch on " << ref.array);
  var_ranges_into(loop, b, dist_range, allow_dist_dependent_free, ranges);
  out->dims.clear();
  out->dims.reserve(ref.subs.size());
  for (const auto& sub : ref.subs)
    out->dims.push_back(eval_subscript(sub, ranges, b));
}

ConcreteSection section_for(const ParallelLoop& loop, const ArrayRef& ref,
                            const Program& prog, const Bindings& b,
                            const ConcreteInterval& dist_range,
                            bool allow_dist_dependent_free) {
  std::vector<std::pair<std::string, ConcreteInterval>> ranges;
  ConcreteSection s;
  section_for_into(loop, ref, prog, b, dist_range, allow_dist_dependent_free,
                   ranges, &s);
  return s;
}
}  // namespace

ConcreteSection ref_section(const ParallelLoop& loop, const ArrayRef& ref,
                            const Program& prog, const Bindings& b,
                            const ConcreteInterval& dist_range) {
  return section_for(loop, ref, prog, b, dist_range,
                     /*allow_dist_dependent_free=*/false);
}

void chunk_footprint_into(const ParallelLoop& loop, const ArrayRef& ref,
                          const Program& prog, const Bindings& b,
                          std::int64_t dist_value, FootprintScratch& scratch,
                          ConcreteSection* out) {
  section_for_into(loop, ref, prog, b,
                   ConcreteInterval{dist_value, dist_value, 1},
                   /*allow_dist_dependent_free=*/true, scratch.ranges, out);
}

namespace {
// Merge transfers with identical (array, sender, receiver) whose sections
// differ only in dimension 0, taking the hull there. Overshoot is harmless:
// the sender owns the whole column, extra rows are merely extra bytes.
void merge_into(std::vector<Transfer>& out, Transfer t) {
  for (Transfer& e : out) {
    if (e.array != t.array || e.sender != t.sender ||
        e.receiver != t.receiver || e.for_write != t.for_write)
      continue;
    if (e.section == t.section) return;
    if (e.section.dims.size() == t.section.dims.size()) {
      bool same_outer = true;
      for (std::size_t d = 1; d < e.section.dims.size(); ++d)
        if (!(e.section.dims[d] == t.section.dims[d])) same_outer = false;
      if (same_outer) {
        ConcreteInterval& a = e.section.dims[0];
        const ConcreteInterval bdim = t.section.dims[0].normalized();
        a = a.normalized();
        FGDSM_ASSERT(a.stride == 1 && bdim.stride == 1);
        a.lo = std::min(a.lo, bdim.lo);
        a.hi = std::max(a.hi, bdim.hi);
        return;
      }
    }
  }
  out.push_back(std::move(t));
}
// Ascending candidate senders for one piece: exactly the processors whose
// owned_interval can intersect the piece's distributed (last) dimension.
// The original code scanned every q in 0..np for every piece, which made
// each plan build O(np^2) section intersections — at 256+ nodes that
// dominated the harness (and each node builds its own plan, so the full
// cluster paid O(np^3)). Block ownership is contiguous, so [owner(lo),
// owner(hi)] is tight; cyclic ownership is j % np, so a piece shorter than
// np enumerates its elements and a longer one covers every processor
// anyway. Candidates come out ascending — the transfer list must stay in
// the exact order the full scan produced (plans feed the simulation;
// ordering is part of the bit-identity contract).
void candidate_owners_into(DistKind kind, const ConcreteInterval& iv,
                           std::int64_t n, int np, std::vector<int>& out) {
  out.clear();
  if (iv.empty()) return;
  switch (kind) {
    case DistKind::kBlock: {
      // iv is already clipped to [0, n-1]; contiguous block ownership makes
      // [owner(lo), owner(hi)] tight.
      const int qlo = owner_of(kind, iv.lo, n, np);
      const int qhi = owner_of(kind, iv.hi, n, np);
      for (int q = qlo; q <= qhi; ++q) out.push_back(q);
      return;
    }
    case DistKind::kCyclic: {
      if (iv.count() >= np) {
        for (int q = 0; q < np; ++q) out.push_back(q);
        return;
      }
      for (std::int64_t j = iv.lo; j <= iv.hi; j += iv.stride)
        out.push_back(static_cast<int>(j % np));
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return;
    }
    case DistKind::kReplicated:
      return;
  }
}
}  // namespace

std::vector<Transfer> analyze_transfers(const ParallelLoop& loop,
                                        const Program& prog,
                                        const Bindings& b, int np) {
  std::vector<Transfer> out;
  std::vector<int> owners;  // scratch, reused across pieces
  auto process = [&](const ArrayRef& ref, bool for_write) {
    const ArrayDecl& a = prog.array(ref.array);
    if (a.dist == DistKind::kReplicated) {
      // Replicated arrays are private per-node copies: reads are local, and
      // writes are only legal from replicated computation (every node
      // writes its own copy identically) — either way, no transfers.
      return;
    }
    const auto ext = array_extents(a, b);
    for (int p = 0; p < np; ++p) {
      const ConcreteInterval iters = local_iters(loop, prog, b, np, p);
      if (iters.empty()) continue;
      ConcreteSection sec = ref_section(loop, ref, prog, b, iters);
      if (sec.empty()) continue;
      // Clip to array bounds (stencil edges reach outside; those iterations
      // are the body's responsibility to skip, and the analysis must not
      // claim out-of-range elements).
      for (std::size_t d = 0; d < sec.dims.size(); ++d)
        sec.dims[d] = intersect(sec.dims[d],
                                ConcreteInterval{0, ext[d] - 1, 1});
      if (sec.empty()) continue;
      const ConcreteSet nonowner =
          ConcreteSet(sec).subtract(owned_section(a, b, np, p));
      for (const auto& piece : nonowner.pieces()) {
        candidate_owners_into(a.dist, piece.dims.back().normalized(),
                              ext.back(), np, owners);
        for (const int q : owners) {
          if (q == p) continue;
          const ConcreteSet part =
              ConcreteSet(piece).intersect(owned_section(a, b, np, q));
          for (const auto& sub : part.pieces())
            merge_into(out, Transfer{ref.array, q, p, sub, for_write});
        }
      }
    }
  };
  for (const auto& r : loop.reads) process(r, /*for_write=*/false);
  for (const auto& w : loop.writes) process(w, /*for_write=*/true);
  return out;
}

}  // namespace fgdsm::hpf
