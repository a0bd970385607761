#include "src/core/plan_cache.h"

#include <algorithm>
#include <set>

namespace fgdsm::core {

std::vector<std::string> plan_key_symbols(const hpf::ParallelLoop& loop,
                                          const hpf::Program& prog) {
  std::set<std::string> loop_vars;
  loop_vars.insert(loop.dist.sym);
  for (const auto& fv : loop.free) loop_vars.insert(fv.sym);

  std::set<std::string> syms;
  auto add_expr = [&](const hpf::AffineExpr& e) {
    for (const auto& [s, c] : e.terms()) {
      (void)c;
      if (!loop_vars.count(s)) syms.insert(s);
    }
  };
  add_expr(loop.dist.lo);
  add_expr(loop.dist.hi);
  for (const auto& fv : loop.free) {
    add_expr(fv.lo);
    add_expr(fv.hi);
  }
  add_expr(loop.home_sub);

  std::set<std::string> arrays;
  if (!loop.home_array.empty()) arrays.insert(loop.home_array);
  auto add_ref = [&](const hpf::ArrayRef& r) {
    arrays.insert(r.array);
    for (const auto& sub : r.subs) add_expr(sub);
  };
  for (const auto& r : loop.reads) add_ref(r);
  for (const auto& w : loop.writes) add_ref(w);
  for (const auto& ir : loop.ind_reads) {
    arrays.insert(ir.array);
    arrays.insert(ir.index_array);
    for (const auto& sub : ir.index_subs) add_expr(sub);
  }
  for (const auto& name : arrays)
    for (const auto& e : prog.array(name).extents) add_expr(e);

  return {syms.begin(), syms.end()};
}

PlanCache::Slot& PlanCache::slot(const hpf::ParallelLoop& loop,
                                 const hpf::Program& prog) {
  auto [it, fresh] = slots_.try_emplace(&loop);
  if (fresh) it->second.symbols = plan_key_symbols(loop, prog);
  return it->second;
}

void PlanCache::key_into(const Slot& s, const hpf::Bindings& b,
                         const std::vector<std::int64_t>& extra,
                         std::vector<std::int64_t>* out) {
  out->clear();
  for (const auto& sym : s.symbols) out->push_back(b.get(sym));
  out->insert(out->end(), extra.begin(), extra.end());
}

const PlanCache::Entry* PlanCache::lookup(
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, const std::vector<std::int64_t>& extra_key) {
  Slot& s = slot(loop, prog);
  key_into(s, b, extra_key, &probe_);
  if (s.miss_streak >= give_up_after_) {  // abandoned: never hits again
    ++misses_;
    return nullptr;
  }
  if (s.filled && s.entry.key == probe_) {
    s.miss_streak = 0;
    ++hits_;
    return &s.entry;
  }
  ++misses_;
  if (++s.miss_streak >= give_up_after_) {
    s.entry = Entry{};  // free the storage; the loop will never hit
    s.filled = false;
  }
  return nullptr;
}

bool PlanCache::should_store(const hpf::ParallelLoop& loop) const {
  auto it = slots_.find(&loop);
  return it == slots_.end() || it->second.miss_streak < give_up_after_;
}

const PlanCache::Entry& PlanCache::insert(
    const hpf::ParallelLoop& loop, const hpf::Program& prog,
    const hpf::Bindings& b, std::shared_ptr<const ClusterPlan> shared,
    CommPlan plan, const std::vector<std::int64_t>& extra_key) {
  Slot& s = slot(loop, prog);
  key_into(s, b, extra_key, &s.entry.key);
  s.entry.shared = std::move(shared);
  s.entry.plan = std::move(plan);
  s.filled = true;
  return s.entry;
}

}  // namespace fgdsm::core
