#include "src/core/plan_store.h"

#include <set>
#include <utility>

#include "src/util/assert.h"

namespace fgdsm::core {

namespace {
// Counting sort of `owner_of(i)` over the transfer indices in `keep`,
// ascending within each node: begin[p]..begin[p+1] delimits node p's list.
template <typename OwnerOf>
void index_by(const std::vector<std::uint32_t>& keep, int np, OwnerOf owner_of,
              std::vector<std::uint32_t>* begin,
              std::vector<std::uint32_t>* idx) {
  begin->assign(static_cast<std::size_t>(np) + 1, 0);
  for (const std::uint32_t i : keep)
    ++(*begin)[static_cast<std::size_t>(owner_of(i)) + 1];
  for (std::size_t p = 0; p < static_cast<std::size_t>(np); ++p)
    (*begin)[p + 1] += (*begin)[p];
  idx->resize(keep.size());
  std::vector<std::uint32_t> fill(begin->begin(), begin->end() - 1);
  for (const std::uint32_t i : keep)
    (*idx)[fill[static_cast<std::size_t>(owner_of(i))]++] = i;
}

// Transfer t's runs as plan_from_transfers lowers them, into *out.
void lower(const hpf::Transfer& t, const LayoutMap& layouts,
           std::size_t block_size, bool block_align,
           std::vector<hpf::Run>* out) {
  auto lit = layouts.find(t.array);
  FGDSM_ASSERT_MSG(lit != layouts.end(), "no layout for " << t.array);
  out->clear();
  hpf::linearize_into(lit->second, t.section, out);
  if (block_align) *out = hpf::block_align_inner(*out, block_size);
}

// Every parallel loop of `phases`, descending into time loops.
void collect_loops(const std::vector<hpf::Phase>& phases,
                   std::vector<const hpf::ParallelLoop*>* out) {
  for (const auto& ph : phases) {
    if (ph.kind == hpf::Phase::Kind::kParallelLoop)
      out->push_back(ph.loop.get());
    else if (ph.kind == hpf::Phase::Kind::kTimeLoop)
      collect_loops(ph.time->phases, out);
  }
}
}  // namespace

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

ClusterPlan::ClusterPlan(std::vector<hpf::Transfer> transfers,
                         const LayoutMap& layouts, int np,
                         std::size_t block_size, bool block_align,
                         std::uint64_t needs_digest)
    : transfers_(std::move(transfers)),
      block_size_(block_size),
      block_align_(block_align),
      needs_digest_(needs_digest) {
  std::vector<std::uint32_t> keep;  // transfers that lower to >= 1 run
  std::vector<hpf::Run> runs;
  for (std::size_t i = 0; i < transfers_.size(); ++i) {
    const hpf::Transfer& t = transfers_[i];
    FGDSM_ASSERT_MSG(t.sender >= 0 && t.sender < np && t.receiver >= 0 &&
                         t.receiver < np,
                     "transfer endpoint outside the cluster");
    lower(t, layouts, block_size_, block_align_, &runs);
    if (runs.empty()) continue;
    keep.push_back(static_cast<std::uint32_t>(i));
    any_comm_ = true;
    if (t.for_write) any_flush_ = true;
  }
  index_by(keep, np, [&](std::uint32_t i) { return transfers_[i].sender; },
           &send_begin_, &send_idx_);
  index_by(keep, np, [&](std::uint32_t i) { return transfers_[i].receiver; },
           &recv_begin_, &recv_idx_);
}

CommPlan ClusterPlan::slice(int me, const LayoutMap& layouts) const {
  CommPlan plan;
  plan.any_comm = any_comm_;
  plan.any_flush = any_flush_;
  const auto units = [&](const hpf::Run& r) {
    return static_cast<std::int64_t>(block_align_ ? r.len / block_size_
                                                  : r.len);
  };
  const std::size_t p = static_cast<std::size_t>(me);
  std::vector<hpf::Run> runs;
  // Each index list is ascending, so sends and flushes come out in the
  // transfer order plan_from_transfers emits them in; the run lists are
  // normalized (sorted) either way.
  std::vector<hpf::Run> mk_runs;
  for (std::size_t k = send_begin_[p]; k < send_begin_[p + 1]; ++k) {
    const hpf::Transfer& t = transfers_[send_idx_[k]];
    lower(t, layouts, block_size_, block_align_, &runs);
    for (const hpf::Run& r : runs) {
      plan.sends.push_back(CommPlan::Send{r, t.receiver});
      mk_runs.push_back(r);
      if (t.for_write) plan.expected_post += units(r);
    }
  }
  std::vector<hpf::Run> recv_runs;
  for (std::size_t k = recv_begin_[p]; k < recv_begin_[p + 1]; ++k) {
    const hpf::Transfer& t = transfers_[recv_idx_[k]];
    lower(t, layouts, block_size_, block_align_, &runs);
    for (const hpf::Run& r : runs) {
      recv_runs.push_back(r);
      plan.expected_pre += units(r);
      if (t.for_write) plan.flushes.push_back(CommPlan::Flush{r, t.sender});
    }
  }
  plan.recv = normalize_runs(std::move(recv_runs));
  plan.mk_writable = normalize_runs(std::move(mk_runs));
  return plan;
}

PlanStore::PlanStore(const hpf::Program& prog) {
  std::vector<const hpf::ParallelLoop*> loops;
  collect_loops(prog.phases, &loops);
  for (const hpf::ParallelLoop* loop : loops)
    key_symbols_.emplace(loop, plan_key_symbols(*loop, prog));
}

void PlanStore::key_into(const hpf::ParallelLoop& loop,
                         const hpf::Bindings& b, const Key& extra,
                         Key* out) const {
  const auto it = key_symbols_.find(&loop);
  FGDSM_ASSERT_MSG(it != key_symbols_.end(),
                   "loop " << loop.name << " is not in the store's program");
  out->clear();
  for (const auto& sym : it->second) out->push_back(b.get(sym));
  out->insert(out->end(), extra.begin(), extra.end());
}

std::shared_ptr<const ClusterPlan> PlanStore::acquire(
    const hpf::ParallelLoop& loop, const Key& key,
    const std::function<ClusterPlan()>& compute) {
  std::shared_ptr<Cell> cell;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    LoopEntries& le = loops_[&loop];
    auto it = le.cells.find(key);
    if (it != le.cells.end()) cell = it->second.lock();
    if (!cell) {
      // Drop keys nobody references any more before adding this one.
      for (auto i = le.cells.begin(); i != le.cells.end();)
        i = i->second.expired() ? le.cells.erase(i) : std::next(i);
      cell = std::make_shared<Cell>();
      le.cells[key] = cell;
      le.latest = cell;
    }
  }
  std::call_once(cell->once, [&] {
    cell->plan.emplace(compute());
    computations_.fetch_add(1, std::memory_order_relaxed);
  });
  // Aliasing pointer: holders keep the whole cell (and its map slot) alive.
  return std::shared_ptr<const ClusterPlan>(cell, &*cell->plan);
}

std::size_t PlanStore::resident() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [loop, le] : loops_)
    for (const auto& [key, cell] : le.cells) n += cell.expired() ? 0 : 1;
  return n;
}

}  // namespace fgdsm::core
