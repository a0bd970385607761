#include "perfbench/replay.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "src/core/plan.h"
#include "src/hpf/analysis.h"
#include "src/hpf/distribution.h"
#include "src/irreg/inspector.h"
#include "src/tempest/config.h"

namespace perfbench {

using namespace fgdsm;

namespace {

struct LoopSite {
  const hpf::Program* prog = nullptr;
  const hpf::ParallelLoop* loop = nullptr;
  hpf::Bindings bind;
  const core::LayoutMap* layouts = nullptr;
  std::size_t block = 0;
  bool block_align = true;  // shared memory trims to blocks; MP does not
};

// Every parallel loop under `phases`, with enclosing time-loop counters bound
// to their first iteration.
void collect_loops(const std::vector<hpf::Phase>& phases,
                   const hpf::Bindings& b, const LoopSite& proto,
                   std::vector<LoopSite>* out) {
  for (const hpf::Phase& ph : phases) {
    if (ph.kind == hpf::Phase::Kind::kParallelLoop) {
      LoopSite s = proto;
      s.loop = ph.loop.get();
      s.bind = b;
      out->push_back(std::move(s));
    } else if (ph.kind == hpf::Phase::Kind::kTimeLoop) {
      hpf::Bindings inner = b;
      inner.set(ph.time->counter, 0);
      collect_loops(ph.time->phases, inner, proto, out);
    }
  }
}

// Array addresses as the executor lays them out: page-aligned, in
// declaration order.
core::LayoutMap layouts_for(const hpf::Program& prog, const hpf::Bindings& b) {
  const std::size_t page = tempest::ClusterConfig{}.page_size;
  core::LayoutMap m;
  hpf::GAddr next = 0;
  for (const hpf::ArrayDecl& a : prog.arrays) {
    hpf::ArrayLayout lay;
    lay.name = a.name;
    for (const hpf::AffineExpr& e : a.extents) lay.extents.push_back(e.eval(b));
    lay.elem = 8;
    lay.base = next;
    next += (lay.bytes() + page - 1) / page * page;
    m[a.name] = lay;
  }
  return m;
}

// The need lists of spmv's banded gather (apps::spmv pattern 0: row j reads
// x((j + (i - k/2) * 37) mod n) for i < k), which the inspector would find:
// each node needs the halo below and above its owned block of x, wrapped
// mod n, as merged intervals of gather array 0.
std::vector<std::vector<irreg::Need>> banded_needs(std::int64_t n,
                                                   std::int64_t k, int np) {
  const std::int64_t below = k / 2 * 37;
  const std::int64_t above = (k - 1 - k / 2) * 37;
  std::vector<std::vector<irreg::Need>> out(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    const hpf::ConcreteInterval own =
        hpf::owned_interval(hpf::DistKind::kBlock, p, n, np);
    if (own.lo > own.hi) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    const auto add = [&](std::int64_t a, std::int64_t b) {
      if (a < 0) {
        iv.emplace_back(a + n, n - 1);
        a = 0;
      }
      if (b >= n) {
        iv.emplace_back(0, b - n);
        b = n - 1;
      }
      if (a <= b) iv.emplace_back(a, b);
    };
    add(own.lo - below, own.lo - 1);
    add(own.hi + 1, own.hi + above);
    std::sort(iv.begin(), iv.end());
    std::vector<irreg::Need>& needs = out[static_cast<std::size_t>(p)];
    for (const auto& [a, b] : iv) {
      if (!needs.empty() && a <= needs.back().hi + 1)
        needs.back().hi = std::max(needs.back().hi, b);
      else
        needs.push_back(irreg::Need{0, a, b});
    }
  }
  return out;
}

}  // namespace

int replay(const Workload& w, Spans& spans, double min_seconds) {
  // One site per loop of every (program, block alignment) the workload plans
  // at its cluster size.
  std::vector<std::pair<const Sim*, bool>> planned;
  for (const Sim& s : w.sims) {
    const bool opt = s.cfg.opt.mode == core::Mode::kShmemOpt;
    if (!(opt || s.msg_passing()) || s.cfg.cluster.nnodes != w.np) continue;
    const auto same = [&](const std::pair<const Sim*, bool>& q) {
      return q.first->prog == s.prog && q.second == opt;
    };
    if (std::none_of(planned.begin(), planned.end(), same))
      planned.emplace_back(&s, opt);
  }
  std::deque<core::LayoutMap> layouts;  // stable addresses for LoopSite
  std::vector<LoopSite> sites;
  for (const auto& [sim, align] : planned) {
    hpf::Bindings b = sim->prog->sizes;
    b.set(hpf::kSymNProcs, w.np);
    b.set(hpf::kSymProc, 0);
    layouts.push_back(layouts_for(*sim->prog, b));
    LoopSite proto;
    proto.prog = sim->prog;
    proto.layouts = &layouts.back();
    proto.block = sim->cfg.cluster.block_size;
    proto.block_align = align;
    collect_loops(sim->prog->phases, b, proto, &sites);
  }

  const Clock::time_point t0 = Clock::now();
  int rounds = 0;
  do {
    const Spans::Scope round = spans.open("replay");
    for (const LoopSite& s : sites) {
      std::vector<hpf::Transfer> transfers;
      {
        const Spans::Scope span = spans.open("hpf.analyze", s.loop->name);
        transfers = hpf::analyze_transfers(*s.loop, *s.prog, s.bind, w.np);
      }
      if (!s.loop->ind_reads.empty()) {
        const std::vector<std::vector<irreg::Need>> needs =
            banded_needs(s.bind.get("n"), s.bind.get("k"), w.np);
        std::vector<hpf::Transfer> gathers;
        {
          const Spans::Scope span = spans.open("irreg.fold", s.loop->name);
          gathers = irreg::needs_to_transfers(needs, *s.loop, *s.prog,
                                              s.bind, w.np);
        }
        transfers.insert(transfers.end(), gathers.begin(), gathers.end());
      }
      const Spans::Scope span = spans.open("core.plan", s.loop->name);
      for (int me = 0; me < w.np; ++me)
        core::plan_from_transfers(transfers, *s.layouts, me, s.block,
                                  s.block_align);
    }
    ++rounds;
  } while (std::chrono::duration<double>(Clock::now() - t0).count() <
           min_seconds);
  return rounds;
}

}  // namespace perfbench
