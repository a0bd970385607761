#include "perfbench/workloads.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/tempest/config.h"

namespace perfbench {

using namespace fgdsm;

namespace {

constexpr std::size_t kBlock = 128;

// Largest m with m*m <= v (as bench_scale: libm rounding must not choose the
// problem size).
std::int64_t isqrt(std::int64_t v) {
  std::int64_t m = 0;
  while ((m + 1) * (m + 1) <= v) ++m;
  return m;
}

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Sim make_sim(const hpf::Program& prog, const std::string& app,
             const char* config, const core::Options& opt, int nodes,
             bool dual_cpu) {
  Sim s;
  s.key = app + "/" + config + "@" + std::to_string(nodes);
  s.prog = &prog;
  s.cfg.cluster.nnodes = nodes;
  s.cfg.cluster.block_size = kBlock;
  s.cfg.cluster.dual_cpu = dual_cpu;
  s.cfg.opt = opt;
  return s;
}

// bench_paper's six-configuration matrix over the registry at 8 nodes:
// serial, shared memory unoptimized/fully optimized on dual- and single-cpu
// nodes, and message passing.
void build_paper8(Size size, int sim_threads, Workload* w) {
  const double scale = size == Size::kFull ? 0.05 : 0.01;
  constexpr int kNodes = 8;
  w->np = kNodes;
  for (const apps::AppInfo& app : apps::registry()) {
    w->progs.push_back(app.scaled(scale));
    const hpf::Program& p = w->progs.back();
    w->sims.push_back(make_sim(p, app.name, "serial", core::serial(), 1, true));
    w->sims.push_back(
        make_sim(p, app.name, "u2", core::shmem_unopt(), kNodes, true));
    w->sims.push_back(
        make_sim(p, app.name, "o2", core::shmem_opt_full(), kNodes, true));
    w->sims.push_back(
        make_sim(p, app.name, "u1", core::shmem_unopt(), kNodes, false));
    w->sims.push_back(
        make_sim(p, app.name, "o1", core::shmem_opt_full(), kNodes, false));
    w->sims.push_back(
        make_sim(p, app.name, "mp", core::msg_passing(), kNodes, true));
  }
  for (Sim& s : w->sims) s.cfg.cluster.sim_threads = sim_threads;
}

// bench_scale's 256-node points: weak-scaled jacobi (a 38x38 tile per node)
// and banded spmv (307 rows per node), fully optimized shared memory over
// binomial collectives.
void build_weak256(Size size, Workload* w) {
  constexpr int kNodes = 256;
  const bool full = size == Size::kFull;
  w->np = kNodes;
  w->progs.push_back(apps::jacobi(full ? 38 * isqrt(kNodes) : kNodes,
                                  full ? 8 : 1));
  w->sims.push_back(make_sim(w->progs.back(), "jacobi", "o2",
                             core::shmem_opt_full(), kNodes, true));
  w->progs.push_back(apps::spmv((full ? 307 : 102) * kNodes, 8, full ? 4 : 1,
                                /*pattern=*/0));
  w->sims.push_back(make_sim(w->progs.back(), "spmv", "o2",
                             core::shmem_opt_full(), kNodes, true));
  for (Sim& s : w->sims)
    s.cfg.cluster.collectives = tempest::Collectives::kBinomial;
}

// Weak-scaled jacobi at 128 nodes under drop/dup/delay/reorder faults and one
// fail-stop crash, with a checkpoint every 4 barriers. The seed picks the
// fault stream, the crash victim and the crash time. The time window is
// narrow (30-36% into the fault-free run) because the work a rollback
// repeats depends on it, and the benchmark compares medians across seeds.
void build_faults128(Size size, std::uint64_t seed, const Reference& ref,
                     Workload* w) {
  constexpr int kNodes = 128;
  const bool full = size == Size::kFull;
  w->np = kNodes;
  w->progs.push_back(apps::jacobi(full ? 38 * isqrt(kNodes) : kNodes,
                                  full ? 12 : 4));
  Sim s = make_sim(w->progs.back(), "jacobi", "o2", core::shmem_opt_full(),
                   kNodes, true);
  tempest::ClusterConfig& c = s.cfg.cluster;
  c.collectives = tempest::Collectives::kBinomial;
  c.checkpoint_every = 4;
  c.watchdog_ns = tempest::default_watchdog_ns(kNodes, c.collectives);
  c.faults.enabled = true;
  c.faults.drop = 0.01;
  c.faults.dup = 0.002;
  c.faults.delay = 0.05;
  c.faults.reorder = 0.01;
  c.faults.seed = seed;
  std::uint64_t stream = seed;
  const int victim = static_cast<int>(splitmix64(stream) % kNodes);
  const double at =
      0.30 + 0.06 * static_cast<double>(splitmix64(stream) >> 11) /
                 static_cast<double>(1ull << 53);
  const std::int64_t base = ref.elapsed_ns(size, "faults128", s.key);
  if (base > 0)
    c.faults.crashes.emplace_back(
        victim, static_cast<sim::Time>(static_cast<double>(base) * at));
  w->sims.push_back(std::move(s));
}

}  // namespace

const char* to_string(Size s) { return s == Size::kFull ? "full" : "tiny"; }

bool Sim::msg_passing() const {
  return cfg.opt.mode == core::Mode::kMsgPassing;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper8", "paper8_st4",
                                                 "weak256", "faults128"};
  return names;
}

bool build_workload(const std::string& name, Size size, std::uint64_t seed,
                    const Reference& ref, Workload* out) {
  out->name = name;
  out->progs.clear();
  out->sims.clear();
  if (name == "paper8") {
    build_paper8(size, 1, out);
  } else if (name == "paper8_st4") {
    build_paper8(size, 4, out);
  } else if (name == "weak256") {
    build_weak256(size, out);
  } else if (name == "faults128") {
    build_faults128(size, seed, ref, out);
  } else {
    return false;
  }
  return true;
}

exec::RunConfig reference_config(const exec::RunConfig& cfg) {
  exec::RunConfig r = cfg;
  r.cluster.faults = sim::FaultConfig{};
  r.cluster.checkpoint_every = 0;
  r.cluster.watchdog_ns = 0;
  r.cluster.sim_threads = 1;
  return r;
}

// File format, one record per line ('#' starts a comment):
//   scalar  <size> <workload> <sim key> <name> <C99 hex float>
//   elapsed <size> <workload> <sim key> <virtual ns>
// Hex floats round-trip exactly, so the comparison can be bit-exact.
bool Reference::load(const std::string& path, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open reference file '" + path + "'";
    return false;
  }
  entries_.clear();
  std::string line;
  int lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string kind, size, workload, key, a, b;
    is >> kind >> size >> workload >> key >> a;
    const std::string id_ = size + " " + workload + " " + key;
    bool ok = !a.empty();
    if (ok && kind == "scalar") {
      is >> b;
      char* end = nullptr;
      const double v = std::strtod(b.c_str(), &end);
      ok = !b.empty() && *end == '\0';
      if (ok) entries_[id_].scalars[a] = v;
    } else if (ok && kind == "elapsed") {
      char* end = nullptr;
      const long long v = std::strtoll(a.c_str(), &end, 10);
      ok = *end == '\0';
      if (ok) entries_[id_].elapsed_ns = v;
    } else {
      ok = false;
    }
    if (!ok) {
      *error = path + ":" + std::to_string(lineno) + ": malformed record";
      return false;
    }
  }
  return true;
}

bool Reference::save(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# Expected results of every (size, workload, simulation) of "
               "the benchmark,\n# from fault-free single-worker runs. "
               "Regenerate with: perfbench --write-reference <file>\n");
  for (const auto& [id_, e] : entries_) {
    for (const auto& [name, v] : e.scalars)
      std::fprintf(f, "scalar %s %s %a\n", id_.c_str(), name.c_str(), v);
    std::fprintf(f, "elapsed %s %" PRId64 "\n", id_.c_str(), e.elapsed_ns);
  }
  return std::fclose(f) == 0;
}

std::string Reference::id(Size size, const std::string& workload,
                          const std::string& key) {
  return std::string(to_string(size)) + " " + workload + " " + key;
}

void Reference::set(Size size, const std::string& workload,
                    const std::string& key, const exec::RunResult& r) {
  Entry& e = entries_[id(size, workload, key)];
  e.scalars = r.scalars;
  e.elapsed_ns = r.stats.elapsed_ns;
}

const std::map<std::string, double>* Reference::scalars(
    Size size, const std::string& workload, const std::string& key) const {
  auto it = entries_.find(id(size, workload, key));
  return it == entries_.end() ? nullptr : &it->second.scalars;
}

std::int64_t Reference::elapsed_ns(Size size, const std::string& workload,
                                   const std::string& key) const {
  auto it = entries_.find(id(size, workload, key));
  return it == entries_.end() ? 0 : it->second.elapsed_ns;
}

}  // namespace perfbench
