#include "bench/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/apps/apps.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/tempest/config.h"
#include "src/util/assert.h"
#include "src/util/stats.h"

namespace fgdsm::bench {

std::atomic<std::uint64_t> g_allocations{0};

namespace {

std::vector<std::string> run_flags(std::vector<std::string> extra = {}) {
  std::vector<std::string> f = {
      "scale",       "full",        "nodes",       "block",
      "app",         "jobs",        "plan-cache",  "json",
      "trace",       "per-loop",    "faults",      "check-coherence",
      "watchdog-ns", "sim-threads", "collectives", "checkpoint-every"};
  f.insert(f.end(), extra.begin(), extra.end());
  return f;
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (const auto& item : items) out += (out.empty() ? "" : sep) + item;
  return out;
}

// "unknown <what><name> (did you mean <prefix><closest>?)", or the known
// names when none is close.
[[noreturn]] void unknown_name(const std::string& what,
                               const std::string& prefix,
                               const std::string& name,
                               const std::vector<std::string>& known) {
  const std::string closest = util::Options::closest_match(name, known);
  fail("unknown " + what + name +
       (closest.empty() ? " (known: " + join(known, ", ") + ")"
                        : " (did you mean " + prefix + closest + "?)"));
}

// Exits 86 (stall) or 87 (unrecoverable crash) with the structured
// diagnostic when `run` throws either.
template <typename Run>
auto or_exit(const Run& run) -> decltype(run()) {
  try {
    return run();
  } catch (const sim::CrashError& e) {
    sim::exit_crash(e);
  } catch (const sim::StallError& e) {
    sim::exit_stall(e);
  }
}

// Writes one JSON document through `body`; 1 if the file cannot be opened.
int write_json(const std::string& path,
               const std::function<void(util::JsonWriter&)>& body) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "fgdsm: cannot open json file '%s'\n", path.c_str());
    return 1;
  }
  util::JsonWriter w(f);
  body(w);
  f << '\n';
  std::fprintf(stderr, "fgdsm: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

void fail(const std::string& message) {
  std::fprintf(stderr, "fgdsm: %s\n", message.c_str());
  std::exit(2);
}

void require(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

const std::vector<Sweep>& sweeps() {
  static const std::vector<Sweep> all = {
      {"table1", run_flags(), run_table1},
      {"table2", run_flags(), run_table2},
      {"fig1_msgs", run_flags(), run_fig1_msgs},
      {"fig3", run_flags(), run_fig3},
      {"table3", run_flags(), run_table3},
      {"fig4", run_flags(), run_fig4},
      {"paper", run_flags(), run_paper},
      {"ablation", run_flags(), run_ablation},
      {"irreg", run_flags({"pattern"}), run_irreg},
      {"crash",
       run_flags(
           {"nodes-list", "intervals", "crash-interval", "crashp", "sweeps"}),
       run_crash},
      {"scale",
       run_flags({"nodes-list", "perf-json", "reps", "sweeps", "iters"}),
       run_scale},
      // Host-side throughput: one simulation at a time, so no --jobs.
      {"selfperf",
       {"scale", "nodes", "block", "reps", "workload", "json", "sim-threads"},
       run_selfperf},
  };
  return all;
}

Args parse(int argc, const char* const* argv) {
  std::vector<std::string> names;
  for (const Sweep& s : sweeps()) names.push_back(s.name);
  if (argc < 2 || argv[1][0] == '-')
    fail("usage: fgdsm-bench <sweep> [--flag[=value]...] | --list\nsweeps: " +
         join(names, " "));
  Args a;
  for (const Sweep& s : sweeps())
    if (s.name == argv[1]) a.sweep = &s;
  if (a.sweep == nullptr) unknown_name("sweep ", "", argv[1], names);

  // argv[1] (the sweep) takes the program-name slot util::Options skips.
  const util::Options& o = a.flags = util::Options(argc - 1, argv + 1);
  o.check_known(a.sweep->flags);
  if (!o.positional().empty())
    fail("unexpected argument '" + o.positional().front() + "'");

  a.scale = o.get_double("scale", o.get_bool("full") ? 1.0 : 0.15);
  a.nodes = static_cast<int>(o.get_int("nodes", 8));
  require(a.nodes >= 1 && a.nodes <= tempest::kMaxNodes,
          "--nodes=" + std::to_string(a.nodes) +
              " is outside the supported range [1, " +
              std::to_string(tempest::kMaxNodes) +
              "] (index/bitmask arithmetic is only validated up to this "
              "size)");
  a.block = static_cast<std::size_t>(o.get_int("block", 128));
  a.jobs = static_cast<int>(o.get_int("jobs", 1));
  if (o.has("app")) {
    a.app = o.get("app");
    std::vector<std::string> known;
    for (const auto& app : apps::registry()) known.push_back(app.name);
    known.push_back("spmv");  // irregular workload, outside the paper suite
    if (std::find(known.begin(), known.end(), *a.app) == known.end())
      unknown_name("--app=", "--app=", *a.app, known);
  }
  a.per_loop = o.get_bool("per-loop");
  a.json_path = o.get("json");
  a.trace_path = o.get("trace");

  exec::RunConfig& r = a.run;
  r.gather_arrays = false;  // programs verify themselves through checksums
  r.opt.plan_cache = o.get_int("plan-cache", 1) != 0;
  tempest::ClusterConfig& c = r.cluster;
  c.check_coherence = o.get_bool("check-coherence");
  if (o.has("faults")) {
    std::string err;
    c.faults = sim::FaultConfig::parse(o.get("faults"), &err);
    require(err.empty(), "bad --faults spec: " + err);
  }
  require(!o.has("collectives") ||
              tempest::parse_collectives(o.get("collectives"),
                                         &c.collectives, &c.collective_group),
          "bad --collectives value '" + o.get("collectives") +
              "' (expected flat|binary|binomial|twolevel[:G])");
  // A wedged fault run must diagnose itself, not hang CI: the watchdog
  // defaults on with --faults, scaled with node count and collective depth.
  c.watchdog_ns = static_cast<sim::Time>(o.get_int(
      "watchdog-ns", c.faults.enabled ? tempest::default_watchdog_ns(
                                            a.nodes, c.collectives)
                                      : 0));
  c.sim_threads = static_cast<int>(o.get_int("sim-threads", 1));
  require(c.sim_threads >= 1, "--sim-threads must be >= 1");
  c.checkpoint_every = static_cast<int>(o.get_int("checkpoint-every", 0));
  require(c.checkpoint_every >= 0, "--checkpoint-every must be >= 0");
  return a;
}

int main(int argc, const char* const* argv) {
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const Sweep& s : sweeps()) std::printf("%s\n", s.name.c_str());
    return 0;
  }
  const Args a = parse(argc, argv);
  return a.sweep->run(a);
}

const apps::AppInfo& app_named(const std::string& name) {
  for (const auto& app : apps::registry())
    if (app.name == name) return app;
  FGDSM_ASSERT_MSG(false, "no app " << name);
  std::abort();
}

exec::ExperimentSpec make_spec(const Args& a, const hpf::Program& prog,
                               const core::Options& opt, int nodes,
                               bool dual_cpu, std::size_t block) {
  exec::ExperimentSpec s;
  s.program = &prog;
  s.config = a.run;
  s.config.opt = opt;
  s.config.opt.plan_cache = a.run.opt.plan_cache;
  s.config.cluster.nnodes = nodes;
  s.config.cluster.dual_cpu = dual_cpu;
  s.config.cluster.block_size = block;
  s.label = opt.label();
  return s;
}

exec::ExperimentSpec make_spec(const Args& a, const hpf::Program& prog,
                               const std::string& config) {
  struct Named {
    const char* name;
    core::Options (*opt)();
    bool dual_cpu;
  };
  static const Named all[] = {
      {"serial", core::serial, true},
      {"u1", core::shmem_unopt, false},
      {"o1", core::shmem_opt_full, false},
      {"u2", core::shmem_unopt, true},
      {"o2", core::shmem_opt_full, true},
      {"mp", core::msg_passing, true},
      {"unopt", core::shmem_unopt, true},
      {"base", core::shmem_opt_base, true},
      {"bulk", core::shmem_opt_bulk, true},
      {"full", core::shmem_opt_full, true},
      {"pre", core::shmem_opt_pre, true}};
  for (const Named& c : all)
    if (config == c.name)
      return make_spec(a, prog, c.opt(), config == "serial" ? 1 : a.nodes,
                       c.dual_cpu, a.block);
  FGDSM_ASSERT_MSG(false, "no named configuration " << config);
  std::abort();
}

exec::RunResult run_spec(const exec::ExperimentSpec& s) {
  return or_exit([&] { return exec::run(*s.program, s.config); });
}

void RunMatrix::add(const std::string& row, const std::string& col,
                    exec::ExperimentSpec spec) {
  keys_.push_back(row + "/" + col);
  spec.label = keys_.back();
  if (traced_ && specs_.empty()) spec.config.trace_path = args_.trace_path;
  specs_.push_back(std::move(spec));
}

void RunMatrix::run() {
  results_ =
      or_exit([&] { return exec::BatchRunner(args_.jobs).run_all(specs_); });
}

const exec::RunResult& RunMatrix::at(const std::string& row,
                                     const std::string& col) const {
  const auto it = std::find(keys_.begin(), keys_.end(), row + "/" + col);
  FGDSM_ASSERT_MSG(it != keys_.end(), "no matrix cell " << row << "/" << col);
  return results_.at(static_cast<std::size_t>(it - keys_.begin()));
}

void RunMatrix::export_to(JsonReport& jr) const {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    const std::size_t slash = keys_[i].find('/');
    jr.add_run(keys_[i].substr(0, slash), keys_[i].substr(slash + 1),
               results_[i]);
  }
}

namespace {

void emit_stats(util::JsonWriter& w, const util::NodeStats& s) {
  w.begin_object();
  util::NodeStats::visit_fields(
      s, [&w](const char* name, auto v) { w.kv(name, v); });
  w.kv("comm_ns", s.comm_ns());
  w.end_object();
}

}  // namespace

void JsonReport::write() const {
  if (!enabled()) return;
  write_json(args_.json_path, [this](util::JsonWriter& w) {
    w.begin_object();
    w.kv("schema", "fgdsm-bench-v1");
    w.kv("bench", args_.sweep->name);
    w.key("config");
    w.begin_object();
    w.kv("scale", args_.scale);
    w.kv("nodes", args_.nodes);
    w.kv("block", static_cast<std::uint64_t>(args_.block));
    w.kv("check_coherence", args_.run.cluster.check_coherence);
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : metrics_) w.kv(k, v);
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (const Run& r : runs_) {
      w.begin_object();
      w.kv("app", r.app);
      w.kv("config", r.config);
      w.kv("elapsed_ns",
           static_cast<std::int64_t>(r.result.stats.elapsed_ns));
      w.key("scalars");
      w.begin_object();
      for (const auto& [k, v] : r.result.scalars) w.kv(k, v);
      w.end_object();
      w.key("totals");
      emit_stats(w, r.result.stats.totals());
      w.key("per_node");
      w.begin_array();
      for (const auto& ns : r.result.stats.node) emit_stats(w, ns);
      w.end_array();
      w.key("per_loop");
      w.begin_object();
      for (const auto& [loop, ns] : r.result.stats.per_loop) {
        w.key(loop);
        emit_stats(w, ns);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

void print_per_loop(const std::string& title, const exec::RunResult& r) {
  std::printf("  per-loop breakdown — %s\n", title.c_str());
  std::printf("    %-16s %9s %9s %12s %12s %12s %12s\n", "loop", "rd miss",
              "wr miss", "compute", "miss", "ccc", "sync");
  for (const auto& [name, s] : r.stats.per_loop)
    std::printf("    %-16s %9llu %9llu %12s %12s %12s %12s\n", name.c_str(),
                static_cast<unsigned long long>(s.read_misses),
                static_cast<unsigned long long>(s.write_misses),
                util::format_ns(s.compute_ns).c_str(),
                util::format_ns(s.miss_ns).c_str(),
                util::format_ns(s.ccc_ns).c_str(),
                util::format_ns(s.sync_ns).c_str());
}

double speedup(const exec::RunResult& serial, const exec::RunResult& r) {
  return static_cast<double>(serial.stats.elapsed_ns) /
         static_cast<double>(r.stats.elapsed_ns);
}

std::int64_t isqrt(std::int64_t v) {
  std::int64_t m = 0;
  while ((m + 1) * (m + 1) <= v) ++m;
  return m;
}

std::vector<int> parse_int_list(const std::string& s, const char* flag,
                                int lo, int hi) {
  std::vector<int> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    char* stop = nullptr;
    const long v = std::strtol(item.c_str(), &stop, 10);
    require(*stop == '\0' && v >= lo && v <= hi,
            std::string(flag) + " entry '" + item + "' is not an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
    out.push_back(static_cast<int>(v));
  }
  require(!out.empty(), std::string(flag) + " is empty");
  return out;
}

// ---- Host-side measurement ----

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
      continue;
    const std::size_t b = line.find_first_not_of(' ', colon + 1);
    return b == std::string::npos ? "" : line.substr(b);
  }
  return "unknown";
}

}  // namespace

Measurement measure(const std::string& name,
                    const std::vector<exec::ExperimentSpec>& specs, int reps,
                    exec::RunResult* last) {
  Measurement best{name};
  for (int rep = 0; rep < reps; ++rep) {
    Measurement m{name};
    const std::uint64_t a0 = g_allocations.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      exec::RunResult res = run_spec(specs[i]);
      m.events += res.engine_events;
      if (last != nullptr && i + 1 == specs.size()) *last = std::move(res);
    }
    m.seconds = seconds_since(t0);
    m.allocs = g_allocations.load(std::memory_order_relaxed) - a0;
    if (rep == 0 || m.seconds < best.seconds) best = m;
  }
  return best;
}

double calibrate_mops() {
  // Fixed work, no allocation and no branches: a host-speed yardstick.
  constexpr std::uint64_t kOps = 200'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  const double s = seconds_since(t0);
  // Defeats dead-code elimination without affecting the output.
  if (acc == 0x12345678) std::fprintf(stderr, "calib sentinel\n");
  return static_cast<double>(kOps) / 1e6 / s;
}

void Calibration::before(std::size_t i) {
  // Sample k is due in slot k * (workloads + 1) / kSamples: slot i < n is
  // before workload i, slot n after the last, so the samples spread evenly
  // over the sweep.
  while (samples_.size() < kSamples &&
         samples_.size() * (workloads_ + 1) / kSamples <= i)
    samples_.push_back(calibrate_mops());
}

double Calibration::finish() {
  before(workloads_);
  std::vector<double> s = samples_;
  std::sort(s.begin(), s.end());
  const double median = s[s.size() / 2];
  std::printf("calibration: %.0f Mops/s (splitmix64, median of %zu samples, "
              "range %.0f-%.0f)\n",
              median, s.size(), s.front(), s.back());
  return median;
}

int write_host_json(const std::string& path, const std::string& schema,
                    double calib,
                    const std::function<void(util::JsonWriter&)>& config,
                    const std::vector<Measurement>& rows) {
  return write_json(path, [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("schema", schema);
    w.key("host");
    w.begin_object();
    w.kv("cpu", cpu_model());
    w.kv("nproc",
         static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("calibration_mops", calib);
    w.end_object();
    w.key("config");
    w.begin_object();
    config(w);
    w.end_object();
    w.key("workloads");
    w.begin_object();
    for (const Measurement& m : rows) {
      w.key(m.name);
      w.begin_object();
      w.kv("events", m.events);
      w.kv("seconds", m.seconds);
      w.kv("events_per_sec", m.events_per_sec());
      w.kv("ns_per_event", m.ns_per_event());
      w.kv("allocs_per_event", m.allocs_per_event());
      w.kv("normalized_events_per_mop", m.events_per_sec() / (calib * 1e6));
      w.end_object();
    }
    w.end_object();
    w.end_object();
  });
}

}  // namespace fgdsm::bench
