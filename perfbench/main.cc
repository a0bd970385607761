// perfbench: the repository's benchmark. One process runs one named
// workload as a closed loop -- one simulation at a time, pass after pass over
// the workload's simulations -- for a fixed number of seconds, checks every
// simulation's checksum scalars bit-exactly against the committed reference,
// and prints its metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --reference <file> [--size full|tiny] [--spans <file>]
//   perfbench --write-reference <file>
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// runs untraced passes for a third of the time, traced passes (spans around
// every exec::run and check) for the rest, then the replay phase, and
// reports the per-layer metrics; --spans writes the recorded spans as JSON.
// A simulation that throws or whose scalars differ from the reference counts
// as failed; the run goes on. Virtual-time metrics use the unit "sim_ms":
// simulated milliseconds, which repeat exactly for the same inputs.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replay.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/core/options.h"
#include "src/exec/executor.h"
#include "src/sim/host_budget.h"
#include "src/util/stats.h"

namespace perfbench {
namespace {

using fgdsm::util::NodeStats;

constexpr int kSetupReps = 101;
constexpr double kMinReplaySeconds = 0.5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Quantile by linear interpolation between closest ranks; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Host speed yardstick (bench_selfperf's splitmix64 loop, shorter): millions
// of loop iterations per second, so a reader can tell a slower host from
// slower code. Informational; no metric is normalized by it.
double calibrate_mops() {
  constexpr std::uint64_t kOps = 50'000'000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  const double s = seconds_since(t0);
  if (acc == 0x12345678) std::fprintf(stderr, "calibration sentinel\n");
  return static_cast<double>(kOps) / 1e6 / s;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  NodeStats totals;     // every simulation that returned, summed over nodes
  NodeStats mp_totals;  // the message-passing simulations only
  std::int64_t sim_elapsed_ns = 0;
  std::uint64_t events = 0;
  double peak_rss_mb = 0.0;  // of the process so far
};

// Empty when `got` equals the reference bit for bit, else what differs.
std::string check(const std::map<std::string, double>* want,
                  const std::map<std::string, double>& got) {
  if (want == nullptr) return "no reference scalars";
  if (want->size() != got.size()) return "scalar set differs from reference";
  for (const auto& [name, v] : *want) {
    auto it = got.find(name);
    if (it == got.end()) return "missing scalar " + name;
    if (std::memcmp(&it->second, &v, sizeof v) != 0) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "scalar %s = %a, reference %a",
                    name.c_str(), it->second, v);
      return buf;
    }
  }
  return {};
}

PassResult run_pass(const Workload& w, const Reference& ref, Size size,
                    Spans& spans, std::vector<std::string>* errors) {
  PassResult r;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    const Spans::Scope pass = spans.open("pass");
    for (const Sim& s : w.sims) {
      ++r.attempted;
      std::string error;
      fgdsm::exec::RunResult res;
      bool ran = false;
      try {
        const Spans::Scope span = spans.open("exec.run", s.key);
        res = fgdsm::exec::run(*s.prog, s.cfg);
        ran = true;
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (ran) {
        {
          const Spans::Scope span = spans.open("check", s.key);
          error = check(ref.scalars(size, w.name, s.key), res.scalars);
        }
        const NodeStats t = res.stats.totals();
        r.totals += t;
        if (s.msg_passing()) r.mp_totals += t;
        r.sim_elapsed_ns += res.stats.elapsed_ns;
        r.events += res.engine_events;
      }
      if (!error.empty()) {
        ++r.failed;
        if (errors->size() < 8) errors->push_back(s.key + ": " + error);
      }
    }
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// Passes while the next one, as long as the last, still ends within
// `budget_s` (at least one).
std::vector<PassResult> run_passes(const Workload& w, const Reference& ref,
                                   Size size, Spans& spans, double budget_s,
                                   std::vector<std::string>* errors) {
  std::vector<PassResult> out;
  const Clock::time_point t0 = Clock::now();
  do {
    out.push_back(run_pass(w, ref, size, spans, errors));
  } while (seconds_since(t0) + out.back().wall_s <= budget_s);
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<PassResult>& passes, F f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return v;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  for (const Metric& m : metrics)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

// Counts every simulation of a pass produces, summed over nodes (virtual
// times in simulated ms). Identical in every pass of a run.
void add_stats_metrics(const PassResult& p, int nnodes,
                       std::vector<Metric>* out) {
  const NodeStats& t = p.totals;
  const auto count = [&](const char* name, std::uint64_t v) {
    out->push_back({name, static_cast<double>(v), "count"});
  };
  const auto sim_ms = [&](const char* name, std::int64_t ns) {
    out->push_back({name, static_cast<double>(ns) / 1e6, "sim_ms"});
  };
  count("tempest.messages", t.messages_sent);
  out->push_back({"tempest.bytes", static_cast<double>(t.bytes_sent), "B"});
  count("tempest.barriers", t.barriers);
  count("tempest.reductions", t.reductions);
  sim_ms("tempest.sync_ms", t.sync_ns);

  count("proto.read_misses", t.read_misses);
  count("proto.write_misses", t.write_misses);
  count("proto.invalidations", t.invalidations_received);
  sim_ms("proto.miss_ms", t.miss_ns);
  sim_ms("proto.handler_steal_ms", t.handler_steal_ns);

  count("core.ccc_blocks_sent", t.ccc_blocks_sent);
  count("core.ccc_messages", t.ccc_messages_sent);
  count("core.ccc_calls", t.ccc_runtime_calls);
  count("core.ccc_calls_elided", t.ccc_calls_elided);
  sim_ms("core.ccc_ms", t.ccc_ns);
  out->push_back({"core.plan_cache_hit_ratio",
                  ratio(static_cast<double>(t.plan_cache_hits),
                        static_cast<double>(t.plan_cache_hits +
                                            t.plan_cache_misses)),
                  "ratio"});

  count("irreg.inspections", t.irreg_inspections);
  out->push_back({"irreg.sched_hit_ratio",
                  ratio(static_cast<double>(t.sched_cache_hits),
                        static_cast<double>(t.sched_cache_hits +
                                            t.sched_cache_misses)),
                  "ratio"});

  count("mp.messages", p.mp_totals.messages_sent);
  out->push_back(
      {"mp.bytes", static_cast<double>(p.mp_totals.bytes_sent), "B"});

  count("channel.retransmits", t.retransmits);
  count("channel.acks", t.channel_acks);
  count("channel.dup_suppressed", t.dup_suppressed);
  count("fault.dropped", t.faults_dropped);
  count("fault.duplicated", t.faults_duplicated);
  count("fault.delayed", t.faults_delayed);
  // First copies of protocol messages over everything put on the wire:
  // retransmissions, pure channel acks and injected duplicates.
  const std::uint64_t wire = t.messages_sent + t.retransmits +
                             t.channel_acks + t.faults_duplicated;
  out->push_back({"channel.goodput_ratio",
                  ratio(static_cast<double>(t.messages_sent),
                        static_cast<double>(wire)),
                  "ratio"});

  // Checkpoints and recoveries are cluster-wide events counted on every
  // node; report them per cluster.
  const double n = static_cast<double>(std::max(nnodes, 1));
  out->push_back(
      {"ckpt.count", static_cast<double>(t.checkpoints) / n, "count"});
  out->push_back({"ckpt.bytes", static_cast<double>(t.checkpoint_bytes), "B"});
  out->push_back(
      {"ckpt.recoveries", static_cast<double>(t.recoveries) / n, "count"});
  out->push_back(
      {"ckpt.rollback_ms", static_cast<double>(t.rollback_ns) / n / 1e6,
       "sim_ms"});
  // bench_crash's MTTR: rollback time per recovery.
  out->push_back({"ckpt.mttr_ms",
                  ratio(static_cast<double>(t.rollback_ns),
                        static_cast<double>(t.recoveries)) /
                      1e6,
                  "sim_ms"});
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string reference;
  std::string spans_path;
  std::string write_reference;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --reference <file> "
               "[--size full|tiny] [--spans <file>]\n"
               "       perfbench --write-reference <file>\n",
               msg);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i], value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') *error = "bad --seed " + value;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a->seconds > 0.0) ||
          a->seconds > 3600.0)
        *error = "bad --seconds " + value;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") *error = "bad --trace " + value;
      a->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") *error = "bad --size " + value;
      a->size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--reference") {
      a->reference = value;
    } else if (flag == "--spans") {
      a->spans_path = value;
    } else if (flag == "--write-reference") {
      a->write_reference = value;
    } else {
      *error = "unknown flag " + flag;
    }
    if (!error->empty()) return false;
  }
  return true;
}

// Runs every simulation of every workload once, fault-free on one engine
// worker, and records its scalars and elapsed time.
int write_reference(const std::string& path) {
  Reference ref;
  const Reference none;
  for (const Size size : {Size::kFull, Size::kTiny}) {
    for (const std::string& name : workload_names()) {
      Workload w;
      build_workload(name, size, /*seed=*/1, none, &w);
      for (const Sim& s : w.sims) {
        std::fprintf(stderr, "[%s %s] %s\n", to_string(size), name.c_str(),
                     s.key.c_str());
        ref.set(size, name, s.key,
                fgdsm::exec::run(*s.prog, reference_config(s.cfg)));
      }
    }
  }
  if (!ref.save(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int bench_main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) return usage(error.c_str());
  if (!args.write_reference.empty())
    return write_reference(args.write_reference);
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end())
    return usage(("unknown --workload '" + args.workload + "'").c_str());
  if (args.reference.empty()) return usage("--reference is required");

  Spans spans(args.trace);
  Spans untraced(false);

  // Set-up, repeated so its median is steady: load the reference, build the
  // programs and simulation specs. The last repetition's workload is run.
  Reference ref;
  Workload w;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const Spans::Scope setup = spans.open("setup");
    {
      const Spans::Scope span = spans.open("reference.load");
      if (!ref.load(args.reference, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
      }
    }
    {
      const Spans::Scope span = spans.open("apps.build");
      build_workload(args.workload, args.size, args.seed, ref, &w);
    }
    setup_s.push_back(seconds_since(t0));
  }

  // Engine workers the simulations can get: each asks for sim_threads, the
  // engine clamps to one partition per node and to the host-core budget.
  const int budget = fgdsm::sim::HostBudget::instance().total();
  int requested = 1, workers = 1;
  for (const Sim& s : w.sims) {
    requested = std::max(requested, s.cfg.cluster.sim_threads);
    workers = std::max(workers, std::min({s.cfg.cluster.sim_threads,
                                          s.cfg.cluster.nnodes, budget}));
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  const double calib_mops = calibrate_mops();
  std::vector<std::string> notes;
  notes.push_back("host: " + std::to_string(calib_mops) +
                  " Mops/s splitmix64, nproc " + std::to_string(nproc) +
                  ", HostBudget::total() " + std::to_string(budget) +
                  ", engine workers requested " + std::to_string(requested) +
                  ", effective " + std::to_string(workers));
  if (workers < requested)
    notes.push_back(args.workload +
                    ": windowed engine not measured: the host-core budget "
                    "clamps engine workers to " +
                    std::to_string(workers) + " of " +
                    std::to_string(requested));

  std::vector<std::string> errors;
  std::vector<PassResult> plain, traced;
  int replay_rounds = 0;
  if (!args.trace) {
    plain = run_passes(w, ref, args.size, untraced, args.seconds, &errors);
  } else {
    plain = run_passes(w, ref, args.size, untraced, args.seconds / 3, &errors);
    traced = run_passes(w, ref, args.size, spans, args.seconds * 2 / 3,
                        &errors);
    replay_rounds = replay(w, spans, kMinReplaySeconds);
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced})
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
    }

  std::printf("perfbench %s (size %s, seed %llu): %zu untraced + %zu traced "
              "passes of %zu simulations after %d set-ups\n",
              args.workload.c_str(), to_string(args.size),
              static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), w.sims.size(), kSetupReps);
  for (const std::string& n : notes) std::printf("%s\n", n.c_str());
  for (const std::string& e : errors)
    std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());

  std::vector<Metric> m;
  if (!args.trace) {
    const std::vector<double> wall =
        collect(plain, [](const PassResult& p) { return p.wall_s; });
    std::printf("timings are medians over %zu passes (wall_s min %.4f, max "
                "%.4f) and %d set-ups\n",
                plain.size(), *std::min_element(wall.begin(), wall.end()),
                *std::max_element(wall.begin(), wall.end()), kSetupReps);
    m.push_back({"wall_s", median(wall), "s"});
    m.push_back(
        {"cpu_s",
         median(collect(plain, [](const PassResult& p) { return p.cpu_s; })),
         "s"});
    // The first pass's peak: what running the workload once costs. Later
    // passes add glibc heap fragmentation, which grows with the number of
    // passes and so with host speed (see host.peak_rss_end_mb).
    m.push_back({"peak_rss_mb", plain.front().peak_rss_mb, "MB"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"ok_ratio",
                 ratio(static_cast<double>(attempted - failed),
                       static_cast<double>(attempted)),
                 "ratio"});
    m.push_back({"sim_elapsed_ms",
                 median(collect(plain,
                                [](const PassResult& p) {
                                  return static_cast<double>(
                                      p.sim_elapsed_ns);
                                })) /
                     1e6,
                 "sim_ms"});
    print_result(m, attempted, failed);
    return 0;
  }

  // Per-layer metrics from the traced passes and the replay.
  const std::vector<Span>& all = spans.all();
  const std::vector<double> self = spans.self_seconds();
  std::map<int, double> run_s_by_pass;  // pass span -> summed exec.run
  std::map<int, std::uint64_t> run_allocs_by_pass;
  std::vector<double> run_ms, pass_self_s, build_s;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.name == "pass") {
      pass_self_s.push_back(self[i]);
    } else if (s.name == "exec.run") {
      run_ms.push_back(s.seconds() * 1e3);
      run_s_by_pass[s.parent] += s.seconds();
      run_allocs_by_pass[s.parent] += s.allocs();
    } else if (s.name == "apps.build") {
      build_s.push_back(s.seconds());
    }
  }
  std::vector<double> run_s, run_allocs;
  for (const auto& [pass, secs] : run_s_by_pass) {
    run_s.push_back(secs);
    run_allocs.push_back(static_cast<double>(run_allocs_by_pass[pass]));
  }
  const PassResult& last = traced.back();
  const double exec_run_s = median(run_s);
  const double events = static_cast<double>(last.events);
  const std::map<std::string, LayerTotals> layers = spans.layer_totals();
  const auto per_call_us = [&](const char* name, double calls_per_span) {
    auto it = layers.find(name);
    if (it == layers.end() || it->second.count == 0) return 0.0;
    return it->second.self_seconds * 1e6 /
           (static_cast<double>(it->second.count) * calls_per_span);
  };
  const double analyze_us = per_call_us("hpf.analyze", 1.0);
  const double plan_us = per_call_us("core.plan", w.np);
  // Every plan-cache miss in a simulation reruns analysis and planning on
  // that node (computed estimate, not a measurement inside the library).
  const double analyze_calls =
      static_cast<double>(last.totals.plan_cache_misses);
  double sum_cpu = 0.0, sum_wall = 0.0;
  for (const PassResult& p : traced) {
    sum_cpu += p.cpu_s;
    sum_wall += p.wall_s;
  }
  const auto count = [&](const char* name, double v) {
    m.push_back({name, v, "count"});
  };

  m.push_back({"exec.run_s", exec_run_s, "s"});
  m.push_back({"exec.run_ms_p50", quantile(run_ms, 0.5), "ms"});
  m.push_back({"exec.run_ms_p90", quantile(run_ms, 0.9), "ms"});
  m.push_back({"exec.driver_s", median(pass_self_s), "s"});
  count("exec.sims", static_cast<double>(w.sims.size()));
  count("exec.passes", static_cast<double>(traced.size()));
  m.push_back({"exec.fail_ratio",
               ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
               "ratio"});

  count("sim.events", events);
  m.push_back({"sim.events_per_s", ratio(events, exec_run_s), "1/s"});
  m.push_back({"sim.ns_per_event", ratio(exec_run_s * 1e9, events), "ns"});
  m.push_back({"sim.allocs_per_event", ratio(median(run_allocs), events),
               "allocs/event"});
  count("sim.workers", workers);
  count("sim.workers_requested", requested);
  m.push_back({"sim.cpu_per_wall", ratio(sum_cpu, sum_wall), "ratio"});
  count("host.nproc", nproc);
  count("host.budget_cores", budget);
  m.push_back({"host.peak_rss_end_mb", last.peak_rss_mb, "MB"});
  m.push_back({"host.calib_mops", calib_mops, "Mops/s"});

  add_stats_metrics(last, w.np, &m);

  m.push_back({"core.plan_us", plan_us, "us"});
  m.push_back({"core.plan_est_share",
               ratio(analyze_calls * plan_us * 1e-6, exec_run_s), "ratio"});
  count("hpf.analyze_calls", analyze_calls);
  m.push_back({"hpf.analyze_us", analyze_us, "us"});
  m.push_back({"hpf.est_share",
               ratio(analyze_calls * analyze_us * 1e-6, exec_run_s),
               "ratio"});
  // Every inspection folds the cluster's need lists on its node.
  const double fold_us = per_call_us("irreg.fold", 1.0);
  m.push_back({"irreg.fold_us", fold_us, "us"});
  m.push_back({"irreg.est_share",
               ratio(static_cast<double>(last.totals.irreg_inspections) *
                         fold_us * 1e-6,
                     exec_run_s),
               "ratio"});
  count("replay.rounds", replay_rounds);

  m.push_back({"apps.build_s", median(build_s), "s"});
  m.push_back({"trace.overhead_ratio",
               ratio(median(collect(traced,
                                    [](const PassResult& p) {
                                      return p.wall_s;
                                    })),
                     median(collect(plain,
                                    [](const PassResult& p) {
                                      return p.wall_s;
                                    }))),
               "ratio"});

  if (!args.spans_path.empty() && !spans.write_json(args.spans_path, notes))
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
  print_result(m, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every node backs the whole shared segment with calloc, relying on large
  // allocations being fresh, lazily committed mmap pages. glibc's dynamic
  // mmap threshold rises after the first simulation frees its segments, so
  // later simulations in the same process get recycled heap memory that
  // calloc must zero, committing every node's full segment (several GB at
  // 256 nodes). Pinning the threshold at glibc's initial 128 KiB gives every
  // simulation the allocator state of a fresh single-simulation process.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  return perfbench::bench_main(argc, argv);
}
