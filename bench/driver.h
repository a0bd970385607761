// The experiment driver: `fgdsm-bench <sweep> [flags]` runs one paper
// table/figure, ablation or host-side study; `fgdsm-bench --list` names the
// sweeps. parse() turns the command line into one Args value, an
// exec::RunConfig template every cell starts from plus the harness
// parameters, so no run option lives in a process global.
//
// Flags of every simulating sweep (defaults in parentheses):
//   --scale=<s> (0.15; 1.0 = Table 2 sizes)  --full  (--scale=1.0)
//   --nodes=<n> (8, in [1, tempest::kMaxNodes])  --block=<bytes> (128)
//   --app=<name>  one registry app or spmv   --jobs=<n> (1) host threads
//   --plan-cache=<0|1> (1; 0 re-analyzes every loop visit on every node)
//   --json=<file>  fgdsm-bench-v1 results    --trace=<file>  first cell
//   --per-loop  --check-coherence  --faults=<spec> (src/sim/fault.h)
//   --checkpoint-every=<k> (0)  --sim-threads=<n> (1)
//   --watchdog-ns=<n> (tempest::default_watchdog_ns with --faults, else 0)
//   --collectives=flat|binary|binomial|twolevel[:G] (flat)
// Simulated output is byte-identical at any --jobs and --sim-threads.
// Each sweep declares its extra flags; any other flag, an unknown sweep or
// an unknown --app exits 2 with a did-you-mean suggestion.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/core/options.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/util/json.h"
#include "src/util/options.h"

namespace fgdsm::bench {

struct Args;

struct Sweep {
  std::string name;
  std::vector<std::string> flags;  // every flag the sweep accepts
  int (*run)(const Args&);
};

// Every sweep, in `--list` order.
const std::vector<Sweep>& sweeps();

struct Args {
  const Sweep* sweep = nullptr;
  util::Options flags{0, nullptr};  // validated against sweep->flags
  exec::RunConfig run;              // template for every cell of the sweep
  double scale = 0.15;
  int nodes = 8;
  std::size_t block = 128;
  int jobs = 1;
  std::optional<std::string> app;
  std::string json_path;
  std::string trace_path;
  bool per_loop = false;

  bool selected(const std::string& name) const { return !app || *app == name; }
};

Args parse(int argc, const char* const* argv);

// Bad command-line input: "fgdsm: <message>" and exit 2.
[[noreturn]] void fail(const std::string& message);
void require(bool ok, const std::string& message);  // fail unless ok

// --list, or parse and run one sweep.
int main(int argc, const char* const* argv);

const apps::AppInfo& app_named(const std::string& name);

// One cell: `prog` under `opt` on the template's cluster knobs.
exec::ExperimentSpec make_spec(const Args& a, const hpf::Program& prog,
                               const core::Options& opt, int nodes,
                               bool dual_cpu, std::size_t block);
// A cell of a named configuration on --nodes and --block: the paper's serial
// (on one node), u1/o1 and u2/o2 (sm-unopt/sm-opt on single-/dual-cpu
// nodes) and mp, or Figure 4's levels unopt/base/bulk/full/pre (dual-cpu).
exec::ExperimentSpec make_spec(const Args& a, const hpf::Program& prog,
                               const std::string& config);

// The one catch site: a stall or an unrecoverable crash ends the process
// with its structured diagnostic (exit 86 / 87).
exec::RunResult run_spec(const exec::ExperimentSpec& s);

// Cells addressed by (row, column), run as one batch on --jobs threads.
// With `traced`, the first cell records --trace.
class RunMatrix {
 public:
  explicit RunMatrix(const Args& a, bool traced = false)
      : args_(a), traced_(traced) {}
  void add(const std::string& row, const std::string& col,
           exec::ExperimentSpec spec);
  void add(const std::string& row, const std::string& col,
           const hpf::Program& prog, const std::string& config) {
    add(row, col, make_spec(args_, prog, config));
  }
  void run();
  const exec::RunResult& at(const std::string& row,
                            const std::string& col) const;
  // Every cell, in registration order, as run (row, column).
  void export_to(class JsonReport& jr) const;

 private:
  const Args& args_;
  bool traced_;
  std::vector<exec::ExperimentSpec> specs_;
  std::vector<std::string> keys_;       // "row/col", in spec order
  std::vector<exec::RunResult> results_;
};

// --json: {"schema":"fgdsm-bench-v1","bench":<sweep>,
//   "config":{scale,nodes,block,check_coherence},"metrics":{...},
//   "runs":[{app,config,elapsed_ns,scalars,totals,per_node,per_loop},...]}
// Only simulated results go in, so the file is byte-identical at any --jobs.
class JsonReport {
 public:
  explicit JsonReport(const Args& a) : args_(a) {}
  bool enabled() const { return !args_.json_path.empty(); }
  void add_run(const std::string& app, const std::string& config,
               const exec::RunResult& r) {
    if (enabled()) runs_.push_back(Run{app, config, r});
  }
  void add_metric(const std::string& name, double v) {
    if (enabled()) metrics_[name] = v;
  }
  void write() const;  // no-op without --json; logs to stderr only

 private:
  struct Run {
    std::string app;
    std::string config;
    exec::RunResult result;
  };
  Args args_;
  std::map<std::string, double> metrics_;
  std::vector<Run> runs_;
};

void print_per_loop(const std::string& title, const exec::RunResult& r);
double speedup(const exec::RunResult& serial, const exec::RunResult& r);

// Largest m with m*m <= v: libm rounding must not pick problem sizes.
std::int64_t isqrt(std::int64_t v);

// "8,64,256" with every entry an integer in [lo, hi]; else exit 2.
std::vector<int> parse_int_list(const std::string& s, const char* flag,
                                int lo, int hi);

// ---- Host-side measurement (selfperf, scale) ----

// Heap allocations so far; the driver binary's operator new bumps it.
extern std::atomic<std::uint64_t> g_allocations;

struct Measurement {
  std::string name;
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
  double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0.0;
  }
  double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0.0;
  }
};

// Runs `specs` back to back `reps` times and keeps the fastest repetition;
// `last`, if given, receives the final spec's result.
Measurement measure(const std::string& name,
                    const std::vector<exec::ExperimentSpec>& specs, int reps,
                    exec::RunResult* last = nullptr);

// Mops/s of one run of a fixed splitmix64 loop: a host-speed sample.
double calibrate_mops();

// The host-speed normalizer of a host-side sweep: the median of kSamples
// calibrate_mops() samples, drawn between the sweep's workloads so that a
// transient slowdown of the host moves one sample, not the normalizer.
class Calibration {
 public:
  static constexpr std::size_t kSamples = 5;

  explicit Calibration(std::size_t workloads) : workloads_(workloads) {}
  // Draws the samples due before workload i (0-based, in run order).
  void before(std::size_t i);
  // Draws the samples still due, prints the "calibration:" line with the
  // samples' range, and returns their median.
  double finish();

 private:
  std::size_t workloads_;
  std::vector<double> samples_;
};

// {"schema","host":{cpu,nproc,calibration_mops},"config":{...},
//  "workloads":{<name>:{events,seconds,events_per_sec,ns_per_event,
//  allocs_per_event,normalized_events_per_mop}}} for scripts/check_perf.py.
// Returns 0, or 1 if the file cannot be written.
int write_host_json(const std::string& path, const std::string& schema,
                    double calib,
                    const std::function<void(util::JsonWriter&)>& config,
                    const std::vector<Measurement>& rows);

int run_table1(const Args&);
int run_table2(const Args&);
int run_fig1_msgs(const Args&);
int run_fig3(const Args&);
int run_table3(const Args&);
int run_fig4(const Args&);
int run_paper(const Args&);
int run_ablation(const Args&);
int run_irreg(const Args&);
int run_crash(const Args&);
int run_scale(const Args&);
int run_selfperf(const Args&);

}  // namespace fgdsm::bench
