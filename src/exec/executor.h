// The executor: runs a compiled hpf::Program on the simulated cluster under
// any configuration (serial / transparent shared memory / compiler-directed
// coherence at each optimization level / message passing).
//
// Direct-execution style: loop bodies run natively on each node's backing of
// the shared segment, while the executor performs the compiled-in
// block-granular access checks over each chunk's declared footprint
// (coalesced checks — the per-block state test is free on the paper's
// hardware-assisted platform; only faults enter protocol software) and
// charges the compute cost model. In the optimized modes it first executes
// the planner's Figure-2 call schedule around every loop.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/hpf/ir.h"
#include "src/tempest/config.h"
#include "src/util/stats.h"

namespace fgdsm::exec {

struct RunConfig {
  tempest::ClusterConfig cluster;  // nodes, block size, dual-cpu, costs
  core::Options opt;
  hpf::Bindings size_overrides;    // overrides the program's default sizes
  // Verification support: after the timed run, gather every array's
  // authoritative contents (through the protocol itself in shared-memory
  // modes). Costs host time; benches leave it off and compare checksums
  // computed by the programs themselves.
  bool gather_arrays = false;
  // Event tracing: when non-empty, record spans and message flows during the
  // run and write Chrome trace_event JSON to this path. Tracing is passive
  // (no virtual-time charges): a traced run is bit-identical to an untraced
  // one.
  std::string trace_path;
};

struct RunResult {
  util::RunStats stats;            // snapshot at program completion
  std::map<std::string, std::vector<double>> arrays;  // if gathered
  std::map<std::string, double> scalars;              // final (node 0)
  // Host-side throughput accounting (fgdsm-bench selfperf): how many engine
  // events the run processed. Deterministic (a simulated quantity), but
  // deliberately kept out of the fgdsm-bench-v1 JSON schema.
  std::uint64_t engine_events = 0;
};

// Reentrant: a run is a self-contained value (engine + cluster + executor
// state all live on this call's stack/heap; see src/sim/engine.h for the
// invariant), so concurrent calls from different host threads are safe and
// bit-identical to sequential execution. exec::BatchRunner builds on this.
RunResult run(const hpf::Program& prog, RunConfig cfg);

}  // namespace fgdsm::exec
