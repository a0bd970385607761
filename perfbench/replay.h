// The replay phase of a traced run: the host-side planning work of a
// workload, timed outside the simulator. For every parallel loop of every
// program the workload plans (compiler-directed shared memory and message
// passing at the workload's cluster size) it calls, under spans,
//
//   hpf.analyze  hpf::analyze_transfers at that cluster size;
//   irreg.fold   irreg::needs_to_transfers, for loops with indirect reads,
//                on the need lists of a banded gather (see replay.cc);
//   core.plan    core::plan_from_transfers once for every node.
//
// Inside exec::run every node repeats the first two on each plan-cache miss,
// so per-call times multiplied by RunStats::plan_cache_misses estimate their
// share of simulation time without instrumenting the library.
#pragma once

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Replays until at least `min_seconds` have passed (at least once) and
// returns the number of replay rounds.
int replay(const Workload& w, Spans& spans, double min_seconds);

}  // namespace perfbench
