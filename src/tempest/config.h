// Cluster configuration — the experimental platform knobs of the paper's
// Section 5 (Table 1) plus block/page geometry.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/time.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
class Tracer;
}

namespace fgdsm::tempest {

// Hard ceiling on --nodes. Everything downstream (partition counts, sharer
// sets, link keys) is sized/verified for this range; values beyond it are
// rejected up front with a clear error instead of risking silent overflow.
inline constexpr int kMaxNodes = 65536;

// Barrier/reduction topology: the spanning tree rooted at node 0 that
// Cluster's collective walk follows.
//   kFlat     — the platform's centralized coordinator: the star whose
//               root's children are every other node. Node 0 counts
//               arrivals and linearly broadcasts releases, reaching itself
//               by loopback message (the paper's 8-node cluster behavior;
//               cost grows O(nodes)).
//   kBinary   — binary tree rooted at 0 (parent (i-1)/2, children
//               {2i+1, 2i+2}). This is the shape the old ablation actually
//               implemented while its comments claimed "binomial".
//   kBinomial — true binomial tree rooted at 0 (parent clears the lowest
//               set bit: i & (i-1); node i's children are i | (1<<k) for
//               each bit k below i's lowest set bit — for the root, every
//               power of two below nnodes).
//   kTwoLevel — groups of G: members report to their group leader
//               (i / G * G), leaders report to node 0. G defaults to
//               ceil(sqrt(nodes)) which balances the two levels.
enum class Collectives { kFlat = 0, kBinary, kBinomial, kTwoLevel };

inline const char* to_string(Collectives c) {
  switch (c) {
    case Collectives::kFlat: return "flat";
    case Collectives::kBinary: return "binary";
    case Collectives::kBinomial: return "binomial";
    case Collectives::kTwoLevel: return "twolevel";
  }
  return "?";
}

// Parses "flat" | "binary" | "binomial" | "twolevel[:G]" (e.g.
// "twolevel:16"). Returns false on an unrecognized name or malformed group.
inline bool parse_collectives(const std::string& s, Collectives* out,
                              int* group) {
  std::string name = s;
  if (auto colon = s.find(':'); colon != std::string::npos) {
    name = s.substr(0, colon);
    const std::string g = s.substr(colon + 1);
    if (g.empty() || g.find_first_not_of("0123456789") != std::string::npos)
      return false;
    *group = std::stoi(g);
  }
  if (name == "flat") *out = Collectives::kFlat;
  else if (name == "binary") *out = Collectives::kBinary;
  else if (name == "binomial") *out = Collectives::kBinomial;
  else if (name == "twolevel") *out = Collectives::kTwoLevel;
  else return false;
  return true;
}

// Default virtual-time stall watchdog budget for chaos runs. The historical
// 2e9 ns default was calibrated on the paper's 8-node cluster; larger
// clusters legitimately take longer between progress ticks — the flat
// release broadcast serializes O(nodes) sends through node 0, while tree
// topologies only deepen the critical path O(log nodes) — so the default
// scales with both node count and collective depth to keep healthy runs from
// false-tripping exit 86.
inline sim::Time default_watchdog_ns(int nnodes, Collectives topo) {
  constexpr sim::Time kBase = 2'000'000'000;  // the 8-node calibration
  if (nnodes <= 8) return kBase;
  const sim::Time ratio = (static_cast<sim::Time>(nnodes) + 7) / 8;
  if (topo == Collectives::kFlat) return kBase * ratio;
  // Tree-shaped: depth (and retransmission pile-ups behind it) grows with
  // log2 of the fan-in ratio, not linearly.
  sim::Time depth = 1;
  while ((sim::Time{1} << depth) < ratio) ++depth;
  return kBase * (1 + depth);
}

struct ClusterConfig {
  int nnodes = 8;            // the paper's 8-node SS20 cluster
  std::size_t block_size = 128;   // Tempest fine-grain unit (32–128 bytes)
  std::size_t page_size = 4096;   // home assignment granularity
  bool dual_cpu = true;      // dedicated protocol processor vs interleaved
  // Collectives topology (see enum above). kFlat reproduces the paper's
  // platform; the tree shapes are the scaling ablation.
  Collectives collectives = Collectives::kFlat;
  // Two-level group size G; 0 = auto (ceil(sqrt(nnodes))). Ignored by the
  // other topologies.
  int collective_group = 0;
  // Run the protocol's coherence-invariant checker at each global barrier
  // (debug aid; adds host-time cost but charges no virtual time).
  bool check_coherence = false;
  // Optional event tracer (not owned; null = tracing off). The tracer is
  // passive — it records spans/flows but never charges virtual time.
  sim::Tracer* tracer = nullptr;
  // Chaos mode (--faults=...): with faults.enabled the cluster interposes a
  // deterministic FaultInjector on the wire and layers the reliable channel
  // under every node. Disabled (the default) leaves the original direct
  // network path — zero overhead, bit-identical behavior.
  sim::FaultConfig faults;
  // Progress watchdog (--watchdog-ns=N): fail with sim::StallError if no
  // compute task advances for N virtual ns while work remains. 0 = off.
  sim::Time watchdog_ns = 0;
  // Checkpoint interval in barriers (--checkpoint-every=K): at every K-th
  // completed global barrier each node serializes its owned pages, tags,
  // protocol directory and runtime state into the in-sim checkpoint store
  // (bytes/time charged via CostModel::ckpt_*). 0 disables checkpointing —
  // a crash then raises sim::CrashError instead of recovering.
  int checkpoint_every = 0;
  // Worker threads for the engine's conservative synchronous-window
  // parallel mode (--sim-threads=N). Bit-identical results at any value —
  // the engine always partitions per node and only the draining thread
  // assignment changes; the effective count is further clamped by the
  // process-wide sim::HostBudget. 1 = drain all partitions on the caller.
  int sim_threads = 1;
  sim::CostModel costs;

  void validate() const {
    FGDSM_ASSERT(nnodes >= 1);
    FGDSM_ASSERT_MSG(nnodes <= kMaxNodes,
                     "--nodes=" << nnodes << " exceeds the supported maximum "
                                << kMaxNodes
                                << " (index/bitmask arithmetic is only "
                                   "validated up to this size)");
    FGDSM_ASSERT_MSG(collective_group >= 0,
                     "two-level collective group size must be >= 0 (0 = auto)");
    FGDSM_ASSERT_MSG((block_size & (block_size - 1)) == 0 && block_size >= 8,
                     "block size must be a power of two >= 8");
    FGDSM_ASSERT_MSG(page_size % block_size == 0,
                     "page size must be a multiple of block size");
    FGDSM_ASSERT_MSG(checkpoint_every >= 0,
                     "--checkpoint-every must be >= 0 (0 = off)");
  }
};

}  // namespace fgdsm::tempest
