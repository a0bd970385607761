// Execution modes and optimization levels — the configurations the paper
// evaluates (Figures 3 and 4).
#pragma once

#include <cstddef>
#include <string>

namespace fgdsm::core {

enum class Mode {
  kSerial,       // 1 node, no checks: the speedup denominator
  kShmemUnopt,   // default protocol only (transparent shared memory)
  kShmemOpt,     // compiler-directed coherence (Fig. 2 call sequence)
  kMsgPassing,   // the pghpf-style message-passing backend baseline
};

struct Options {
  Mode mode = Mode::kShmemUnopt;

  // Bulk transfer (§4.2 / Fig. 4): coalesce contiguous compiler-controlled
  // blocks into payloads of up to max_payload bytes. Off = one message per
  // block.
  bool bulk_transfer = false;
  std::size_t max_payload = 4096;

  // Run-time overhead elimination (§4.3 / Fig. 4): under whole-program
  // owner-computes assumptions, drop mk_writable (and its barrier), make
  // implicit_writable first-time-only, and drop implicit_invalidate.
  bool rt_overhead_elim = false;

  // Extension (paper's §4.3/§7 future work): availability-based redundant
  // communication elimination — skip a transfer when the same section was
  // already communicated and nothing wrote the array in between.
  bool elim_redundant_comm = false;

  // Host-side (wall-clock) optimization, no effect on simulated results:
  // analyze each loop visit's schedule once per cluster (core::PlanStore)
  // and let every node reuse its own lowered slice while the symbols the
  // loop's structure references keep their values. Models the paper's
  // compiler emitting the schedule once instead of re-planning every visit.
  // Off — every node re-analyzes every visit — is the reference path of the
  // equivalence tests and the A/B timing. Exception: for loops with
  // indirect reads the same cache holds the inspector's gather schedule,
  // whose misses cost *simulated* time (the needs exchange is real
  // communication) — turning the cache off makes such runs slower in
  // virtual time too, though numerically identical.
  bool plan_cache = true;

  std::string label() const;
};

// The named configurations used by benches/tests.
Options serial();
Options shmem_unopt();
Options shmem_opt_base();   // sender-initiated transfers only
Options shmem_opt_bulk();   // + bulk transfer
Options shmem_opt_full();   // + run-time overhead elimination
Options shmem_opt_pre();    // + redundant-communication elimination (ext.)
Options msg_passing();

}  // namespace fgdsm::core
