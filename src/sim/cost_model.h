// All timing constants of the simulated platform, in one place.
//
// The constants are calibrated so the microbenchmarks of fgdsm-bench table1
// reproduce the paper's Table 1 on the default configuration:
//   - minimum roundtrip latency for a short (4-byte) message ~ 40 us
//   - network bandwidth ~ 20 MB/s
//   - read-miss processing time for a 128-byte block (dual-cpu) ~ 93 us
//     (the paper's figure covers the common 3-hop case: reader -> home ->
//      owner -> home -> reader, all in user-level protocol software)
//
// The paper's Tempest implementation accelerates fine-grain access control
// with a custom memory-bus device, so ordinary loads/stores to blocks in the
// right state cost nothing extra; only faults enter protocol software.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/time.h"

namespace fgdsm::sim {

struct CostModel {
  // ---- Network / messaging (Myrinet-class interconnect of Table 1) ----
  Time msg_send_overhead = 4 * kUs;      // cpu time to compose+inject a message
  Time msg_dispatch_overhead = 5 * kUs;  // receiver-side handler dispatch
  Time wire_latency = 10 * kUs;          // interface-to-interface
  double ns_per_byte = 50.0;             // 20 MB/s
  int msg_header_bytes = 16;

  // ---- Protocol software ----
  Time fault_cost = 2 * kUs;          // detect access fault, enter handler
  Time dir_lookup_cost = 1 * kUs;     // directory state lookup/update
  Time access_change_cost = 500;      // flip one block's access tag (ns)
  double block_copy_ns_per_byte = 4.0;  // memcpy into/out of the segment

  // ---- Compiler-inserted runtime calls (the paper's primitives) ----
  Time ccc_call_overhead = 3 * kUs;   // fixed entry cost of a runtime call
  Time ccc_per_block_cost = 400;      // per block touched by a ranged call (ns)
  Time ccc_test_only_cost = 600;      // first-time-check fast path (ns, §4.3)

  // ---- Synchronization ----
  Time barrier_local_cost = 2 * kUs;  // per-node arrive/depart bookkeeping

  // ---- Message-passing backend (the pghpf-on-Tempest baseline) ----
  // Per-message software cost of the ported pghpf runtime (composition,
  // tag matching, buffer management — ~2600 cycles at 66 MHz). The paper
  // observed this backend losing to dual-cpu shared memory on most of the
  // suite and attributed it to runtime overheads; this is that knob.
  Time mp_msg_overhead = 40 * kUs;
  // Per-byte software cost of the ported runtime's buffering path (~2.5
  // MB/s of cpu-side copying/format conversion on top of the wire). The
  // paper measured its MP backend losing to dual-cpu shared memory on five
  // of six applications and could not fully explain it ("unidentified
  // performance bottlenecks in PGI's messaging runtime, or in our
  // adaptation of PGI's primitives"); these two constants reproduce that
  // observed behaviour and are the honest place to tune the baseline.
  double mp_per_byte_extra_ns = 120.0;
  std::size_t mp_max_payload = 16384;    // section bytes per message

  // ---- Checkpointing (crash recovery, --checkpoint-every) ----
  // A checkpoint happens at a barrier-completion quiescent point: fixed
  // coordination cost plus a per-byte serialization charge for the state
  // each node contributes (owned pages, tags, directory, runtime books).
  // Modeled on local-disk/memory checkpoint streaming — cheaper per byte
  // than wire bandwidth, far from free.
  Time ckpt_base_ns = 50 * kUs;
  double ckpt_ns_per_byte = 1.0;
  // A node task's resumable execution state, modeled rather than measured so
  // the charge depends on neither the host compiler's frame layout nor the
  // fiber switch: a saved register context, plus the live stack of a task
  // parked at a barrier once its body has been entered. Fixed by the model,
  // not settable per run.
  static constexpr std::int64_t kCkptTaskContextBytes = 968;
  static constexpr std::int64_t kCkptTaskStackBytes = 2640;

  // ---- Computation ----
  // The paper's uniprocessor baselines "are not blocked for cache
  // performance", producing superlinear parallel speedups; this factor
  // inflates serial-run per-element cost to model that.
  double uni_cache_penalty = 1.25;

  Time bytes_time(std::int64_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) * ns_per_byte);
  }
  Time wire_time(std::int64_t payload_bytes) const {
    return wire_latency + bytes_time(payload_bytes + msg_header_bytes);
  }
  Time copy_time(std::int64_t bytes) const {
    return static_cast<Time>(static_cast<double>(bytes) *
                             block_copy_ns_per_byte);
  }
};

}  // namespace fgdsm::sim
