// Per-node statistics counters for a simulation run.
//
// The counters mirror the quantities the paper reports in Table 3 and
// Figures 3/4: miss counts, protocol messages, bytes moved, and the split of
// each node's wall time into compute / communication (miss stalls + protocol
// call time) / synchronization (barrier + reduction waits).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fgdsm::util {

// One node's counters. All times are virtual nanoseconds.
struct NodeStats {
  // Memory-system events (the default protocol path).
  std::uint64_t read_misses = 0;
  std::uint64_t write_misses = 0;   // write faults (upgrade or fetch)
  std::uint64_t invalidations_received = 0;

  // Compiler-controlled coherence events.
  std::uint64_t ccc_blocks_sent = 0;
  std::uint64_t ccc_messages_sent = 0;     // direct-data messages (post-bulk)
  std::uint64_t ccc_runtime_calls = 0;     // mk_writable/implicit_*/limits
  std::uint64_t ccc_calls_elided = 0;      // removed by run-time overhead elim

  // Host-side plan cache (core::PlanStore and each node's plan records):
  // loop visits served from the node's last plan vs. visits that fetched
  // or re-ran section analysis + planning.
  // These measure wall-clock work saved, not simulated behavior — cached
  // and fresh plans are identical by construction.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  // Inspector–executor runtime (src/irreg): inspections actually performed
  // (index-array scan + needs exchange) and schedule-cache outcomes for
  // irregular-loop visits in the scheduled modes. Unlike the plan-cache
  // counters, a sched_cache miss costs simulated time (the exchange is real
  // communication), so the hit rate is a *simulated* quantity.
  std::uint64_t irreg_inspections = 0;
  std::uint64_t sched_cache_hits = 0;
  std::uint64_t sched_cache_misses = 0;

  // Network traffic (all causes).
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;

  // Chaos-mode networking (--faults): reliable-transport and fault-injector
  // activity. All zero when fault injection is off (the channel is inactive
  // and the wire is perfect). Sender-side counters (retransmits, injected
  // faults) land on the message's source node; receiver-side counters
  // (acks, suppressed duplicates) on its destination.
  std::uint64_t retransmits = 0;        // copies re-sent after an RTO expiry
  std::uint64_t channel_acks = 0;       // pure (non-piggybacked) acks sent
  std::uint64_t dup_suppressed = 0;     // already-delivered copies discarded
  std::uint64_t faults_dropped = 0;     // messages the injector dropped
  std::uint64_t faults_duplicated = 0;  // messages the injector duplicated
  std::uint64_t faults_delayed = 0;     // messages the injector delayed

  // Fail-stop crash injection + checkpoint/rollback recovery (--faults=
  // crash=/crashp= with --checkpoint-every=K). All zero in fault-free runs.
  // crashes land on the node that died; recoveries/checkpoints are counted
  // on every participating node (a rollback is cluster-wide);
  // checkpoints/checkpoint_bytes are the checkpoints this node paid for
  // (one per K-th barrier; the free t=0 image is not one) and the
  // serialized state it was charged for;
  // rollback_ns is virtual time lost to rollback (resume point minus the
  // restored checkpoint's capture time), summed over recoveries.
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::int64_t rollback_ns = 0;

  // Barriers/reductions participated in.
  std::uint64_t barriers = 0;
  std::uint64_t reductions = 0;

  // Virtual-time breakdown of this node's execution.
  std::int64_t compute_ns = 0;   // charged loop-body work + access checks
  std::int64_t miss_ns = 0;      // stalled waiting for protocol misses
  std::int64_t ccc_ns = 0;       // spent inside compiler-inserted calls
  std::int64_t sync_ns = 0;      // waiting at barriers / reductions
  std::int64_t handler_steal_ns = 0;  // single-cpu: handler occupancy observed

  // "Communication time" in the paper's sense: everything that is not the
  // loop-body computation.
  std::int64_t comm_ns() const { return miss_ns + ccc_ns + sync_ns; }
  std::uint64_t total_misses() const { return read_misses + write_misses; }

  // The one canonical field list. Every aggregate (+=, -=), the JSON report
  // and the field-completeness test derive from it, so a new counter added
  // above but forgotten here fails the sizeof tripwire in tests.
  template <typename Fn>
  static void visit_members(Fn&& fn) {
    fn("read_misses", &NodeStats::read_misses);
    fn("write_misses", &NodeStats::write_misses);
    fn("invalidations_received", &NodeStats::invalidations_received);
    fn("ccc_blocks_sent", &NodeStats::ccc_blocks_sent);
    fn("ccc_messages_sent", &NodeStats::ccc_messages_sent);
    fn("ccc_runtime_calls", &NodeStats::ccc_runtime_calls);
    fn("ccc_calls_elided", &NodeStats::ccc_calls_elided);
    fn("plan_cache_hits", &NodeStats::plan_cache_hits);
    fn("plan_cache_misses", &NodeStats::plan_cache_misses);
    fn("irreg_inspections", &NodeStats::irreg_inspections);
    fn("sched_cache_hits", &NodeStats::sched_cache_hits);
    fn("sched_cache_misses", &NodeStats::sched_cache_misses);
    fn("messages_sent", &NodeStats::messages_sent);
    fn("bytes_sent", &NodeStats::bytes_sent);
    fn("retransmits", &NodeStats::retransmits);
    fn("channel_acks", &NodeStats::channel_acks);
    fn("dup_suppressed", &NodeStats::dup_suppressed);
    fn("faults_dropped", &NodeStats::faults_dropped);
    fn("faults_duplicated", &NodeStats::faults_duplicated);
    fn("faults_delayed", &NodeStats::faults_delayed);
    fn("crashes", &NodeStats::crashes);
    fn("recoveries", &NodeStats::recoveries);
    fn("checkpoints", &NodeStats::checkpoints);
    fn("checkpoint_bytes", &NodeStats::checkpoint_bytes);
    fn("rollback_ns", &NodeStats::rollback_ns);
    fn("barriers", &NodeStats::barriers);
    fn("reductions", &NodeStats::reductions);
    fn("compute_ns", &NodeStats::compute_ns);
    fn("miss_ns", &NodeStats::miss_ns);
    fn("ccc_ns", &NodeStats::ccc_ns);
    fn("sync_ns", &NodeStats::sync_ns);
    fn("handler_steal_ns", &NodeStats::handler_steal_ns);
  }
  // Name/value visitation (works on const and non-const stats).
  template <typename S, typename Fn>
  static void visit_fields(S& s, Fn&& fn) {
    visit_members([&](const char* name, auto mem) { fn(name, s.*mem); });
  }

  NodeStats& operator+=(const NodeStats& o);
  NodeStats& operator-=(const NodeStats& o);
};

// Whole-run statistics: one NodeStats per node plus run-level results.
struct RunStats {
  std::vector<NodeStats> node;
  std::int64_t elapsed_ns = 0;  // max node finish time
  // Per-parallel-loop attribution: loop name -> the summed-over-nodes delta
  // of every counter while that loop (including its communication schedule
  // and end-of-loop synchronization) executed. Populated by the executor at
  // phase boundaries; empty for runs driven outside exec::run.
  std::map<std::string, NodeStats> per_loop;

  explicit RunStats(int nnodes = 0) : node(nnodes) {}

  NodeStats totals() const;
  // Per-node averages, as the paper reports ("average number of misses
  // per-node").
  double avg_misses_per_node() const;
  double avg_comm_ns_per_node() const;
  double avg_compute_ns_per_node() const;
};

// Human-readable helpers.
std::string format_ns(std::int64_t ns);       // "12.34 ms"
std::string format_count(std::uint64_t n);    // "293.8K"
double percent_reduction(double base, double opt);  // 100*(base-opt)/base

}  // namespace fgdsm::util
