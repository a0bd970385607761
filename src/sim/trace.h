// Run-level event tracing: records virtual-time spans (compute phases, miss
// stalls, protocol calls, synchronization waits) and message arrows
// (send -> handler dispatch, tagged by transaction kind) and exports them as
// Chrome trace_event JSON, loadable in chrome://tracing or Perfetto.
//
// The tracer is strictly passive: it never charges virtual time, so a traced
// run is bit-identical to an untraced one. It is also strictly optional —
// every recording site guards on a nullable Tracer*, so the disabled path
// costs one pointer test. One Tracer belongs to one simulation and is
// mutated from the one host thread that created it (the cluster drains a
// traced run on a single worker); debug builds check this on every record.
//
// Track convention (one Chrome "thread" per track, pid 0): a node's compute
// processor is tid 2*node, its protocol processor tid 2*node + 1. Spans on
// one track come from one sequential context (a task, or the serialized
// handler chain), so slices nest properly.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/time.h"
#include "src/util/assert.h"

namespace fgdsm::sim {

class Tracer {
 public:
  static int compute_track(int node) { return 2 * node; }
  static int protocol_track(int node) { return 2 * node + 1; }

  void set_track_name(int tid, std::string name);

  // Duration span [t0, t1] (virtual ns) on `tid`. Category is a static
  // string: "loop", "miss", "ccc", "sync", "msg". The name is stored, not
  // copied: it must outlive write() (a literal, a loop's name in the
  // Program being run, a process-wide label table).
  void span(int tid, const char* cat, const char* name, Time t0, Time t1);

  // Message arrow. flow_begin records the send-side slice [t0, t1] plus a
  // flow start bound to it and returns the flow id to ship inside the
  // message; flow_end records the dispatch-side slice and closes the arrow.
  // Name lifetime contract as in span().
  std::uint64_t flow_begin(int tid, const char* cat, const char* name,
                           Time t0, Time t1);
  void flow_end(std::uint64_t id, int tid, const char* cat, const char* name,
                Time t0, Time t1);

  std::size_t num_events() const { return events_.size(); }

  // Chrome trace_event JSON ("traceEvents" array form).
  void write(std::ostream& os) const;
  // Returns false (and logs to stderr) if the file cannot be opened.
  bool write_file(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { kSpan, kFlowSrc, kFlowDst };
  void check_owner() const {
    FGDSM_DCHECK(owner_ == std::this_thread::get_id());
  }
  struct Event {
    Kind kind;
    int tid;
    const char* cat;
    const char* name;  // never owned by the event
    Time t0;
    Time t1;
    std::uint64_t flow = 0;
  };

  std::vector<Event> events_;
  std::map<int, std::string> track_names_;
  std::uint64_t next_flow_ = 1;
  std::thread::id owner_ = std::this_thread::get_id();
};

}  // namespace fgdsm::sim
