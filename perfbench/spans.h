// Host-side instrumentation that lives entirely in the benchmark: a
// process-wide operator-new counter and an in-memory span recorder.
//
// Spans wrap the benchmark's own calls into the simulator's public API
// (set-up, each pass, each exec::run, each correctness check, the replay of
// section analysis / planning / inspector folding). Each span has a name, a
// free-form tag, start and end (host steady clock), its parent, and the
// operator-new count at both ends, so a layer's self time and self
// allocations are its span minus its children. The library is not touched.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Heap allocations made by the whole process so far (every operator new,
// every thread). Relaxed counter: read only at span boundaries.
std::uint64_t allocs_so_far();

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string tag;
  int parent = -1;   // index into Spans::all(), -1 for a root
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;

  double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
  std::uint64_t allocs() const { return allocs_end - allocs_start; }
};

// Per-name totals over every recorded span of that name.
struct LayerTotals {
  std::uint64_t count = 0;
  double seconds = 0.0;       // summed span durations
  double self_seconds = 0.0;  // minus the time covered by child spans
  std::uint64_t self_allocs = 0;
};

class Spans {
 public:
  // Closes its span when it goes out of scope. Inert when the recorder is
  // disabled, so traced and untraced passes run the same code.
  class Scope {
   public:
    Scope(Spans* owner, int index) : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    Spans* owner_;
    int index_;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  Scope open(std::string name, std::string tag = {});

  const std::vector<Span>& all() const { return spans_; }
  // Self time of every span: its duration minus its direct children's.
  std::vector<double> self_seconds() const;
  std::vector<std::uint64_t> self_allocs() const;
  std::map<std::string, LayerTotals> layer_totals() const;

  // Spans plus per-name totals as JSON; `notes` lands in a top-level
  // "notes" array. Returns false if the file cannot be written.
  bool write_json(const std::string& path,
                  const std::vector<std::string>& notes) const;

 private:
  void close(int index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
