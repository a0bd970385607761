#include "src/sim/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "src/sim/host_budget.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

// A stall detected inside a partition's drain (retry-budget exhaustion).
// Composing the full report needs cross-partition state (blocked tasks,
// channel diagnostics), so the reason unwinds the partition here and the
// coordinator composes the StallError single-threaded at the barrier.
struct PendingStall {
  std::string reason;
};

// Sense-free generation barrier: spin briefly (windows are ~microseconds of
// simulated work), then yield so an oversubscribed host still makes
// progress. The release/acquire pair on phase_ is the happens-before edge
// that publishes window_end_ and the partition outboxes across workers.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : total_(n) {}

  void arrive_and_wait() {
    if (total_ == 1) return;
    const std::uint32_t my_phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(my_phase + 1, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == my_phase) {
      if (++spins > 4096) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

 private:
  const int total_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> phase_{0};
};

}  // namespace

void exit_stall(const StallError& e) {
  std::fprintf(stderr, "fgdsm: simulation stalled\n%s\n", e.what());
  std::exit(kStallExitCode);
}

void exit_crash(const CrashError& e) {
  std::fprintf(stderr, "fgdsm: unrecoverable node crash\n%s\n", e.what());
  std::exit(kCrashExitCode);
}

Engine::~Engine() {
  FGDSM_ASSERT_MSG(tasks_.empty(),
                   "engine destroyed with " << tasks_.size()
                                            << " live tasks");
}

Time Engine::Partition::front_time() const {
  Time t = kTimeInfinity;
  if (!events.empty()) t = events.top_time();
  if (!resumes.empty() && resumes.top_time() < t) t = resumes.top_time();
  return t;
}

void Engine::set_partitions(int n) {
  FGDSM_ASSERT_MSG(n >= 1, "partition count must be >= 1");
  FGDSM_ASSERT_MSG(!running_, "set_partitions during run()");
  FGDSM_ASSERT_MSG(tasks_.empty(), "set_partitions after registering tasks");
  for (const Partition& p : parts_)
    FGDSM_ASSERT_MSG(p.events.empty() && p.resumes.empty(),
                     "set_partitions after events were scheduled");
  // Construct in place (Partition is not movable once queues hold state).
  std::vector<Partition>(static_cast<std::size_t>(n)).swap(parts_);
  for (int i = 0; i < n; ++i) parts_[static_cast<std::size_t>(i)].index = i;
}

void Engine::set_lookahead(Time la) {
  FGDSM_ASSERT_MSG(la >= 2, "lookahead must be >= 2 to guarantee progress");
  lookahead_ = la;
}

void Engine::set_window_lookahead(Time w) {
  // Any positive value is sound (smaller windows are merely slower): each
  // window processes at least the event at the global safe time.
  FGDSM_ASSERT_MSG(w >= 1, "window lookahead must be positive");
  window_lookahead_ = w;
}

void Engine::set_seq_base(std::uint64_t base) {
  for (Partition& p : parts_) {
    FGDSM_ASSERT_MSG(p.events.empty() && p.resumes.empty(),
                     "set_seq_base after events were scheduled");
    p.next_seq = base;
  }
}

bool Engine::front_precedes(const EventQueue& a, const EventQueue& b) {
  if (a.empty()) return false;
  if (b.empty()) return true;
  return a.top_time() != b.top_time() ? a.top_time() < b.top_time()
                                      : a.top_seq() < b.top_seq();
}

// Drain one partition's events strictly below the window boundary. Failures
// are captured on the partition (not thrown across the barrier) so every
// partition still completes its window — matching serial execution order —
// and the coordinator rethrows deterministically.
void Engine::drain_partition(Partition& p, Time wend) {
  const Engine* prev_e = tls_engine();
  Partition* prev_p = tls_partition();
  tls_engine() = this;
  tls_partition() = &p;
  try {
    for (;;) {
      const bool has_e = !p.events.empty() && p.events.top_time() < wend;
      const bool has_r = !p.resumes.empty() && p.resumes.top_time() < wend;
      if (!has_e && !has_r) break;
      const bool is_resume =
          has_e && has_r ? !front_precedes(p.events, p.resumes) : has_r;
      EventQueue& q = is_resume ? p.resumes : p.events;
      Time t;
      InlineFn fn = q.pop(&t);
      p.now = t;
      if (is_resume) {
        p.last_progress = t;
      } else if (wend == kTimeInfinity && watchdog_ns_ > 0 &&
                 t - p.last_progress > watchdog_ns_ && any_task_unfinished()) {
        // The coordinator's per-window check runs once for an unbounded
        // window, so handler/timer events spinning without compute-task
        // progress are caught here instead.
        fail_stall(watchdog_reason(t - p.last_progress));
      }
      ++p.events_processed;
      fn();
    }
  } catch (const PendingStall& ps) {
    p.stalled = true;
    p.stall_reason = ps.reason;
  } catch (...) {
    p.error = std::current_exception();
  }
  tls_engine() = prev_e;
  tls_partition() = prev_p;
}

// Merge every partition's outbox into the destination queues in the fixed
// global order (dst, time, src seq, src partition). The key is unique
// ((src partition, src seq) never repeats) and independent of the host
// thread count, and destination seqs are assigned in merge order, so the
// post-merge queues are bit-identical at any --sim-threads.
void Engine::merge_cross(std::vector<CrossEvent>& scratch) {
  scratch.clear();
  for (Partition& p : parts_) {
    for (CrossEvent& ce : p.outbox) scratch.push_back(std::move(ce));
    p.outbox.clear();
  }
  if (scratch.empty()) return;
  std::sort(scratch.begin(), scratch.end(),
            [](const CrossEvent& a, const CrossEvent& b) {
              if (a.dst_part != b.dst_part) return a.dst_part < b.dst_part;
              if (a.t != b.t) return a.t < b.t;
              if (a.src_seq != b.src_seq) return a.src_seq < b.src_seq;
              return a.src_part < b.src_part;
            });
  for (CrossEvent& ce : scratch) {
    // The conservative-window soundness invariant: nothing scheduled during
    // [S, W) may land before W in another partition. A violation means the
    // configured min-link-latency overstates the real minimum.
    FGDSM_ASSERT_MSG(ce.t >= window_end_ || window_end_ == kTimeInfinity,
                     "cross-partition event at t="
                         << ce.t << " violates the window boundary W="
                         << window_end_
                         << " (window lookahead exceeds the true minimum "
                            "cross-partition latency)");
    Partition& d = parts_[static_cast<std::size_t>(ce.dst_part)];
    (ce.is_resume ? d.resumes : d.events)
        .push(ce.t, d.next_seq++, std::move(ce.fn));
  }
  scratch.clear();
}

// Rethrow the first failure of the completed window, by partition id — a
// deterministic choice at any thread count.
void Engine::throw_partition_error() {
  for (Partition& p : parts_) {
    if (p.error) {
      std::exception_ptr e = p.error;
      p.error = nullptr;
      std::rethrow_exception(e);
    }
    if (p.stalled) {
      p.stalled = false;
      const std::string reason = std::move(p.stall_reason);
      p.stall_reason.clear();
      compose_and_throw_stall(reason);
    }
  }
}

// Conservative synchronous-window PDES (see the file comment in engine.h).
void Engine::run() {
  FGDSM_ASSERT_MSG(!running_, "Engine::run is not reentrant");
  const int nparts = static_cast<int>(parts_.size());
  // With one partition nothing crosses a partition boundary: the window is
  // unbounded and the whole run is one window.
  const Time wla = nparts == 1 ? kTimeInfinity : window_lookahead();
  int want = sim_threads_ < nparts ? sim_threads_ : nparts;
  if (want < 1) want = 1;
  const int granted =
      want > 1 ? HostBudget::instance().acquire(want - 1) : 0;
  const int nworkers = 1 + granted;

  for (Partition& p : parts_) {
    p.last_progress = p.now;
    p.outbox.clear();
    p.error = nullptr;
    p.stalled = false;
    p.stall_reason.clear();
  }
  running_ = true;
  tasks_done_snapshot_ = !any_task_unfinished_raw();

  // Worker crew: partition i is drained by worker i % nworkers for the
  // whole run, so a task fiber never migrates between host threads (rollback
  // unwinding aside; see task.h). The coordinator (this thread) is worker 0;
  // merge, window computation, and failure handling all happen
  // single-threaded between the barriers.
  SpinBarrier start(nworkers);
  SpinBarrier finish(nworkers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> crew;
  crew.reserve(static_cast<std::size_t>(nworkers - 1));
  for (int w = 1; w < nworkers; ++w) {
    crew.emplace_back([this, w, nworkers, nparts, &start, &finish, &stop] {
      for (;;) {
        start.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) return;
        for (int i = w; i < nparts; i += nworkers)
          drain_partition(parts_[static_cast<std::size_t>(i)], window_end_);
        finish.arrive_and_wait();
      }
    });
  }
  // Every exit — normal return, a stall, or an exception escaping an event
  // callback — commits the latest partition time (so a failure reports the
  // time of the event that failed), releases the crew and the running flag,
  // and leaves the engine usable for a later run().
  const auto release_crew = [&] {
    now_ = max_partition_now();
    stop.store(true, std::memory_order_release);
    start.arrive_and_wait();
    for (std::thread& th : crew) th.join();
    if (granted > 0) HostBudget::instance().release(granted);
    running_ = false;
  };

  try {
    std::vector<CrossEvent> scratch;
    for (;;) {
      // Global safe time S: the earliest pending event anywhere. Every
      // partition may run past it by the window lookahead without missing a
      // cross-partition effect.
      Time safe = kTimeInfinity;
      for (const Partition& p : parts_) {
        const Time f = p.front_time();
        if (f < safe) safe = f;
      }
      if (safe == kTimeInfinity) {
        // Queues drained with tasks still blocked: normally a deadlock
        // (diagnosed after the loop), but with a crashed node it means the
        // survivors are parked waiting on the dead peer — give the recovery
        // hook a chance to roll back and repopulate the queues.
        if (recovery_hook_ && any_task_unfinished_raw() && recovery_hook_())
          continue;
        break;
      }
      now_ = safe;
      tasks_done_snapshot_ = !any_task_unfinished_raw();
      if (watchdog_ns_ > 0 && !tasks_done_snapshot_) {
        Time progress = 0;
        for (const Partition& p : parts_)
          progress = std::max(progress, p.last_progress);
        if (safe - progress > watchdog_ns_) {
          if (recovery_hook_ && recovery_hook_()) {
            for (Partition& p : parts_) p.last_progress = p.now;
            continue;
          }
          compose_and_throw_stall(watchdog_reason(safe - progress));
        }
      }
      window_end_ =
          safe > kTimeInfinity - wla ? kTimeInfinity : safe + wla;
      start.arrive_and_wait();
      for (int i = 0; i < nparts; i += nworkers)
        drain_partition(parts_[static_cast<std::size_t>(i)], window_end_);
      finish.arrive_and_wait();
      merge_cross(scratch);
      // Every partition has drained the window and the crew is parked at
      // the start barrier: task fibers are host-quiescent, so a checkpoint
      // capture requested by an event inside this window can walk them now.
      if (window_hook_) window_hook_();
      // A partition stall (channel retry-budget exhaustion) is the crash
      // detection signal: when a recovery hook is installed and no partition
      // carries a real error, let it repair the cluster instead of
      // composing a stall report. Hard errors always rethrow.
      if (recovery_hook_) {
        bool any_error = false;
        bool any_stall = false;
        for (const Partition& p : parts_) {
          if (p.error) any_error = true;
          if (p.stalled) any_stall = true;
        }
        if (!any_error && any_stall && recovery_hook_()) {
          for (Partition& p : parts_) {
            p.stalled = false;
            p.stall_reason.clear();
            p.last_progress = p.now;
          }
          continue;
        }
      }
      throw_partition_error();
    }
  } catch (...) {
    release_crew();
    throw;
  }
  release_crew();
  check_deadlock();
}

bool Engine::any_task_unfinished_raw() const {
  for (const Task* t : tasks_)
    if (!t->finished()) return true;
  return false;
}

std::string Engine::describe_blocked_tasks() const {
  std::ostringstream os;
  for (const Task* t : tasks_) {
    if (t->finished()) continue;
    os << "  " << t->name();
    if (t->node_id() >= 0) os << " [node " << t->node_id() << "]";
    if (t->wait_reason() != nullptr)
      os << " waiting on " << t->wait_reason();
    else if (t->blocked())
      os << " blocked";
    else
      os << " runnable";
    os << " at t=" << t->now() << "\n";
  }
  return os.str();
}

void Engine::fail_stall(const std::string& reason) const {
  // Inside a drain the full report cannot be composed here (it reads
  // cross-partition state); defer to the coordinator.
  if (current_partition() != nullptr) throw PendingStall{reason};
  compose_and_throw_stall(reason);
}

std::string Engine::watchdog_reason(Time idle) const {
  std::ostringstream os;
  os << "watchdog: no compute-task progress for " << idle
     << " virtual ns (threshold " << watchdog_ns_ << ")";
  return os.str();
}

void Engine::compose_and_throw_stall(const std::string& reason) const {
  std::ostringstream os;
  os << reason << "\nblocked tasks:\n" << describe_blocked_tasks();
  if (stall_reporter_) os << stall_reporter_();
  throw StallError(os.str());
}

void Engine::check_deadlock() const {
  bool dead = false;
  for (const Task* t : tasks_)
    if (!t->finished()) dead = true;
  if (dead)
    throw AssertionError("simulation deadlock; blocked tasks:\n" +
                         describe_blocked_tasks());
}

void Engine::register_task(Task* t) { tasks_.push_back(t); }

void Engine::unregister_task(Task* t) {
  tasks_.erase(std::remove(tasks_.begin(), tasks_.end(), t), tasks_.end());
}

}  // namespace fgdsm::sim
