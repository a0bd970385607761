// A Task is a simulated thread of control (one per cluster node's compute
// processor) with its own virtual clock.
//
// Implementation: each Task runs its body on a fiber with its own stack.
// Exactly one of {the partition's engine loop, one of its tasks} executes at
// any host instant: a task belongs to one event partition (set_partition),
// and run() pins each partition to one worker thread for the whole run, so
// the fiber never migrates between host threads and the simulation stays
// deterministic and data-race-free by construction.
//
// One exception: unwind() resumes a parked fiber on whichever thread tears
// the task down (~Task) or rolls it back (restore(), called by cluster
// recovery on the engine's coordinator thread, which need not be the worker
// that drains the task's partition). The fiber runs there only to throw
// Cancelled through its frames, so that path (the throw and every destructor
// of a frame that can be parked) must not touch thread_local state,
// including the engine's current-partition slot: no scheduling, no sends.
//
// A baton pass is a hand-written x86-64 SysV context switch (task.cc): it
// saves the callee-saved registers, MXCSR and the x87 control word on the
// current stack and swaps the stack pointer, with no signal-mask syscall.
// Full experiment runs perform millions of switches. The fiber stack is a
// lazily committed mmap region (kStackBytes) above a PROT_NONE guard page:
// a task touches only the few pages it uses, and an overflow faults instead
// of corrupting the heap. Sanitizer builds announce every switch to ASan and
// TSan.
//
// Clock discipline: a running task's clock only moves forward through
// charge(), and charge() yields to the engine whenever the advance would
// cross a pending event's timestamp. Hence protocol message handlers always
// observe and mutate state in correct virtual-time order relative to the
// compute code, which is what makes access-control checks meaningful.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/time.h"

namespace fgdsm::sim {

class Task {
 public:
  // Usable fiber stack per task (a guard page sits below it).
  static constexpr std::size_t kStackBytes = 512 * 1024;

  // Pooled callable for the task body: any callable whose captures fit the
  // inline buffer is stored without a heap allocation (unlike
  // std::function), which matters for runs constructing thousands of tasks.
  using TaskFn = BasicInlineFn<void(Task&)>;

  // `body` runs on the task's fiber once start() is scheduled.
  Task(Engine& engine, std::string name, TaskFn body);
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task();

  // Schedule the task's first activation at virtual time t.
  void start(Time t = 0);

  // ---- Callable only from inside the task body ----

  Time now() const { return clock_; }

  // Advance this task's clock by dt of useful work, interleaving correctly
  // with pending engine events (and with handler occupancy of cpu()).
  void charge(Time dt);

  // Process every pending event with timestamp <= now(). Call before
  // inspecting any state that message handlers may mutate.
  void sync();

  // Block until wake() is called; clock becomes max(now, wake time,
  // cpu()->available()). Used by Semaphore/Barrier; most code should use
  // those instead.
  void block();

  // ---- Callable from engine/handler context ----

  // Wake a blocked task; it resumes no earlier than virtual time t.
  void wake(Time t);

  // ---- Crash / rollback support (engine context only) ----

  // Fail-stop halt: park the task permanently and orphan every resume event
  // already scheduled for it (the events carry the resume epoch and fire as
  // no-ops once it moves). The fiber context is left intact so ~Task can
  // still unwind it, and restore() can later bring the task back.
  void halt();

  // A resumable copy of the task's execution state: the live region of the
  // fiber stack (its saved registers included), clock and blocking state.
  // Only valid for restore() on the SAME Task object (the saved frames point
  // into this task's own stack).
 private:
  enum class State : std::uint8_t { kNotStarted, kReady, kRunning, kBlocked,
                                    kFinished };

 public:
  struct Snapshot {
    std::vector<char> stack;  // the live stack [sp, top); empty if not entered
    void* sp = nullptr;       // saved stack pointer; null = body not entered
    Time clock = 0;
    State state;
    Time pending_wake_time = 0;
    const char* wait_reason = nullptr;
    bool started = false;
    bool entered() const { return sp != nullptr; }
  };
  // Capture the current state. The task must not be running (it is blocked
  // at a quiescent point, or not yet activated).
  Snapshot snapshot() const;
  // Roll back to `s` and schedule the task to resume at `resume_at`. The
  // abandoned timeline's frames are unwound first (their destructors run),
  // and the resume epoch is bumped, so its resume events become no-ops.
  void restore(const Snapshot& s, Time resume_at);

  // ---- Configuration / inspection ----

  // The resource representing this task's processor. Handlers that share the
  // processor (single-cpu mode) acquire the same resource; the jump the task
  // observes on resume is recorded into *steal_counter (if set).
  void set_cpu(Resource* cpu) { cpu_ = cpu; }
  Resource* cpu() const { return cpu_; }
  void set_steal_counter(std::int64_t* c) { steal_counter_ = c; }

  // The event partition this task's resumes are scheduled into (the cluster
  // maps node i to partition i; default 0).
  // Must be set before start().
  void set_partition(int p) { partition_ = p; }
  int partition() const { return partition_; }

  // Diagnostic context for deadlock/stall dumps: the cluster node this task
  // computes for (-1 = not a node task) and what the task is currently
  // waiting on (a static string set by Semaphore::wait; null = not waiting).
  void set_node_id(int id) { node_id_ = id; }
  int node_id() const { return node_id_; }
  void set_wait_reason(const char* r) { wait_reason_ = r; }
  const char* wait_reason() const { return wait_reason_; }

  bool finished() const { return state_ == State::kFinished; }
  bool blocked() const { return state_ == State::kBlocked; }
  const std::string& name() const { return name_; }
  Engine& engine() { return engine_; }

  // Engine internals.
  void resume_for_engine();  // run until the task yields/blocks/finishes

 private:
  struct Cancelled {};  // thrown into the body by unwind()

  // First code on a fresh fiber stack (reached through the entry stub).
  [[noreturn]] static void fiber_main(Task* self) noexcept;
  void run_body();
  // Lay out a fresh stack whose first switch lands in fiber_main(this).
  void* entry_frame();
  // The raw baton pass in each direction: enter_fiber() from the engine,
  // leave_fiber() from the body (`exiting`: the body has returned and this
  // fiber is never resumed).
  void enter_fiber();
  void leave_fiber(bool exiting);
  void landed_on_fiber();  // sanitizer bookkeeping after any switch in
  // Unwind a parked body's frames (destructors run); the task is finished
  // afterwards. No-op if the body was never entered or has returned.
  void unwind();
  // Give the baton to the engine with a resume event at now(); returns when
  // the engine hands it back.
  void yield_here();
  // Give the baton to the engine with no resume scheduled; wake() resumes.
  void yield_blocked();
  void switch_to_engine();
  void absorb_cpu_steal();
  // Highest clock value this task may currently advance to (pending events
  // and other tasks' resumes + lookahead).
  Time advance_limit() const;

  Engine& engine_;
  std::string name_;
  TaskFn body_;
  Time clock_ = 0;
  Resource* cpu_ = nullptr;
  std::int64_t* steal_counter_ = nullptr;
  int partition_ = 0;
  int node_id_ = -1;
  const char* wait_reason_ = nullptr;

  State state_ = State::kNotStarted;
  bool cancel_ = false;
  bool started_ = false;
  Time pending_wake_time_ = 0;
  // Resume-event epoch: every scheduled resume captures the epoch at
  // scheduling time and fires only if it still matches, so halt()/restore()
  // can invalidate in-flight resume events without touching the queues.
  std::uint64_t epoch_ = 0;
  std::exception_ptr exception_;

  char* stack_lo_ = nullptr;   // lowest usable stack byte (guard page below)
  void* sp_ = nullptr;         // fiber's saved stack pointer; null: not entered
  void* engine_sp_ = nullptr;  // engine's saved stack pointer while we run

  // Sanitizer fiber bookkeeping (set only in ASan/TSan builds).
  void* asan_fake_stack_ = nullptr;
  const void* engine_stack_lo_ = nullptr;
  std::size_t engine_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_engine_ = nullptr;
};

}  // namespace fgdsm::sim
