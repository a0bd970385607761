#include "src/sim/task.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/util/assert.h"

namespace fgdsm::sim {

namespace {
// Hand-off slot for fiber entry: makecontext cannot portably pass pointers.
// The slot is per host thread (thread_local), which makes it per WORKER in
// a run: the engine statically pins each partition — and so each of
// its tasks — to one worker thread, so a fiber always enters and leaves on
// the thread whose slot carried it. Independent simulations on other threads
// (exec::BatchRunner) get their own slots the same way.
thread_local Task* g_entering_task = nullptr;
constexpr std::size_t kStackBytes = 512 * 1024;
}  // namespace

Task::Task(Engine& engine, std::string name, TaskFn body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      stack_(kStackBytes) {
  engine_.register_task(this);
}

Task::~Task() {
  if (started_ && state_ != State::kFinished && state_ != State::kNotStarted) {
    // Unwind the fiber: resuming with cancel_ set makes the next yield
    // point throw Cancelled, which run_body() absorbs.
    cancel_ = true;
    resume_for_engine();
    FGDSM_ASSERT(state_ == State::kFinished);
  }
  engine_.unregister_task(this);
}

void Task::start(Time t) {
  FGDSM_ASSERT_MSG(!started_, "task " << name_ << " started twice");
  started_ = true;
  clock_ = t;
  state_ = State::kReady;
  engine_.schedule_task_resume(partition_, t, [this, e = epoch_] {
    if (e == epoch_) resume_for_engine();
  });
}

void Task::trampoline_entry() {
  Task* self = g_entering_task;
  g_entering_task = nullptr;
  self->run_body();
  // Falling off the trampoline resumes uc_link (the engine context saved by
  // the final swap into this fiber).
}

void Task::run_body() {
  if (!cancel_) {
    try {
      body_(*this);
    } catch (const Cancelled&) {
      // Unwound by ~Task; nothing to record.
    } catch (...) {
      exception_ = std::current_exception();
    }
  }
  state_ = State::kFinished;
}

void Task::resume_for_engine() {
  if (state_ == State::kFinished) return;
  FGDSM_ASSERT_MSG(state_ != State::kNotStarted || started_,
                   "resume before start");
  if (state_ == State::kBlocked && pending_wake_time_ > clock_)
    clock_ = pending_wake_time_;
  const bool first = state_ == State::kReady && fiber_.uc_stack.ss_sp == nullptr;
  state_ = State::kRunning;
  if (first) {
    getcontext(&fiber_);
    fiber_.uc_stack.ss_sp = stack_.data();
    fiber_.uc_stack.ss_size = stack_.size();
    fiber_.uc_link = &engine_ctx_;
    makecontext(&fiber_, &Task::trampoline_entry, 0);
    g_entering_task = this;
  }
  swapcontext(&engine_ctx_, &fiber_);
  if (exception_) {
    std::exception_ptr e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Task::switch_to_engine() {
  swapcontext(&fiber_, &engine_ctx_);
  // Resumed by the engine.
  if (cancel_) throw Cancelled{};
  state_ = State::kRunning;
}

void Task::absorb_cpu_steal() {
  if (cpu_ != nullptr && cpu_->available() > clock_) {
    if (steal_counter_ != nullptr)
      *steal_counter_ += cpu_->available() - clock_;
    clock_ = cpu_->available();
  }
}

void Task::yield_here() {
  state_ = State::kReady;
  engine_.schedule_task_resume(partition_, clock_, [this, e = epoch_] {
    if (e == epoch_) resume_for_engine();
  });
  switch_to_engine();
  absorb_cpu_steal();
}

void Task::yield_blocked() {
  state_ = State::kBlocked;
  switch_to_engine();
  absorb_cpu_steal();
}

Time Task::advance_limit() const {
  // We may never pass a pending ordinary event (its handler can mutate state
  // we observe), and may run ahead of another task's pending resume only by
  // strictly less than the engine lookahead (that task's future actions
  // cannot affect us sooner than resume + lookahead). The window boundary
  // additionally caps the clock: events from other partitions may land
  // exactly at W, and the queries above only see this partition's queues.
  const Time ev = engine_.next_event_time();
  const Time rs = engine_.next_resume_time();
  const Time rs_limit = rs >= kTimeInfinity - engine_.lookahead()
                            ? kTimeInfinity
                            : rs + engine_.lookahead() - 1;
  const Time local = ev < rs_limit ? ev : rs_limit;
  const Time wend = engine_.window_end();
  return local < wend ? local : wend;
}

void Task::charge(Time dt) {
  FGDSM_DCHECK(dt >= 0);
  Time remaining = dt;
  for (;;) {
    const Time limit = advance_limit();
    if (limit > clock_) {
      const Time gap = limit == kTimeInfinity ? remaining : limit - clock_;
      const Time slice = remaining < gap ? remaining : gap;
      clock_ += slice;
      remaining -= slice;
      if (cpu_ != nullptr) cpu_->set_available(clock_);
      if (remaining == 0) return;
    }
    // An event is due, or a laggard task must catch up: let the engine run.
    yield_here();
  }
}

void Task::sync() {
  // Process every ordinary event <= now, and let any task that could still
  // produce such an event (pending resume <= now - lookahead) run first. A
  // clock at/past the window boundary also yields: events from other
  // partitions merged at the barrier may still land at <= now, and they
  // become visible locally only once the window advances.
  while (engine_.next_event_time() <= clock_ ||
         engine_.next_resume_time() <= clock_ - engine_.lookahead() ||
         engine_.window_end() <= clock_)
    yield_here();
  if (cpu_ != nullptr) cpu_->set_available(clock_);
}

void Task::block() {
  // Draining events that may already satisfy the caller's wait condition is
  // the caller's job (Semaphore::wait does a sync() first). Here we just
  // park.
  pending_wake_time_ = clock_;
  yield_blocked();
}

void Task::wake(Time t) {
  // Called from engine/handler context. The task must be blocked or about
  // to block; schedule a resume no earlier than t.
  pending_wake_time_ = t > clock_ ? t : clock_;
  engine_.schedule_task_resume(partition_, pending_wake_time_,
                               [this, e = epoch_] {
                                 if (e == epoch_) resume_for_engine();
                               });
}

void Task::halt() {
  FGDSM_ASSERT_MSG(state_ != State::kRunning,
                   "halt() from inside the task body");
  ++epoch_;  // orphan scheduled resumes
  if (state_ != State::kFinished && state_ != State::kNotStarted) {
    state_ = State::kBlocked;
    wait_reason_ = "crashed (fail-stop)";
  }
}

Task::Snapshot Task::snapshot() const {
  FGDSM_ASSERT_MSG(state_ != State::kRunning,
                   "snapshot() of a running task");
  Snapshot s;
  s.clock = clock_;
  s.state = state_;
  s.pending_wake_time = pending_wake_time_;
  s.wait_reason = wait_reason_;
  s.started = started_;
  s.fiber = fiber_;
  if (fiber_.uc_stack.ss_sp != nullptr) {
    // Only the live region matters: the fiber stack grows downward from
    // stack_.end(), so everything below the saved stack pointer (minus the
    // ABI red zone) is dead. Falls back to the whole stack when the saved SP
    // is not recoverable from the mcontext.
    std::size_t off = 0;
#if defined(__linux__) && defined(__x86_64__) && defined(REG_RSP)
    const auto sp =
        static_cast<std::uintptr_t>(fiber_.uc_mcontext.gregs[REG_RSP]);
    const auto base = reinterpret_cast<std::uintptr_t>(stack_.data());
    constexpr std::uintptr_t kRedZone = 256;  // ABI says 128; keep margin
    if (sp > base + kRedZone && sp <= base + stack_.size())
      off = static_cast<std::size_t>(sp - base - kRedZone);
#endif
    s.stack_offset = off;
    s.stack.assign(stack_.begin() + static_cast<std::ptrdiff_t>(off),
                   stack_.end());
  }
  return s;
}

void Task::restore(const Snapshot& s, Time resume_at) {
  ++epoch_;  // resume events from the abandoned timeline become no-ops
  clock_ = s.clock;
  state_ = s.state;
  pending_wake_time_ = s.pending_wake_time;
  wait_reason_ = s.wait_reason;
  started_ = s.started;
  cancel_ = false;
  exception_ = nullptr;
  fiber_ = s.fiber;
  if (!s.stack.empty())
    std::copy(s.stack.begin(), s.stack.end(),
              stack_.begin() + static_cast<std::ptrdiff_t>(s.stack_offset));
  // fiber_.uc_stack/uc_link and the mcontext fpregs pointer reference this
  // task's own members; restoring into the same Task keeps them valid.
  if (state_ == State::kBlocked) {
    wake(resume_at);
  } else {
    // Initial-state snapshot (kReady, body never entered): restart the body
    // from the top at the rollback time.
    clock_ = resume_at;
    pending_wake_time_ = resume_at;
    engine_.schedule_task_resume(partition_, resume_at, [this, e = epoch_] {
      if (e == epoch_) resume_for_engine();
    });
  }
}

}  // namespace fgdsm::sim
