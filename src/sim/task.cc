#include "src/sim/task.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/util/assert.h"

#if !defined(__x86_64__) || !defined(__linux__)
#error "sim::Task's fiber switch is written for x86-64 Linux (SysV ABI) only"
#endif

#if defined(__has_feature)
#define FGDSM_HAS_FEATURE(x) __has_feature(x)
#else
#define FGDSM_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || FGDSM_HAS_FEATURE(address_sanitizer)
#define FGDSM_FIBER_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || FGDSM_HAS_FEATURE(thread_sanitizer)
#define FGDSM_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
extern "C" void __tsan_func_entry(void* call_pc);
#endif

// The context switch. fgdsm_fiber_switch(save, load) pushes the callee-saved
// registers and the MXCSR / x87 control words on the current stack, stores
// the stack pointer to *save, loads `load` as the stack pointer and pops the
// same frame from there: the call "returns" on the other stack. Every other
// register is caller-saved under the SysV ABI, so the compiler has already
// spilled what it needs around the call. A fresh stack is laid out by
// Task::entry_frame() so that its first switch returns into
// fgdsm_fiber_entry with the Task in r12 and Task::fiber_main in r13. The
// entry stub marks the return address undefined, so unwinders and
// backtraces stop at the fiber base.
extern "C" void fgdsm_fiber_switch(void** save_sp, void* load_sp);
extern "C" void fgdsm_fiber_entry();
asm(R"(
  .text
  .globl fgdsm_fiber_switch
  .hidden fgdsm_fiber_switch
  .type fgdsm_fiber_switch, @function
  .p2align 4
fgdsm_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size fgdsm_fiber_switch, .-fgdsm_fiber_switch

  .globl fgdsm_fiber_entry
  .hidden fgdsm_fiber_entry
  .type fgdsm_fiber_entry, @function
  .p2align 4
fgdsm_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size fgdsm_fiber_entry, .-fgdsm_fiber_entry
)");

namespace fgdsm::sim {

namespace {
std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Copies fiber stack bytes for a snapshot or a restore. In ASan builds a
// parked fiber's frames keep their redzones poisoned, so the copy bypasses
// the checked memcpy.
#if FGDSM_FIBER_ASAN
__attribute__((no_sanitize_address)) void copy_stack_bytes(
    char* dst, const char* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    static_cast<volatile char*>(dst)[i] = src[i];
}
#else
void copy_stack_bytes(char* dst, const char* src, std::size_t n) {
  std::memcpy(dst, src, n);
}
#endif
}  // namespace

Task::Task(Engine& engine, std::string name, TaskFn body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)) {
  // Reserve guard + stack without committing it: pages materialize on first
  // touch, and a task parked at a barrier touches only a few of them.
  const std::size_t guard = guard_bytes();
  void* map = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  FGDSM_ASSERT_MSG(map != MAP_FAILED, "task " << name_
                                              << ": cannot map fiber stack");
  FGDSM_ASSERT_MSG(mprotect(map, guard, PROT_NONE) == 0,
                   "task " << name_ << ": cannot protect stack guard page");
  stack_lo_ = static_cast<char*>(map) + guard;
  engine_.register_task(this);
}

Task::~Task() {
  unwind();
  engine_.unregister_task(this);
#if FGDSM_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
#if FGDSM_FIBER_ASAN
  // munmap leaves ASan's shadow as it was; a later mapping at this address
  // must not inherit redzones of frames resurrected by restore().
  ASAN_UNPOISON_MEMORY_REGION(stack_lo_, kStackBytes);
#endif
  munmap(stack_lo_ - guard_bytes(), guard_bytes() + kStackBytes);
}

void Task::unwind() {
  if (sp_ == nullptr || state_ == State::kFinished) return;
  // Resuming with cancel_ set makes the parked yield point throw Cancelled,
  // which run_body() absorbs after every frame has released what it owns.
  cancel_ = true;
  resume_for_engine();
  FGDSM_ASSERT(state_ == State::kFinished);
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

void Task::fiber_main(Task* self) noexcept {
  self->landed_on_fiber();
  self->run_body();
  self->leave_fiber(/*exiting=*/true);
  std::abort();  // an exited fiber is never switched to again
}

void Task::run_body() {
  if (!cancel_) {
    try {
      body_(*this);
    } catch (const Cancelled&) {
      // Unwound by unwind(); nothing to record.
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
  state_ = State::kRunning;
  if (sp_ == nullptr) sp_ = entry_frame();
  enter_fiber();
  if (exception_) {
    std::exception_ptr e = exception_;
    exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void* Task::entry_frame() {
  // The frame fgdsm_fiber_switch pops, from the new stack pointer upward:
  // control words, r15, r14, r13, r12, rbx, rbp, return address. The fiber
  // inherits the engine's current floating-point modes; from then on they
  // are per fiber. Two pad words keep the stack 16-byte aligned at the
  // entry stub's call.
  std::uint32_t mxcsr;
  std::uint16_t fpucw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  auto* top = reinterpret_cast<std::uint64_t*>(stack_lo_ + kStackBytes);
  std::uint64_t* f = top - 10;
  f[0] = mxcsr | (std::uint64_t{fpucw} << 32);
  f[1] = f[2] = 0;                                         // r15, r14
  f[3] = reinterpret_cast<std::uint64_t>(&Task::fiber_main);  // r13
  f[4] = reinterpret_cast<std::uint64_t>(this);            // r12
  f[5] = f[6] = 0;                                         // rbx, rbp
  f[7] = reinterpret_cast<std::uint64_t>(&fgdsm_fiber_entry);
  f[8] = f[9] = 0;
  return f;
}

void Task::enter_fiber() {
#if FGDSM_FIBER_TSAN
  tsan_engine_ = __tsan_get_current_fiber();
  if (tsan_fiber_ == nullptr) tsan_fiber_ = __tsan_create_fiber(0);
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if FGDSM_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_lo_, kStackBytes);
#endif
  fgdsm_fiber_switch(&engine_sp_, sp_);
#if FGDSM_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
#if FGDSM_FIBER_TSAN
  if (state_ == State::kFinished) {  // TSan's per-fiber state is large
    __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = nullptr;
  }
#endif
}

void Task::leave_fiber(bool exiting) {
#if FGDSM_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_engine_, 0);
#endif
#if FGDSM_FIBER_ASAN
  __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack_,
                                 engine_stack_lo_, engine_stack_bytes_);
#else
  (void)exiting;
#endif
  fgdsm_fiber_switch(&sp_, engine_sp_);
  landed_on_fiber();
}

void Task::landed_on_fiber() {
#if FGDSM_FIBER_ASAN
  // Also learns the engine stack's bounds for the next switch back.
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &engine_stack_lo_,
                                  &engine_stack_bytes_);
#endif
}

void Task::switch_to_engine() {
  leave_fiber(/*exiting=*/false);
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
  s.sp = sp_;
  if (sp_ != nullptr) {
    // The fiber stack grows down from its top, and a parked fiber's saved
    // registers sit at its saved stack pointer: [sp_, top) is all of it.
    const char* sp = static_cast<const char*>(sp_);
    s.stack.resize(static_cast<std::size_t>(stack_lo_ + kStackBytes - sp));
    copy_stack_bytes(s.stack.data(), sp, s.stack.size());
  }
  return s;
}

void Task::restore(const Snapshot& s, Time resume_at) {
  // The abandoned timeline's frames are unwound first, so the heap they own
  // is freed rather than leaked when the snapshot's bytes overwrite them.
  // Frames that were already live at the snapshot own no heap (checkpoints
  // are taken at barriers, and the executor keeps its state host-resident
  // there), so unwinding them too loses nothing the bytes do not restore.
  unwind();
  ++epoch_;  // resume events from the abandoned timeline become no-ops
  clock_ = s.clock;
  state_ = s.state;
  pending_wake_time_ = s.pending_wake_time;
  wait_reason_ = s.wait_reason;
  started_ = s.started;
  cancel_ = false;
  exception_ = nullptr;
  sp_ = s.sp;
#if FGDSM_FIBER_ASAN
  // The shadow describes the abandoned timeline's frames, not these.
  ASAN_UNPOISON_MEMORY_REGION(stack_lo_, kStackBytes);
#endif
#if FGDSM_FIBER_TSAN
  // TSan keeps a call stack per fiber, and the restored frames will return
  // through calls it never saw enter: start them on a fresh fiber with
  // enough placeholder frames that those returns cannot underflow it.
  if (sp_ != nullptr) {
    constexpr int kTsanRestoredDepth = 256;
    void* engine_fiber = __tsan_get_current_fiber();
    tsan_fiber_ = __tsan_create_fiber(0);
    __tsan_switch_to_fiber(tsan_fiber_, __tsan_switch_to_fiber_no_sync);
    for (int i = 0; i < kTsanRestoredDepth; ++i)
      __tsan_func_entry(reinterpret_cast<void*>(&fgdsm_fiber_entry));
    __tsan_switch_to_fiber(engine_fiber, __tsan_switch_to_fiber_no_sync);
  }
#endif
  if (!s.stack.empty())
    copy_stack_bytes(static_cast<char*>(sp_), s.stack.data(), s.stack.size());
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
