#include <gtest/gtest.h>
#include <sys/resource.h>
#include <xmmintrin.h>

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

TEST(Task, ChargeAdvancesClock) {
  Engine e;
  Time end = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(100);
    self.charge(50);
    end = self.now();
  });
  t.start(10);
  e.run();
  EXPECT_EQ(end, 160);
  EXPECT_TRUE(t.finished());
}

TEST(Task, ChargeYieldsAcrossPendingEvents) {
  // An event between the task's clock and its charge target must run at its
  // own virtual time, not after the whole charge.
  Engine e;
  std::vector<std::pair<const char*, Time>> trace;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    trace.emplace_back("task-done", self.now());
  });
  e.schedule(400, [&] { trace.emplace_back("event", e.now()); });
  t.start(0);
  e.run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_STREQ(trace[0].first, "event");
  EXPECT_EQ(trace[0].second, 400);
  EXPECT_STREQ(trace[1].first, "task-done");
  EXPECT_EQ(trace[1].second, 1000);
}

TEST(Task, SemaphoreBlocksUntilPost) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(10);
    sem.wait(self);
    woke = self.now();
  });
  e.schedule(500, [&] { sem.post(500); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 500);
}

TEST(Task, SemaphorePostBeforeWaitDoesNotBlock) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  sem.post(0, 2);
  Task t(e, "t", [&](Task& self) {
    self.charge(100);
    sem.wait(self, 2);
    woke = self.now();
  });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 100);  // no blocking: time does not jump
  EXPECT_EQ(sem.count(), 0);
}

TEST(Task, CountingSemaphoreWaitsForAll) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    sem.wait(self, 3);
    woke = self.now();
  });
  e.schedule(100, [&] { sem.post(100); });
  e.schedule(200, [&] { sem.post(200); });
  e.schedule(300, [&] { sem.post(300); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 300);
}

TEST(Task, WakeInTaskPastDoesNotMoveClockBackwards) {
  Engine e;
  Semaphore sem;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    sem.wait(self);  // signal arrives at t=200 < 1000
    woke = self.now();
  });
  e.schedule(200, [&] { sem.post(200); });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 1000);
}

TEST(Task, TwoTasksInterleaveDeterministically) {
  Engine e;
  // With a small lookahead, side-effect order tracks virtual-time order
  // closely; tasks leapfrog in lookahead-sized slices.
  e.set_lookahead(10);
  std::vector<int> order;
  Task a(e, "a", [&](Task& self) {
    for (int i = 0; i < 3; ++i) {
      self.charge(100);
      order.push_back(1);
    }
  });
  Task b(e, "b", [&](Task& self) {
    for (int i = 0; i < 3; ++i) {
      self.charge(100);
      order.push_back(2);
    }
  });
  a.start(0);
  b.start(50);
  e.run();
  // a finishes charges at 100,200,300; b at 150,250,350.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(Task, CpuStealDelaysResumption) {
  // A handler occupies the task's cpu while the task is blocked; on wake the
  // task's clock must include the stolen time.
  Engine e;
  Resource cpu;
  Semaphore sem;
  std::int64_t stolen = 0;
  Time woke = -1;
  Task t(e, "t", [&](Task& self) {
    self.charge(100);  // cpu available = 100
    sem.wait(self);
    woke = self.now();
  });
  t.set_cpu(&cpu);
  t.set_steal_counter(&stolen);
  e.schedule(200, [&] {
    // Handler runs 200..260 on the shared cpu, then posts.
    const Time end = cpu.acquire(200, 60);
    sem.post(end);
  });
  t.start(0);
  e.run();
  EXPECT_EQ(woke, 260);
  EXPECT_EQ(stolen, 0);  // wake time already covers occupancy: no extra jump
  EXPECT_EQ(cpu.available(), 260);
}

TEST(Task, CpuStealObservedMidCharge) {
  // Handler occupancy during a charge pushes the remaining work later.
  Engine e;
  Resource cpu;
  Time done = -1;
  std::int64_t stolen = 0;
  Task t(e, "t", [&](Task& self) {
    self.charge(1000);
    done = self.now();
  });
  t.set_cpu(&cpu);
  t.set_steal_counter(&stolen);
  e.schedule(300, [&] { cpu.acquire(300, 120); });
  t.start(0);
  e.run();
  EXPECT_EQ(done, 1120);
  EXPECT_EQ(stolen, 120);
}

TEST(Task, LookaheadBoundsRunahead) {
  // While task b has a pending resume at t=100, task a must not advance
  // beyond 100 + lookahead - 1 in one go; once b finishes, a is free.
  Engine e;
  e.set_lookahead(50);
  std::vector<std::pair<int, Time>> finish;
  Task a(e, "a", [&](Task& self) {
    self.charge(10'000);
    finish.emplace_back(1, self.now());
  });
  Task b(e, "b", [&](Task& self) {
    self.charge(200);
    finish.emplace_back(2, self.now());
  });
  a.start(0);
  b.start(100);
  e.run();
  ASSERT_EQ(finish.size(), 2u);
  // b finishes at 300, a at 10000; with lookahead 50, a cannot have finished
  // before b in host order either.
  EXPECT_EQ(finish[0], (std::pair<int, Time>{2, 300}));
  EXPECT_EQ(finish[1], (std::pair<int, Time>{1, 10'000}));
}

TEST(Task, LateStarterStillSeesCausalOrder) {
  // A message-like chain: b starts later and schedules an ordinary event in
  // what would be a's past if a ran ahead unboundedly. With lookahead below
  // the scheduling delay, a must observe the event at the right time.
  Engine e;
  e.set_lookahead(20);
  std::vector<std::pair<const char*, Time>> trace;
  Task a(e, "a", [&](Task& self) {
    self.charge(5'000);
    trace.emplace_back("a-done", self.now());
  });
  Task b(e, "b", [&](Task& self) {
    self.charge(10);  // acts at t=110
    self.engine().schedule(self.now() + 25, [&, t = self.now() + 25] {
      trace.emplace_back("event", t);
    });
  });
  a.start(0);
  b.start(100);
  e.run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_STREQ(trace[0].first, "event");
  EXPECT_EQ(trace[0].second, 135);
  EXPECT_STREQ(trace[1].first, "a-done");
}

TEST(Task, DeadlockDetected) {
  Engine e;
  {
    Semaphore sem;
    Task t(e, "stuck", [&](Task& self) { sem.wait(self); });
    t.start(0);
    EXPECT_THROW(e.run(), AssertionError);
  }
}

TEST(Task, BodyExceptionPropagates) {
  Engine e;
  Task t(e, "thrower", [&](Task& self) {
    self.charge(5);
    throw std::runtime_error("app failure");
  });
  t.start(0);
  EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Task, DestructionWhileBlockedUnwinds) {
  Engine e;
  Semaphore sem;
  bool cleaned = false;
  {
    Task t(e, "t", [&](Task& self) {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } g{&cleaned};
      sem.wait(self);
    });
    t.start(0);
    EXPECT_THROW(e.run(), AssertionError);  // deadlock reported
  }                                          // ~Task cancels + joins
  EXPECT_TRUE(cleaned);
}

// Rounding-control bits of MXCSR (13-14) and of the x87 control word
// (10-11); each is 0 for round-to-nearest.
std::uint32_t mxcsr_rounding() { return _mm_getcsr() & 0x6000u; }
std::uint16_t x87_rounding() {
  std::uint16_t cw;
  asm volatile("fnstcw %0" : "=m"(cw));
  return cw & 0x0C00u;
}
void set_round_upward() {
  _mm_setcsr((_mm_getcsr() & ~0x6000u) | 0x4000u);
  std::uint16_t cw;
  asm volatile("fnstcw %0" : "=m"(cw));
  cw = static_cast<std::uint16_t>((cw & ~0x0C00u) | 0x0800u);
  asm volatile("fldcw %0" : : "m"(cw));
}

TEST(Task, FloatingPointModesArePerFiber) {
  // MXCSR and the x87 control word travel with the fiber: a body that
  // switches to round-upward and yields leaves the engine at
  // round-to-nearest, and sees its own mode again when it resumes.
  Engine e;
  std::uint32_t engine_sse = 1, body_sse = 0;
  std::uint16_t engine_x87 = 1, body_x87 = 0;
  Task t(e, "t", [&](Task& self) {
    set_round_upward();
    self.charge(100);  // yields to the event at 50
    body_sse = mxcsr_rounding();
    body_x87 = x87_rounding();
  });
  e.schedule(50, [&] {
    engine_sse = mxcsr_rounding();
    engine_x87 = x87_rounding();
  });
  t.start(0);
  e.run();
  EXPECT_EQ(engine_sse, 0u);
  EXPECT_EQ(engine_x87, 0u);
  EXPECT_EQ(body_sse, 0x4000u);
  EXPECT_EQ(body_x87, 0x0800u);
  EXPECT_EQ(mxcsr_rounding(), 0u);  // the finished fiber's mode stays behind
  EXPECT_EQ(x87_rounding(), 0u);
}

TEST(Task, RestoredSnapshotResumesAtTheSamePointWithTheSameLocals) {
  // Snapshot a task blocked at its first wait, let it run on (bumping a
  // stack local) to the second wait, then roll back: it resumes inside the
  // first wait, in the same frame, with the local as it was. The frames the
  // rollback abandons are unwound, so what they own is released.
  struct Guard {
    int* released;
    ~Guard() { ++*released; }
  };
  Engine e;
  Semaphore sem;
  Task::Snapshot snap;
  std::vector<std::pair<int, Time>> seen;
  int entries = 0, released = 0, released_at_restore = -1;
  Task t(e, "t", [&](Task& self) {
    ++entries;
    volatile int local = 41;
    sem.wait(self);
    local = local + 1;
    seen.emplace_back(local, self.now());
    Guard g{&released};
    sem.wait(self);
  });
  e.schedule(100, [&] {
    ASSERT_TRUE(t.blocked());
    snap = t.snapshot();
  });
  e.schedule(200, [&] { sem.post(200); });
  e.schedule(300, [&] {
    sem.restore_for_recovery(1);
    t.restore(snap, 300);
    released_at_restore = released;
  });
  e.schedule(400, [&] { sem.post(400); });
  t.start(0);
  e.run();
  EXPECT_TRUE(snap.entered());
  EXPECT_EQ(seen, (std::vector<std::pair<int, Time>>{{42, 200}, {42, 300}}));
  EXPECT_EQ(entries, 1);  // the body was not re-entered
  EXPECT_EQ(released_at_restore, 1);
  EXPECT_EQ(released, 2);
  EXPECT_TRUE(t.finished());
}

TEST(Task, StacksAreCommittedOnlyWhenTouched) {
  // 1024 tasks reserve 512 MiB of stack between them; constructing them
  // must commit almost none of it.
  constexpr int kTasks = 1024;
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  Engine e;
  std::vector<std::unique_ptr<Task>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i)
    tasks.push_back(std::make_unique<Task>(
        e, std::to_string(i), [](Task& self) { self.charge(1); }));
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  const long grown_kib = after.ru_maxrss - before.ru_maxrss;  // KiB on Linux
  const long reserved_kib =
      static_cast<long>(kTasks * (Task::kStackBytes / 1024));
  EXPECT_LT(grown_kib, reserved_kib / 16)
      << "peak RSS grew by " << grown_kib << " KiB";
}

// Recurses through 4 KiB frames; `depth` frames take depth * 4 KiB.
__attribute__((noinline)) int deep_recursion(int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return deep_recursion(depth - 1) + frame[0];
}

TEST(TaskDeathTest, StackOverflowHitsTheGuardPage) {
  // A second task constructed right after the first maps its stack directly
  // below the first one's guard page. Running 8 KiB past the first stack's
  // end must fault on that guard page; without it, the frames would land in
  // the neighbour's stack and the body would return normally.
  const auto overflow = [] {
    Engine e;
    Task t(e, "deep", [](Task& self) {
      self.charge(deep_recursion(
          static_cast<int>((Task::kStackBytes + 8 * 1024) / 4096)));
    });
    Engine idle;  // never run: the neighbour only has to hold its mapping
    Task neighbour(idle, "neighbour", [](Task& self) { self.charge(1); });
    t.start(0);
    e.run();
  };
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(overflow(), "AddressSanitizer");
#else
  EXPECT_EXIT(overflow(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(Resource, AcquireSerializes) {
  Resource r;
  EXPECT_EQ(r.acquire(100, 50), 150);
  EXPECT_EQ(r.acquire(100, 50), 200);  // queued behind previous occupancy
  EXPECT_EQ(r.acquire(500, 10), 510);  // idle gap
  EXPECT_EQ(r.available(), 510);
}

}  // namespace
}  // namespace fgdsm::sim
