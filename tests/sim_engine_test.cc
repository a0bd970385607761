#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/util/assert.h"

namespace fgdsm::sim {
namespace {

TEST(Engine, ProcessesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, EqualTimestampsRunInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) e.schedule(5, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) e.schedule(e.now() + 10, chain);
  };
  e.schedule(0, chain);
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, RejectsSchedulingInPast) {
  Engine e;
  e.schedule(100, [&] {
    EXPECT_THROW(e.schedule(50, [] {}), AssertionError);
  });
  e.run();
}

TEST(Engine, NextEventTime) {
  Engine e;
  EXPECT_EQ(e.next_event_time(), kTimeInfinity);
  e.schedule(42, [] {});
  EXPECT_EQ(e.next_event_time(), 42);
  e.run();
  EXPECT_EQ(e.next_event_time(), kTimeInfinity);
}

TEST(Engine, ExceptionPropagates) {
  Engine e;
  e.schedule(1, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(e.run(), std::runtime_error);
}

// One partition: nothing crosses a partition boundary, so the whole run is
// one unbounded window and the watchdog must fire on the handler event that
// crosses the threshold, not at a window boundary that never comes.
TEST(Engine, SinglePartitionWatchdogFiresOnTheStallingEvent) {
  Engine e;
  e.set_watchdog(10'000);
  Task blocked(e, "blocked", [](Task& self) { self.block(); });
  int fired = 0;
  std::function<void()> timer = [&] {
    if (++fired < 20) e.schedule_after(1000, timer);
  };
  e.schedule(1000, timer);
  blocked.start(0);
  try {
    e.run();
    FAIL() << "expected StallError";
  } catch (const StallError& err) {
    EXPECT_NE(std::string(err.what()).find(
                  "no compute-task progress for 11000 virtual ns "
                  "(threshold 10000)"),
              std::string::npos)
        << err.what();
  }
  EXPECT_EQ(e.now(), 11000);
}

// One partition ignores the window lookahead: a task charging far past it
// runs uncapped, in the single event that starts it.
TEST(Engine, SinglePartitionRunsAsOneWindow) {
  Engine e;
  e.set_window_lookahead(1000);
  Task t(e, "t", [](Task& self) { self.charge(1'000'000'000); });
  t.start(0);
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(t.now(), 1'000'000'000);
  EXPECT_EQ(e.events_processed(), 1u);
}

}  // namespace
}  // namespace fgdsm::sim
