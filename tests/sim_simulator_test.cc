#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace spotcheck {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime());
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::FromSeconds(30), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::FromSeconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(30));
}

TEST(SimulatorTest, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::FromSeconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired;
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] {
    sim.ScheduleAfter(SimDuration::Seconds(5), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::FromSeconds(15));
}

TEST(SimulatorTest, SchedulingInPastRunsNow) {
  Simulator sim;
  SimTime fired;
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] {
    sim.ScheduleAt(SimTime::FromSeconds(1), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, SimTime::FromSeconds(10));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(SimTime::FromSeconds(i), [&] { ++count; });
  }
  EXPECT_EQ(sim.RunUntil(SimTime::FromSeconds(5)), 5);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(5));
  EXPECT_EQ(sim.pending_events(), 5u);
  // Deadline beyond all events advances the clock to the deadline.
  sim.RunUntil(SimTime::FromSeconds(100));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(100));
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.ScheduleAt(SimTime::FromSeconds(3), [] {});
  sim.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(10));
  sim.ScheduleAfter(SimDuration::Seconds(5), [] {});
  sim.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(20));
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ++count; });
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) {
      sim.ScheduleAfter(SimDuration::Seconds(1), recurse);
    }
  };
  sim.ScheduleAfter(SimDuration::Seconds(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(5));
}

// The event queue accepts move-only callbacks (std::function could not).
TEST(SimulatorTest, MoveOnlyCallback) {
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1),
                 [p = std::move(payload), &result] { result = *p + 1; });
  sim.Run();
  EXPECT_EQ(result, 42);
}

// Callbacks larger than the inline buffer fall back to the heap but behave
// identically.
TEST(SimulatorTest, OversizedCallback) {
  Simulator sim;
  std::array<int64_t, 16> big{};  // 128 bytes of captured state
  big[15] = 7;
  int64_t seen = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1), [big, &seen] { seen = big[15]; });
  sim.Run();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.ScheduleAfter(SimDuration::Seconds(i + 1), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7);
}

}  // namespace
}  // namespace spotcheck
