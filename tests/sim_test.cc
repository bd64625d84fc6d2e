/**
 * @file
 * Unit tests for the discrete-event simulator: ordering, same-time
 * stability, clock semantics, nested scheduling.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "audit/checkers.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tetri::sim {
namespace {

TEST(EventQueueTest, OrdersByTime)
{
  EventQueue q;
  std::vector<int> fired;
  q.Push(30, [&]() { fired.push_back(3); });
  q.Push(10, [&]() { fired.push_back(1); });
  q.Push(20, [&]() { fired.push_back(2); });
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInInsertionOrder)
{
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Push(5, [&fired, i]() { fired.push_back(i); });
  }
  while (!q.empty()) q.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, TieBreakPropertyUnderRandomizedInterleaving)
{
  // Property: pop order is exactly a stable sort of push order by
  // time — equal-time events never reorder, whatever the heap shape.
  // Heavy tie density (10 distinct times for 200 events) plus
  // interleaved pops stress the (time, insertion seq) comparator; the
  // chaos layer's replay determinism rests on this ordering.
  Rng rng(123);
  for (int round = 0; round < 25; ++round) {
    EventQueue q;
    std::vector<std::pair<TimeUs, int>> pushed;
    std::vector<int> fired;
    int next_tag = 0;
    TimeUs floor = 0;  // pops advance the legal push floor
    auto push_batch = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const TimeUs t =
            floor + static_cast<TimeUs>(rng.NextBelow(10));
        const int tag = next_tag++;
        pushed.emplace_back(t, tag);
        q.Push(t, [&fired, tag]() { fired.push_back(tag); });
      }
    };
    push_batch(100);
    for (int i = 0; i < 50; ++i) {
      auto [t, fn] = q.Pop();
      floor = t;
      fn();
    }
    push_batch(100);
    while (!q.empty()) q.Pop().second();

    std::stable_sort(pushed.begin(), pushed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), pushed.size());
    for (std::size_t i = 0; i < pushed.size(); ++i) {
      EXPECT_EQ(fired[i], pushed[i].second) << "round " << round
                                            << " position " << i;
    }
  }
}

TEST(EventQueueTest, InOrderRunAndHeapMergeByTimeThenSeq)
{
  // Pushes in time order go to the FIFO run, later out-of-order pushes
  // to the heap; equal times must still fire in insertion order across
  // the two.
  EventQueue q;
  std::vector<int> fired;
  auto tag = [&fired](int t) { return [&fired, t]() { fired.push_back(t); }; };
  q.Push(10, tag(0));  // run
  q.Push(20, tag(1));  // run
  q.Push(30, tag(2));  // run
  auto [t0, f0] = q.Pop();
  EXPECT_EQ(t0, 10);
  f0();
  q.Push(20, tag(3));  // heap: earlier than the run's tail
  q.Push(15, tag(4));  // heap
  q.Push(30, tag(5));  // run: ties the tail, later seq
  EXPECT_EQ(q.NextTime(), 15);
  EXPECT_EQ(q.size(), 5u);
  while (!q.empty()) q.Pop().second();
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 1, 3, 2, 5}));
}

TEST(EventQueueTest, NextTimeReportsEarliest)
{
  EventQueue q;
  q.Push(42, []() {});
  q.Push(7, []() {});
  EXPECT_EQ(q.NextTime(), 7);
}

TEST(SimulatorTest, ClockAdvancesMonotonically)
{
  Simulator sim;
  std::vector<TimeUs> seen;
  sim.ScheduleAt(100, [&]() { seen.push_back(sim.Now()); });
  sim.ScheduleAt(50, [&]() { seen.push_back(sim.Now()); });
  sim.RunAll();
  EXPECT_EQ(seen, (std::vector<TimeUs>{50, 100}));
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, ScheduleAfterIsRelative)
{
  Simulator sim;
  TimeUs fired_at = -1;
  sim.ScheduleAt(10, [&]() {
    sim.ScheduleAfter(5, [&]() { fired_at = sim.Now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired_at, 15);
}

TEST(SimulatorTest, NestedEventsAtSameTime)
{
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10, [&]() {
    order.push_back(1);
    sim.ScheduleAfter(0, [&]() { order.push_back(2); });
  });
  sim.ScheduleAt(10, [&]() { order.push_back(3); });
  sim.RunAll();
  // The zero-delay event was enqueued after the second t=10 event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary)
{
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&]() { ++fired; });
  sim.ScheduleAt(20, [&]() { ++fired; });
  sim.ScheduleAt(30, [&]() { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20);
  EXPECT_TRUE(sim.HasPending());
  sim.RunAll();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, StepFiresExactlyOne)
{
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&]() { ++fired; });
  sim.ScheduleAt(2, [&]() { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(SimulatorDeathTest, SchedulingInPastPanics)
{
  Simulator sim;
  sim.ScheduleAt(100, []() {});
  sim.RunAll();
  EXPECT_DEATH(sim.ScheduleAt(50, []() {}), "past");
}

TEST(SimulatorAuditTest, AuditedCascadeIsViolationFree)
{
  // Audit-mode run of the seed scheduling patterns: nested relative
  // scheduling plus a grid of absolute events, with the full checker
  // suite attached. Zero violations expected.
  Simulator sim;
  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor);
  sim.set_audit(&auditor);
  EXPECT_EQ(sim.audit(), &auditor);

  int fired = 0;
  std::function<void()> cascade = [&]() {
    if (++fired < 50) sim.ScheduleAfter(7, cascade);
  };
  sim.ScheduleAt(5, cascade);
  for (TimeUs t = 0; t < 200; t += 10) {
    sim.ScheduleAt(t, [&]() { ++fired; });
  }
  sim.RunAll();
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_FALSE(sim.HasPending());
}

}  // namespace
}  // namespace tetri::sim
