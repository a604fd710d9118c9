// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/simulator.hpp"

namespace slices::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), SimTime::origin());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_seconds(3.0), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_seconds(2.0), [&] { order.push_back(2); });
  s.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_seconds(10.0));
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(SimTime::from_seconds(1.0), [&order, i] { order.push_back(i); });
  }
  s.run_until(SimTime::from_seconds(1.0));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilOnlyRunsDueEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::from_seconds(1.0), [&] { ++fired; });
  s.schedule_at(SimTime::from_seconds(5.0), [&] { ++fired; });
  EXPECT_EQ(s.run_until(SimTime::from_seconds(2.0)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.now(), SimTime::from_seconds(2.0));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime fired_at;
  s.schedule_at(SimTime::from_seconds(2.0), [&] {
    s.schedule_after(Duration::seconds(3.0), [&] { fired_at = s.now(); });
  });
  s.run_until(SimTime::from_seconds(10.0));
  EXPECT_EQ(fired_at, SimTime::from_seconds(5.0));
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator s;
  s.run_until(SimTime::from_seconds(5.0));
  bool fired = false;
  s.schedule_at(SimTime::from_seconds(1.0), [&] { fired = true; });
  s.run_until(SimTime::from_seconds(5.0));
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), SimTime::from_seconds(5.0));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(SimTime::from_seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double-cancel reports false
  s.run_until(SimTime::from_seconds(2.0));
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_at(SimTime::from_seconds(1.0), [] {});
  s.run_until(SimTime::from_seconds(2.0));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator s;
  int fired = 0;
  s.schedule_at(SimTime::from_seconds(1.0), [&] { ++fired; });
  s.schedule_at(SimTime::from_seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), SimTime::from_seconds(1.0));
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_after(Duration::seconds(1.0), chain);
  };
  s.schedule_after(Duration::seconds(1.0), chain);
  s.run_until(SimTime::from_seconds(100.0));
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.executed_events(), 10u);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
  Simulator s;
  std::vector<double> times;
  s.add_periodic(Duration::seconds(10.0),
                 [&](SimTime t) { times.push_back(t.as_seconds()); });
  s.run_until(SimTime::from_seconds(35.0));
  EXPECT_EQ(times, (std::vector<double>{0.0, 10.0, 20.0, 30.0}));
}

TEST(Simulator, PeriodicWithOffset) {
  Simulator s;
  std::vector<double> times;
  s.add_periodic(Duration::seconds(10.0),
                 [&](SimTime t) { times.push_back(t.as_seconds()); },
                 Duration::seconds(5.0));
  s.run_until(SimTime::from_seconds(26.0));
  EXPECT_EQ(times, (std::vector<double>{5.0, 15.0, 25.0}));
}

TEST(Simulator, CancelInsideCallbackOfSameTimestamp) {
  Simulator s;
  bool second_fired = false;
  EventId second{};
  // Both events share t=1; the first cancels the second before the
  // kernel reaches it, even though it is already due.
  s.schedule_at(SimTime::from_seconds(1.0), [&] { EXPECT_TRUE(s.cancel(second)); });
  second = s.schedule_at(SimTime::from_seconds(1.0), [&] { second_fired = true; });
  s.run_until(SimTime::from_seconds(2.0));
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(s.executed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventCannotCancelItselfWhileRunning) {
  Simulator s;
  EventId self{};
  bool cancel_result = true;
  self = s.schedule_at(SimTime::from_seconds(1.0), [&] { cancel_result = s.cancel(self); });
  s.run_until(SimTime::from_seconds(2.0));
  EXPECT_FALSE(cancel_result);  // already firing — no longer pending
}

TEST(Simulator, PendingCountIgnoresCancelledEntries) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(s.schedule_at(SimTime::from_seconds(1.0 + i), [] {}));
  }
  // Cancel every id except the last — lazy deletion must not inflate
  // pending_events() and compaction must not lose the survivor.
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) EXPECT_TRUE(s.cancel(ids[i]));
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.run_until(SimTime::from_seconds(500.0)), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, NextEventAtSkipsCancelledEntries) {
  Simulator s;
  EXPECT_FALSE(s.next_event_at().has_value());
  const EventId first = s.schedule_at(SimTime::from_seconds(1.0), [] {});
  s.schedule_at(SimTime::from_seconds(3.0), [] {});
  EXPECT_EQ(s.next_event_at(), SimTime::from_seconds(1.0));
  EXPECT_TRUE(s.cancel(first));
  EXPECT_EQ(s.next_event_at(), SimTime::from_seconds(3.0));
  // Advancing short of the event runs nothing and leaves it next.
  EXPECT_EQ(s.run_until(SimTime::from_seconds(2.0)), 0u);
  EXPECT_EQ(s.next_event_at(), SimTime::from_seconds(3.0));
  EXPECT_EQ(s.run_until(SimTime::from_seconds(3.0)), 1u);
  EXPECT_FALSE(s.next_event_at().has_value());
}

TEST(Simulator, StepSkipsCancelledFront) {
  Simulator s;
  int fired = 0;
  const EventId first = s.schedule_at(SimTime::from_seconds(1.0), [&] { fired = 1; });
  s.schedule_at(SimTime::from_seconds(2.0), [&] { fired = 2; });
  EXPECT_TRUE(s.cancel(first));
  EXPECT_TRUE(s.step());  // must land on the t=2 event, not the corpse
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::from_seconds(2.0));
  EXPECT_FALSE(s.step());
}

// Replays a pseudo-random schedule/cancel workload twice from the same
// seed and demands identical execution traces — the reproducibility
// contract the whole testbed rests on.
TEST(Simulator, SeedReplayProducesIdenticalTraces) {
  const auto run_trace = [](std::uint32_t seed) {
    Simulator s;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> when(0.0, 100.0);
    std::vector<std::pair<double, int>> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 500; ++i) {
      ids.push_back(s.schedule_at(SimTime::from_seconds(when(rng)),
                                  [&trace, &s, i] { trace.emplace_back(s.now().as_seconds(), i); }));
    }
    for (int i = 0; i < 200; ++i) {
      s.cancel(ids[rng() % ids.size()]);
    }
    s.run_until(SimTime::from_seconds(100.0));
    return std::pair{trace, s.executed_events()};
  };
  const auto a = run_trace(42);
  const auto b = run_trace(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.first.empty());
  const auto c = run_trace(7);
  EXPECT_NE(a.first, c.first);  // different seed actually changes the workload
}

TEST(Simulator, TwoPeriodicsInterleaveDeterministically) {
  Simulator s;
  std::vector<char> order;
  s.add_periodic(Duration::seconds(2.0), [&](SimTime) { order.push_back('a'); });
  s.add_periodic(Duration::seconds(3.0), [&](SimTime) { order.push_back('b'); });
  s.run_until(SimTime::from_seconds(6.0));
  // t=0: a,b ; t=2: a ; t=3: b ; t=4: a ; t=6: b,a (b's firing was
  // enqueued at t=3, before a's at t=4 — FIFO among equal timestamps).
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b', 'a'}));
}

}  // namespace
}  // namespace slices::sim
