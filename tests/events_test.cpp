// Tests for the orchestrator event log: the ring itself, the events the
// orchestrator emits across a slice's life, and the REST feed.

#include <gtest/gtest.h>

#include "core/events.hpp"
#include "core/testbed.hpp"

namespace slices::core {
namespace {

SimTime at(double s) { return SimTime::from_seconds(s); }

TEST(EventLog, RecordsAndBounds) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(at(i), EventKind::sla_violation, SliceId{1}, "v" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 11u);  // next sequence counter
  const std::vector<Event> recent = log.recent(2);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent.back().detail, "v9");
  EXPECT_LT(recent.front().sequence, recent.back().sequence);
}

TEST(EventLog, SinceFiltersBySequence) {
  EventLog log;
  log.record(at(1.0), EventKind::slice_admitted, SliceId{1}, "a");
  log.record(at(2.0), EventKind::slice_active, SliceId{1}, "b");
  log.record(at(3.0), EventKind::slice_expired, SliceId{1}, "c");
  const std::vector<Event> tail = log.since(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().detail, "b");
  EXPECT_TRUE(log.since(99).empty());
}

TEST(EventLog, ForSliceSelects) {
  EventLog log;
  log.record(at(1.0), EventKind::slice_admitted, SliceId{1}, "one");
  log.record(at(2.0), EventKind::slice_admitted, SliceId{2}, "two");
  log.record(at(3.0), EventKind::slice_expired, SliceId{1}, "one done");
  EXPECT_EQ(log.for_slice(SliceId{1}).size(), 2u);
  EXPECT_EQ(log.for_slice(SliceId{2}).size(), 1u);
  EXPECT_TRUE(log.for_slice(SliceId{3}).empty());
}

TEST(EventLog, EventJsonShape) {
  Event event{7, at(60.0), EventKind::slice_reconfigured, SliceId{3}, "shrunk"};
  const json::Value v = event.to_json();
  EXPECT_EQ(v.find("seq")->as_int(), 7);
  EXPECT_DOUBLE_EQ(v.find("t")->as_number(), 60.0);
  EXPECT_EQ(v.find("kind")->as_string(), "slice_reconfigured");
  EXPECT_EQ(v.find("slice")->as_int(), 3);
  EXPECT_EQ(v.find("detail")->as_string(), "shrunk");
}

TEST(OrchestratorEvents, FullLifecycleLeavesAuditTrail) {
  auto tb = make_testbed(61);
  const SliceId slice =
      tb->orchestrator
          ->submit(SliceSpec::from_profile(traffic::profile_for(traffic::Vertical::iot_metering),
                                           Duration::hours(2.0)),
                   traffic::make_traffic(traffic::Vertical::iot_metering, Rng(1)))
          .slice;
  tb->simulator.run_for(Duration::hours(3.0));
  ASSERT_EQ(tb->orchestrator->summary().expired_total, 1u);

  // The record is gone; its history lives on in the event log.
  const std::vector<Event> trail = tb->orchestrator->events().for_slice(slice);
  ASSERT_GE(trail.size(), 4u);
  EXPECT_EQ(trail[0].kind, EventKind::request_submitted);
  EXPECT_EQ(trail[1].kind, EventKind::slice_admitted);
  EXPECT_EQ(trail[2].kind, EventKind::slice_active);
  EXPECT_EQ(trail.back().kind, EventKind::slice_expired);
  // Timestamps are non-decreasing.
  for (std::size_t i = 0; i + 1 < trail.size(); ++i) {
    EXPECT_LE(trail[i].time, trail[i + 1].time);
    EXPECT_LT(trail[i].sequence, trail[i + 1].sequence);
  }
}

TEST(OrchestratorEvents, RejectionIsLogged) {
  OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = make_testbed(62, config);
  SliceSpec spec = SliceSpec::from_profile(traffic::profile_for(traffic::Vertical::embb_video),
                                           Duration::hours(1.0));
  spec.expected_throughput = DataRate::mbps(100000.0);
  const SubmitVerdict verdict = tb->orchestrator->submit(spec);
  ASSERT_EQ(verdict.state, SliceState::rejected);
  const std::vector<Event> trail = tb->orchestrator->events().for_slice(verdict.slice);
  ASSERT_EQ(trail.size(), 2u);
  EXPECT_EQ(trail[1].kind, EventKind::slice_rejected);
}

TEST(OrchestratorEvents, RestFeedSupportsIncrementalPolling) {
  auto tb = make_testbed(63);
  (void)tb->orchestrator->submit(SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::ehealth), Duration::hours(4.0)));
  tb->simulator.run_for(Duration::minutes(5.0));

  const Result<json::Value> all = tb->bus.get_json("orchestrator", "/events");
  ASSERT_TRUE(all.ok());
  const json::Array& events = all.value().find("events")->as_array();
  ASSERT_GE(events.size(), 3u);  // submitted + admitted + active
  const auto last_seq = static_cast<std::uint64_t>(events.back().find("seq")->as_number());

  const Result<json::Value> tail =
      tb->bus.get_json("orchestrator", "/events?after=" + std::to_string(last_seq));
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail.value().find("events")->as_array().empty());

  const Result<json::Value> some = tb->bus.get_json("orchestrator", "/events?after=1");
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some.value().find("events")->as_array().size(), events.size() - 1);
}

}  // namespace
}  // namespace slices::core
