// Tests for the orchestrator event log: the ring itself, the events the
// orchestrator emits across a slice's life, the REST feed, and the bytes
// of every operator-facing view of it.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "core/testbed.hpp"
#include "dashboard/dashboard.hpp"
#include "scenario/region.hpp"
#include "scenario/scenario.hpp"
#include "store/crc32.hpp"
#include "counting_new.hpp"

namespace slices::core {
namespace {

SimTime at(double s) { return SimTime::from_seconds(s); }

/// The records a range walks, copied.
std::vector<Event> held(EventLog::Range range) {
  std::vector<Event> out;
  for (const Event& event : range) out.push_back(event);
  return out;
}

/// The held events of one slice, oldest first.
std::vector<Event> trail_of(const EventLog& log, SliceId slice) {
  std::vector<Event> out;
  for (const Event& event : log.after(0)) {
    if (event.slice == slice) out.push_back(event);
  }
  return out;
}

TEST(EventLog, RecordsAndBounds) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(at(i), EventKind::sla_violation, SliceId{1}, EventText{"v" + std::to_string(i), {}});
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 11u);  // next sequence counter
  const std::vector<Event> recent = held(log.recent(2));
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent.back().detail(), "v9");
  EXPECT_LT(recent.front().sequence, recent.back().sequence);
}

TEST(EventLog, SinceFiltersBySequence) {
  EventLog log;
  log.record(at(1.0), EventKind::slice_admitted, SliceId{1}, EventText{"a", {}});
  log.record(at(2.0), EventKind::slice_active, SliceId{1}, EventText{"b", {}});
  log.record(at(3.0), EventKind::slice_expired, SliceId{1}, EventText{"c", {}});
  const std::vector<Event> tail = held(log.after(1));
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().detail(), "b");
  EXPECT_TRUE(held(log.after(99)).empty());
}

TEST(EventLog, AfterPositionsInAWrappedRing) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(at(i), EventKind::slice_active, SliceId{1}, EventActive{static_cast<double>(i)});
  }
  // Held: sequences 7..10, the oldest in the middle of the ring.
  const auto sequences = [](EventLog::Range range) {
    std::vector<std::uint64_t> out;
    for (const Event& event : range) out.push_back(event.sequence);
    return out;
  };
  EXPECT_EQ(sequences(log.after(0)), (std::vector<std::uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(sequences(log.after(7)), (std::vector<std::uint64_t>{8, 9, 10}));
  EXPECT_EQ(sequences(log.after(9)), (std::vector<std::uint64_t>{10}));
  EXPECT_TRUE(sequences(log.after(10)).empty());
  EXPECT_EQ(sequences(log.recent(99)), (std::vector<std::uint64_t>{7, 8, 9, 10}));
  EXPECT_TRUE(sequences(log.recent(0)).empty());
}

TEST(EventLog, EventJsonShape) {
  Event event{7, at(60.0), EventKind::slice_reconfigured, SliceId{3}, EventText{"shrunk", {}}};
  const json::Value v = event.to_json();
  EXPECT_EQ(v.find("seq")->as_int(), 7);
  EXPECT_DOUBLE_EQ(v.find("t")->as_number(), 60.0);
  EXPECT_EQ(v.find("kind")->as_string(), "slice_reconfigured");
  EXPECT_EQ(v.find("slice")->as_int(), 3);
  EXPECT_EQ(v.find("detail")->as_string(), "shrunk");
  EXPECT_EQ(v.find("fields"), nullptr);
}

TEST(EventLog, TypedRecordsFormatWhenRead) {
  const Event moved{1, at(0.0), EventKind::slice_reconfigured, SliceId{2},
                    EventReconfigured{10.0, 6.5, 3.5, 12.0}};
  EXPECT_EQ(moved.detail(), "reservation 10.000000 -> 6.500000 Mb/s");
  const json::Object fields = moved.fields();
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_DOUBLE_EQ(fields.at("reclaimed_mbps").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(fields.at("contracted_mbps").as_number(), 12.0);

  const Event lost{2, at(0.0), EventKind::slice_rejected, SliceId{3},
                   EventDeclined{"knapsack_revenue", true}};
  EXPECT_EQ(lost.detail(), "lost the knapsack_revenue batch auction");
  EXPECT_EQ(lost.fields().at("reason").as_string(), "lost_auction");

  const Event expired{3, at(0.0), EventKind::slice_expired, SliceId{3}, EventExpired{4}};
  EXPECT_EQ(expired.detail(), "4 violation epochs over its life");
  EXPECT_TRUE(expired.fields().empty());
}

// The control loop records these every admission, reconfiguration and
// violation: once the ring has grown to capacity, recording reuses its
// slots and allocates nothing.
TEST(EventLog, RecordingIntoAFullRingAllocatesNothing) {
  EventLog log(8);
  const auto record_loop_events = [&log](double t) {
    log.record(at(t), EventKind::request_submitted, SliceId{1},
               EventSubmitted{"embb_video", 20.0, 4.0});
    log.record(at(t), EventKind::slice_admitted, SliceId{1},
               EventAdmitted{20.0, 1.5, 6.0, 0.5, 1.25});
    log.record(at(t), EventKind::slice_reconfigured, SliceId{1},
               EventReconfigured{20.0, 12.0, 8.0, 20.0});
    log.record(at(t), EventKind::sla_violation, SliceId{1},
               EventViolation{3.0, 5.0, false, 0.5});
  };
  for (int i = 0; i < 4; ++i) record_loop_events(i);
  ASSERT_EQ(log.size(), 8u);

  std::uint64_t allocations = 0;
  {
    AllocationCounter counter;
    for (int i = 4; i < 64; ++i) record_loop_events(i);
    allocations = counter.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(log.total_recorded(), 257u);
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
  const std::vector<Event> trail = trail_of(tb->orchestrator->events(), slice);
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
  const std::vector<Event> trail = trail_of(tb->orchestrator->events(), verdict.slice);
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

// --- Operator feed ------------------------------------------------------------
//
// Everything an operator reads about the control loop, byte for byte: the
// incremental /events feed polled after every monitoring epoch, the audit
// trail of every slice the feed named, the unfiltered /events page and
// the dashboard's event pane. One CRC-32 pins the bytes, so a change to
// how events are stored or formatted must leave every number, word and
// field order as it was.

scenario::Scenario load_scenario(const std::string& relative) {
  Result<scenario::Scenario> loaded =
      scenario::load_scenario_file(std::string(SLICES_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? std::string{} : loaded.error().message);
  if (!loaded.ok()) return scenario::Scenario{};
  return std::move(loaded.value());
}

std::string get_body(Testbed& tb, const std::string& target) {
  const Result<net::Response> response =
      tb.bus.call("orchestrator", net::Request{net::Method::get, target, {}, {}});
  EXPECT_TRUE(response.ok()) << target;
  if (!response.ok()) return {};
  return std::to_string(static_cast<int>(response.value().status)) + " " +
         response.value().body + "\n";
}

/// Runs `scenario` on the Fig. 2 region as ScenarioRunner schedules it
/// (arrivals; dc_down with its restore; controller restarts, with the
/// requests that arrive meanwhile submitted on resume) and returns every
/// operator-visible body, in the order an operator would read them.
std::string operator_feed(const scenario::Scenario& scenario) {
  scenario::RegionIdentity fig2;
  fig2.seed = scenario.seed;
  scenario::Region region(make_testbed(scenario.seed, scenario.orchestrator), scenario, fig2);
  Testbed& tb = region.testbed();
  sim::Simulator& sim = tb.simulator;
  const SimTime end = SimTime::origin() + scenario.duration;

  std::vector<GeneratedRequest> deferred;
  const auto submit = [&](GeneratedRequest request) {
    if (tb.orchestrator->suspended()) {
      deferred.push_back(std::move(request));
      return;
    }
    (void)tb.orchestrator->submit(
        request.spec, region.make_workload(request.spec.vertical, request.workload_seed));
  };
  std::unique_ptr<RequestGenerator> generator = scenario::make_request_generator(scenario);
  std::function<void()> arrive = [&] {
    const SimTime at = sim.now() + generator->next_interarrival(sim.now());
    if (at > end) return;
    sim.schedule_at(at, [&] {
      submit(generator->next_request());
      arrive();
    });
  };
  if (generator) arrive();

  for (const scenario::ScenarioEvent& event : scenario.events) {
    const SimTime at = SimTime::origin() + event.at;
    switch (event.kind) {
      case scenario::EventKind::dc_down:
        sim.schedule_at(at, [&region, &event] { (void)region.set_dc_up(event.target, false); });
        sim.schedule_at(at + event.duration,
                        [&region, &event] { (void)region.set_dc_up(event.target, true); });
        break;
      case scenario::EventKind::controller_restart:
        sim.schedule_at(at, [&] {
          region.restart(event.duration, [&] {
            std::vector<GeneratedRequest> pending;
            pending.swap(deferred);
            for (GeneratedRequest& request : pending) submit(std::move(request));
          });
        });
        break;
      default: ADD_FAILURE() << "operator_feed does not drive " << to_string(event.kind);
    }
  }

  std::string feed;
  std::uint64_t last_seq = 0;
  std::set<std::uint64_t> slices;
  const Duration period = scenario.orchestrator.monitoring_period;
  // Registered after the orchestrator's epoch periodic: each poll reads
  // the epoch that just ran.
  sim.add_periodic(
      period,
      [&](SimTime) {
        const std::string body = get_body(tb, "/events?after=" + std::to_string(last_seq));
        feed += body;
        const Result<json::Value> doc = json::parse(body.substr(body.find(' ') + 1));
        ASSERT_TRUE(doc.ok());
        for (const json::Value& event : doc.value().find("events")->as_array()) {
          last_seq = static_cast<std::uint64_t>(event.find("seq")->as_number());
          const double slice = event.find("slice")->as_number();
          if (slice > 0.0 && slice < static_cast<double>(SliceId::invalid().value())) {
            slices.insert(static_cast<std::uint64_t>(slice));
          }
        }
      },
      period);
  (void)sim.run_until(end);

  EXPECT_EQ(last_seq + 1, tb.orchestrator->events().total_recorded());
  for (const std::uint64_t slice : slices) {
    feed += get_body(tb, "/slices/" + std::to_string(slice) + "/audit");
  }
  feed += get_body(tb, "/events");
  feed += dashboard::Dashboard(&tb).render_events(1024);
  return feed;
}

TEST(OperatorFeed, BytesMatchRecordedDigest) {
  const std::string fig2 =
      operator_feed(load_scenario("perfbench/workloads/fig2_overbooking_week.json"));
  const std::string outage = operator_feed(load_scenario("scenarios/dc_outage.json"));
  // The feed covers every kind these runs emit, formatted.
  for (const std::string_view kind :
       {"request_submitted", "slice_admitted", "slice_rejected", "slice_active",
        "slice_reconfigured", "sla_violation", "slice_expired", "slice_terminated",
        "fault_injected", "fault_cleared"}) {
    EXPECT_NE((fig2 + outage).find(kind), std::string::npos) << kind;
  }
  // Recorded from an event log that formatted every event as it was
  // recorded: reading the typed records must give the same bytes.
  EXPECT_EQ(fig2.size(), 1995713u);
  EXPECT_EQ(store::crc32(fig2), 0x1627e943u);
  EXPECT_EQ(outage.size(), 242423u);
  EXPECT_EQ(store::crc32(outage), 0xcb25e02du);
}

}  // namespace
}  // namespace slices::core
