// Scenario engine: DSL round-trips, precise parse errors, deterministic
// scored runs (thread-count invariant), record/replay parity, and
// observability of every injected event kind.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/request_generator.hpp"
#include "scenario/recorder.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace slices::scenario {
namespace {

Scenario parse_ok(const std::string& text) {
  Result<Scenario> parsed = parse_scenario(text);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? std::string{} : std::string(parsed.error().message));
  return parsed.ok() ? std::move(parsed.value()) : Scenario{};
}

std::string parse_error(const std::string& text) {
  Result<Scenario> parsed = parse_scenario(text);
  EXPECT_FALSE(parsed.ok()) << "expected a parse error for: " << text;
  return parsed.ok() ? std::string{} : std::string(parsed.error().message);
}

/// A scenario exercising every DSL feature at once.
constexpr const char* kKitchenSink = R"({
  "name": "kitchen_sink",
  "description": "every feature",
  "seed": "18446744073709551615",
  "duration_hours": 12,
  "topology": "fig2",
  "orchestrator": {
    "monitoring_period_minutes": 5,
    "sla_tolerance": 0.1,
    "overbooking": {"enabled": true, "risk_quantile": 0.9}
  },
  "workload": {
    "arrivals_per_hour": 2.0,
    "diurnal_depth": 0.5,
    "diurnal_period_hours": 12,
    "min_duration_hours": 1,
    "max_duration_hours": 6,
    "price_dispersion": 0.3,
    "verticals": ["automotive", "ehealth"]
  },
  "phases": [
    {"name": "warmup", "start_hours": 0, "end_hours": 3},
    {"name": "rush", "start_hours": 3, "end_hours": 6, "arrivals_per_hour": 5.0,
     "demand_scale": 1.5}
  ],
  "events": [
    {"kind": "link_down", "at_hours": 2, "link": "mmwave", "duration_hours": 0.5},
    {"kind": "link_flap", "at_hours": 4, "link": "uwave", "count": 3,
     "period_minutes": 20, "down_minutes": 5},
    {"kind": "cell_down", "at_hours": 5, "cell": "b", "duration_hours": 1},
    {"kind": "dc_down", "at_hours": 6, "dc": "edge", "duration_hours": 1},
    {"kind": "controller_restart", "at_hours": 8, "duration_minutes": 10},
    {"kind": "churn_storm", "at_hours": 9, "duration_minutes": 30,
     "ues_per_hour": 120, "mean_holding_minutes": 4}
  ],
  "requests": [
    {"at_hours": 1, "vertical": "cloud_gaming", "tenant": "arcade",
     "duration_hours": 4, "throughput_mbps": 25, "workload_seed": "9007199254740993"}
  ],
  "targets": {"min_admission_rate": 0.1, "max_violation_rate": 0.9}
})";

TEST(ScenarioDsl, RoundTripIsCanonical) {
  const Scenario first = parse_ok(kKitchenSink);
  EXPECT_EQ(first.name, "kitchen_sink");
  EXPECT_EQ(first.seed, 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(first.duration.as_hours(), 12.0);
  ASSERT_EQ(first.phases.size(), 2u);
  EXPECT_DOUBLE_EQ(first.phases[1].arrivals_per_hour.value_or(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(first.phases[1].demand_scale, 1.5);
  ASSERT_EQ(first.events.size(), 6u);
  EXPECT_EQ(first.events[1].flap_count, 3);
  ASSERT_EQ(first.requests.size(), 1u);
  // Seeds above 2^53 survive (serialized as decimal strings).
  EXPECT_EQ(first.requests[0].workload_seed, 9007199254740993ull);
  EXPECT_EQ(first.requests[0].spec.tenant_name, "arcade");
  EXPECT_TRUE(first.targets.any());

  // serialize -> parse -> serialize is a fixed point: the serialized
  // form is canonical and loses nothing.
  const std::string serialized = serialize_scenario(first);
  const Scenario second = parse_ok(serialized);
  EXPECT_EQ(serialize_scenario(second), serialized);
  EXPECT_EQ(second.seed, first.seed);
  EXPECT_EQ(second.events.size(), first.events.size());
  EXPECT_EQ(second.orchestrator.overbooking.risk_quantile,
            first.orchestrator.overbooking.risk_quantile);
}

TEST(ScenarioDsl, ErrorsNameTheField) {
  // Structural JSON errors carry line/column.
  EXPECT_NE(parse_error("{\n  \"name\": \"x\",,\n}").find("line 2"), std::string::npos);
  // Duplicate keys are rejected, not last-wins.
  EXPECT_NE(parse_error(R"({"name": "x", "name": "y"})").find("duplicate"),
            std::string::npos);
  // Unknown keys name the offending key.
  EXPECT_NE(parse_error(R"({"name": "x", "bogus": 1})").find("bogus"), std::string::npos);
  // Field errors carry the JSON path and the legal domain.
  EXPECT_NE(parse_error(R"({"name": "x", "workload": {"arrivals_per_hour": -2}})")
                .find("workload.arrivals_per_hour"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "x", "workload": {"arrivals_per_hour": 1e9}})")
                .find("[0, 1e5]"),
            std::string::npos);
  const std::string overlap = parse_error(R"({
    "name": "x", "duration_hours": 10,
    "phases": [
      {"start_hours": 0, "end_hours": 5},
      {"start_hours": 4, "end_hours": 8}
    ]})");
  EXPECT_NE(overlap.find("phases[1]"), std::string::npos);
  EXPECT_NE(overlap.find("overlaps"), std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "x",
    "events": [{"kind": "meteor_strike", "at_hours": 1}]})")
                .find("events[0].kind"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "x",
    "events": [{"kind": "link_flap", "at_hours": 1, "link": "mmwave",
                "count": 3, "period_minutes": 10, "down_minutes": 10}]})")
                .find("down_minutes"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "x", "duration_hours": 2,
    "events": [{"kind": "link_up", "at_hours": 3, "link": "mmwave"}]})")
                .find("past the scenario duration"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"name": "x", "topology": "full_mesh"})").find("topology"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"description": "nameless"})").find("name"), std::string::npos);
  // Orchestrator-block errors carry the field path like every other block.
  EXPECT_NE(parse_error(R"({"name": "x", "orchestrator": {"sla_tolerance": 2}})")
                .find("orchestrator.sla_tolerance"),
            std::string::npos);
}

// --- Satellite: time-varying arrival rates stay bit-compatible -------

TEST(RequestGeneratorSchedule, FlatScheduleMatchesConstantRate) {
  core::RequestGeneratorConfig constant;
  constant.arrivals_per_hour = 2.0;
  core::RequestGeneratorConfig stepped = constant;
  stepped.rate_schedule = {{Duration::zero(), 2.0}};
  core::RequestGenerator a(constant, Rng(99));
  core::RequestGenerator b(stepped, Rng(99));
  SimTime t = SimTime::origin();
  for (int i = 0; i < 200; ++i) {
    const Duration gap_a = a.next_interarrival(t);
    const Duration gap_b = b.next_interarrival(t);
    ASSERT_EQ(gap_a.as_micros(), gap_b.as_micros()) << "draw " << i;
    t = t + gap_a;
  }
}

TEST(RequestGeneratorSchedule, RateStepChangesArrivalDensity) {
  core::RequestGeneratorConfig config;
  config.arrivals_per_hour = 1.0;
  config.rate_schedule = {{Duration::hours(10.0), 10.0}};
  core::RequestGenerator generator(config, Rng(5));
  int before = 0;
  int after = 0;
  SimTime t = SimTime::origin();
  const SimTime split = SimTime::origin() + Duration::hours(10.0);
  const SimTime end = SimTime::origin() + Duration::hours(20.0);
  while (t < end) {
    t = t + generator.next_interarrival(t);
    if (t >= end) break;
    (t < split ? before : after)++;
  }
  // ~10 arrivals in the first 10 h, ~100 in the second.
  EXPECT_GT(after, before * 3);
}

// --- Runner determinism and scoring ----------------------------------

/// Small but eventful: phases, a flap, a restart, and a storm in 6 h.
constexpr const char* kEventful = R"({
  "name": "eventful",
  "seed": 11,
  "duration_hours": 6,
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 3.0, "min_duration_hours": 1, "max_duration_hours": 4},
  "phases": [
    {"name": "surge", "start_hours": 2, "end_hours": 4, "arrivals_per_hour": 6.0,
     "demand_scale": 1.4}
  ],
  "events": [
    {"kind": "link_flap", "at_hours": 1, "link": "mmwave", "count": 2,
     "period_minutes": 30, "down_minutes": 10},
    {"kind": "controller_restart", "at_hours": 3, "duration_minutes": 10},
    {"kind": "churn_storm", "at_hours": 4, "duration_minutes": 30,
     "ues_per_hour": 200, "mean_holding_minutes": 3}
  ]
})";

Scorecard run_scorecard(const std::string& text, RunOptions options = {}) {
  ScenarioRunner runner(parse_ok(text), options);
  Result<Scorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return card.ok() ? std::move(card.value()) : Scorecard{};
}

TEST(ScenarioRunnerTest, ScorecardIsThreadCountInvariant) {
  RunOptions one;
  one.epoch_threads = 1;
  RunOptions four;
  four.epoch_threads = 4;
  const std::string serial = run_scorecard(kEventful, one).serialize();
  const std::string parallel = run_scorecard(kEventful, four).serialize();
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, run_scorecard(kEventful, one).serialize()) << "rerun must be identical";
}

TEST(ScenarioRunnerTest, ScorecardCountsTheRun) {
  const Scorecard card = run_scorecard(kEventful);
  EXPECT_GT(card.submitted, 0u);
  EXPECT_EQ(card.admitted + card.rejected, card.submitted);
  EXPECT_EQ(card.epochs, 70u);  // 6 h at 5 min, minus 2 suspended ticks
  // flap(2 down + 2 up) + restart + storm = 6 concrete actions.
  EXPECT_EQ(card.events_injected, 6u);
  EXPECT_GT(card.ue_arrivals, 0u);
  EXPECT_TRUE(card.targets_met);  // no targets declared -> vacuously met
  EXPECT_TRUE(card.target_failures.empty());
}

TEST(ScenarioRunnerTest, RunnerIsSingleUse) {
  ScenarioRunner runner(parse_ok(kEventful));
  ASSERT_TRUE(runner.run().ok());
  const Result<Scorecard> again = runner.run();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, Errc::conflict);
}

TEST(ScenarioRunnerTest, MissedTargetsAreReported) {
  std::string text = kEventful;
  text.insert(text.rfind('}'), R"(, "targets": {"min_multiplexing_gain": 1000})");
  const Scorecard card = run_scorecard(text);
  EXPECT_FALSE(card.targets_met);
  ASSERT_EQ(card.target_failures.size(), 1u);
  EXPECT_NE(card.target_failures[0].find("multiplexing gain"), std::string::npos);
}

// --- Record / replay -------------------------------------------------

TEST(ScenarioRecorderTest, ReplayReproducesTheScorecardExactly) {
  const std::string path = testing::TempDir() + "/scenario_replay.journal";
  std::remove(path.c_str());

  RunOptions recording;
  recording.record_path = path;
  const std::string original = run_scorecard(kEventful, recording).serialize();

  Result<Scenario> replayed = load_recording(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  // The recording is self-contained: no generator, explicit requests.
  EXPECT_FALSE(replayed.value().generate_arrivals);
  EXPECT_FALSE(replayed.value().requests.empty());
  EXPECT_FALSE(replayed.value().events.empty());

  ScenarioRunner replay_runner(std::move(replayed.value()));
  Result<Scorecard> replay = replay_runner.run();
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  EXPECT_EQ(replay.value().serialize(), original);

  // ... and at a different thread count too.
  Result<Scenario> again = load_recording(path);
  ASSERT_TRUE(again.ok());
  RunOptions four;
  four.epoch_threads = 4;
  ScenarioRunner threaded(std::move(again.value()), four);
  Result<Scorecard> threaded_card = threaded.run();
  ASSERT_TRUE(threaded_card.ok());
  EXPECT_EQ(threaded_card.value().serialize(), original);
  std::remove(path.c_str());
}

TEST(ScenarioRecorderTest, FractionalMonitoringPeriodReplaysExactly) {
  // 0.067 min is not a whole number of microseconds in binary: the
  // document and its canonical re-serialization must still read to the
  // same period, or the replay ticks its epochs elsewhere.
  constexpr const char* kDrift = R"({"name":"drift","seed":7,"duration_hours":6,
    "orchestrator":{"monitoring_period_minutes":0.067,"overbooking":{"enabled":true}},
    "workload":{"arrivals_per_hour":8,"min_duration_hours":1,"max_duration_hours":3}})";
  const std::string canonical = serialize_scenario(parse_ok(kDrift));
  EXPECT_EQ(serialize_scenario(parse_ok(canonical)), canonical);

  const std::string path = testing::TempDir() + "/scenario_drift.journal";
  std::remove(path.c_str());
  RunOptions recording;
  recording.record_path = path;
  const std::string original = run_scorecard(kDrift, recording).serialize();
  Result<Scenario> replayed = load_recording(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  ScenarioRunner replay_runner(std::move(replayed.value()));
  Result<Scorecard> replay = replay_runner.run();
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  EXPECT_EQ(replay.value().serialize(), original);
  std::remove(path.c_str());
}

TEST(ScenarioRecorderTest, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/scenario_bogus.journal";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a journal", f);
  std::fclose(f);
  EXPECT_FALSE(load_recording(path).ok());
  EXPECT_FALSE(load_recording(testing::TempDir() + "/does_not_exist.journal").ok());
  std::remove(path.c_str());
}

// --- Every event kind is observable ----------------------------------

/// Runs a 2 h scenario with `events_json` injected and returns the
/// runner (so the testbed outlives the call).
std::unique_ptr<ScenarioRunner> run_with_events(const std::string& events_json) {
  const std::string text = R"({
    "name": "probe", "seed": 3, "duration_hours": 2,
    "orchestrator": {"monitoring_period_minutes": 5},
    "workload": {"arrivals_per_hour": 4.0, "min_duration_hours": 1,
                 "max_duration_hours": 2},
    "events": )" + events_json + "}";
  auto runner = std::make_unique<ScenarioRunner>(parse_ok(text));
  const Result<Scorecard> card = runner->run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return runner;
}

/// fault_injected/fault_cleared audit entries for `component`.
std::pair<int, int> fault_counts(const ScenarioRunner& runner, const std::string& component) {
  int injected = 0;
  int cleared = 0;
  for (const core::Event& event : runner.testbed()->orchestrator->events().after(0)) {
    const json::Object fields = event.fields();
    const auto it = fields.find("component");
    if (it == fields.end() || !it->second.is_string() ||
        it->second.as_string() != component) {
      continue;
    }
    if (event.kind == core::EventKind::fault_injected) ++injected;
    if (event.kind == core::EventKind::fault_cleared) ++cleared;
  }
  return {injected, cleared};
}

bool health_lists_fault(const ScenarioRunner& runner, const std::string& component) {
  const json::Value health = runner.testbed()->orchestrator->health_json();
  const json::Object& faults = health.as_object().at("faults").as_object();
  return faults.find(component) != faults.end();
}

TEST(ScenarioEventsTest, LinkFaultInjectsAndClears) {
  auto runner = run_with_events(
      R"([{"kind": "link_down", "at_hours": 1, "link": "mmwave", "duration_hours": 0.5}])");
  EXPECT_EQ(fault_counts(*runner, "link.mmwave"), (std::pair<int, int>{1, 1}));
  EXPECT_FALSE(health_lists_fault(*runner, "link.mmwave"));
}

TEST(ScenarioEventsTest, UnrestoredFaultDegradesHealth) {
  auto runner = run_with_events(R"([{"kind": "cell_down", "at_hours": 1, "cell": "a"}])");
  EXPECT_EQ(fault_counts(*runner, "cell.a"), (std::pair<int, int>{1, 0}));
  EXPECT_TRUE(health_lists_fault(*runner, "cell.a"));
  const json::Value health = runner->testbed()->orchestrator->health_json();
  EXPECT_EQ(health.as_object().at("status").as_string(), "degraded");
}

TEST(ScenarioEventsTest, DcOutageTerminatesEmbeddedSlices) {
  // No restore: the DC stays down, so no live slice may reference it.
  auto runner = run_with_events(R"([{"kind": "dc_down", "at_hours": 1, "dc": "edge"}])");
  EXPECT_EQ(fault_counts(*runner, "dc.edge"), (std::pair<int, int>{1, 0}));
  EXPECT_TRUE(health_lists_fault(*runner, "dc.edge"));
  for (const auto& [slice, record] : runner->testbed()->orchestrator->slices()) {
    if (record.is_live()) {
      EXPECT_NE(record.embedding.datacenter, runner->testbed()->edge_dc)
          << "live slice still embedded at the failed DC";
    }
  }
}

TEST(ScenarioEventsTest, ControllerRestartSuspendsAndResumes) {
  auto runner = run_with_events(
      R"([{"kind": "controller_restart", "at_hours": 1, "duration_minutes": 10}])");
  EXPECT_EQ(fault_counts(*runner, "controller"), (std::pair<int, int>{1, 1}));
  EXPECT_FALSE(runner->testbed()->orchestrator->suspended());
}

TEST(ScenarioEventsTest, ChurnStormDrivesUeTraffic) {
  const std::string text = R"({
    "name": "storm_probe", "seed": 3, "duration_hours": 2,
    "orchestrator": {"monitoring_period_minutes": 5},
    "workload": {"arrivals_per_hour": 4.0, "min_duration_hours": 1,
                 "max_duration_hours": 2},
    "events": [{"kind": "churn_storm", "at_hours": 1, "duration_minutes": 30,
                "ues_per_hour": 300, "mean_holding_minutes": 3}]})";
  ScenarioRunner runner(parse_ok(text));
  Result<Scorecard> card = runner.run();
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(fault_counts(runner, "churn"), (std::pair<int, int>{1, 1}));
  EXPECT_GT(card.value().ue_arrivals, 0u);
}

// --- Bounded history -----------------------------------------------------------
//
// The orchestrator keeps its open slices only: after weeks of arrivals,
// what it holds and what a snapshot writes follow the open slices, not
// every request the run has seen.

/// perfbench/workloads/fig2_overbooking_week.json, run for `weeks`
/// sim-weeks.
Scenario fig2_weeks(int weeks) {
  Result<Scenario> loaded = load_scenario_file(
      std::string(SLICES_SOURCE_DIR) + "/perfbench/workloads/fig2_overbooking_week.json");
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? std::string{} : loaded.error().message);
  if (!loaded.ok()) return Scenario{};
  loaded.value().duration = Duration::hours(168.0 * weeks);
  return std::move(loaded.value());
}

TEST(BoundedHistory, StateFollowsTheOpenSlicesOverWeeks) {
  std::size_t state_bytes[2] = {0, 0};
  for (const int weeks : {1, 4}) {
    SCOPED_TRACE("weeks=" + std::to_string(weeks));
    ScenarioRunner runner(fig2_weeks(weeks));
    const Result<Scorecard> card = runner.run();
    ASSERT_TRUE(card.ok()) << card.error().message;
    const core::Orchestrator& orch = *runner.testbed()->orchestrator;
    const core::OrchestratorSummary summary = orch.summary();
    std::size_t pending = 0;
    for (const auto& [slice, record] : orch.slices()) {
      pending += record.state == core::SliceState::pending;
    }
    EXPECT_EQ(orch.slices().size(),
              pending + summary.installing_slices + summary.active_slices);
    // Every request of the run is open or counted in a closed total.
    EXPECT_EQ(card.value().submitted, orch.slices().size() + summary.rejected_total +
                                          summary.expired_total + summary.terminated_total);

    const json::Value state = orch.state_json();
    EXPECT_EQ(state.find("records")->as_array().size(), orch.slices().size());
    state_bytes[weeks == 1 ? 0 : 1] = json::serialize(state).size();
  }
  // Four times the history, about the same state.
  EXPECT_LE(static_cast<double>(state_bytes[1]), 1.1 * static_cast<double>(state_bytes[0]));
  EXPECT_GE(static_cast<double>(state_bytes[1]), 0.9 * static_cast<double>(state_bytes[0]));
}

}  // namespace
}  // namespace slices::scenario
