// Experiment SC1 — cost of the scenario engine (docs/scenarios.md):
// scenario parse/serialize round-trip cost, full scored end-to-end runs
// (hours of sim time per wall second, with and without event
// injection), and the recording overhead of a replay journal.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace slices;

constexpr const char* kBaseline = R"({
  "name": "bench_baseline",
  "seed": 17,
  "duration_hours": 12,
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 2.0, "min_duration_hours": 1, "max_duration_hours": 6}
})";

constexpr const char* kEventful = R"({
  "name": "bench_eventful",
  "seed": 17,
  "duration_hours": 12,
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 2.0, "min_duration_hours": 1, "max_duration_hours": 6},
  "phases": [
    {"name": "rush", "start_hours": 4, "end_hours": 8, "arrivals_per_hour": 5.0,
     "demand_scale": 1.4}
  ],
  "events": [
    {"kind": "link_flap", "at_hours": 3, "link": "mmwave", "count": 3,
     "period_minutes": 30, "down_minutes": 10},
    {"kind": "controller_restart", "at_hours": 6, "duration_minutes": 10},
    {"kind": "churn_storm", "at_hours": 9, "duration_minutes": 30,
     "ues_per_hour": 200, "mean_holding_minutes": 3}
  ]
})";

scenario::Scenario parse_or_die(const char* text) {
  Result<scenario::Scenario> parsed = scenario::parse_scenario(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "scenario parse failed: %s\n", parsed.error().message.c_str());
    std::abort();
  }
  return std::move(parsed.value());
}

void BM_ScenarioParseRoundTrip(benchmark::State& state) {
  const std::string canonical = scenario::serialize_scenario(parse_or_die(kEventful));
  for (auto _ : state) {
    Result<scenario::Scenario> parsed = scenario::parse_scenario(canonical);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * canonical.size()));
}
BENCHMARK(BM_ScenarioParseRoundTrip);

void run_scenario(benchmark::State& state, const char* text, scenario::RunOptions options) {
  double sim_hours = 0.0;
  for (auto _ : state) {
    scenario::ScenarioRunner runner(parse_or_die(text), options);
    Result<scenario::Scorecard> card = runner.run();
    if (!card.ok()) std::abort();
    sim_hours += card.value().duration_hours;
    benchmark::DoNotOptimize(card);
  }
  state.counters["sim_hours/s"] =
      benchmark::Counter(sim_hours, benchmark::Counter::kIsRate);
}

void BM_ScenarioRunBaseline(benchmark::State& state) {
  run_scenario(state, kBaseline, {});
}
BENCHMARK(BM_ScenarioRunBaseline)->Unit(benchmark::kMillisecond);

void BM_ScenarioRunEventful(benchmark::State& state) {
  run_scenario(state, kEventful, {});
}
BENCHMARK(BM_ScenarioRunEventful)->Unit(benchmark::kMillisecond);

void BM_ScenarioRunRecorded(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "slices_bench_sc1.journal").string();
  scenario::RunOptions options;
  options.record_path = path;
  run_scenario(state, kEventful, options);
  std::remove(path.c_str());
}
BENCHMARK(BM_ScenarioRunRecorded)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
