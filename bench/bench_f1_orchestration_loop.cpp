// Experiment F1 — Fig. 1 of the paper: the end-to-end orchestrator's
// closed loop (real-time monitoring -> data analysis and feature
// extraction -> resource allocation optimization -> automatic network
// reconfiguration). Runs the loop over two simulated days with three
// live slices and reports what each cycle did: estimators updated,
// reconfiguration actions issued; then times one loop cycle and one
// operator read of every domain's /metrics over REST.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

void print_experiment() {
  std::printf("\nF1: orchestration closed loop (3 slices, 48 h, 15-min cycles)\n");

  core::OrchestratorConfig orch;
  orch.overbooking.warmup_observations = 8;
  auto tb = core::make_testbed(31, orch);
  for (const traffic::Vertical v :
       {traffic::Vertical::embb_video, traffic::Vertical::automotive,
        traffic::Vertical::ehealth}) {
    (void)tb->orchestrator->submit(
        core::SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(72.0)),
        traffic::make_traffic(v, Rng(17)));
    tb->simulator.run_for(Duration::hours(1.0));
  }

  const std::uint64_t events_before = tb->simulator.executed_events();
  tb->simulator.run_for(Duration::hours(48.0));
  const std::uint64_t cycles = 48 * 4;

  const core::OrchestratorSummary summary = tb->orchestrator->summary();

  rule(72);
  std::printf("%-44s %20llu\n", "monitoring cycles executed",
              static_cast<unsigned long long>(cycles));
  std::printf("%-44s %20llu\n", "simulator events processed",
              static_cast<unsigned long long>(tb->simulator.executed_events() - events_before));
  std::printf("%-44s %20llu\n", "reconfiguration actions (reservation moves)",
              static_cast<unsigned long long>(summary.reconfigurations));
  std::printf("%-44s %20.3f\n", "closing multiplexing gain", summary.multiplexing_gain);
  std::printf("%-44s %20llu\n", "SLA violation epochs",
              static_cast<unsigned long long>(summary.violation_epochs));
  rule(72);
  std::printf("expected shape: each cycle reads the domains' serve reports in-process;\n"
              "reconfigurations track the diurnal demand (dozens over 48 h); the loop\n"
              "keeps the gain above 1 while violations stay rare.\n\n");
}

void BM_FullLoopCycle(benchmark::State& state) {
  core::OrchestratorConfig orch;
  orch.overbooking.warmup_observations = 8;
  auto tb = core::make_testbed(32, orch);
  for (const traffic::Vertical v :
       {traffic::Vertical::embb_video, traffic::Vertical::automotive,
        traffic::Vertical::ehealth}) {
    (void)tb->orchestrator->submit(
        core::SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(300.0)),
        traffic::make_traffic(v, Rng(19)));
  }
  tb->simulator.run_for(Duration::hours(6.0));

  SimTime now = tb->simulator.now();
  for (auto _ : state) {
    now = now + Duration::minutes(15.0);
    tb->orchestrator->run_epoch(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullLoopCycle)->Unit(benchmark::kMicrosecond);

void BM_MetricsPollOverRest(benchmark::State& state) {
  auto tb = core::make_testbed(33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->bus.get_json("ran", "/metrics"));
    benchmark::DoNotOptimize(tb->bus.get_json("transport", "/metrics"));
    benchmark::DoNotOptimize(tb->bus.get_json("cloud", "/metrics"));
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_MetricsPollOverRest)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
