// Experiment D4 — §3 of the demo: the slice installation workflow. "If
// successfully accepted, network slices are installed into our system:
// [PRBs] are reserved through the RAN controller, dedicated paths are
// selected ... OpenEPC instances are deployed ... After few seconds,
// user devices associated with the PLMN-id of the new slices are allowed
// to connect."
//
// Measures the per-stage installation timeline over 100 slice installs
// and the wall-clock cost of the embedding transaction itself.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common.hpp"
#include "telemetry/stats.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

void print_experiment() {
  std::printf("\nD4: slice installation latency by stage (100 installs, Fig. 2 testbed)\n");

  std::vector<double> plmn, ran, path, epc, total;
  core::RequestGenerator generator({}, Rng(4242));
  auto tb = core::make_testbed(1);
  for (int i = 0; i < 100; ++i) {
    // Install, measure, tear down — like an operator cycling demo slices.
    core::GeneratedRequest request = generator.next_request();
    const core::SubmitVerdict verdict =
        tb->orchestrator->submit(request.spec, std::move(request.workload));
    if (verdict.state != core::SliceState::installing) continue;
    const core::InstallTimeline timeline = tb->orchestrator->last_install_timeline();
    plmn.push_back(timeline.plmn_install.as_seconds());
    ran.push_back(timeline.ran_reservation.as_seconds());
    path.push_back(timeline.path_setup.as_seconds());
    epc.push_back(timeline.epc_deploy.as_seconds());
    total.push_back(timeline.total().as_seconds());
    (void)tb->orchestrator->terminate(verdict.slice);
  }

  rule(72);
  std::printf("%-22s %10s %10s %10s\n", "stage", "mean s", "p50 s", "p95 s");
  rule(72);
  const auto row = [](const char* label, const std::vector<double>& values) {
    telemetry::RunningStats stats;
    for (const double v : values) stats.add(v);
    const std::vector<double> ps = percentiles(values, {0.5, 0.95});
    std::printf("%-22s %10.2f %10.2f %10.2f\n", label, stats.mean(), ps[0], ps[1]);
  };
  row("PLMN install (RAN)", plmn);
  row("PRB reservation", ran);
  row("transport path setup", path);
  row("EPC stack deploy", epc);
  row("TOTAL (to UE attach)", total);
  rule(72);
  std::printf("installs measured: %zu/100\n", total.size());
  std::printf("expected shape: total of a few seconds, dominated by the EPC (OpenEPC-style\n"
              "stack of 4 VNFs) deployment — the \"after few seconds\" of the demo.\n\n");
}

/// Wall-clock cost of the full multi-domain embedding transaction.
void BM_SubmitAndEmbed(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto tb = core::make_testbed(11);
    core::SliceSpec spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(4.0));
    state.ResumeTiming();
    benchmark::DoNotOptimize(tb->orchestrator->submit(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitAndEmbed)->Unit(benchmark::kMicrosecond);

/// The rollback path: a doomed request must clean up all domains.
void BM_SubmitRejectedRollback(benchmark::State& state) {
  core::OrchestratorConfig orch;
  orch.overbooking.enabled = false;
  auto tb = core::make_testbed(12, orch);
  core::SliceSpec spec = core::SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(4.0));
  spec.expected_throughput = DataRate::mbps(100000.0);  // cannot fit
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb->orchestrator->submit(spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitRejectedRollback)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
