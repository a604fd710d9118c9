// Ablation A4 — resilience to hard failures: a transport link is taken
// down for a maintenance window while a latency-bound slice runs.
// Compares a metro ring (an alternate direction exists, the repair loop
// reroutes) against a single-homed tree (no alternative: the outage is
// absorbed as unserved traffic). Also injects an eNB outage on the
// Fig. 2 testbed and reports the SLA damage.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common.hpp"
#include "transport/generators.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

struct OutageResult {
  double unserved_mb = 0.0;     ///< traffic lost over the run
  std::uint64_t reroutes = 0;
  int epochs_to_restore = -1;   ///< epochs from outage to full service
};

OutageResult run_outage(bool ring) {
  transport::GeneratedTopology g =
      ring ? transport::make_metro_ring(6)
           : transport::make_aggregation_tree(6, 3);
  const NodeId src = g.ran_gateways.front();
  const NodeId dst = g.core_gateway;
  transport::TransportController tc(std::move(g.topology), Rng(7));

  const Result<PathId> path =
      tc.allocate_path(SliceId{1}, src, dst, DataRate::mbps(200.0), Duration::millis(30.0));
  OutageResult result;
  if (!path.ok()) return result;
  const LinkId cut = tc.find_path(path.value())->route.links[1];  // a fabric link

  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(180.0)}};
  const int outage_start = 20;
  const int outage_end = 60;  // 40 epochs of maintenance
  std::vector<transport::PathServeReport> reports;
  for (int epoch = 0; epoch < 96; ++epoch) {
    if (epoch == outage_start) (void)tc.set_link_up(cut, false);
    if (epoch == outage_end) (void)tc.set_link_up(cut, true);
    tc.serve_epoch(demands, SimTime::from_seconds(epoch * 900.0), reports);
    for (const transport::PathServeReport& report : reports) {
      const double unserved = 180.0 - report.served.as_mbps();
      result.unserved_mb += unserved * 900.0 / 8.0 / 1e3;  // Mb/s x s -> MB... keep Mb
      if (epoch >= outage_start && result.epochs_to_restore < 0 && unserved < 1e-6) {
        result.epochs_to_restore = epoch - outage_start;
      }
    }
  }
  result.reroutes = tc.reroutes();
  return result;
}

void print_experiment() {
  std::printf("\nA4: hard-failure resilience — 40-epoch link outage under a 180 Mb/s\n"
              "latency-bound flow (repair loop active)\n");
  rule(84);
  std::printf("%-18s %16s %12s %20s\n", "fabric", "unserved (MB)", "reroutes",
              "epochs to restore");
  rule(84);
  for (const bool ring : {true, false}) {
    const OutageResult r = run_outage(ring);
    std::printf("%-18s %16.1f %12llu %20d\n", ring ? "metro ring" : "single-homed tree",
                r.unserved_mb, static_cast<unsigned long long>(r.reroutes),
                r.epochs_to_restore);
  }
  rule(84);

  // eNB outage on the Fig. 2 testbed: violations while one cell is dark.
  core::OrchestratorConfig config;
  config.overbooking.warmup_observations = 4;
  auto tb = core::make_testbed(404, config);
  core::SliceSpec spec = core::SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(48.0));
  spec.expected_throughput = DataRate::mbps(50.0);
  (void)tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(40.0));
  tb->simulator.run_for(Duration::hours(6.0));
  const std::uint64_t before = tb->orchestrator->summary().violation_epochs;
  (void)tb->ran.set_cell_active(tb->cell_a, false);
  tb->simulator.run_for(Duration::hours(6.0));
  const std::uint64_t during = tb->orchestrator->summary().violation_epochs - before;
  (void)tb->ran.set_cell_active(tb->cell_a, true);
  tb->simulator.run_for(Duration::hours(6.0));
  const std::uint64_t after =
      tb->orchestrator->summary().violation_epochs - before - during;

  std::printf("\neNB outage on Fig. 2 (50 Mb/s slice, 40 Mb/s offered):\n"
              "  violation epochs before/during/after 6 h windows: %llu / %llu / %llu\n",
              static_cast<unsigned long long>(before), static_cast<unsigned long long>(during),
              static_cast<unsigned long long>(after));
  std::printf("expected shape: the ring restores service within ~1 epoch via reroute and\n"
              "loses almost nothing; the single-homed tree bleeds for the entire outage.\n"
              "The eNB outage shows up as violation epochs only while the cell is dark.\n\n");
}

void BM_ServeEpochDuringOutage(benchmark::State& state) {
  transport::GeneratedTopology g = transport::make_metro_ring(8);
  const NodeId src = g.ran_gateways.front();
  const NodeId dst = g.core_gateway;
  transport::TransportController tc(std::move(g.topology), Rng(9));
  const Result<PathId> path =
      tc.allocate_path(SliceId{1}, src, dst, DataRate::mbps(100.0), Duration::millis(50.0));
  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(90.0)}};
  std::vector<transport::PathServeReport> reports;
  int epoch = 0;
  for (auto _ : state) {
    tc.serve_epoch(demands, SimTime::from_seconds(++epoch * 900.0), reports);
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeEpochDuringOutage)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
