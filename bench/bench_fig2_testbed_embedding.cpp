// Experiment F2 — Fig. 2 of the paper: the end-to-end testbed (two
// MOCN eNBs, mmWave + µwave wireless transport and a programmable
// switch, edge and core OpenStack datacenters, E2E orchestrator on top).
// Builds the testbed, embeds one slice of every vertical end-to-end and
// prints the resulting per-domain state — the software twin of the
// figure — then times testbed construction.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "common.hpp"
#include "dashboard/dashboard.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

void print_experiment() {
  std::printf("\nF2: Fig. 2 testbed, one slice per vertical embedded end-to-end\n\n");

  auto tb = core::make_testbed(2018);
  // Throughputs are operator-scaled to the two-small-cell testbed via
  // the dashboard's "expected throughput" field, as in the live demo
  // (a 20 MHz LTE cell carries ~40 Mb/s at mid CQI).
  const std::map<traffic::Vertical, double> testbed_mbps = {
      {traffic::Vertical::iot_metering, 2.0},  {traffic::Vertical::ehealth, 8.0},
      {traffic::Vertical::automotive, 15.0},   {traffic::Vertical::cloud_gaming, 18.0},
      {traffic::Vertical::embb_video, 25.0}};
  for (const auto& [v, mbps] : testbed_mbps) {
    core::SliceSpec spec =
        core::SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(48.0));
    spec.expected_throughput = DataRate::mbps(mbps);
    const core::SubmitVerdict verdict =
        tb->orchestrator->submit(spec, traffic::make_traffic(v, Rng(23)));
    std::printf("  %-14s -> %-11s", std::string(traffic::to_string(v)).c_str(),
                std::string(core::to_string(verdict.state)).c_str());
    if (verdict.state == core::SliceState::installing) {
      const core::SliceRecord* record = tb->orchestrator->find_slice(verdict.slice);
      const cloud::Datacenter* dc = tb->cloud.find_datacenter(record->embedding.datacenter);
      const transport::PathReservation* path =
          tb->transport->find_path(record->embedding.paths.front());
      std::printf("  plmn=%llu dc=%s path_delay=%.1fms prb=%d",
                  static_cast<unsigned long long>(record->embedding.plmn.value()),
                  dc->name().c_str(), path->route.total_delay.as_millis(),
                  tb->ran.find_allocation(record->embedding.plmn)->total_prbs().value);
    }
    std::printf("\n");
    // Stagger so the broker can overbook the earlier slices.
    tb->simulator.run_for(Duration::hours(4.0));
  }

  tb->simulator.run_for(Duration::hours(2.0));
  dashboard::Dashboard dash(tb.get());
  std::printf("\n%s\n", dash.render_domains().c_str());
  std::printf("%s\n", dash.render_headline().c_str());
  std::printf("expected shape: latency-bound verticals (automotive, ehealth, cloud_gaming)\n"
              "land on edge-dc; bulk verticals on core-dc; paths ride the mmWave uplink\n"
              "within each vertical's delay budget; both cells carry PRB reservations.\n\n");
}

void BM_BuildTestbed(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_testbed(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildTestbed)->Unit(benchmark::kMicrosecond);

void BM_CspfOnTestbedTopology(benchmark::State& state) {
  auto tb = core::make_testbed(2);
  const transport::ResidualFn residual = [&](const transport::Link& link) {
    return tb->transport->residual(link);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(transport::find_route(tb->transport->topology(),
                                                   tb->ran_gateway, tb->core_gateway,
                                                   DataRate::mbps(50.0), residual));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CspfOnTestbedTopology);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
