// Experiment S1 — scalability beyond the demo testbed: how the
// orchestration loop costs grow with RAN size and concurrent slices on
// operator-scale aggregation fabrics (the library-quality question the
// 3-page demo could not answer). Wall-clock per monitoring epoch and
// per admission, swept over #cells and #slices.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "federation/broker.hpp"
#include "federation/edge.hpp"
#include "federation/fabric.hpp"
#include "transport/generators.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

void print_experiment() {
  std::printf("\nS1: orchestration-loop scalability (aggregation-tree transport, one epoch)\n");
  std::printf("see the google-benchmark table below: BM_EpochAtScale/<cells>/<slices>\n");
  std::printf("expected shape: epoch cost grows roughly linearly in cells + live slices;\n"
              "admission cost is dominated by the PRB planning over cells.\n\n");
  std::printf("S1-F: federated city scale-out — BM_FederatedEpochAtScale/<regions>/<cells per\n"
              "region> drives one broker epoch across every region's edge orchestrator over\n"
              "the RestBus (set SLICES_BENCH_FEDERATED_TABLE=1 for the per-region table).\n\n");
}

void BM_EpochAtScale(benchmark::State& state) {
  auto sys = make_scaled(static_cast<std::size_t>(state.range(0)),
                         static_cast<std::size_t>(state.range(1)));
  SimTime now = sys->simulator.now();
  for (auto _ : state) {
    now = now + Duration::minutes(15.0);
    sys->orchestrator->run_epoch(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochAtScale)
    ->Args({2, 3})
    ->Args({8, 6})
    ->Args({32, 6})
    ->Args({128, 6})
    ->Unit(benchmark::kMicrosecond);

void BM_AdmissionAtScale(benchmark::State& state) {
  auto sys = make_scaled(static_cast<std::size_t>(state.range(0)), 2);
  core::SliceSpec spec = core::SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::iot_metering), Duration::hours(1.0));
  spec.expected_throughput = DataRate::mbps(2.0);
  for (auto _ : state) {
    const core::SubmitVerdict verdict = sys->orchestrator->submit(spec);
    state.PauseTiming();
    if (verdict.state == core::SliceState::installing) {
      (void)sys->orchestrator->terminate(verdict.slice);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionAtScale)->Arg(2)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

void BM_CspfAtScale(benchmark::State& state) {
  transport::GeneratedTopology tree = transport::make_aggregation_tree(
      static_cast<std::size_t>(state.range(0)), 4);
  const transport::ResidualFn residual = [](const transport::Link& link) {
    return link.nominal_capacity;
  };
  std::size_t leaf = 0;
  for (auto _ : state) {
    leaf = (leaf + 1) % tree.ran_gateways.size();
    benchmark::DoNotOptimize(transport::find_route(tree.topology,
                                                   tree.ran_gateways[leaf],
                                                   tree.core_gateway, DataRate::mbps(10.0),
                                                   residual));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CspfAtScale)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// S1-F: the federated city. One broker + one EdgeNode per region on a
// shared in-process RestBus; slices admitted through the broker's
// placement path, then UEs attached round-robin over every live
// slice's PLMN so the epoch cost includes the per-region data plane.

constexpr std::size_t kUesPerCell = 1024;   // 1024 cells -> ~1M UEs
constexpr std::int64_t kEpochUs = 900'000'000;  // 15 simulated minutes

struct FederatedCity {
  scenario::Scenario scenario;
  federation::MetroFabric fabric;
  net::RestBus bus;
  std::vector<std::unique_ptr<federation::EdgeNode>> edges;
  std::unique_ptr<federation::Broker> broker;
  std::int64_t now_us = 0;
  std::size_t ues_attached = 0;
};

/// Build, populate and warm a city: `regions` edge orchestrators of
/// `cells_per_region` cells each, up to 6 broker-placed slices per
/// region (the MOCN broadcast cap), kUesPerCell UEs per cell.
std::unique_ptr<FederatedCity> make_city(std::size_t regions, std::size_t cells_per_region) {
  auto city = std::make_unique<FederatedCity>();
  city->scenario.name = "bench_s1_federated";
  city->scenario.topology = "metro";
  city->scenario.seed = 42;
  city->scenario.federation.regions = regions;
  city->scenario.federation.cells_per_region = cells_per_region;
  city->scenario.federation.edge_dcs_per_region = 1;
  city->scenario.federation.hosts_per_dc = 4;
  city->scenario.orchestrator.overbooking.warmup_observations = 4;

  Result<federation::MetroFabric> fabric =
      federation::make_metro_fabric(city->scenario.federation, city->scenario.seed);
  city->fabric = std::move(fabric.value());
  for (const federation::RegionPlan& plan : city->fabric.regions) {
    city->edges.push_back(
        std::make_unique<federation::EdgeNode>(plan, city->scenario, /*epoch_threads=*/1));
    city->bus.register_service(federation::Broker::service_name(plan.name),
                               city->edges.back()->make_router());
  }
  city->broker = std::make_unique<federation::Broker>(&city->bus, city->fabric);

  // Fill the city through the broker: 6 requests homed in each region.
  // Placement chases headroom, so admissions spread across regions up
  // to each RAN's broadcast-PLMN cap.
  std::size_t seq = 0;
  for (std::size_t round = 0; round < ran::kMaxBroadcastPlmns; ++round) {
    for (const federation::RegionPlan& plan : city->fabric.regions) {
      json::Value body;
      body["at_hours"] = 0.0;
      body["vertical"] = "iot_metering";
      body["duration_hours"] = 8000.0;  // DSL cap: one year
      body["throughput_mbps"] = 4.0;
      body["workload_seed"] = std::to_string(++seq);
      (void)city->broker->submit(body, plan.name, city->now_us);
    }
  }

  // Activate + warm the estimators, then load the data plane.
  city->now_us = 4 * 3'600'000'000ll;
  city->broker->tick_all(city->now_us);
  Rng cqi_rng(7);
  for (auto& edge : city->edges) {
    std::vector<PlmnId> plmns;
    for (const auto& [slice, record] : edge->orchestrator().slices()) {
      if (record.is_live()) plmns.push_back(record.embedding.plmn);
    }
    if (plmns.empty()) continue;
    const std::size_t target = edge->plan().cells * kUesPerCell;
    for (std::size_t u = 0; u < target; ++u) {
      const auto cqi = ran::Cqi{static_cast<int>(cqi_rng.uniform_int(3, 15))};
      if (edge->ran().attach_ue(plmns[u % plmns.size()], cqi).ok()) ++city->ues_attached;
    }
  }
  return city;
}

void BM_FederatedEpochAtScale(benchmark::State& state) {
  auto city = make_city(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    city->now_us += kEpochUs;
    city->broker->tick_all(city->now_us);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["cells"] = static_cast<double>(city->fabric.total_cells());
  state.counters["ues"] = static_cast<double>(city->ues_attached);
}
BENCHMARK(BM_FederatedEpochAtScale)
    ->Args({4, 64})
    ->Args({4, 256})
    ->Args({8, 128})
    ->Unit(benchmark::kMillisecond);

/// The per-region breakdown the google-benchmark table cannot show:
/// each region's share of one city epoch, timed around the same
/// RestBus call the broker makes. Heavy (attaches ~2.4M UEs across the
/// three configs), so it only runs when SLICES_BENCH_FEDERATED_TABLE
/// is set — CI's federation-smoke job captures it as an artifact.
void print_federated_table() {
  if (std::getenv("SLICES_BENCH_FEDERATED_TABLE") == nullptr) return;
  std::printf("S1-F: federated epoch cost by region (%d epochs after warm-up)\n", 8);
  rule();
  std::printf("%8s %10s %6s %9s %9s %13s %15s %14s\n", "regions", "cells/rgn", "cells",
              "UEs", "admitted", "epoch p50 ms", "region mean ms", "region max ms");
  rule();
  const std::size_t shapes[][2] = {{4, 64}, {4, 256}, {8, 128}};
  for (const auto& shape : shapes) {
    auto city = make_city(shape[0], shape[1]);
    std::vector<double> epoch_ms;
    // Per-edge epoch-serve samples, keyed by the broker's region order
    // (stable across epochs) — the CI artifact reports each edge's
    // median so a lopsided region stands out instead of averaging away.
    const std::vector<std::string> regions = city->broker->regions();
    std::vector<std::vector<double>> edge_ms(regions.size());
    double region_sum_ms = 0.0;
    double region_max_ms = 0.0;
    std::size_t region_samples = 0;
    for (int epoch = 0; epoch < 8; ++epoch) {
      city->now_us += kEpochUs;
      json::Value tick;
      tick["t_us"] = static_cast<double>(city->now_us);
      double total_ms = 0.0;
      for (std::size_t r = 0; r < regions.size(); ++r) {
        const auto start = std::chrono::steady_clock::now();
        (void)city->bus.call_json(federation::Broker::service_name(regions[r]),
                                  net::Method::post, "/federation/tick", tick);
        const std::chrono::duration<double, std::milli> took =
            std::chrono::steady_clock::now() - start;
        total_ms += took.count();
        edge_ms[r].push_back(took.count());
        region_sum_ms += took.count();
        region_max_ms = std::max(region_max_ms, took.count());
        ++region_samples;
      }
      epoch_ms.push_back(total_ms);
    }
    const std::vector<double> p = percentiles(epoch_ms, {0.5});
    const auto& counters = city->broker->counters();
    std::printf("%8zu %10zu %6zu %9zu %9llu %13.2f %15.3f %14.3f\n", shape[0], shape[1],
                city->fabric.total_cells(), city->ues_attached,
                static_cast<unsigned long long>(counters.placed_local + counters.placed_remote),
                p[0], region_sum_ms / static_cast<double>(std::max<std::size_t>(region_samples, 1)),
                region_max_ms);
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const std::vector<double> edge_p = percentiles(edge_ms[r], {0.5});
      std::printf("%8s   edge %-12s epoch-serve p50 %8.3f ms\n", "", regions[r].c_str(),
                  edge_p[0]);
    }
  }
  rule();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  print_federated_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
