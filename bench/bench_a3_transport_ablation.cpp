// Ablation A3 — transport path selection under wireless fading: CSPF
// (min-delay with capacity pruning) against min-hop routing, with and
// without the repair loop, on the Fig. 2 wireless transport. Measures
// delay-SLA violations, degradation epochs and reroutes for a
// latency-bound slice riding the mmWave uplink.

// BM_TransportEpochServe/<paths>/<threads>
//                        — one transport epoch over `paths` installed
//                          paths on an all-fiber chain, through the SoA
//                          serve kernel (route CSR + dense link columns,
//                          arena scratch; `threads`-wide pool, 1 =
//                          serial). Fiber keeps fading and the repair
//                          loop out of the measurement.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "transport/controller.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

struct AblationResult {
  std::uint64_t delay_violations = 0;
  std::uint64_t degraded_epochs = 0;
  std::uint64_t reroutes = 0;
  double mean_served_mbps = 0.0;
};

/// A transport-only scenario: one 300 Mb/s / 8 ms path from RAN gw to
/// the core gw, 7 days of epochs under fading.
AblationResult run(transport::PathObjective objective, std::uint64_t seed) {
  // Rebuild the Fig. 2 transport in isolation.
  transport::Topology topo;
  const NodeId ran_gw = topo.add_node("ran-gw", transport::NodeKind::enb_gateway);
  const NodeId sw = topo.add_node("pf5240", transport::NodeKind::openflow_switch);
  const NodeId core_gw = topo.add_node("core-gw", transport::NodeKind::core_gateway);
  topo.add_bidirectional(ran_gw, sw, transport::LinkTechnology::mmwave,
                         DataRate::mbps(1000.0), Duration::millis(1.0));
  topo.add_bidirectional(ran_gw, sw, transport::LinkTechnology::uwave,
                         DataRate::mbps(400.0), Duration::millis(2.5));
  topo.add_bidirectional(sw, core_gw, transport::LinkTechnology::fiber,
                         DataRate::mbps(10000.0), Duration::millis(4.0));
  // A direct but slower wired detour, so min-hop has something to prefer.
  topo.add_bidirectional(ran_gw, core_gw, transport::LinkTechnology::fiber,
                         DataRate::mbps(500.0), Duration::millis(7.5));

  transport::TransportController tc(std::move(topo), Rng(seed));
  const Result<PathId> path = tc.allocate_path(SliceId{1}, ran_gw, core_gw,
                                               DataRate::mbps(300.0), Duration::millis(8.0),
                                               objective);
  AblationResult result;
  if (!path.ok()) return result;

  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(280.0)}};
  double served_sum = 0.0;
  const int epochs = 96 * 7;
  std::vector<transport::PathServeReport> reports;
  for (int i = 0; i < epochs; ++i) {
    tc.serve_epoch(demands, SimTime::from_seconds(i * 900.0), reports);
    for (const transport::PathServeReport& report : reports) {
      if (report.delay_violated) ++result.delay_violations;
      if (report.degraded) ++result.degraded_epochs;
      served_sum += report.served.as_mbps();
    }
  }
  result.reroutes = tc.reroutes();
  result.mean_served_mbps = served_sum / epochs;
  return result;
}

void print_experiment() {
  std::printf("\nA3: transport path-selection ablation under mmWave fading (7 days, 300 Mb/s\n"
              "latency-bound path, repair loop active)\n");
  rule(96);
  std::printf("%-12s %16s %16s %12s %16s\n", "objective", "delay viol", "degraded epochs",
              "reroutes", "mean served Mb/s");
  rule(96);
  for (const auto& [label, objective] :
       {std::pair{"min_delay", transport::PathObjective::min_delay},
        std::pair{"min_hops", transport::PathObjective::min_hops}}) {
    AblationResult sum;
    const int runs = 10;
    for (int seed = 1; seed <= runs; ++seed) {
      const AblationResult r = run(objective, static_cast<std::uint64_t>(seed) * 101);
      sum.delay_violations += r.delay_violations;
      sum.degraded_epochs += r.degraded_epochs;
      sum.reroutes += r.reroutes;
      sum.mean_served_mbps += r.mean_served_mbps;
    }
    std::printf("%-12s %16.1f %16.1f %12.1f %16.1f\n", label,
                static_cast<double>(sum.delay_violations) / runs,
                static_cast<double>(sum.degraded_epochs) / runs,
                static_cast<double>(sum.reroutes) / runs, sum.mean_served_mbps / runs);
  }
  rule(96);
  std::printf("expected shape: min_hops pins the flow to the direct 7.5 ms link, where any\n"
              "queueing blows the 8 ms budget (violations every epoch); min_delay rides the\n"
              "5 ms mmWave route, violates only around deep fades, and the repair loop\n"
              "reroutes those away (nonzero reroutes, fewer total violations).\n\n");
}

/// `n_paths` reservations over a 3-hop all-fiber chain, plus the demand
/// vector the epoch loop replays.
struct ServeSystem {
  std::unique_ptr<transport::TransportController> tc;
  std::vector<std::pair<PathId, DataRate>> demands;

  explicit ServeSystem(std::size_t n_paths) {
    transport::Topology topo;
    const NodeId gw = topo.add_node("gw", transport::NodeKind::enb_gateway);
    const NodeId s1 = topo.add_node("s1", transport::NodeKind::openflow_switch);
    const NodeId s2 = topo.add_node("s2", transport::NodeKind::openflow_switch);
    const NodeId core = topo.add_node("core", transport::NodeKind::core_gateway);
    const DataRate capacity = DataRate::mbps(2.0 * static_cast<double>(n_paths) + 100.0);
    topo.add_link(gw, s1, transport::LinkTechnology::fiber, capacity, Duration::millis(1.0));
    topo.add_link(s1, s2, transport::LinkTechnology::fiber, capacity, Duration::millis(1.0));
    topo.add_link(s2, core, transport::LinkTechnology::fiber, capacity, Duration::millis(1.0));
    tc = std::make_unique<transport::TransportController>(std::move(topo), Rng(9));
    demands.reserve(n_paths);
    for (std::size_t i = 0; i < n_paths; ++i) {
      const Result<PathId> path = tc->allocate_path(SliceId{i + 1}, gw, core,
                                                    DataRate::mbps(2.0), Duration::millis(20.0));
      if (!path.ok()) std::abort();
      demands.emplace_back(path.value(), DataRate::mbps(1.5));
    }
  }
};

void BM_TransportEpochServe(benchmark::State& state) {
  ServeSystem sys(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    sys.tc->set_thread_pool(pool.get());
  }
  std::vector<transport::PathServeReport> reports;
  int i = 0;
  for (auto _ : state) {
    sys.tc->serve_epoch(sys.demands, SimTime::from_seconds(++i * 900.0), reports);
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["paths"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_TransportEpochServe)
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_ServeEpochWithFading(benchmark::State& state) {
  transport::Topology topo;
  const NodeId a = topo.add_node("a", transport::NodeKind::enb_gateway);
  const NodeId b = topo.add_node("b", transport::NodeKind::core_gateway);
  topo.add_bidirectional(a, b, transport::LinkTechnology::mmwave, DataRate::mbps(1000.0),
                         Duration::millis(1.0));
  topo.add_bidirectional(a, b, transport::LinkTechnology::fiber, DataRate::mbps(1000.0),
                         Duration::millis(3.0));
  transport::TransportController tc(std::move(topo), Rng(5));
  const Result<PathId> path =
      tc.allocate_path(SliceId{1}, a, b, DataRate::mbps(400.0), Duration::millis(10.0));
  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(350.0)}};
  std::vector<transport::PathServeReport> reports;
  int i = 0;
  for (auto _ : state) {
    tc.serve_epoch(demands, SimTime::from_seconds(++i * 900.0), reports);
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeEpochWithFading)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
