#pragma once
// Shared scenario machinery for the experiment benches (see DESIGN.md §4
// for the experiment index). Each bench binary prints the paper-style
// table for its experiment and then runs google-benchmark timings of the
// hot kernels involved.

#include <cstdio>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "core/request_generator.hpp"
#include "core/testbed.hpp"
#include "telemetry/stats.hpp"
#include "transport/generators.hpp"

namespace slices::bench {

/// Records the CMake build type as "slices_build_type" in the context of
/// every benchmark report, once per binary, at static initialization.
/// tools/check_bench_regression.py rejects a run that is not Release.
inline const bool kBuildTypeRecorded =
    (benchmark::AddCustomContext("slices_build_type", SLICES_BUILD_TYPE), true);

/// Aggregate outcome of one driven scenario.
struct ScenarioOutcome {
  core::OrchestratorSummary summary;   ///< end-of-run orchestrator state
  double acceptance_ratio = 0.0;       ///< admitted / (admitted + rejected)
  double mean_multiplexing_gain = 1.0; ///< time-average of the gain series
  double peak_active_slices = 0.0;     ///< max concurrent active slices
  double mean_ran_reserved_mbps = 0.0; ///< time-average radio reservation
};

/// Knobs of the Poisson-arrival admission scenario that underlies
/// experiments D1, D2, D3 and A2.
struct ScenarioConfig {
  std::string policy = "knapsack_revenue";
  bool overbooking = true;
  double risk_quantile = 0.95;
  core::EstimatorKind estimator = core::EstimatorKind::adaptive;
  double arrivals_per_hour = 0.25;
  double days = 7.0;
  std::uint64_t seed = 42;
  /// > 0 queues requests and auctions them as a batch every window.
  double admission_window_hours = 0.0;
  core::RequestGeneratorConfig requests;
};

/// Drive the Fig. 2 testbed with Poisson slice arrivals for
/// `config.days` simulated days and aggregate the dashboard metrics.
inline ScenarioOutcome run_scenario(const ScenarioConfig& config) {
  core::OrchestratorConfig orch;
  orch.admission_policy = config.policy;
  orch.overbooking.enabled = config.overbooking;
  orch.overbooking.risk_quantile = config.risk_quantile;
  orch.overbooking.estimator = config.estimator;
  orch.overbooking.warmup_observations = 8;
  if (config.admission_window_hours > 0.0) {
    orch.admission_window = Duration::hours(config.admission_window_hours);
  }

  auto tb = core::make_testbed(config.seed, orch);

  core::RequestGeneratorConfig requests = config.requests;
  requests.arrivals_per_hour = config.arrivals_per_hour;
  core::RequestGenerator generator(requests, Rng(config.seed * 7919 + 13));

  // Self-rescheduling arrival process on the simulator.
  std::function<void()> arrive = [&] {
    core::GeneratedRequest request = generator.next_request();
    (void)tb->orchestrator->submit(request.spec, std::move(request.workload));
    tb->simulator.schedule_after(generator.next_interarrival(tb->simulator.now()), arrive);
  };
  tb->simulator.schedule_after(generator.next_interarrival(tb->simulator.now()), arrive);

  tb->simulator.run_for(Duration::hours(24.0 * config.days));

  ScenarioOutcome outcome;
  outcome.summary = tb->orchestrator->summary();
  const auto total = outcome.summary.admitted_total + outcome.summary.rejected_total;
  outcome.acceptance_ratio =
      total == 0 ? 0.0
                 : static_cast<double>(outcome.summary.admitted_total) /
                       static_cast<double>(total);

  if (const telemetry::TimeSeries* gain =
          tb->registry.find_series("orchestrator.multiplexing_gain")) {
    double sum = 0.0;
    for (std::size_t i = 0; i < gain->size(); ++i) sum += gain->at(i).value;
    if (gain->size() > 0) outcome.mean_multiplexing_gain = sum / static_cast<double>(gain->size());
  }
  if (const telemetry::TimeSeries* active =
          tb->registry.find_series("orchestrator.active_slices")) {
    for (std::size_t i = 0; i < active->size(); ++i) {
      outcome.peak_active_slices = std::max(outcome.peak_active_slices, active->at(i).value);
    }
  }
  if (const telemetry::TimeSeries* reserved =
          tb->registry.find_series("orchestrator.reserved_mbps")) {
    double sum = 0.0;
    for (std::size_t i = 0; i < reserved->size(); ++i) sum += reserved->at(i).value;
    if (reserved->size() > 0)
      outcome.mean_ran_reserved_mbps = sum / static_cast<double>(reserved->size());
  }
  return outcome;
}

/// printf a horizontal rule sized for the experiment tables.
inline void rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// A scaled deployment for the S-series experiments: `cells` eNBs
/// behind an aggregation tree, one big core DC, `slices` active slices
/// with constant demand.
struct ScaledSystem {
  sim::Simulator simulator;
  telemetry::MonitorRegistry registry;
  std::unique_ptr<ThreadPool> pool;
  net::RestBus bus;
  ran::RanController ran{&registry};
  cloud::CloudController cloud{&registry};
  std::unique_ptr<transport::TransportController> transport;
  std::unique_ptr<epc::EpcManager> epc;
  std::unique_ptr<core::Orchestrator> orchestrator;
};

/// Build, start and warm a ScaledSystem. `epoch_threads == 0` uses the
/// hardware concurrency.
inline std::unique_ptr<ScaledSystem> make_scaled(std::size_t cells, std::size_t slices,
                                                 std::size_t epoch_threads = 0) {
  auto sys = std::make_unique<ScaledSystem>();
  if (epoch_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    epoch_threads = hw == 0 ? 1 : hw;
  }
  if (epoch_threads > 1) {
    sys->pool = std::make_unique<ThreadPool>(epoch_threads);
    sys->ran.set_thread_pool(sys->pool.get());
  }

  for (std::size_t c = 0; c < cells; ++c) {
    sys->ran.add_cell(ran::Cell(CellId{c + 1}, "cell-" + std::to_string(c),
                                ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  }

  transport::GeneratedTopology tree =
      transport::make_aggregation_tree(/*leaves=*/std::max<std::size_t>(cells / 4, 1),
                                       /*leaves_per_switch=*/4);
  const NodeId ran_gateway = tree.ran_gateways.front();
  const NodeId core_gateway = tree.core_gateway;
  sys->transport = std::make_unique<transport::TransportController>(
      std::move(tree.topology), Rng(1), &sys->registry);
  if (sys->pool != nullptr) sys->transport->set_thread_pool(sys->pool.get());

  const DatacenterId core_dc =
      sys->cloud.add_datacenter("core", cloud::DatacenterKind::core, 4.0);
  for (std::size_t h = 0; h < std::max<std::size_t>(slices / 8, 2); ++h) {
    sys->cloud.add_host(core_dc, "host-" + std::to_string(h),
                        ComputeCapacity{256.0, 1048576.0, 10000.0});
  }
  sys->cloud.finalize();
  sys->epc = std::make_unique<epc::EpcManager>(&sys->cloud);

  sys->bus.register_service("ran", sys->ran.make_router());
  sys->bus.register_service("transport", sys->transport->make_router());
  sys->bus.register_service("cloud", sys->cloud.make_router());

  core::OrchestratorConfig config;
  config.overbooking.warmup_observations = 4;
  sys->orchestrator = std::make_unique<core::Orchestrator>(
      &sys->simulator, &sys->ran, sys->transport.get(), &sys->cloud, sys->epc.get(),
      &sys->bus, &sys->registry, config);
  sys->orchestrator->set_attachment_points(ran_gateway, {{core_dc, core_gateway}});
  sys->orchestrator->start();

  // Admit `slices` small constant-demand slices (PLMN limit: 6 per
  // cell; MOCN forces slices > 6 to share PLMN space in reality — here
  // we cap at 6 concurrent and note the cap).
  const std::size_t admitted = std::min<std::size_t>(slices, ran::kMaxBroadcastPlmns);
  for (std::size_t s = 0; s < admitted; ++s) {
    core::SliceSpec spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::iot_metering), Duration::hours(10000.0));
    spec.expected_throughput = DataRate::mbps(4.0);
    (void)sys->orchestrator->submit(spec,
                                    std::make_unique<traffic::ConstantTraffic>(1.0));
  }
  sys->simulator.run_for(Duration::hours(4.0));  // activate + warm estimators
  return sys;
}

/// Percentiles of a sample set for the experiment tables. One scratch
/// copy, then telemetry::quantile_inplace (nth_element, no full sort)
/// per requested quantile — every bench reports through this instead of
/// rolling its own sort-and-index.
inline std::vector<double> percentiles(const std::vector<double>& values,
                                       std::initializer_list<double> qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  if (values.empty()) {
    out.assign(qs.size(), 0.0);
    return out;
  }
  std::vector<double> scratch = values;
  for (const double q : qs) out.push_back(telemetry::quantile_inplace(scratch, q));
  return out;
}

}  // namespace slices::bench
