// Cross-module integration tests: multi-slice scenarios on the full
// Fig. 2 testbed with system-wide invariants checked every epoch, plus
// determinism of whole runs.

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "dashboard/dashboard.hpp"

namespace slices::core {
namespace {

std::unique_ptr<Testbed> busy_testbed(std::uint64_t seed, OrchestratorConfig config = {}) {
  auto tb = make_testbed(seed, config);
  Rng workload_seeds(seed * 31 + 7);
  int i = 0;
  for (const traffic::Vertical v :
       {traffic::Vertical::embb_video, traffic::Vertical::automotive,
        traffic::Vertical::ehealth, traffic::Vertical::iot_metering}) {
    SliceSpec spec = SliceSpec::from_profile(traffic::profile_for(v),
                                             Duration::hours(40.0 + 4.0 * i));
    (void)tb->orchestrator->submit(spec, traffic::make_traffic(v, workload_seeds.fork()));
    // Stagger arrivals (as in the live demo) so the broker has history
    // to overbook against when the next request lands.
    tb->simulator.run_for(Duration::hours(4.0));
    ++i;
  }
  return tb;
}

/// Invariants that must hold at every instant of any run.
void check_invariants(const Testbed& tb) {
  // RAN: reservations never exceed cell capacity; every allocation's
  // PLMN is installed.
  for (const CellId cell_id : {tb.cell_a, tb.cell_b}) {
    const ran::Cell* cell = tb.ran.find_cell(cell_id);
    ASSERT_NE(cell, nullptr);
    EXPECT_LE(cell->reserved_prbs().value, cell->total_prbs().value);
    EXPECT_GE(cell->reserved_prbs().value, 0);
    EXPECT_LE(cell->broadcast_count(), ran::kMaxBroadcastPlmns);
  }

  // Transport: per-link reservations never exceed nominal capacity, and
  // every live slice's flow rules trace a connected forwarding chain.
  for (const transport::Link& link : tb.transport->topology().links()) {
    EXPECT_LE(tb.transport->reserved_on(link.id).as_mbps(),
              link.nominal_capacity.as_mbps() + 1e-6);
  }

  // Cloud: host usage within schedulable bounds.
  for (const cloud::Datacenter* dc : tb.cloud.datacenters()) {
    for (const cloud::Host& host : dc->hosts()) {
      EXPECT_TRUE(host.used.non_negative());
      EXPECT_TRUE(host.used.fits_within(dc->schedulable(host)));
    }
  }

  // Slices: state/bookkeeping consistency. The orchestrator holds open
  // records only, and only they hold an EPC or flow rules: a closed
  // slice left nothing behind.
  std::size_t live = 0;
  std::size_t open_rules = 0;
  for (const auto& [slice, record] : tb.orchestrator->slices()) {
    EXPECT_TRUE(record.state == SliceState::pending || record.is_live())
        << to_string(record.state);
    if (record.is_live()) ++live;
    // At most one rule per (node, slice): count the nodes that hold one.
    for (const transport::Node& node : tb.transport->topology().nodes()) {
      if (tb.transport->flow_table().lookup(node.id, slice) != nullptr) ++open_rules;
    }
    if (record.state == SliceState::active) {
      EXPECT_LE(record.reserved, record.spec.expected_throughput);
      EXPECT_TRUE(tb.ran.plmn_installed(record.embedding.plmn));
      EXPECT_NE(tb.epc->find(slice), nullptr);
      // Transport reservation mirrors the slice's current reservation.
      ASSERT_FALSE(record.embedding.paths.empty());
      const transport::PathReservation* path =
          tb.transport->find_path(record.embedding.paths.front());
      ASSERT_NE(path, nullptr);
      EXPECT_NEAR(path->reserved.as_mbps(), record.reserved.as_mbps(), 1e-6);
    }
  }
  EXPECT_EQ(tb.epc->instance_count(), live);
  EXPECT_EQ(tb.transport->flow_table().size(), open_rules);
}

TEST(Integration, InvariantsHoldThroughFortyEightHours) {
  auto tb = busy_testbed(1001);
  for (int hour = 0; hour < 48; ++hour) {
    tb->simulator.run_for(Duration::hours(1.0));
    check_invariants(*tb);
  }
  // By now some slices expired, the rest served a long time. At least
  // three of the four staggered requests fit thanks to overbooking (the
  // fourth lands while the eMBB diurnal is rising, when the broker
  // rightly refuses to reclaim); 92 Mb/s of contracts on a ~69 Mb/s RAN.
  const OrchestratorSummary summary = tb->orchestrator->summary();
  EXPECT_GE(summary.admitted_total, 3u);
  EXPECT_GT(summary.earned, Money::zero());
}

TEST(Integration, WholeRunIsDeterministic) {
  const auto run = [](std::uint64_t seed) {
    auto tb = busy_testbed(seed);
    tb->simulator.run_for(Duration::hours(40.0));
    const OrchestratorSummary summary = tb->orchestrator->summary();
    dashboard::Dashboard dash(tb.get());
    return std::pair{json::serialize(dash.snapshot()), summary.net.as_cents()};
  };
  const auto [snap_a, net_a] = run(77);
  const auto [snap_b, net_b] = run(77);
  EXPECT_EQ(snap_a, snap_b);
  EXPECT_EQ(net_a, net_b);
  const auto [snap_c, net_c] = run(78);
  EXPECT_NE(snap_a, snap_c);  // different seed, different trajectory
}

TEST(Integration, ChurnDoesNotLeakResources) {
  OrchestratorConfig config;
  auto tb = make_testbed(1003, config);
  // Admit and let expire several waves of short slices.
  for (int wave = 0; wave < 5; ++wave) {
    for (const traffic::Vertical v :
         {traffic::Vertical::iot_metering, traffic::Vertical::ehealth}) {
      SliceSpec spec = SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(1.0));
      (void)tb->orchestrator->submit(spec, traffic::make_traffic(v, Rng(wave * 10 + 1)));
    }
    tb->simulator.run_for(Duration::hours(2.0));
    check_invariants(*tb);
  }
  // After the last wave expires, everything must be back to zero.
  tb->simulator.run_for(Duration::hours(2.0));
  EXPECT_EQ(tb->ran.find_cell(tb->cell_a)->reserved_prbs().value, 0);
  EXPECT_EQ(tb->ran.find_cell(tb->cell_b)->reserved_prbs().value, 0);
  EXPECT_EQ(tb->epc->instance_count(), 0u);
  EXPECT_EQ(tb->transport->flow_table().size(), 0u);
  for (const transport::Link& link : tb->transport->topology().links()) {
    EXPECT_DOUBLE_EQ(tb->transport->reserved_on(link.id).as_mbps(), 0.0);
  }
  for (const cloud::Datacenter* dc : tb->cloud.datacenters()) {
    EXPECT_DOUBLE_EQ(dc->used_capacity().vcpus, 0.0);
    EXPECT_EQ(dc->vm_count(), 0u);
  }
  // All ten requests were admitted (capacity churns back).
  EXPECT_EQ(tb->orchestrator->summary().admitted_total, 10u);
}

TEST(Integration, AggressiveRiskRaisesViolationsVsConservative) {
  const auto violations_at = [](double quantile) {
    OrchestratorConfig config;
    config.overbooking.risk_quantile = quantile;
    config.overbooking.warmup_observations = 4;
    config.overbooking.floor_fraction = 0.05;
    auto tb = busy_testbed(1004, config);
    tb->simulator.run_for(Duration::hours(29.0));
    return tb->orchestrator->summary().violation_epochs;
  };
  const std::uint64_t aggressive = violations_at(0.0);
  const std::uint64_t conservative = violations_at(0.999);
  EXPECT_GE(aggressive, conservative);
  EXPECT_GT(aggressive, 0u);
}

TEST(Integration, RestBusCarriesAllControlTraffic) {
  auto tb = busy_testbed(1005);
  // An operator watches a busy run over REST: every hour it lists the
  // slices and reads each domain's /metrics. Every call reaches its
  // service and succeeds, and the bus counts exactly those calls.
  std::uint64_t calls = 0;
  for (int hour = 0; hour < 10; ++hour) {
    tb->simulator.run_for(Duration::hours(1.0));
    for (const char* service : {"orchestrator", "ran", "transport", "cloud"}) {
      const char* target = service == std::string_view("orchestrator") ? "/slices" : "/metrics";
      EXPECT_TRUE(tb->bus.get_json(service, target).ok()) << service;
      ++calls;
    }
  }
  std::uint64_t total_requests = 0;
  for (const auto& [name, stats] : tb->bus.stats()) {
    total_requests += stats.requests;
    EXPECT_EQ(stats.responses_error, 0u) << name;
  }
  EXPECT_EQ(total_requests, calls);
}

}  // namespace
}  // namespace slices::core
