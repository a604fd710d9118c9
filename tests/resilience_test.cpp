// Failure-injection tests: link outages in the transport domain, cell
// outages in the RAN, topology generators, tenant-initiated slice
// resizing, and orchestrator kill-and-recover via the durable store on
// the full testbed.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "core/testbed.hpp"
#include "store/store.hpp"
#include "telemetry/trace.hpp"
#include "traffic/model.hpp"
#include "transport/generators.hpp"

namespace slices {
namespace {

// --- topology generators ----------------------------------------------------

TEST(Generators, AggregationTreeShape) {
  const transport::GeneratedTopology g = transport::make_aggregation_tree(6, 3);
  EXPECT_EQ(g.ran_gateways.size(), 6u);
  EXPECT_EQ(g.edge_gateways.size(), 2u);  // ceil(6/3) aggregation switches
  // nodes: core-sw + core-gw + 2*(agg + edge) + 6 leaves = 12
  EXPECT_EQ(g.topology.node_count(), 12u);
  // Every RAN gateway can reach the core gateway.
  const transport::ResidualFn residual = [](const transport::Link& link) {
    return link.nominal_capacity;
  };
  for (const NodeId gw : g.ran_gateways) {
    EXPECT_TRUE(transport::find_route(g.topology, gw, g.core_gateway,
                                      DataRate::mbps(10.0), residual)
                    .has_value());
  }
}

TEST(Generators, AggregationTreeRoundsUpSwitches) {
  const transport::GeneratedTopology g = transport::make_aggregation_tree(7, 3);
  EXPECT_EQ(g.edge_gateways.size(), 3u);
}

TEST(Generators, MetroRingHasTwoDisjointDirections) {
  const transport::GeneratedTopology g = transport::make_metro_ring(6);
  EXPECT_EQ(g.ran_gateways.size(), 6u);
  const transport::ResidualFn residual = [](const transport::Link& link) {
    return link.nominal_capacity;
  };
  // Remove any one ring direction mentally: with one ring link vetoed,
  // a route must still exist (the other way round).
  const auto baseline = transport::find_route(g.topology, g.ran_gateways[1],
                                              g.core_gateway, DataRate::mbps(10.0), residual);
  ASSERT_TRUE(baseline.has_value());
  ASSERT_FALSE(baseline->links.empty());
  const LinkId vetoed = baseline->links[1];  // a ring link on the best path
  const transport::ResidualFn vetoing = [vetoed](const transport::Link& link) {
    return link.id == vetoed ? DataRate::zero() : link.nominal_capacity;
  };
  const auto detour = transport::find_route(g.topology, g.ran_gateways[1], g.core_gateway,
                                            DataRate::mbps(10.0), vetoing);
  ASSERT_TRUE(detour.has_value());
  EXPECT_NE(detour->links, baseline->links);
}

// --- transport link outage -----------------------------------------------------

TEST(LinkOutage, DownLinkCarriesNothingAndRepairRoutesAround) {
  transport::Topology topo;
  const NodeId s = topo.add_node("s", transport::NodeKind::enb_gateway);
  const NodeId t = topo.add_node("t", transport::NodeKind::core_gateway);
  const LinkId primary = topo.add_link(s, t, transport::LinkTechnology::fiber,
                                       DataRate::mbps(1000.0), Duration::millis(1.0));
  topo.add_link(s, t, transport::LinkTechnology::fiber, DataRate::mbps(1000.0),
                Duration::millis(3.0));
  transport::TransportController tc(std::move(topo), Rng(1));

  const Result<PathId> path = tc.allocate_path(SliceId{1}, s, t, DataRate::mbps(100.0),
                                               Duration::millis(10.0));
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(tc.find_path(path.value())->route.links.front(), primary);

  ASSERT_TRUE(tc.set_link_up(primary, false).ok());
  EXPECT_FALSE(tc.link_up(primary));
  EXPECT_DOUBLE_EQ(tc.current_capacity(*tc.topology().find_link(primary)).as_mbps(), 0.0);

  // First epoch after the outage: nothing served, then repaired.
  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(80.0)}};
  std::vector<transport::PathServeReport> reports;
  tc.serve_epoch(demands, SimTime::from_seconds(1.0), reports);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_DOUBLE_EQ(reports[0].served.as_mbps(), 0.0);
  EXPECT_TRUE(reports[0].degraded);
  EXPECT_EQ(tc.reroutes(), 1u);
  EXPECT_NE(tc.find_path(path.value())->route.links.front(), primary);

  // Next epoch flows over the detour.
  tc.serve_epoch(demands, SimTime::from_seconds(2.0), reports);
  EXPECT_NEAR(reports[0].served.as_mbps(), 80.0, 1e-6);

  // Recovery brings the link back into planning.
  ASSERT_TRUE(tc.set_link_up(primary, true).ok());
  EXPECT_GT(tc.residual(*tc.topology().find_link(primary)).as_mbps(), 0.0);
  EXPECT_EQ(tc.set_link_up(LinkId{999}, false).error().code, Errc::not_found);
}

TEST(LinkOutage, NewAllocationsAvoidDownLinks) {
  transport::Topology topo;
  const NodeId s = topo.add_node("s", transport::NodeKind::enb_gateway);
  const NodeId t = topo.add_node("t", transport::NodeKind::core_gateway);
  const LinkId only = topo.add_link(s, t, transport::LinkTechnology::fiber,
                                    DataRate::mbps(1000.0), Duration::millis(1.0));
  transport::TransportController tc(std::move(topo), Rng(1));
  ASSERT_TRUE(tc.set_link_up(only, false).ok());
  const Result<PathId> path = tc.allocate_path(SliceId{1}, s, t, DataRate::mbps(10.0),
                                               Duration::millis(10.0));
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.error().code, Errc::insufficient_capacity);
}

// --- RAN cell outage --------------------------------------------------------------

TEST(CellOutage, InactiveCellServesNothingAndCapacityDrops) {
  ran::RanController controller;
  controller.add_cell(
      ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  controller.add_cell(
      ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ASSERT_TRUE(controller.install_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{1}, DataRate::mbps(30.0)).ok());

  const DataRate before = controller.total_capacity();
  ASSERT_TRUE(controller.set_cell_active(CellId{1}, false).ok());
  EXPECT_FALSE(controller.cell_active(CellId{1}));
  EXPECT_NEAR(controller.total_capacity().as_mbps(), before.as_mbps() / 2.0, 1e-6);

  // Demand splits equally over both cells (no UEs); the dead cell's
  // half goes unserved.
  const std::vector<std::pair<PlmnId, DataRate>> demands = {{PlmnId{1}, DataRate::mbps(20.0)}};
  std::vector<ran::RanServeReport> reports;
  controller.serve_epoch(demands, SimTime::from_seconds(1.0), reports);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NEAR(reports[0].served.as_mbps() + reports[0].unserved.as_mbps(), 20.0, 1e-6);
  EXPECT_NEAR(reports[0].unserved.as_mbps(), 10.0, 1.0);

  // Recovery restores everything.
  ASSERT_TRUE(controller.set_cell_active(CellId{1}, true).ok());
  controller.serve_epoch(demands, SimTime::from_seconds(2.0), reports);
  EXPECT_NEAR(reports[0].served.as_mbps(), 20.0, 0.5);
  EXPECT_EQ(controller.set_cell_active(CellId{9}, false).error().code, Errc::not_found);

  // With UEs attached 3:1 over the two cells, demand splits by UE count:
  // the dead cell leaves exactly its three quarters unserved, and the
  // live cell serves its quarter in full.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(controller.attach_ue_at(CellId{1}, PlmnId{1}, ran::Cqi{10}).ok());
  }
  ASSERT_TRUE(controller.attach_ue_at(CellId{2}, PlmnId{1}, ran::Cqi{10}).ok());
  ASSERT_TRUE(controller.set_cell_active(CellId{1}, false).ok());
  controller.serve_epoch(demands, SimTime::from_seconds(3.0), reports);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].unserved.bits_per_second(), DataRate::mbps(15.0).bits_per_second());
  EXPECT_EQ(reports[0].served.bits_per_second(), DataRate::mbps(5.0).bits_per_second());
}

TEST(CellOutage, AllocationPlanningSkipsInactiveCells) {
  ran::RanController controller;
  controller.add_cell(
      ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  controller.add_cell(
      ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ASSERT_TRUE(controller.install_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(controller.set_cell_active(CellId{1}, false).ok());

  const Result<ran::RanAllocation> alloc =
      controller.set_allocation(PlmnId{1}, DataRate::mbps(20.0));
  ASSERT_TRUE(alloc.ok());
  EXPECT_FALSE(alloc.value().per_cell.contains(CellId{1}));
  EXPECT_TRUE(alloc.value().per_cell.contains(CellId{2}));

  // More than one live cell can carry must fail.
  const double one_cell = ran::throughput_of(PrbCount{100}, ran::Cqi{10}).as_mbps();
  EXPECT_FALSE(controller.set_allocation(PlmnId{1}, DataRate::mbps(one_cell * 1.5)).ok());
}

// --- slice resizing on the full testbed ----------------------------------------

TEST(ResizeSlice, GrowShrinkAndAtomicFailure) {
  core::OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = core::make_testbed(51, config);

  core::SliceSpec spec = core::SliceSpec::from_profile(
      traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(24.0));
  spec.expected_throughput = DataRate::mbps(20.0);
  const core::SliceRecord* record =
      tb->orchestrator->find_slice(tb->orchestrator->submit(spec).slice);
  tb->simulator.run_for(Duration::seconds(30.0));
  ASSERT_EQ(record->state, core::SliceState::active);

  // Not-yet-active and unknown slices are rejected.
  EXPECT_EQ(tb->orchestrator->resize_slice(SliceId{999}, DataRate::mbps(5.0)).error().code,
            Errc::not_found);
  EXPECT_EQ(tb->orchestrator->resize_slice(record->id, DataRate::zero()).error().code,
            Errc::invalid_argument);

  // Grow within capacity.
  ASSERT_TRUE(tb->orchestrator->resize_slice(record->id, DataRate::mbps(40.0)).ok());
  EXPECT_DOUBLE_EQ(record->spec.expected_throughput.as_mbps(), 40.0);
  EXPECT_DOUBLE_EQ(record->reserved.as_mbps(), 40.0);
  const transport::PathReservation* path =
      tb->transport->find_path(record->embedding.paths.front());
  EXPECT_DOUBLE_EQ(path->reserved.as_mbps(), 40.0);

  // Shrink.
  ASSERT_TRUE(tb->orchestrator->resize_slice(record->id, DataRate::mbps(10.0)).ok());
  EXPECT_DOUBLE_EQ(record->reserved.as_mbps(), 10.0);

  // Grow beyond the whole RAN fails atomically.
  const Result<void> too_big =
      tb->orchestrator->resize_slice(record->id, DataRate::mbps(100000.0));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.error().code, Errc::insufficient_capacity);
  EXPECT_DOUBLE_EQ(record->spec.expected_throughput.as_mbps(), 10.0);
  EXPECT_DOUBLE_EQ(record->reserved.as_mbps(), 10.0);
  EXPECT_DOUBLE_EQ(tb->transport->find_path(record->embedding.paths.front())
                       ->reserved.as_mbps(),
                   10.0);
}

TEST(ResizeSlice, WorksOverRestPatch) {
  auto tb = core::make_testbed(52);
  json::Value body;
  body["vertical"] = "iot_metering";
  body["duration_hours"] = 4.0;
  const Result<json::Value> created =
      tb->bus.call_json("orchestrator", net::Method::post, "/slices", body);
  ASSERT_TRUE(created.ok());
  const auto id = static_cast<std::uint64_t>(created.value().find("slice")->as_number());
  tb->simulator.run_for(Duration::seconds(30.0));

  json::Value patch;
  patch["throughput_mbps"] = 5.0;
  ASSERT_TRUE(tb->bus.call_json("orchestrator", net::Method::patch,
                                "/slices/" + std::to_string(id), patch)
                  .ok());
  const core::SliceRecord* record = tb->orchestrator->find_slice(SliceId{id});
  EXPECT_DOUBLE_EQ(record->spec.expected_throughput.as_mbps(), 5.0);
}

// --- operator health / trace surface --------------------------------------------

// The slicectl `health` and `trace dump` subcommands are thin wrappers
// over GET /healthz and GET /trace; drive the same routes over the bus
// and check they reflect injected failures.
TEST(HealthSurface, HealthzAndTraceDumpReflectOrchestratorState) {
  telemetry::trace::set_enabled(true);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();

  auto tb = core::make_testbed(54);
  json::Value body;
  body["vertical"] = "embb_video";
  body["duration_hours"] = 2.0;
  ASSERT_TRUE(tb->bus.call_json("orchestrator", net::Method::post, "/slices", body).ok());
  tb->simulator.run_for(Duration::minutes(35.0));  // past two monitoring periods

  // slicectl health: everything up, epochs fresh.
  const Result<json::Value> health = tb->bus.get_json("orchestrator", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().find("status")->as_string(), "ok");
  EXPECT_TRUE(health.value().find("components")->find("ran")->as_bool());
  EXPECT_TRUE(health.value().find("last_epoch")->find("ran")->as_bool());
  EXPECT_FALSE(health.value().find("journal")->find("attached")->as_bool());
  EXPECT_TRUE(health.value().find("trace")->find("enabled")->as_bool());
  EXPECT_GT(health.value().find("trace")->find("spans")->as_number(), 0.0);

  // slicectl trace dump: spans from the epoch loop and the admission.
  const Result<json::Value> dump = tb->bus.get_json("orchestrator", "/trace");
  ASSERT_TRUE(dump.ok());
  bool saw_epoch = false;
  bool saw_admit = false;
  for (const json::Value& event : dump.value().find("traceEvents")->as_array()) {
    const std::string& name = event.find("name")->as_string();
    saw_epoch = saw_epoch || name == "orch.serve_epoch";
    saw_admit = saw_admit || name == "orch.admit.decide";
  }
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_admit);

  // An attached-but-unopened store is a journal failure: degraded.
  store::StateStore store(store::StoreConfig{.directory = ""}, &tb->registry);
  tb->orchestrator->attach_store(&store);
  const Result<json::Value> degraded = tb->bus.get_json("orchestrator", "/healthz");
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded.value().find("status")->as_string(), "degraded");
  EXPECT_TRUE(degraded.value().find("journal")->find("attached")->as_bool());
  EXPECT_FALSE(degraded.value().find("journal")->find("open")->as_bool());

  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
}

// --- orchestrator kill-and-recover ----------------------------------------------

TEST(KillAndRecover, ServiceResumesFromJournalAfterOrchestratorLoss) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "slices_kill_recover_test";
  std::filesystem::remove_all(dir);

  Money earned_before;
  SliceId slice;
  SimTime ends_at;
  {
    auto tb = core::make_testbed(53);
    store::StateStore store(store::StoreConfig{.directory = dir.string()}, &tb->registry);
    ASSERT_TRUE(store.open().ok());
    tb->orchestrator->attach_store(&store);

    core::SliceSpec spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(2.0));
    spec.expected_throughput = DataRate::mbps(25.0);
    slice =
        tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(10.0)).slice;
    tb->simulator.run_for(Duration::minutes(30.0));

    const core::SliceRecord* record = tb->orchestrator->find_slice(slice);
    ASSERT_EQ(record->state, core::SliceState::active);
    ends_at = record->ends_at;
    earned_before = tb->orchestrator->ledger().total_earned();
    EXPECT_GT(earned_before.as_cents(), 0);
  }  // the whole process — orchestrator, controllers, simulator — is gone

  auto tb = core::make_testbed(53);
  store::StateStore store(store::StoreConfig{.directory = dir.string()}, &tb->registry);
  ASSERT_TRUE(store.open().ok());
  tb->orchestrator->attach_store(&store);
  const Result<core::RecoveryStats> stats = tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().reinstalled, 1u);
  EXPECT_EQ(stats.value().reinstall_failures, 0u);

  // The recovered ledger carries the pre-crash earnings, and the slice
  // keeps accruing revenue once epochs resume.
  const core::SliceRecord* record = tb->orchestrator->find_slice(slice);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->state, core::SliceState::active);
  EXPECT_EQ(tb->orchestrator->ledger().total_earned(), earned_before);
  tb->simulator.run_for(Duration::minutes(30.0));
  EXPECT_GT(tb->orchestrator->ledger().total_earned().as_cents(),
            earned_before.as_cents());

  // And it still expires exactly when the original contract said.
  tb->simulator.run_until(ends_at);
  EXPECT_EQ(tb->orchestrator->find_slice(slice), nullptr);
  EXPECT_EQ(tb->orchestrator->summary().expired_total, 1u);
}

}  // namespace
}  // namespace slices
