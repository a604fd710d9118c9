// Tests that make_testbed() wires the exact Fig. 2 deployment: the RAN,
// the wireless+wired transport, the two datacenters, the REST services
// and the orchestrator's attachment points.

#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace slices::core {
namespace {

TEST(Testbed, TwoTwentyMhzMocnCells) {
  auto tb = make_testbed(1);
  ASSERT_EQ(tb->ran.cell_count(), 2u);
  for (const CellId id : {tb->cell_a, tb->cell_b}) {
    const ran::Cell* cell = tb->ran.find_cell(id);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->total_prbs().value, 100);  // 20 MHz
    EXPECT_EQ(cell->sharing_policy(), ran::SharingPolicy::pooled);
    EXPECT_EQ(cell->broadcast_count(), 0u);  // no slices yet
  }
}

TEST(Testbed, TransportMatchesFigureTwo) {
  auto tb = make_testbed(2);
  const transport::Topology& topo = tb->transport->topology();
  EXPECT_EQ(topo.node_count(), 4u);
  EXPECT_EQ(topo.link_count(), 10u);  // 5 bidirectional pairs

  const transport::Node* ran_gw = topo.find_node(tb->ran_gateway);
  const transport::Node* sw = topo.find_node(tb->switch_node);
  ASSERT_NE(ran_gw, nullptr);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(ran_gw->kind, transport::NodeKind::enb_gateway);
  EXPECT_EQ(sw->kind, transport::NodeKind::openflow_switch);

  // The two wireless uplinks: fast mmWave + steadier µwave.
  const transport::Link* mm = topo.find_link(tb->mmwave_uplink);
  const transport::Link* uw = topo.find_link(tb->uwave_uplink);
  ASSERT_NE(mm, nullptr);
  ASSERT_NE(uw, nullptr);
  EXPECT_EQ(mm->technology, transport::LinkTechnology::mmwave);
  EXPECT_EQ(uw->technology, transport::LinkTechnology::uwave);
  EXPECT_GT(mm->nominal_capacity, uw->nominal_capacity);
  EXPECT_LT(mm->delay, uw->delay);
  // Both leave the RAN gateway toward the switch.
  EXPECT_EQ(mm->from, tb->ran_gateway);
  EXPECT_EQ(mm->to, tb->switch_node);

  // Wireless links fade; the wired tails do not.
  EXPECT_EQ(tb->transport->fading().tracked_links(), 4u);  // 2 pairs
}

TEST(Testbed, EdgeAndCoreDatacenters) {
  auto tb = make_testbed(3);
  const cloud::Datacenter* edge = tb->cloud.find_datacenter(tb->edge_dc);
  const cloud::Datacenter* cloud_core = tb->cloud.find_datacenter(tb->core_dc);
  ASSERT_NE(edge, nullptr);
  ASSERT_NE(cloud_core, nullptr);
  EXPECT_EQ(edge->kind(), cloud::DatacenterKind::edge);
  EXPECT_EQ(cloud_core->kind(), cloud::DatacenterKind::core);
  // The core cloud is much larger than the scarce edge.
  EXPECT_GT(cloud_core->total_capacity().vcpus, edge->total_capacity().vcpus * 3.0);
  EXPECT_TRUE(tb->cloud.finalized());
}

TEST(Testbed, AllRestServicesRegistered) {
  auto tb = make_testbed(4);
  for (const char* service : {"ran", "transport", "cloud", "orchestrator"}) {
    EXPECT_TRUE(tb->bus.has_service(service)) << service;
  }
  // Every controller answers its /metrics (or /report) immediately.
  EXPECT_TRUE(tb->bus.get_json("ran", "/metrics").ok());
  EXPECT_TRUE(tb->bus.get_json("transport", "/metrics").ok());
  EXPECT_TRUE(tb->bus.get_json("cloud", "/metrics").ok());
  EXPECT_TRUE(tb->bus.get_json("orchestrator", "/report").ok());
}

TEST(Testbed, OrchestratorLoopIsArmed) {
  auto tb = make_testbed(5);
  // The periodic monitoring loop must be scheduled: running one period
  // executes at least one event and publishes the summary gauge.
  EXPECT_GT(tb->simulator.pending_events(), 0u);
  tb->simulator.run_for(tb->orchestrator->config().monitoring_period);
  EXPECT_NE(tb->registry.find_gauge("orchestrator.multiplexing_gain"), nullptr);
}

TEST(Testbed, SeedsProduceIndependentFading) {
  auto a = make_testbed(100);
  auto b = make_testbed(101);
  // Advance both transports and compare mmWave factors: different seeds
  // must diverge.
  bool diverged = false;
  std::vector<transport::PathServeReport> reports;
  for (int i = 0; i < 50 && !diverged; ++i) {
    a->transport->serve_epoch({}, SimTime::from_seconds(i * 900.0), reports);
    b->transport->serve_epoch({}, SimTime::from_seconds(i * 900.0), reports);
    const transport::Link* link_a = a->transport->topology().find_link(a->mmwave_uplink);
    const transport::Link* link_b = b->transport->topology().find_link(b->mmwave_uplink);
    if (a->transport->fading().factor(link_a->id) !=
        b->transport->fading().factor(link_b->id)) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace slices::core
