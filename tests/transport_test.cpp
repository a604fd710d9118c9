// Unit tests for the transport substrate: topology, CSPF, flow tables,
// fading and the transport controller incl. REST facade.

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "net/rest_bus.hpp"
#include "transport/controller.hpp"
#include "transport/cspf.hpp"
#include "transport/fading.hpp"
#include "transport/flow_table.hpp"
#include "transport/topology.hpp"

namespace slices::transport {
namespace {

/// Diamond: src -> (fast but thin | slow but fat) -> dst.
struct Diamond {
  Topology topo;
  NodeId src, top, bottom, dst;
  LinkId fast_a, fast_b, slow_a, slow_b;

  Diamond() {
    src = topo.add_node("src", NodeKind::enb_gateway);
    top = topo.add_node("top", NodeKind::openflow_switch);
    bottom = topo.add_node("bottom", NodeKind::openflow_switch);
    dst = topo.add_node("dst", NodeKind::core_gateway);
    fast_a = topo.add_link(src, top, LinkTechnology::fiber, DataRate::mbps(100.0),
                           Duration::millis(1.0));
    fast_b = topo.add_link(top, dst, LinkTechnology::fiber, DataRate::mbps(100.0),
                           Duration::millis(1.0));
    slow_a = topo.add_link(src, bottom, LinkTechnology::fiber, DataRate::mbps(1000.0),
                           Duration::millis(5.0));
    slow_b = topo.add_link(bottom, dst, LinkTechnology::fiber, DataRate::mbps(1000.0),
                           Duration::millis(5.0));
  }
};

ResidualFn nominal_residual() {
  return [](const Link& link) { return link.nominal_capacity; };
}

// --- Topology -------------------------------------------------------------

TEST(Topology, NodesAndLinks) {
  Diamond d;
  EXPECT_EQ(d.topo.node_count(), 4u);
  EXPECT_EQ(d.topo.link_count(), 4u);
  EXPECT_NE(d.topo.find_node_by_name("top"), nullptr);
  EXPECT_EQ(d.topo.find_node_by_name("ghost"), nullptr);
  EXPECT_EQ(d.topo.outgoing(d.src).size(), 2u);
  EXPECT_TRUE(d.topo.outgoing(d.dst).empty());
}

TEST(Topology, BidirectionalAddsBothDirections) {
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::openflow_switch);
  const NodeId b = topo.add_node("b", NodeKind::openflow_switch);
  const auto [fwd, rev] = topo.add_bidirectional(a, b, LinkTechnology::fiber,
                                                 DataRate::mbps(10.0), Duration::millis(1.0));
  EXPECT_EQ(topo.find_link(fwd)->from, a);
  EXPECT_EQ(topo.find_link(rev)->from, b);
}

// --- CSPF ------------------------------------------------------------------

TEST(Cspf, PicksMinDelayPath) {
  Diamond d;
  const auto route = find_route(d.topo, d.src, d.dst, DataRate::mbps(10.0),
                                nominal_residual());
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links, (std::vector<LinkId>{d.fast_a, d.fast_b}));
  EXPECT_EQ(route->total_delay, Duration::millis(2.0));
  EXPECT_DOUBLE_EQ(route->bottleneck.as_mbps(), 100.0);
}

TEST(Cspf, AvoidsCapacityInfeasibleLinks) {
  Diamond d;
  // Demand above the fast path's 100 Mb/s forces the slow path.
  const auto route = find_route(d.topo, d.src, d.dst, DataRate::mbps(500.0),
                                nominal_residual());
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->links, (std::vector<LinkId>{d.slow_a, d.slow_b}));
}

TEST(Cspf, ReturnsNulloptWhenNothingFits) {
  Diamond d;
  EXPECT_FALSE(
      find_route(d.topo, d.src, d.dst, DataRate::mbps(5000.0), nominal_residual()).has_value());
}

TEST(Cspf, UnknownEndpointsRejected) {
  Diamond d;
  EXPECT_FALSE(find_route(d.topo, NodeId{999}, d.dst, DataRate::mbps(1.0),
                          nominal_residual()).has_value());
}

TEST(Cspf, SourceEqualsDestinationIsEmptyRoute) {
  Diamond d;
  const auto route =
      find_route(d.topo, d.src, d.src, DataRate::mbps(1.0), nominal_residual());
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->links.empty());
  EXPECT_EQ(route->total_delay, Duration::zero());
}

TEST(Cspf, MinHopsObjectiveDiffersFromMinDelay) {
  // src -> dst direct (high delay) vs 2-hop low delay.
  Topology topo;
  const NodeId s = topo.add_node("s", NodeKind::enb_gateway);
  const NodeId m = topo.add_node("m", NodeKind::openflow_switch);
  const NodeId t = topo.add_node("t", NodeKind::core_gateway);
  const LinkId direct = topo.add_link(s, t, LinkTechnology::fiber, DataRate::mbps(100.0),
                                      Duration::millis(10.0));
  const LinkId hop1 = topo.add_link(s, m, LinkTechnology::fiber, DataRate::mbps(100.0),
                                    Duration::millis(1.0));
  const LinkId hop2 = topo.add_link(m, t, LinkTechnology::fiber, DataRate::mbps(100.0),
                                    Duration::millis(1.0));

  const auto by_delay = find_route(topo, s, t, DataRate::mbps(1.0), nominal_residual(),
                                   PathObjective::min_delay);
  ASSERT_TRUE(by_delay.has_value());
  EXPECT_EQ(by_delay->links, (std::vector<LinkId>{hop1, hop2}));

  const auto by_hops = find_route(topo, s, t, DataRate::mbps(1.0), nominal_residual(),
                                  PathObjective::min_hops);
  ASSERT_TRUE(by_hops.has_value());
  EXPECT_EQ(by_hops->links, (std::vector<LinkId>{direct}));
}

// --- FlowTable -------------------------------------------------------------------

TEST(FlowTable, InstallLookupRemove) {
  FlowTable table;
  const Result<FlowRuleId> rule =
      table.install(NodeId{1}, SliceId{10}, LinkId{5});
  ASSERT_TRUE(rule.ok());
  ASSERT_NE(table.lookup(NodeId{1}, SliceId{10}), nullptr);
  EXPECT_EQ(table.lookup(NodeId{1}, SliceId{10})->out_link, (LinkId{5}));
  EXPECT_EQ(table.lookup(NodeId{2}, SliceId{10}), nullptr);
  EXPECT_TRUE(table.remove(rule.value()).ok());
  EXPECT_EQ(table.remove(rule.value()).error().code, Errc::not_found);
}

TEST(FlowTable, RejectsDuplicateNextHop) {
  FlowTable table;
  ASSERT_TRUE(table.install(NodeId{1}, SliceId{10}, LinkId{5}).ok());
  EXPECT_EQ(table.install(NodeId{1}, SliceId{10}, LinkId{6}).error().code, Errc::conflict);
  // Different slice on the same node is fine.
  EXPECT_TRUE(table.install(NodeId{1}, SliceId{11}, LinkId{6}).ok());
}

TEST(FlowTable, RemoveSliceClearsAllItsRules) {
  FlowTable table;
  ASSERT_TRUE(table.install(NodeId{1}, SliceId{10}, LinkId{1}).ok());
  ASSERT_TRUE(table.install(NodeId{2}, SliceId{10}, LinkId{2}).ok());
  ASSERT_TRUE(table.install(NodeId{1}, SliceId{11}, LinkId{3}).ok());
  EXPECT_EQ(table.remove_slice(SliceId{10}), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.lookup(NodeId{1}, SliceId{11}), nullptr);
}

// --- Fading ----------------------------------------------------------------------

TEST(Fading, FiberNeverMoves) {
  Diamond d;
  FadingField fading(d.topo, Rng(1));
  EXPECT_EQ(fading.tracked_links(), 0u);  // all fiber
  for (int i = 0; i < 100; ++i) fading.step();
  EXPECT_DOUBLE_EQ(fading.factor(d.fast_a), 1.0);
}

TEST(Fading, WirelessStaysWithinBounds) {
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::enb_gateway);
  const NodeId b = topo.add_node("b", NodeKind::openflow_switch);
  const LinkId mm = topo.add_link(a, b, LinkTechnology::mmwave, DataRate::mbps(1000.0),
                                  Duration::millis(1.0));
  const LinkId uw = topo.add_link(b, a, LinkTechnology::uwave, DataRate::mbps(400.0),
                                  Duration::millis(2.0));
  FadingField fading(topo, Rng(7));
  EXPECT_EQ(fading.tracked_links(), 2u);
  const FadingParams mm_params = default_fading(LinkTechnology::mmwave);
  const FadingParams uw_params = default_fading(LinkTechnology::uwave);
  for (int i = 0; i < 5000; ++i) {
    fading.step();
    EXPECT_GE(fading.factor(mm), mm_params.floor);
    EXPECT_LE(fading.factor(mm), 1.0);
    EXPECT_GE(fading.factor(uw), uw_params.floor);
    EXPECT_LE(fading.factor(uw), 1.0);
  }
}

TEST(Fading, MmwaveOutagesActuallyHappen) {
  Topology topo;
  const NodeId a = topo.add_node("a", NodeKind::enb_gateway);
  const NodeId b = topo.add_node("b", NodeKind::openflow_switch);
  const LinkId mm = topo.add_link(a, b, LinkTechnology::mmwave, DataRate::mbps(1000.0),
                                  Duration::millis(1.0));
  FadingField fading(topo, Rng(11));
  int deep_fades = 0;
  for (int i = 0; i < 5000; ++i) {
    fading.step();
    if (fading.factor(mm) <= default_fading(LinkTechnology::mmwave).floor + 1e-9) ++deep_fades;
  }
  EXPECT_GT(deep_fades, 5);  // ~1%/epoch outage probability
}

// --- TransportController ------------------------------------------------------------

TEST(TransportController, AllocateInstallsRulesAndReserves) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> path = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                               DataRate::mbps(40.0), Duration::millis(5.0));
  ASSERT_TRUE(path.ok()) << path.error().message;
  const PathReservation* reservation = tc.find_path(path.value());
  ASSERT_NE(reservation, nullptr);
  EXPECT_EQ(reservation->route.hops(), 2u);
  // One flow rule per traversed node.
  EXPECT_EQ(tc.flow_table().size(), 2u);
  // Residual dropped on the chosen links.
  EXPECT_DOUBLE_EQ(tc.reserved_on(reservation->route.links[0]).as_mbps(), 40.0);
}

TEST(TransportController, DelayBoundRejectsWithSlaError) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  // Fast path has 2 ms, slow 10 ms. Demand forces the slow path but the
  // bound only allows the fast one.
  const Result<PathId> path = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                               DataRate::mbps(500.0), Duration::millis(5.0));
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.error().code, Errc::sla_unsatisfiable);
}

TEST(TransportController, CapacityExhaustionRejects) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  ASSERT_TRUE(tc.allocate_path(SliceId{1}, d.src, d.dst, DataRate::mbps(900.0),
                               Duration::millis(20.0)).ok());
  ASSERT_TRUE(tc.allocate_path(SliceId{2}, d.src, d.dst, DataRate::mbps(90.0),
                               Duration::millis(20.0)).ok());
  const Result<PathId> third = tc.allocate_path(SliceId{3}, d.src, d.dst,
                                                DataRate::mbps(200.0), Duration::millis(20.0));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code, Errc::insufficient_capacity);
}

TEST(TransportController, SecondSliceTakesAlternatePath) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> first = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                                DataRate::mbps(80.0), Duration::millis(20.0));
  ASSERT_TRUE(first.ok());
  // Fast path has only 20 Mb/s residual left; 50 Mb/s must go bottom.
  const Result<PathId> second = tc.allocate_path(SliceId{2}, d.src, d.dst,
                                                 DataRate::mbps(50.0), Duration::millis(20.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(tc.find_path(second.value())->route.total_delay, Duration::millis(10.0));
}

TEST(TransportController, ResizeGrowAndShrink) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> path = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                               DataRate::mbps(40.0), Duration::millis(5.0));
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(tc.resize_path(path.value(), DataRate::mbps(90.0)).ok());
  EXPECT_DOUBLE_EQ(tc.find_path(path.value())->reserved.as_mbps(), 90.0);
  // Growing past the 100 Mb/s links fails and leaves state unchanged.
  EXPECT_EQ(tc.resize_path(path.value(), DataRate::mbps(150.0)).error().code,
            Errc::insufficient_capacity);
  EXPECT_DOUBLE_EQ(tc.find_path(path.value())->reserved.as_mbps(), 90.0);
  EXPECT_TRUE(tc.resize_path(path.value(), DataRate::mbps(10.0)).ok());
  const LinkId first_link = tc.find_path(path.value())->route.links[0];
  EXPECT_DOUBLE_EQ(tc.reserved_on(first_link).as_mbps(), 10.0);
}

TEST(TransportController, ReleaseFreesEverything) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> path = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                               DataRate::mbps(40.0), Duration::millis(5.0));
  ASSERT_TRUE(path.ok());
  const LinkId used = tc.find_path(path.value())->route.links[0];
  ASSERT_TRUE(tc.release_path(path.value()).ok());
  EXPECT_EQ(tc.find_path(path.value()), nullptr);
  EXPECT_DOUBLE_EQ(tc.reserved_on(used).as_mbps(), 0.0);
  EXPECT_EQ(tc.flow_table().size(), 0u);
  EXPECT_EQ(tc.release_path(path.value()).error().code, Errc::not_found);
}

TEST(TransportController, ServeEpochCapsAtReservation) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> path = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                               DataRate::mbps(40.0), Duration::millis(5.0));
  ASSERT_TRUE(path.ok());
  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(60.0)}};
  std::vector<PathServeReport> reports;
  tc.serve_epoch(demands, SimTime::from_seconds(1.0), reports);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_LE(reports[0].served.as_mbps(), 40.0 + 1e-9);
  EXPECT_GT(reports[0].experienced_delay, Duration::zero());
}

TEST(TransportController, FadingDegradationTriggersReroute) {
  // mmWave primary + fiber alternate: after enough epochs a deep fade
  // must have pushed at least one reroute onto the fiber path.
  Topology topo;
  const NodeId s = topo.add_node("s", NodeKind::enb_gateway);
  const NodeId t = topo.add_node("t", NodeKind::core_gateway);
  topo.add_link(s, t, LinkTechnology::mmwave, DataRate::mbps(1000.0), Duration::millis(1.0));
  topo.add_link(s, t, LinkTechnology::fiber, DataRate::mbps(1000.0), Duration::millis(3.0));
  TransportController tc(std::move(topo), Rng(23));

  const Result<PathId> path = tc.allocate_path(SliceId{1}, s, t, DataRate::mbps(500.0),
                                               Duration::millis(10.0));
  ASSERT_TRUE(path.ok());
  const std::vector<std::pair<PathId, DataRate>> demands = {
      {path.value(), DataRate::mbps(450.0)}};
  std::vector<PathServeReport> reports;
  for (int i = 0; i < 2000 && tc.reroutes() == 0; ++i) {
    tc.serve_epoch(demands, SimTime::from_seconds(i), reports);
  }
  EXPECT_GT(tc.reroutes(), 0u);
}

// Randomized differential test: the SoA columns (reserved-per-link-slot,
// route CSR) must agree with a naive std::map bookkeeping model across an
// arbitrary interleaving of allocate / resize / release / serve. Fiber-only
// substrate so routes never move underneath the model.
TEST(TransportController, SoaStateMatchesMapModelUnderRandomOps) {
  Topology topo;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(topo.add_node("n" + std::to_string(i),
                                  i == 0 ? NodeKind::enb_gateway
                                         : (i == 5 ? NodeKind::core_gateway
                                                   : NodeKind::openflow_switch)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 5; ++i) {
    links.push_back(topo.add_link(nodes[i], nodes[i + 1], LinkTechnology::fiber,
                                  DataRate::mbps(500.0), Duration::millis(1.0)));
    links.push_back(topo.add_link(nodes[i + 1], nodes[i], LinkTechnology::fiber,
                                  DataRate::mbps(500.0), Duration::millis(1.0)));
  }
  TransportController tc(std::move(topo), Rng(41));

  struct ModelPath {
    double rate;
    std::vector<LinkId> route;
  };
  std::map<LinkId, double> model_reserved;
  std::map<PathId, ModelPath> model_paths;
  std::vector<PathId> live;

  Rng rng(4242);
  const auto pick_index = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  for (int op = 0; op < 600; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {  // allocate
      const NodeId src = nodes[pick_index(nodes.size())];
      const NodeId dst = nodes[pick_index(nodes.size())];
      const double rate = static_cast<double>(rng.uniform_int(1, 40));
      const Result<PathId> path =
          tc.allocate_path(SliceId{static_cast<std::uint64_t>(1 + op % 7)}, src, dst,
                           DataRate::mbps(rate), Duration::millis(50.0));
      if (path.ok()) {
        const PathReservation* stored = tc.find_path(path.value());
        ASSERT_NE(stored, nullptr);
        for (const LinkId link : stored->route.links) model_reserved[link] += rate;
        model_paths[path.value()] = ModelPath{rate, stored->route.links};
        live.push_back(path.value());
      }
    } else if (roll < 6) {  // resize
      const PathId path = live[pick_index(live.size())];
      const double new_rate = static_cast<double>(rng.uniform_int(1, 60));
      if (tc.resize_path(path, DataRate::mbps(new_rate)).ok()) {
        ModelPath& mp = model_paths.at(path);
        for (const LinkId link : mp.route) model_reserved[link] += new_rate - mp.rate;
        mp.rate = new_rate;
      }
    } else if (roll < 8) {  // release
      const std::size_t pick = pick_index(live.size());
      const PathId path = live[pick];
      ASSERT_TRUE(tc.release_path(path).ok());
      const ModelPath& mp = model_paths.at(path);
      for (const LinkId link : mp.route) model_reserved[link] -= mp.rate;
      model_paths.erase(path);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {  // serve: exercises the CSR read path over the current state
      std::vector<std::pair<PathId, DataRate>> demands;
      for (const PathId path : live)
        demands.emplace_back(path, DataRate::mbps(model_paths.at(path).rate * 0.5));
      std::vector<PathServeReport> reports;
      tc.serve_epoch(demands, SimTime::from_seconds(op), reports);
      ASSERT_EQ(reports.size(), demands.size());
      for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].path, demands[i].first);
        // Fiber never fades, so every path serves its full (capped) demand.
        EXPECT_NEAR(reports[i].served.as_mbps(), demands[i].second.as_mbps(), 1e-9);
        EXPECT_FALSE(reports[i].degraded);
      }
    }

    // Full-state diff every few ops (cheap: 10 links).
    if (op % 20 == 19) {
      for (const LinkId link : links) {
        const double want = model_reserved.count(link) != 0 ? model_reserved.at(link) : 0.0;
        EXPECT_NEAR(tc.reserved_on(link).as_mbps(), want, 1e-9)
            << "link " << link.value() << " after op " << op;
      }
      for (const auto& [path, mp] : model_paths) {
        const PathReservation* stored = tc.find_path(path);
        ASSERT_NE(stored, nullptr);
        EXPECT_NEAR(stored->reserved.as_mbps(), mp.rate, 1e-9);
        EXPECT_EQ(stored->route.links, mp.route);
      }
    }
  }
  EXPECT_FALSE(model_paths.empty());  // the walk actually built state
}

TEST(TransportController, FailedAllocationDrawsNoPathId) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  const Result<PathId> first = tc.allocate_path(SliceId{1}, d.src, d.dst,
                                                DataRate::mbps(10.0), Duration::millis(20.0));
  ASSERT_TRUE(first.ok());
  // Each check rejects before an id is drawn: rate, capacity, delay.
  EXPECT_EQ(tc.allocate_path(SliceId{2}, d.src, d.dst, DataRate::mbps(0.0),
                             Duration::millis(20.0)).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(tc.allocate_path(SliceId{2}, d.src, d.dst, DataRate::mbps(5000.0),
                             Duration::millis(20.0)).error().code,
            Errc::insufficient_capacity);
  EXPECT_EQ(tc.allocate_path(SliceId{2}, d.src, d.dst, DataRate::mbps(10.0),
                             Duration::millis(0.5)).error().code,
            Errc::sla_unsatisfiable);
  const Result<PathId> second = tc.allocate_path(SliceId{2}, d.src, d.dst,
                                                 DataRate::mbps(10.0), Duration::millis(20.0));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().value(), first.value().value() + 1);
}

TEST(TransportController, RestorePathKeepsIdAndRejectsConflictAndBadArgs) {
  Diamond d;
  TransportController tc(std::move(d.topo), Rng(3));
  ASSERT_TRUE(tc.restore_path(PathId{9}, SliceId{1}, d.src, d.dst, DataRate::mbps(5.0),
                              Duration::millis(50.0)).ok());
  const PathReservation* restored = tc.find_path(PathId{9});
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->slice, SliceId{1});
  EXPECT_DOUBLE_EQ(tc.reserved_on(restored->route.links[0]).as_mbps(), 5.0);
  EXPECT_EQ(tc.restore_path(PathId{9}, SliceId{1}, d.src, d.dst, DataRate::mbps(5.0),
                            Duration::millis(50.0)).error().code,
            Errc::conflict);
  EXPECT_EQ(tc.restore_path(PathId::invalid(), SliceId{1}, d.src, d.dst, DataRate::mbps(5.0),
                            Duration::millis(50.0)).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(tc.restore_path(PathId{10}, SliceId{1}, d.src, d.dst, DataRate::mbps(0.0),
                            Duration::millis(50.0)).error().code,
            Errc::invalid_argument);
  EXPECT_EQ(tc.find_path(PathId{10}), nullptr);
  // The id allocator skipped past the restored id.
  const Result<PathId> fresh = tc.allocate_path(SliceId{2}, d.src, d.dst,
                                                DataRate::mbps(1.0), Duration::millis(50.0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value().value(), 9u);
}

TEST(TransportController, RestApiTopologyAndPaths) {
  Diamond d;
  const NodeId src = d.src;
  const NodeId dst = d.dst;
  TransportController tc(std::move(d.topo), Rng(3));
  net::RestBus bus;
  bus.register_service("transport", tc.make_router());

  const Result<json::Value> topo_doc = bus.get_json("transport", "/topology");
  ASSERT_TRUE(topo_doc.ok());
  EXPECT_EQ(topo_doc.value().find("nodes")->as_array().size(), 4u);
  EXPECT_EQ(topo_doc.value().find("links")->as_array().size(), 4u);

  json::Value req;
  req["slice"] = 9;
  req["src"] = static_cast<double>(src.value());
  req["dst"] = static_cast<double>(dst.value());
  req["rate_mbps"] = 30.0;
  req["max_delay_ms"] = 5.0;
  const Result<json::Value> created = bus.call_json("transport", net::Method::post, "/paths", req);
  ASSERT_TRUE(created.ok()) << created.error().message;
  const auto path_id = static_cast<std::uint64_t>(created.value().find("path")->as_number());
  EXPECT_EQ(created.value().find("hops")->as_int(), 2);

  json::Value resize;
  resize["rate_mbps"] = 50.0;
  ASSERT_TRUE(bus.call_json("transport", net::Method::put,
                            "/paths/" + std::to_string(path_id), resize).ok());
  ASSERT_TRUE(bus.call_json("transport", net::Method::del,
                            "/paths/" + std::to_string(path_id), json::Value(nullptr)).ok());
  EXPECT_FALSE(bus.call_json("transport", net::Method::del,
                             "/paths/" + std::to_string(path_id), json::Value(nullptr)).ok());
}

}  // namespace
}  // namespace slices::transport
