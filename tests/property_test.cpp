// Property-based tests on randomized instances: CSPF correctness over
// random graphs, MOCN scheduler conservation laws, and RAN-controller
// allocation invariants under random churn.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "ran/controller.hpp"
#include "ran/scheduler.hpp"
#include "transport/cspf.hpp"
#include "transport/topology.hpp"

namespace slices {
namespace {

// --- CSPF over random graphs ----------------------------------------------

struct RandomGraph {
  transport::Topology topo;
  std::vector<NodeId> nodes;
};

RandomGraph random_graph(Rng& rng, std::size_t node_count, double edge_probability) {
  RandomGraph g;
  for (std::size_t i = 0; i < node_count; ++i) {
    g.nodes.push_back(
        g.topo.add_node("n" + std::to_string(i), transport::NodeKind::openflow_switch));
  }
  for (std::size_t i = 0; i < node_count; ++i) {
    for (std::size_t j = 0; j < node_count; ++j) {
      if (i == j || !rng.bernoulli(edge_probability)) continue;
      g.topo.add_link(g.nodes[i], g.nodes[j], transport::LinkTechnology::fiber,
                      DataRate::mbps(rng.uniform(10.0, 200.0)),
                      Duration::millis(rng.uniform(0.5, 10.0)));
    }
  }
  return g;
}

class CspfRandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CspfRandomGraphs, RoutesAreConnectedFeasibleAndDelayCorrect) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    RandomGraph g = random_graph(rng, 8, 0.3);
    const DataRate demand = DataRate::mbps(rng.uniform(5.0, 100.0));
    const transport::ResidualFn residual = [](const transport::Link& link) {
      return link.nominal_capacity;
    };
    const NodeId src = g.nodes[static_cast<std::size_t>(rng.uniform_int(0, 7))];
    const NodeId dst = g.nodes[static_cast<std::size_t>(rng.uniform_int(0, 7))];
    const auto route = transport::find_route(g.topo, src, dst, demand, residual);
    if (!route) continue;  // disconnection is legitimate

    // The route must be a connected src->dst chain.
    NodeId cursor = src;
    Duration delay_sum = Duration::zero();
    DataRate bottleneck = DataRate::gbps(1e9);
    for (const LinkId link_id : route->links) {
      const transport::Link* link = g.topo.find_link(link_id);
      ASSERT_NE(link, nullptr);
      EXPECT_EQ(link->from, cursor);
      EXPECT_GE(link->nominal_capacity, demand);  // capacity-feasible
      delay_sum += link->delay;
      bottleneck = min(bottleneck, link->nominal_capacity);
      cursor = link->to;
    }
    EXPECT_EQ(cursor, dst);
    EXPECT_EQ(delay_sum, route->total_delay);
    if (!route->links.empty()) {
      EXPECT_EQ(bottleneck, route->bottleneck);
    }
  }
}

TEST_P(CspfRandomGraphs, MinDelayIsActuallyMinimal) {
  // Exhaustive check on small graphs: no simple path can beat CSPF's
  // delay among capacity-feasible paths.
  Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    RandomGraph g = random_graph(rng, 6, 0.4);
    const DataRate demand = DataRate::mbps(20.0);
    const transport::ResidualFn residual = [](const transport::Link& link) {
      return link.nominal_capacity;
    };
    const NodeId src = g.nodes[0];
    const NodeId dst = g.nodes[5];
    const auto route = transport::find_route(g.topo, src, dst, demand, residual);

    // DFS over all simple paths.
    std::optional<Duration> best;
    std::vector<NodeId> visited{src};
    std::function<void(NodeId, Duration)> dfs = [&](NodeId at, Duration delay) {
      if (at == dst) {
        if (!best || delay < *best) best = delay;
        return;
      }
      for (const LinkId link_id : g.topo.outgoing(at)) {
        const transport::Link* link = g.topo.find_link(link_id);
        if (link->nominal_capacity < demand) continue;
        bool seen = false;
        for (const NodeId v : visited) {
          if (v == link->to) seen = true;
        }
        if (seen) continue;
        visited.push_back(link->to);
        dfs(link->to, delay + link->delay);
        visited.pop_back();
      }
    };
    dfs(src, Duration::zero());

    ASSERT_EQ(route.has_value(), best.has_value());
    if (route) {
      EXPECT_EQ(route->total_delay, *best);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CspfRandomGraphs, ::testing::Values(1, 2, 3, 4, 5));

// --- MOCN scheduler conservation laws ----------------------------------------

class SchedulerRandomLoads : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerRandomLoads, ConservationAndIsolationHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const int total = static_cast<int>(rng.uniform_int(10, 100));
    const std::size_t plmn_count = static_cast<std::size_t>(rng.uniform_int(1, 6));

    // Random reservations that never exceed the cell.
    std::vector<ran::PlmnLoad> loads;
    int reserved_budget = total;
    for (std::size_t i = 0; i < plmn_count; ++i) {
      const int reserved = static_cast<int>(rng.uniform_int(0, reserved_budget / 2));
      reserved_budget -= reserved;
      loads.push_back(ran::PlmnLoad{
          PlmnId{i + 1}, PrbCount{reserved},
          DataRate::mbps(rng.uniform(0.0, 60.0)),
          ran::Cqi{static_cast<int>(rng.uniform_int(1, 15))}});
    }

    std::vector<ran::PlmnGrant> grants(loads.size());
    std::vector<int> want(loads.size());
    for (const ran::SharingPolicy policy :
         {ran::SharingPolicy::strict, ran::SharingPolicy::pooled}) {
      ran::schedule_epoch(PrbCount{total}, loads, policy, grants, want);

      int granted_total = 0;
      for (std::size_t i = 0; i < grants.size(); ++i) {
        granted_total += grants[i].granted.value;
        // Served never exceeds demand, and served+unserved == demand.
        EXPECT_LE(grants[i].served.as_mbps(), loads[i].demand.as_mbps() + 1e-9);
        EXPECT_NEAR(grants[i].served.as_mbps() + grants[i].unserved.as_mbps(),
                    loads[i].demand.as_mbps(), 1e-9);
        // Served never exceeds what the granted PRBs can carry.
        EXPECT_LE(grants[i].served.as_mbps(),
                  ran::throughput_of(grants[i].granted, loads[i].cqi).as_mbps() + 1e-9);
        // A PLMN with demand covered by its own reservation is isolated
        // from others: it must be fully served.
        const PrbCount needed = ran::prbs_needed(loads[i].demand, loads[i].cqi);
        if (needed.value <= loads[i].reserved.value) {
          EXPECT_NEAR(grants[i].served.as_mbps(), loads[i].demand.as_mbps(), 1e-9)
              << "reserved demand must always be served";
        }
      }
      EXPECT_LE(granted_total, total);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerRandomLoads, ::testing::Values(11, 22, 33));

// --- RAN controller churn ------------------------------------------------------

TEST(RanControllerChurn, RandomAllocateResizeReleaseNeverCorruptsState) {
  Rng rng(97);
  ran::RanController controller;
  controller.add_cell(
      ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  controller.add_cell(
      ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz10, ran::SharingPolicy::pooled));

  std::map<std::uint64_t, bool> installed;  // plmn value -> has allocation
  for (int step = 0; step < 2000; ++step) {
    const PlmnId plmn{static_cast<std::uint64_t>(rng.uniform_int(1, 8))};
    switch (rng.uniform_int(0, 3)) {
      case 0:
        if (controller.install_plmn(plmn).ok()) installed.emplace(plmn.value(), false);
        break;
      case 1: {
        const Result<ran::RanAllocation> r =
            controller.set_allocation(plmn, DataRate::mbps(rng.uniform(0.0, 50.0)));
        if (r.ok()) installed[plmn.value()] = true;
        break;
      }
      case 2:
        controller.release_allocation(plmn);
        if (installed.contains(plmn.value())) installed[plmn.value()] = false;
        break;
      case 3:
        if (controller.remove_plmn(plmn).ok()) installed.erase(plmn.value());
        break;
    }

    // Invariants after every step.
    int reserved = 0;
    for (const CellId cell_id : {CellId{1}, CellId{2}}) {
      const ran::Cell* cell = controller.find_cell(cell_id);
      EXPECT_GE(cell->unreserved_prbs().value, 0);
      EXPECT_LE(cell->reserved_prbs().value, cell->total_prbs().value);
      reserved += cell->reserved_prbs().value;
    }
    // Every remaining reservation belongs to an installed PLMN with a
    // live allocation.
    if (reserved > 0) {
      bool any_allocated = false;
      for (const auto& [plmn_value, has_alloc] : installed) {
        if (has_alloc) any_allocated = true;
      }
      EXPECT_TRUE(any_allocated);
    }
  }
}

}  // namespace
}  // namespace slices
