// Federation subsystem tests: fabric generation invariants, the metro
// scenario grammar, the remote RestBus backend, and the determinism
// bar — byte-identical federated scorecards across thread counts and
// across transports — plus broker failover semantics (re-placement
// away from a failed region, deferred admission during a restart).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "federation/broker.hpp"
#include "federation/edge.hpp"
#include "federation/fabric.hpp"
#include "federation/runner.hpp"
#include "json/value.hpp"
#include "net/http_server.hpp"
#include "net/rest_bus.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/trace.hpp"
#include "traffic/verticals.hpp"

namespace slices {
namespace {

using federation::FederatedRunner;
using federation::FederatedRunOptions;
using federation::FederatedScorecard;
using federation::make_metro_fabric;
using federation::MetroFabric;

// ---------------------------------------------------------------- fabric

TEST(MetroFabric, GeneratesRegionsPricesAndBackbone) {
  scenario::FederationSpec spec;
  spec.regions = 4;
  spec.cells_per_region = 8;
  spec.backbone = "ring";
  const Result<MetroFabric> fabric = make_metro_fabric(spec, 42);
  ASSERT_TRUE(fabric.ok());

  ASSERT_EQ(fabric.value().regions.size(), 4u);
  ASSERT_EQ(fabric.value().border_nodes.size(), 4u);
  EXPECT_EQ(fabric.value().total_cells(), 32u);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 4; ++i) {
    const federation::RegionPlan& plan = fabric.value().regions[i];
    EXPECT_EQ(plan.name, "r" + std::to_string(i));
    EXPECT_EQ(plan.index, i);
    EXPECT_GE(plan.price_factor, 0.85);
    EXPECT_LE(plan.price_factor, 1.15);
    seeds.insert(plan.seed);
  }
  EXPECT_EQ(seeds.size(), 4u) << "regions must draw distinct RNG streams";
  // A 4-region ring: 4 legs, each a bidirectional pair.
  EXPECT_EQ(fabric.value().backbone.links().size(), 8u);
}

TEST(MetroFabric, MeshAndDegenerateRingShapes) {
  scenario::FederationSpec spec;
  spec.regions = 4;
  spec.backbone = "mesh";
  const Result<MetroFabric> mesh = make_metro_fabric(spec, 1);
  ASSERT_TRUE(mesh.ok());
  EXPECT_EQ(mesh.value().backbone.links().size(), 12u);  // C(4,2) pairs

  spec.regions = 2;
  spec.backbone = "ring";
  const Result<MetroFabric> pair = make_metro_fabric(spec, 1);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair.value().backbone.links().size(), 2u) << "2-ring is one bidirectional pair";

  spec.regions = 1;
  const Result<MetroFabric> single = make_metro_fabric(spec, 1);
  ASSERT_TRUE(single.ok());
  EXPECT_TRUE(single.value().backbone.links().empty());
}

TEST(MetroFabric, DeterministicInSeed) {
  scenario::FederationSpec spec;
  const Result<MetroFabric> a = make_metro_fabric(spec, 7);
  const Result<MetroFabric> b = make_metro_fabric(spec, 7);
  const Result<MetroFabric> c = make_metro_fabric(spec, 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  for (std::size_t i = 0; i < spec.regions; ++i) {
    EXPECT_EQ(a.value().regions[i].price_factor, b.value().regions[i].price_factor);
    EXPECT_EQ(a.value().regions[i].seed, b.value().regions[i].seed);
    EXPECT_NE(a.value().regions[i].seed, c.value().regions[i].seed);
  }
}

// ----------------------------------------------------------- metro DSL

constexpr const char* kMetroDoc = R"({
  "name": "metro_mini",
  "seed": 5,
  "duration_hours": 6,
  "topology": "metro",
  "federation": {"regions": 2, "cells_per_region": 4, "hosts_per_dc": 1},
  "orchestrator": {"monitoring_period_minutes": 5},
  "workload": {"arrivals_per_hour": 3, "min_duration_hours": 1, "max_duration_hours": 3},
  "events": [
    {"kind": "cell_down", "at_hours": 1, "region": "r0", "cell": "c2", "duration_hours": 1},
    {"kind": "controller_restart", "at_hours": 2, "region": "r1", "duration_minutes": 10}
  ]
})";

TEST(MetroScenarioDsl, ParsesRegionScopedEvents) {
  const Result<scenario::Scenario> parsed = scenario::parse_scenario(kMetroDoc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const scenario::Scenario& s = parsed.value();
  EXPECT_EQ(s.topology, "metro");
  EXPECT_EQ(s.federation.regions, 2u);
  EXPECT_EQ(s.federation.cells_per_region, 4u);
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].region, "r0");
  EXPECT_EQ(s.events[0].target, "c2");
  EXPECT_EQ(s.events[1].region, "r1");
}

TEST(MetroScenarioDsl, RoundTripsThroughCanonicalJson) {
  const Result<scenario::Scenario> parsed = scenario::parse_scenario(kMetroDoc);
  ASSERT_TRUE(parsed.ok());
  const std::string canonical = scenario::serialize_scenario(parsed.value());
  const Result<scenario::Scenario> reparsed = scenario::parse_scenario(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  EXPECT_EQ(scenario::serialize_scenario(reparsed.value()), canonical);
  EXPECT_NE(canonical.find("\"federation\""), std::string::npos);
}

TEST(MetroScenarioDsl, RejectsBadMetroDocuments) {
  const auto rejects = [](const std::string& doc, const std::string& needle) {
    const Result<scenario::Scenario> parsed = scenario::parse_scenario(doc);
    ASSERT_FALSE(parsed.ok()) << "should reject: " << doc;
    EXPECT_NE(parsed.error().message.find(needle), std::string::npos)
        << parsed.error().message;
  };
  // Events must name a region.
  rejects(R"({"name":"x","topology":"metro","workload":{"arrivals_per_hour":1,
    "min_duration_hours":1,"max_duration_hours":2},
    "events":[{"kind":"cell_down","at_hours":1,"cell":"c0"}]})",
          "region");
  // link faults are a fig2 concept.
  rejects(R"({"name":"x","topology":"metro","workload":{"arrivals_per_hour":1,
    "min_duration_hours":1,"max_duration_hours":2},
    "events":[{"kind":"link_down","at_hours":1,"region":"r0","link":"mmwave"}]})",
          "not supported on the metro topology");
  // Region must exist in the federation.
  rejects(R"({"name":"x","topology":"metro","federation":{"regions":2},
    "workload":{"arrivals_per_hour":1,"min_duration_hours":1,"max_duration_hours":2},
    "events":[{"kind":"cell_down","at_hours":1,"region":"r7","cell":"c0"}]})",
          "r7");
  // "federation" is metro-only.
  rejects(R"({"name":"x","topology":"fig2","federation":{"regions":2},
    "workload":{"arrivals_per_hour":1,"min_duration_hours":1,"max_duration_hours":2}})",
          "federation");
}

TEST(MetroScenarioDsl, Fig2DocumentsKeepTheirByteLayout) {
  // A fig2 scenario must serialize without any federation/region keys,
  // so pre-federation golden files stay byte-identical.
  scenario::Scenario s;
  s.name = "plain";
  s.workload.arrivals_per_hour = 1.0;
  s.workload.min_duration = Duration::hours(1.0);
  s.workload.max_duration = Duration::hours(2.0);
  scenario::ScenarioEvent event;
  event.kind = scenario::EventKind::cell_down;
  event.at = Duration::hours(1.0);
  event.target = "a";
  s.events.push_back(event);
  const std::string serialized = scenario::serialize_scenario(s);
  EXPECT_EQ(serialized.find("federation"), std::string::npos);
  EXPECT_EQ(serialized.find("region"), std::string::npos);
}

TEST(MetroScenarioDsl, Fig2RunnerRefusesMetroScenarios) {
  Result<scenario::Scenario> parsed = scenario::parse_scenario(kMetroDoc);
  ASSERT_TRUE(parsed.ok());
  scenario::ScenarioRunner runner(std::move(parsed.value()));
  const auto card = runner.run();
  ASSERT_FALSE(card.ok());
  EXPECT_NE(card.error().message.find("FederatedRunner"), std::string::npos);
}

// ----------------------------------------------------------- remote bus

TEST(RestBusRemote, RoutesCallsOverALoopbackSocket) {
  auto router = std::make_shared<net::Router>();
  router->add(net::Method::get, "/ping", [](const net::RouteContext&) {
    return net::Response::json(net::Status::ok, R"({"pong":true})");
  });
  Result<std::unique_ptr<net::HttpServer>> server = net::HttpServer::bind(router);
  ASSERT_TRUE(server.ok());
  std::thread serving([&server] { server.value()->run(); });

  net::RestBus bus;
  bus.register_remote("echo", server.value()->port());
  EXPECT_TRUE(bus.has_service("echo"));

  const Result<json::Value> doc = bus.get_json("echo", "/ping");
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  EXPECT_TRUE(doc.value().find("pong")->as_bool());

  const auto stats = bus.stats();
  EXPECT_EQ(stats.at("echo").responses_ok, 1u);
  EXPECT_GT(stats.at("echo").bytes_rx, 0u);

  bus.unregister_service("echo");
  EXPECT_FALSE(bus.has_service("echo"));

  server.value()->stop();
  serving.join();
}

// -------------------------------------------------------- determinism

scenario::Scenario metro_scenario() {
  const Result<scenario::Scenario> parsed = scenario::parse_scenario(kMetroDoc);
  EXPECT_TRUE(parsed.ok());
  return parsed.value();
}

std::string run_federated(FederatedRunOptions options) {
  FederatedRunner runner(metro_scenario(), options);
  const Result<FederatedScorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return card.ok() ? card.value().serialize() : std::string();
}

TEST(FederationDeterminism, ThreadCountDoesNotChangeTheScorecard) {
  FederatedRunOptions one;
  one.epoch_threads = 1;
  FederatedRunOptions four;
  four.epoch_threads = 4;
  EXPECT_EQ(run_federated(one), run_federated(four));
}

TEST(FederationDeterminism, SocketTransportMatchesInProcessDispatch) {
  FederatedRunOptions inproc;
  FederatedRunOptions socket;
  socket.socket_transport = true;
  EXPECT_EQ(run_federated(inproc), run_federated(socket));
}

TEST(FederationDeterminism, BusCountersMatchAcrossTransports) {
  // The broker's bus accounts the same requests and wire bytes whether
  // the edges are routers or kept-alive loopback servers.
  const auto bus_stats = [](bool socket) {
    FederatedRunOptions options;
    options.socket_transport = socket;
    FederatedRunner runner(metro_scenario(), options);
    EXPECT_TRUE(runner.run().ok());
    return runner.bus().stats();
  };
  const std::map<std::string, net::BusStats> inproc = bus_stats(false);
  const std::map<std::string, net::BusStats> socket = bus_stats(true);
  ASSERT_EQ(inproc.size(), socket.size());
  for (const auto& [service, stats] : inproc) {
    ASSERT_TRUE(socket.contains(service)) << service;
    const net::BusStats& other = socket.at(service);
    EXPECT_GT(stats.requests, 0u) << service;
    EXPECT_EQ(stats.requests, other.requests) << service;
    EXPECT_EQ(stats.responses_ok, other.responses_ok) << service;
    EXPECT_EQ(stats.responses_error, other.responses_error) << service;
    EXPECT_EQ(stats.bytes_tx, other.bytes_tx) << service;
    EXPECT_EQ(stats.bytes_rx, other.bytes_rx) << service;
  }
}

TEST(FederationDeterminism, RepeatedRunIsBitStable) {
  EXPECT_EQ(run_federated({}), run_federated({}));
}

// ------------------------------------------------------------ failover

TEST(BrokerFailover, RegionOutageRePlacesIntoSurvivingRegions) {
  scenario::Scenario s = metro_scenario();
  // Kill both of r0's datacenters for the whole back half of the run:
  // every later arrival must land in r1.
  s.events.clear();
  scenario::ScenarioEvent down;
  down.kind = scenario::EventKind::dc_down;
  down.at = Duration::hours(3.0);
  down.region = "r0";
  down.target = "core";
  s.events.push_back(down);
  down.target = "edge0";
  s.events.push_back(down);

  FederatedRunner runner(std::move(s), {});
  const Result<FederatedScorecard> card = runner.run();
  ASSERT_TRUE(card.ok()) << card.error().message;

  const json::Value placements = runner.broker()->placements_json();
  const std::int64_t outage_us = Duration::hours(3.0).as_micros();
  bool placed_after_outage = false;
  for (const json::Value& p : placements.find("placements")->as_array()) {
    const std::string outcome = p.find("outcome")->as_string();
    if (outcome != "local" && outcome != "remote") continue;
    if (static_cast<std::int64_t>(p.find("t_us")->as_number()) < outage_us) continue;
    placed_after_outage = true;
    EXPECT_EQ(p.find("placed")->as_string(), "r1")
        << "placement into a region with no datacenters";
  }
  EXPECT_TRUE(placed_after_outage) << "outage window saw no placements at all";
}

TEST(BrokerFailover, RestartingLoneRegionDefersAdmissionUntilResume) {
  // One region, so a controller restart leaves the broker no candidate:
  // requests queue in the deferred lane and land when the edge resumes.
  const Result<scenario::Scenario> parsed = scenario::parse_scenario(R"({
    "name": "defer",
    "seed": 9,
    "duration_hours": 4,
    "topology": "metro",
    "federation": {"regions": 1, "cells_per_region": 4, "hosts_per_dc": 1},
    "orchestrator": {"monitoring_period_minutes": 5},
    "workload": {"arrivals_per_hour": 0, "min_duration_hours": 1, "max_duration_hours": 2},
    "events": [
      {"kind": "controller_restart", "at_hours": 1, "region": "r0", "duration_minutes": 12}
    ],
    "requests": [
      {"at_hours": 1.05, "vertical": "automotive", "duration_hours": 1, "region": "r0"}
    ]
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;

  FederatedRunner runner(parsed.value(), {});
  const Result<FederatedScorecard> card = runner.run();
  ASSERT_TRUE(card.ok()) << card.error().message;

  EXPECT_GE(card.value().deferred_total, 1u) << "request during restart must defer";
  EXPECT_EQ(card.value().deferred_unplaced, 0u) << "deferred request never landed";
  EXPECT_EQ(card.value().admitted, 1u);
  EXPECT_EQ(card.value().placed_local, 1u);
}

// ------------------------------------------------------------- protocol

/// One region's EdgeNode served over a loopback socket behind a proxy
/// router that counts every call by route before dispatching it to the
/// node's own router, and logs the ticks and mutating calls it served.
class CountedEdge {
 public:
  /// A tick (with the node's next pending event once it was served) or
  /// a mutating call, at the broker time the request carried.
  struct Served {
    bool tick = false;
    std::int64_t t_us = 0;
    std::optional<SimTime> next_event;  ///< ticks only
  };

  CountedEdge(const federation::RegionPlan& plan, const scenario::Scenario& scenario)
      : node_(plan, scenario, 1), inner_(node_.make_router()) {
    auto proxy = std::make_shared<net::Router>();
    for (const auto& [method, path] : kRoutes) {
      std::atomic<std::uint64_t>& count = counts_[path];
      const bool tick = std::string_view(path) == "/federation/tick";
      const bool mutating = method == net::Method::post && !tick;
      proxy->add(method, path, [this, &count, tick, mutating](const net::RouteContext& ctx) {
        count.fetch_add(1, std::memory_order_relaxed);
        net::Response response = inner_->dispatch(*ctx.request);
        if (tick || mutating) {
          Served served;
          served.tick = tick;
          if (tick) {
            served.t_us = static_cast<std::int64_t>(
                json::parse(ctx.request->body).value().find("t_us")->as_number());
            served.next_event = node_.simulator().next_event_at();
          } else {
            served.t_us = std::stoll(ctx.query.at("t_us"));
          }
          const std::lock_guard<std::mutex> lock(log_mutex_);
          log_.push_back(served);
        }
        return response;
      });
    }
    Result<std::unique_ptr<net::HttpServer>> bound = net::HttpServer::bind(proxy);
    EXPECT_TRUE(bound.ok());
    server_ = std::move(bound).value();
    serving_ = std::thread([raw = server_.get()] { raw->run(); });
  }
  CountedEdge(const CountedEdge&) = delete;
  CountedEdge& operator=(const CountedEdge&) = delete;
  ~CountedEdge() {
    server_->stop();
    serving_.join();
  }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] std::uint64_t calls(const std::string& path) const {
    return counts_.at(path).load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t total = 0;
    for (const auto& [path, count] : counts_) total += count.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::vector<Served> served() const {
    const std::lock_guard<std::mutex> lock(log_mutex_);
    return log_;
  }

 private:
  static constexpr std::pair<net::Method, const char*> kRoutes[] = {
      {net::Method::post, "/federation/tick"},
      {net::Method::post, "/federation/slices"},
      {net::Method::post, "/federation/fault"},
      {net::Method::post, "/federation/mobility/ingress"},
      {net::Method::get, "/federation/headroom"},
      {net::Method::get, "/federation/summary"},
      {net::Method::get, "/federation/mobility"},
      {net::Method::get, "/federation/info"},
      {net::Method::get, "/federation/metrics"},
      {net::Method::get, "/federation/trace"},
  };

  federation::EdgeNode node_;
  std::shared_ptr<net::Router> inner_;
  std::map<std::string, std::atomic<std::uint64_t>> counts_;
  mutable std::mutex log_mutex_;
  std::vector<Served> log_;
  std::unique_ptr<net::HttpServer> server_;
  std::thread serving_;
};

// The region_outage shape, shortened: r1 loses both datacenters for
// three hours and r2's controller restarts. The request at the outage
// reads r1's headroom after the fault staled it.
constexpr const char* kOutageDoc = R"({
  "name": "outage_mini",
  "seed": 23,
  "duration_hours": 12,
  "topology": "metro",
  "federation": {"regions": 3, "cells_per_region": 4, "edge_dcs_per_region": 1,
                 "hosts_per_dc": 2, "backbone": "ring", "backbone_gbps": 40},
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 6, "min_duration_hours": 2, "max_duration_hours": 8},
  "events": [
    {"kind": "dc_down", "at_hours": 4, "region": "r1", "dc": "core", "duration_hours": 3},
    {"kind": "dc_down", "at_hours": 4, "region": "r1", "dc": "edge0", "duration_hours": 3},
    {"kind": "controller_restart", "at_hours": 5, "region": "r2", "duration_minutes": 15}
  ],
  "requests": [{"at_hours": 4, "vertical": "automotive", "duration_hours": 1, "region": "r1"}]
})";

TEST(BrokerProtocol, TicksOnlyDueRegionsPlusMutationsAndFallbacks) {
  const scenario::Scenario s = scenario::parse_scenario(kOutageDoc).value();
  const MetroFabric fabric = make_metro_fabric(s.federation, s.seed).value();
  std::vector<std::unique_ptr<CountedEdge>> edges;
  FederatedRunOptions options;
  for (const federation::RegionPlan& plan : fabric.regions) {
    edges.push_back(std::make_unique<CountedEdge>(plan, s));
    options.remote_edges.emplace(plan.name, edges.back()->port());
  }
  FederatedRunner runner(s, options);
  const Result<FederatedScorecard> card = runner.run();
  ASSERT_TRUE(card.ok()) << card.error().message;

  // Every timestamp of the run: epoch ticks, faults and submissions
  // (deferred retries fall on epoch ticks).
  const std::int64_t origin = SimTime::origin().as_micros();
  const std::int64_t period = s.orchestrator.monitoring_period.as_micros();
  const std::int64_t end = origin + s.duration.as_micros();
  std::set<std::int64_t> timestamps;
  for (std::int64_t t = origin + period; t <= end; t += period) timestamps.insert(t);
  std::map<std::string, std::uint64_t> faults;
  for (const scenario::ScenarioEvent& event : s.events) {
    timestamps.insert(origin + event.at.as_micros());
    ++faults[event.region];
  }
  const json::Value placements = runner.broker()->placements_json();
  ASSERT_FALSE(placements.find("placements")->as_array().empty());
  for (const json::Value& p : placements.find("placements")->as_array()) {
    timestamps.insert(static_cast<std::int64_t>(p.find("t_us")->as_number()));
  }
  std::vector<std::int64_t> ticks_at(timestamps.begin(), timestamps.end());
  ticks_at.push_back(end);  // the closing tick_all at the horizon

  const std::map<std::string, net::BusStats> stats = runner.bus().stats();
  std::uint64_t fallbacks = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::string& region = fabric.regions[i].name;
    const CountedEdge& edge = *edges[i];
    SCOPED_TRACE(region);
    // Replay the region's log against every timestamp of the run. A
    // region is due at t when a mutating call (or no tick yet) left its
    // cached headroom stale, or when its simulator had an event due by
    // t after its last tick. It gets exactly one tick at each timestamp
    // where it is due and none where it is not; its mutating calls
    // carry the time they are made at, after that time's tick.
    const std::vector<CountedEdge::Served> log = edge.served();
    std::size_t next = 0;
    bool stale = true;
    std::optional<SimTime> pending;
    std::uint64_t skipped = 0;
    for (const std::int64_t t : ticks_at) {
      SCOPED_TRACE(t);
      const bool due = stale || !pending.has_value() || pending->as_micros() <= t;
      const bool ticked = next < log.size() && log[next].tick && log[next].t_us == t;
      EXPECT_EQ(ticked, due);
      if (ticked) {
        stale = false;
        pending = log[next++].next_event;
      } else {
        ++skipped;
      }
      for (; next < log.size() && !log[next].tick && log[next].t_us == t; ++next) stale = true;
    }
    EXPECT_EQ(next, log.size()) << "a call at a time that is not a timestamp of the run";
    EXPECT_GT(skipped, 0u) << "no arrival found the region idle";
    EXPECT_EQ(edge.calls("/federation/tick") + skipped, ticks_at.size());
    EXPECT_EQ(edge.calls("/federation/fault"), faults[region]);
    // Each mutating call stales the cached headroom at most once; the
    // fallback GET re-fills it.
    const std::uint64_t mutations = edge.calls("/federation/slices") + faults[region];
    EXPECT_LE(edge.calls("/federation/headroom"), mutations);
    fallbacks += edge.calls("/federation/headroom");
    EXPECT_EQ(edge.calls("/federation/summary"), 1u);  // finalize
    EXPECT_EQ(edge.calls("/federation/mobility/ingress"), 0u);
    EXPECT_EQ(edge.calls("/federation/mobility"), 0u);
    EXPECT_EQ(stats.at(federation::Broker::service_name(region)).requests,
              edge.calls("/federation/tick") + edge.calls("/federation/slices") +
                  edge.calls("/federation/fault") + edge.calls("/federation/headroom") +
                  edge.calls("/federation/summary"));
    EXPECT_EQ(edge.total_calls(), stats.at(federation::Broker::service_name(region)).requests)
        << "the broker called a route outside the protocol";
  }
  EXPECT_GT(fallbacks, 0u) << "the outage must exercise the stale-headroom fallback";
}

constexpr const char* kRoamingDoc = R"({
  "name": "roaming_mini",
  "seed": 17,
  "duration_hours": 3,
  "topology": "metro",
  "federation": {"regions": 2, "cells_per_region": 4, "edge_dcs_per_region": 1,
                 "hosts_per_dc": 2, "backbone": "ring", "backbone_gbps": 40},
  "orchestrator": {"monitoring_period_minutes": 5},
  "workload": {"arrivals_per_hour": 0, "min_duration_hours": 1, "max_duration_hours": 2},
  "mobility": {
    "cell_spacing_m": 400,
    "ues_per_slice": 40,
    "speed_classes": {"automotive": 14},
    "storms": [{"kind": "commuter_wave", "at_hours": 0.5, "duration_minutes": 90,
                "fraction": 0.6}]
  }
})";

/// A broker over in-process edges, driven step by step. Each edge's
/// router is kept so a test can GET it directly, bypassing the broker.
struct BrokerHarness {
  scenario::Scenario scenario;
  MetroFabric fabric;
  std::vector<std::unique_ptr<federation::EdgeNode>> edges;
  std::vector<std::shared_ptr<net::Router>> routers;
  net::RestBus bus;
  std::unique_ptr<federation::Broker> broker;
  std::int64_t now_us = 0;
  std::uint64_t next_workload_seed = 1;

  explicit BrokerHarness(const char* doc)
      : scenario(scenario::parse_scenario(doc).value()),
        fabric(make_metro_fabric(scenario.federation, scenario.seed).value()) {
    for (const federation::RegionPlan& plan : fabric.regions) {
      edges.push_back(std::make_unique<federation::EdgeNode>(plan, scenario, 1));
      routers.push_back(edges.back()->make_router());
      bus.register_service(federation::Broker::service_name(plan.name), routers.back());
    }
    broker = std::make_unique<federation::Broker>(&bus, fabric);
  }

  void tick() {
    now_us += scenario.orchestrator.monitoring_period.as_micros();
    broker->tick_all(now_us);
  }

  federation::PlacementDecision submit(const std::string& home) {
    scenario::ScenarioRequest request;
    request.spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::automotive), Duration::hours(2.0));
    request.workload_seed = next_workload_seed++;
    return broker->submit(scenario::request_to_json(request), home, now_us);
  }

  /// Fault `region` over the broker (which stales its headroom).
  void fault(const std::string& region, const std::string& kind, const std::string& target,
             Duration duration) {
    json::Object body;
    body.emplace("kind", kind);
    body.emplace("target", target);
    body.emplace("duration_us", static_cast<double>(duration.as_micros()));
    ASSERT_TRUE(broker->inject_fault(region, json::Value(std::move(body)), now_us).ok());
  }

  /// Every cached headroom document equals a direct GET on its edge's
  /// router; returns how many regions had one cached.
  std::size_t expect_cache_coherent(const char* after) {
    std::size_t cached = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const json::Value* doc = broker->cached_headroom(edges[i]->name());
      if (doc == nullptr) continue;
      ++cached;
      net::Request get;
      get.method = net::Method::get;
      get.target = "/federation/headroom";
      const net::Response fresh = routers[i]->dispatch(get);
      EXPECT_EQ(json::serialize(*doc), fresh.body) << edges[i]->name() << " after " << after;
    }
    return cached;
  }
};

TEST(BrokerProtocol, CachedHeadroomEqualsAFreshGet) {
  BrokerHarness city(kRoamingDoc);
  for (int k = 0; k < 4; ++k) {
    city.submit("r0");
    city.submit("r1");
  }
  std::size_t compared = 0;
  compared += city.expect_cache_coherent("submit");
  const std::int64_t end_us = city.scenario.duration.as_micros();
  while (city.now_us < end_us) {
    city.tick();
    compared += city.expect_cache_coherent("tick");
    if (city.now_us == Duration::hours(1.0).as_micros()) {
      // Both regions restart: the next request has no candidate and
      // waits in the deferred lane until they resume.
      city.fault("r0", "controller_restart", "", Duration::minutes(10.0));
      city.fault("r1", "controller_restart", "", Duration::minutes(10.0));
      EXPECT_EQ(city.submit("r0").outcome, "deferred");
      compared += city.expect_cache_coherent("deferred submit");
    }
    (void)city.broker->retry_deferred(city.now_us);
    compared += city.expect_cache_coherent("retry_deferred");
    (void)city.broker->route_roamers(city.now_us);
    compared += city.expect_cache_coherent("route_roamers");
  }
  const federation::BrokerCounters& counters = city.broker->counters();
  EXPECT_GT(counters.placed_local + counters.placed_remote, 4u);
  EXPECT_EQ(city.broker->deferred_pending(), 0u) << "the deferred request never landed";
  EXPECT_GT(counters.roam_admitted, 0u) << "the commuter wave must cross the border";
  EXPECT_GT(compared, 0u);
}

TEST(BrokerProtocol, ArrivalTickSkipsIdleRegionsAndMutationsLandAtBrokerTime) {
  BrokerHarness city(kRoamingDoc);
  const auto requests = [&city](std::size_t region) {
    return city.bus.stats().at(federation::Broker::service_name(city.edges[region]->name()))
        .requests;
  };
  const auto region_now = [&city](std::size_t region) {
    return city.edges[region]->simulator().now().as_micros();
  };
  city.tick();  // nothing cached yet: every region is due
  const std::int64_t epoch_us = city.now_us;
  EXPECT_EQ(region_now(0), epoch_us);
  EXPECT_EQ(region_now(1), epoch_us);
  EXPECT_EQ(city.expect_cache_coherent("epoch tick"), 2u);

  // An arrival between epochs: both caches are fresh and neither region
  // has an event due, so no tick is sent and no clock moves.
  const std::uint64_t before[] = {requests(0), requests(1)};
  city.now_us += Duration::minutes(1.0).as_micros();
  city.broker->tick_all(city.now_us);
  EXPECT_EQ(requests(0), before[0]);
  EXPECT_EQ(requests(1), before[1]);
  EXPECT_EQ(region_now(0), epoch_us);
  EXPECT_EQ(region_now(1), epoch_us);
  EXPECT_EQ(city.expect_cache_coherent("skipped arrival tick"), 2u);

  // The placement still lands at the broker's time, on the region the
  // broker picked from the cached headroom.
  const federation::PlacementDecision placed = city.submit("r0");
  ASSERT_TRUE(placed.outcome == "local" || placed.outcome == "remote") << placed.outcome;
  const std::size_t target = placed.placed_region == city.edges[0]->name() ? 0 : 1;
  EXPECT_EQ(region_now(target), city.now_us);
  EXPECT_EQ(region_now(1 - target), epoch_us);
  EXPECT_EQ(city.expect_cache_coherent("submit"), 1u) << "the placed region's cache is stale";

  // So does a fault, on the region that has not moved yet.
  city.fault(city.edges[1 - target]->name(), "cell_down", "c0", Duration::minutes(2.0));
  EXPECT_EQ(region_now(1 - target), city.now_us);
  EXPECT_EQ(city.expect_cache_coherent("fault"), 0u);

  // Both regions were mutated, so the next arrival ticks both.
  const std::uint64_t mutated[] = {requests(0), requests(1)};
  city.now_us += Duration::minutes(1.0).as_micros();
  city.broker->tick_all(city.now_us);
  EXPECT_EQ(requests(0), mutated[0] + 1);
  EXPECT_EQ(requests(1), mutated[1] + 1);
  EXPECT_EQ(city.expect_cache_coherent("tick after mutations"), 2u);
}

TEST(BrokerProtocol, TickReplyWithoutNextEventKeepsTheRegionDue) {
  BrokerHarness city(kRoamingDoc);
  // r1 answers its ticks without next_event_us, as an older edge would.
  auto stripped = std::make_shared<net::Router>();
  stripped->add(net::Method::post, "/federation/tick",
                [inner = city.routers[1]](const net::RouteContext& ctx) {
                  net::Response response = inner->dispatch(*ctx.request);
                  json::Value doc = json::parse(response.body).value();
                  EXPECT_EQ(doc.as_object().erase("next_event_us"), 1u);
                  response.body = json::serialize(doc);
                  return response;
                });
  city.bus.register_service(federation::Broker::service_name("r1"), stripped);
  const auto requests = [&city](const std::string& region) {
    return city.bus.stats().at(federation::Broker::service_name(region)).requests;
  };
  city.tick();
  for (int k = 1; k <= 3; ++k) {
    const std::uint64_t r0 = requests("r0");
    const std::uint64_t r1 = requests("r1");
    city.now_us += Duration::minutes(1.0).as_micros();
    city.broker->tick_all(city.now_us);
    EXPECT_EQ(requests("r0"), r0) << "r0 has nothing due";
    EXPECT_EQ(requests("r1"), r1 + 1) << "r1 never said when its next event is";
    EXPECT_EQ(city.edges[1]->simulator().now().as_micros(), city.now_us);
    EXPECT_EQ(city.expect_cache_coherent("arrival tick"), 2u);
  }
}

TEST(BrokerProtocol, InjectedFaultShowsInTheNextRegionsJsonWithoutATick) {
  BrokerHarness city(kRoamingDoc);
  city.tick();
  const auto edge_dcs_up = [&city](std::size_t region) {
    const json::Value doc = city.broker->regions_json();
    return doc.find("regions")->as_array().at(region).find("edge_dcs_up")->as_number();
  };
  ASSERT_NE(city.broker->cached_headroom("r0"), nullptr);
  EXPECT_EQ(edge_dcs_up(0), 1.0);
  city.fault("r0", "dc_down", "edge0", Duration::zero());
  EXPECT_EQ(city.broker->cached_headroom("r0"), nullptr);
  EXPECT_EQ(edge_dcs_up(0), 0.0);
  EXPECT_EQ(edge_dcs_up(1), 1.0);
  EXPECT_FALSE(city.broker->inject_fault("r9", json::Value(json::Object{}), city.now_us).ok());
}

// ------------------------------------------------------- observability

/// Run the metro scenario with deterministic tracing on and return the
/// broker's merged federated trace (and, when asked, the merged
/// federation metrics document). Restores the tracer's default state.
std::string run_traced(FederatedRunOptions options, std::string* metrics = nullptr) {
  telemetry::trace::Tracer& tracer = telemetry::trace::Tracer::instance();
  tracer.set_lane_capacity(1u << 16);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::set_enabled(true);
  telemetry::trace::clear();

  scenario::Scenario scenario = metro_scenario();
  const std::int64_t end_us = (SimTime::origin() + scenario.duration).as_micros();
  FederatedRunner runner(std::move(scenario), options);
  const Result<FederatedScorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);

  std::string trace;
  runner.broker()->export_federated_trace(trace);
  if (metrics != nullptr) {
    *metrics = json::serialize(runner.broker()->federation_metrics_json(end_us));
  }

  telemetry::trace::set_enabled(false);
  tracer.set_lane_capacity(telemetry::trace::Tracer::kDefaultLaneCapacity);
  telemetry::trace::clear();
  EXPECT_EQ(tracer.dropped(), 0u) << "ring overwrote spans; the parity check is meaningless";
  return trace;
}

TEST(FederationObservability, MergedTraceIsTransportInvariant) {
  FederatedRunOptions inproc;
  FederatedRunOptions socket;
  socket.socket_transport = true;
  const std::string a = run_traced(inproc);
  const std::string b = run_traced(socket);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "merged federated trace must not depend on the transport";
}

TEST(FederationObservability, FederationMetricsAreTransportInvariant) {
  std::string inproc_metrics;
  std::string socket_metrics;
  FederatedRunOptions socket;
  socket.socket_transport = true;
  (void)run_traced({}, &inproc_metrics);
  (void)run_traced(socket, &socket_metrics);
  ASSERT_FALSE(inproc_metrics.empty());
  EXPECT_EQ(inproc_metrics, socket_metrics)
      << "merged /federation/metrics must not depend on the transport";

  // The merged document really carries the full-fidelity SLO exports.
  const Result<json::Value> doc = json::parse(inproc_metrics);
  ASSERT_TRUE(doc.ok());
  const json::Value* merged = doc.value().find("merged");
  ASSERT_NE(merged, nullptr);
  const json::Value* headroom =
      merged->find("histograms")->find("orchestrator.slo.admission_headroom_mbps");
  ASSERT_NE(headroom, nullptr);
  EXPECT_GT(headroom->find("count")->as_number(), 0.0);
  const json::Value* broker = doc.value().find("broker");
  ASSERT_NE(broker, nullptr);
  EXPECT_GT(broker->find("gauges")->find("federation.submitted")->as_number(), 0.0);
}

TEST(FederationObservability, BrokerSpansParentEdgeSpansInTheMergedTrace) {
  const std::string trace = run_traced({});
  const Result<json::Value> doc = json::parse(trace);
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  const json::Value* events = doc.value().find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Lane 0 is the broker; resolve the edge lanes from the metadata.
  std::set<double> edge_tids;
  std::set<std::string> broker_span_ids;
  for (const json::Value& event : events->as_array()) {
    const json::Value* ph = event.find("ph");
    if (ph != nullptr && ph->is_string() && ph->as_string() == "M") {
      const json::Value* lane_name = event.find("args")->find("name");
      if (lane_name != nullptr && lane_name->as_string().starts_with("edge.")) {
        edge_tids.insert(event.find("tid")->as_number());
      }
      continue;
    }
    if (event.find("tid")->as_number() == 0.0) {
      broker_span_ids.insert(event.find("args")->find("span")->as_string());
    }
  }
  ASSERT_EQ(edge_tids.size(), 2u);
  ASSERT_FALSE(broker_span_ids.empty());

  // The acceptance shape: an edge-side admission span whose parent is a
  // broker-side span (the bus.call that delegated the admission).
  bool admission_parented_by_broker = false;
  for (const json::Value& event : events->as_array()) {
    const json::Value* ph = event.find("ph");
    if (ph != nullptr && ph->is_string() && ph->as_string() == "M") continue;
    if (!edge_tids.contains(event.find("tid")->as_number())) continue;
    if (event.find("name")->as_string() != "orch.admit.decide") continue;
    EXPECT_GT(event.find("args")->find("depth")->as_number(), 0.0);
    if (broker_span_ids.contains(event.find("args")->find("parent")->as_string())) {
      admission_parented_by_broker = true;
    }
  }
  EXPECT_TRUE(admission_parented_by_broker)
      << "no edge admission span parented by a broker span in the merged trace";
}

TEST(FederationObservability, EdgeMetricsRouteExposesRegistryAndDropCounters) {
  scenario::Scenario scenario = metro_scenario();
  const Result<MetroFabric> fabric = make_metro_fabric(scenario.federation, scenario.seed);
  ASSERT_TRUE(fabric.ok());
  federation::EdgeNode node(fabric.value().regions[0], scenario, 1);

  net::RestBus bus;
  bus.register_service("edge.r0", node.make_router());
  const Result<json::Value> doc = bus.get_json("edge.r0", "/metrics");
  ASSERT_TRUE(doc.ok()) << doc.error().message;
  ASSERT_NE(doc.value().find("metrics"), nullptr);
  const json::Value* trace_status = doc.value().find("trace");
  ASSERT_NE(trace_status, nullptr);
  EXPECT_NE(trace_status->find("dropped"), nullptr);
  EXPECT_NE(trace_status->find("lane_detail"), nullptr);

  const Result<json::Value> fed = bus.get_json("edge.r0", "/federation/metrics");
  ASSERT_TRUE(fed.ok());
  EXPECT_EQ(fed.value().find("region")->as_string(), "r0");
  const json::Value* histograms = fed.value().find("metrics")->find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("orchestrator.slo.admission_headroom_mbps"), nullptr)
      << "SLO instruments must be interned eagerly, not only after traffic";
}

// The edge answers a submission with the orchestrator's verdict, not a
// record lookup: a rejected slice's record is gone by the time the
// answer is built.
TEST(EdgeNodeSubmit, RejectedRequestAnswersRejected) {
  scenario::Scenario scenario = metro_scenario();
  const Result<MetroFabric> fabric = make_metro_fabric(scenario.federation, scenario.seed);
  ASSERT_TRUE(fabric.ok());
  federation::EdgeNode node(fabric.value().regions[0], scenario, 1);
  net::RestBus bus;
  bus.register_service("edge.r0", node.make_router());

  const auto post = [&](double mbps) {
    scenario::ScenarioRequest request;
    request.spec = core::SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(2.0));
    request.spec.expected_throughput = DataRate::mbps(mbps);
    return bus.call_json("edge.r0", net::Method::post, "/federation/slices",
                         scenario::request_to_json(request));
  };
  const Result<json::Value> admitted = post(5.0);
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  EXPECT_EQ(admitted.value().find("state")->as_string(), "installing");

  const Result<json::Value> rejected = post(99999.0);  // no region can carry it
  ASSERT_TRUE(rejected.ok()) << rejected.error().message;
  EXPECT_EQ(rejected.value().find("state")->as_string(), "rejected");
  const SliceId slice{static_cast<std::uint64_t>(rejected.value().find("slice")->as_number())};
  EXPECT_EQ(slice.value(), 2u);
  EXPECT_EQ(node.orchestrator().find_slice(slice), nullptr);
  EXPECT_EQ(node.orchestrator().summary().rejected_total, 1u);
}

}  // namespace
}  // namespace slices
