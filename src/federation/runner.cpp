#include "federation/runner.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "core/request_generator.hpp"
#include "scenario/region.hpp"

namespace slices::federation {
namespace {

// Home-region assignment for requests that do not pin one.
constexpr std::uint64_t kHomeSalt = 0x94d049bb133111ebull;

double double_field(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : 0.0;
}

/// The city's multiplexing gain at a tick: contracted over reserved
/// rate, summed in region order over the snapshot's reachable regions
/// that are not suspended; 1 while nothing is reserved.
double city_gain(const json::Value& snapshot) {
  double contracted = 0.0;
  double reserved = 0.0;
  if (const json::Value* list = snapshot.find("regions"); list != nullptr && list->is_array()) {
    for (const json::Value& region : list->as_array()) {
      const json::Value* suspended = region.find("suspended");
      if (suspended != nullptr && suspended->is_bool() && suspended->as_bool()) continue;
      contracted += double_field(region, "contracted_mbps");
      reserved += double_field(region, "reserved_mbps");
    }
  }
  return reserved > 0.0 ? contracted / reserved : 1.0;
}

}  // namespace

json::Value RegionScore::to_json() const {
  json::Object out;
  write(out);
  out.emplace("name", name);
  out.emplace("cells", static_cast<double>(cells));
  out.emplace("price_factor", price_factor);
  return json::Value(std::move(out));
}

json::Value FederatedScorecard::to_json() const {
  json::Object out = shared_json();
  out.emplace("total_cells", static_cast<double>(total_cells));

  json::Object placement;
  placement.emplace("local", static_cast<double>(placed_local));
  placement.emplace("remote", static_cast<double>(placed_remote));
  placement.emplace("edge_rejected", static_cast<double>(edge_rejected));
  placement.emplace("no_region", static_cast<double>(rejected_no_region));
  placement.emplace("deferred_total", static_cast<double>(deferred_total));
  placement.emplace("deferred_unplaced", static_cast<double>(deferred_unplaced));
  placement.emplace("backbone_reservations", static_cast<double>(backbone_reservations));
  placement.emplace("backbone_reserved_mbps_peak", backbone_reserved_mbps_peak);
  out.emplace("placement", std::move(placement));

  if (mobility_enabled) {
    json::Object& mobility = out.at("mobility").as_object();
    mobility.emplace("roam_attempts", static_cast<double>(roam_attempts));
    mobility.emplace("roam_admitted", static_cast<double>(roam_admitted));
    mobility.emplace("roam_dropped", static_cast<double>(roam_dropped));
  }

  json::Array region_list;
  for (const RegionScore& r : regions) region_list.push_back(r.to_json());
  out.emplace("regions", std::move(region_list));
  return json::Value(std::move(out));
}

std::string FederatedScorecard::serialize() const {
  return json::serialize_pretty(to_json()) + "\n";
}

FederatedRunner::FederatedRunner(scenario::Scenario scenario, FederatedRunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {}

FederatedRunner::~FederatedRunner() {
  bus_.close_connections();  // no server is left holding an idle peer
  for (auto& server : servers_) server->stop();
  for (std::thread& t : server_threads_) {
    if (t.joinable()) t.join();
  }
}

void FederatedRunner::serve(std::unique_ptr<net::HttpServer> server) {
  net::HttpServer* raw = server.get();
  servers_.push_back(std::move(server));
  server_threads_.emplace_back([raw] { raw->run(); });
}

EdgeNode* FederatedRunner::edge(const std::string& region) noexcept {
  for (auto& e : edges_) {
    if (e->name() == region) return e.get();
  }
  return nullptr;
}

Result<void> FederatedRunner::build_edges() {
  std::vector<std::shared_ptr<net::Router>> routers;
  for (const RegionPlan& plan : fabric_.regions) {
    if (auto it = options_.remote_edges.find(plan.name); it != options_.remote_edges.end()) {
      bus_.register_remote(Broker::service_name(plan.name), it->second);
      continue;
    }
    auto node = std::make_unique<EdgeNode>(plan, scenario_, options_.epoch_threads);
    routers.push_back(node->make_router());
    if (!options_.socket_transport) {
      bus_.register_service(Broker::service_name(plan.name), routers.back());
    }
    edges_.push_back(std::move(node));
  }
  if (options_.socket_transport && !routers.empty()) {
    // One server loop for every local edge, one port each: a tick round
    // wakes it once, and edge handlers never run concurrently, so the
    // process-wide tracer clock needs no per-edge lane.
    Result<std::unique_ptr<net::HttpServer>> server = net::HttpServer::bind_each(routers);
    if (!server.ok()) return server.error();
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      bus_.register_remote(Broker::service_name(edges_[i]->name()), server.value()->port(i));
    }
    serve(std::move(server.value()));
  }
  for (const auto& [region, port] : options_.remote_edges) {
    if (edge(region) == nullptr && !bus_.has_service(Broker::service_name(region))) {
      return make_error(Errc::invalid_argument,
                        "remote edge '" + region + "' is not a region of this scenario");
    }
  }
  return {};
}

void FederatedRunner::inject_event(const scenario::ScenarioEvent& event, std::int64_t t_us) {
  (void)recorder_.record_event(event);
  json::Object body;
  body.emplace("kind", std::string(scenario::to_string(event.kind)));
  body.emplace("target", event.target);
  body.emplace("duration_us", static_cast<double>(event.duration.as_micros()));
  if (broker_->inject_fault(event.region, json::Value(std::move(body)), t_us).ok()) {
    ++events_injected_;
  }
}

void FederatedRunner::submit_scenario_request(const scenario::ScenarioRequest& request,
                                              std::int64_t t_us) {
  // Recorded post-draw: replays carry the concrete home region, so the
  // broker's home RNG never has to re-draw (and cannot diverge).
  (void)recorder_.record_request(SimTime::from_micros(t_us), request.spec,
                                 request.workload_seed, request.region);
  (void)broker_->submit(scenario::request_to_json(request), request.region, t_us);
}

Result<FederatedScorecard> FederatedRunner::run() {
  if (ran_) return make_error(Errc::conflict, "federated runner is single-use");
  if (scenario_.topology != "metro") {
    return make_error(Errc::invalid_argument,
                      "topology '" + scenario_.topology +
                          "' is single-region — drive it with scenario::ScenarioRunner");
  }
  ran_ = true;

  Result<MetroFabric> fabric = make_metro_fabric(scenario_.federation, scenario_.seed);
  if (!fabric.ok()) return fabric.error();
  fabric_ = std::move(fabric.value());

  if (Result<void> built = build_edges(); !built.ok()) return built.error();
  broker_ = std::make_unique<Broker>(&bus_, fabric_);
  if (Result<void> r = recorder_.open(options_.record_path, scenario_); !r.ok()) return r.error();
  // The facade's /federation/metrics|trace bodies require bus pulls the
  // run loop must perform; only pay for them when the facade is up.
  broker_->set_facade_enabled(options_.broker_port != 0);
  if (options_.broker_port != 0) {
    Result<std::unique_ptr<net::HttpServer>> server =
        net::HttpServer::bind(broker_->make_router(), options_.broker_port);
    if (!server.ok()) return server.error();
    serve(std::move(server.value()));
  }

  // --- The lock-step timeline -------------------------------------
  // At every timestamp t, in this order: tick every region with
  // something due to t (one round of calls, whose replies hand over
  // headroom and roaming exits; the rest catch up on their next call),
  // epoch-tick bookkeeping (deferred retries, roaming, the snapshot and
  // the gain sample read from it), failure events, explicit requests,
  // generated arrivals. Regions in sorted-name order throughout. This
  // total order — not wall clocks, not transport latency — is what
  // makes the scorecard byte-identical across thread counts and
  // transports.
  const std::int64_t end_us = (SimTime::origin() + scenario_.duration).as_micros();
  constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

  std::vector<scenario::ScenarioEvent> events = scenario_.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  std::vector<scenario::ScenarioRequest> requests = scenario_.requests;
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  std::size_t next_event = 0;
  std::size_t next_request = 0;

  const std::int64_t period_us = scenario_.orchestrator.monitoring_period.as_micros();
  std::int64_t next_tick_us = period_us > 0 ? period_us : kNever;

  const std::unique_ptr<core::RequestGenerator> generator =
      scenario::make_request_generator(scenario_);
  std::int64_t next_arrival_us = kNever;
  if (generator) {
    next_arrival_us =
        (SimTime::origin() + generator->next_interarrival(SimTime::origin())).as_micros();
  }
  Rng home_rng(scenario_.seed ^ kHomeSalt);
  const auto draw_home = [&]() -> std::string {
    const std::size_t n = broker_->regions().size();
    return broker_->regions()[home_rng.uniform_int(0, static_cast<int>(n) - 1)];
  };

  const auto event_at = [&]() -> std::int64_t {
    return next_event < events.size()
               ? (SimTime::origin() + events[next_event].at).as_micros()
               : kNever;
  };
  const auto request_at = [&]() -> std::int64_t {
    return next_request < requests.size()
               ? (SimTime::origin() + requests[next_request].at).as_micros()
               : kNever;
  };

  while (true) {
    std::int64_t t = kNever;
    if (next_tick_us <= end_us) t = std::min(t, next_tick_us);
    if (event_at() <= end_us) t = std::min(t, event_at());
    if (request_at() <= end_us) t = std::min(t, request_at());
    if (next_arrival_us <= end_us) t = std::min(t, next_arrival_us);
    if (t == kNever) break;

    broker_->tick_all(t);

    if (t == next_tick_us) {
      (void)broker_->retry_deferred(t);
      // tick_all(t) already ran every region's mobility periodic for this
      // window, so the exits it handed over are complete when we route
      // them.
      if (scenario_.mobility.enabled) (void)broker_->route_roamers(t);
      gain_.record(city_gain(broker_->refresh_snapshot(t)));
      ++epochs_;
      next_tick_us += period_us;
    }
    while (event_at() == t) inject_event(events[next_event++], t);
    while (request_at() == t) {
      scenario::ScenarioRequest& request = requests[next_request++];
      if (request.region.empty()) request.region = draw_home();
      submit_scenario_request(request, t);
    }
    while (next_arrival_us == t) {
      core::GeneratedRequest generated = generator->next_request();
      scenario::ScenarioRequest request;
      request.at = SimTime::from_micros(t) - SimTime::origin();
      request.spec = generated.spec;
      request.workload_seed = generated.workload_seed;
      request.region = draw_home();
      submit_scenario_request(request, t);
      const SimTime now = SimTime::from_micros(t);
      const SimTime next = now + generator->next_interarrival(now);
      next_arrival_us = next.as_micros();
    }
  }
  broker_->tick_all(end_us);

  FederatedScorecard card = finalize();
  scenario::evaluate_targets(scenario_.targets, card);

  if (Result<void> r = recorder_.finish(SimTime::from_micros(end_us)); !r.ok()) return r.error();
  return card;
}

FederatedScorecard FederatedRunner::finalize() {
  FederatedScorecard card;
  card.scenario = scenario_.name;
  card.seed = scenario_.seed;
  card.duration_hours = scenario_.duration.as_micros() / 3.6e9;
  card.total_cells = fabric_.total_cells();

  std::map<std::string, const RegionPlan*> plans;
  for (const RegionPlan& plan : fabric_.regions) plans.emplace(plan.name, &plan);

  for (const std::string& region : broker_->regions()) {
    RegionScore score;
    score.name = region;
    score.cells = plans.at(region)->cells;
    score.price_factor = plans.at(region)->price_factor;
    Result<json::Value> doc = bus_.get_json(Broker::service_name(region), "/federation/summary");
    if (doc.ok()) score.read(doc.value());
    card.add_region(score);
    card.regions.push_back(std::move(score));
  }

  if (scenario_.mobility.enabled) {
    card.mobility_enabled = true;
    for (const std::string& region : broker_->regions()) {
      Result<json::Value> doc =
          bus_.get_json(Broker::service_name(region), "/federation/mobility");
      if (!doc.ok()) continue;
      const json::Value& m = doc.value();
      const auto count = [&m](std::string_view key) {
        return json::to_integer<std::uint64_t>(m.find(key)).value_or(0);
      };
      card.handover_attempts += count("handover_attempts");
      card.handover_successes += count("handover_successes");
      card.handover_drops += count("handover_drops");
      card.mobile_population += count("population");
    }
  }

  const BrokerCounters& counters = broker_->counters();
  card.submitted = counters.submitted;
  card.placed_local = counters.placed_local;
  card.placed_remote = counters.placed_remote;
  card.edge_rejected = counters.edge_rejected;
  card.rejected_no_region = counters.rejected_no_region;
  card.deferred_total = counters.deferred_total;
  card.deferred_unplaced = broker_->deferred_pending();
  card.backbone_reservations = counters.backbone_reservations;
  card.backbone_reserved_mbps_peak = counters.backbone_reserved_mbps_peak;
  card.roam_attempts = counters.roam_attempts;
  card.roam_admitted = counters.roam_admitted;
  card.roam_dropped = counters.roam_dropped;

  // City-level rejections are the broker's, not the sum of per-region
  // orchestrator refusals: shopping a request to a second region after
  // the first says no must not count it twice.
  card.rejected = counters.edge_rejected + counters.rejected_no_region;
  card.epochs = epochs_;
  card.events_injected = events_injected_;
  card.derive(gain_);
  return card;
}

}  // namespace slices::federation
