#include "federation/edge.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <type_traits>
#include <vector>

#include "transport/generators.hpp"

namespace slices::federation {
namespace {

using json::Object;
using json::Value;

Error bad(std::string why) { return make_error(Errc::invalid_argument, std::move(why)); }

/// A mutating route's `t_us` query value: a whole decimal in
/// [0, 2^53]; nullopt for anything else (a sign, a fraction, junk).
std::optional<std::int64_t> parse_t_us(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  if (text.empty() || text.front() < '0' || text.front() > '9') return std::nullopt;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > json::kMaxExactInteger) return std::nullopt;
  return value;
}

/// A metro region's layout at the plan's scale: pooled 20 MHz cells
/// "c<k>" behind an aggregation tree, one core DC "core" and
/// `plan.edge_dcs` edge DCs "edge<k>", finished by the shared wiring.
std::unique_ptr<core::Testbed> make_region_testbed(const RegionPlan& plan,
                                                   const core::OrchestratorConfig& config) {
  auto tb = std::make_unique<core::Testbed>();
  for (std::size_t c = 0; c < plan.cells; ++c) {
    const CellId id{c + 1};
    tb->ran.add_cell(ran::Cell(id, plan.name + "-c" + std::to_string(c), ran::Bandwidth::mhz20,
                               ran::SharingPolicy::pooled));
    tb->cell_names.emplace_back("c" + std::to_string(c), id);
  }

  transport::GeneratedTopology tree = transport::make_aggregation_tree(
      /*leaves=*/std::max<std::size_t>(plan.cells / 4, 1), /*leaves_per_switch=*/4);

  std::map<DatacenterId, NodeId> dc_gateways;
  const DatacenterId core_dc = tb->cloud.add_datacenter("core", cloud::DatacenterKind::core,
                                                        /*cpu_allocation_ratio=*/2.0);
  for (std::size_t h = 0; h < plan.hosts_per_dc; ++h) {
    tb->cloud.add_host(core_dc, "core-host-" + std::to_string(h),
                       ComputeCapacity{64.0, 262144.0, 4000.0});
  }
  dc_gateways.emplace(core_dc, tree.core_gateway);
  tb->dc_names.emplace_back("core", core_dc);
  for (std::size_t k = 0; k < plan.edge_dcs; ++k) {
    const std::string name = "edge" + std::to_string(k);
    const DatacenterId dc = tb->cloud.add_datacenter(name, cloud::DatacenterKind::edge,
                                                     /*cpu_allocation_ratio=*/1.0);
    for (std::size_t h = 0; h < plan.hosts_per_dc; ++h) {
      tb->cloud.add_host(dc, name + "-host-" + std::to_string(h),
                         ComputeCapacity{32.0, 131072.0, 1000.0});
    }
    dc_gateways.emplace(dc, tree.edge_gateways[k % tree.edge_gateways.size()]);
    tb->dc_names.emplace_back(name, dc);
  }

  // The region's own seed keys its fading stream, so regions fade
  // independently.
  const NodeId ran_gateway = tree.ran_gateways.front();
  core::wire_testbed(*tb, std::move(tree.topology), plan.seed, config, ran_gateway,
                     std::move(dc_gateways));
  return tb;
}

}  // namespace

EdgeNode::EdgeNode(const RegionPlan& plan, const scenario::Scenario& scenario,
                   std::size_t epoch_threads)
    : plan_(plan),
      component_(telemetry::trace::Tracer::instance().intern_component("edge." + plan.name)) {
  // Construction-time spans (none today, but guard against future ones)
  // must carry the region's component like handler-triggered spans do.
  telemetry::trace::ComponentScope trace_component(component_);
  core::OrchestratorConfig config = scenario.orchestrator;
  config.epoch_threads = epoch_threads == 0 ? 1 : epoch_threads;
  region_ = std::make_unique<scenario::Region>(
      make_region_testbed(plan_, config), scenario,
      scenario::RegionIdentity{plan_.name, plan_.index, scenario.federation.regions, plan_.seed});

  if (region_->field() != nullptr) {
    // Registered after orchestrator start: at shared timestamps the
    // epoch periodic runs first (FIFO), so UEs move over the epoch's
    // result — the same order the fig2 runner's sampler uses.
    const Duration period = scenario.orchestrator.monitoring_period;
    simulator().add_periodic(
        period,
        [this](SimTime now) {
          telemetry::trace::ComponentScope step_component(component_);
          region_->step_mobility(now);
        },
        period);
  }
}

json::Value EdgeNode::mobility_json() const {
  Object out;
  out.emplace("region", plan_.name);
  const mobility::Field* field = region_->field();
  if (field == nullptr) {
    out.emplace("enabled", false);
    return Value(std::move(out));
  }
  const ran::HandoverStats& handovers = region_->testbed().ran.handover_totals();
  out.emplace("enabled", true);
  out.emplace("population", static_cast<double>(field->population()));
  out.emplace("handover_attempts", static_cast<double>(handovers.attempts));
  out.emplace("handover_successes", static_cast<double>(handovers.successes));
  out.emplace("handover_drops", static_cast<double>(handovers.drops));
  out.emplace("exits", static_cast<double>(field->exits_total()));
  out.emplace("roamers_admitted", static_cast<double>(field->roamers_admitted()));
  out.emplace("roamers_dropped", static_cast<double>(field->roamers_dropped()));
  return Value(std::move(out));
}

Result<json::Value> EdgeNode::admit_roamers(const json::Value& body) {
  TRACE_SCOPE("mobility.ingress");
  mobility::Field* field = region_->field();
  if (field == nullptr) {
    return make_error(Errc::unavailable, "region " + plan_.name + " has no mobility field");
  }
  const std::optional<int> side = json::to_integer<int>(body.find("side"), -1, 1);
  if (!side || *side == 0) return bad("ingress side must be 1 (east) or -1 (west)");
  const json::Value* plmn = body.find("plmn");
  const json::Value* cqi = body.find("cqi");
  const json::Value* y_mm = body.find("y_mm");
  if (plmn == nullptr || !plmn->is_array() || cqi == nullptr || !cqi->is_array() ||
      y_mm == nullptr || !y_mm->is_array()) {
    return bad("ingress body needs plmn, cqi and y_mm arrays");
  }
  const std::size_t n = plmn->as_array().size();
  if (cqi->as_array().size() != n || y_mm->as_array().size() != n) {
    return bad("ingress columns plmn, cqi and y_mm differ in length");
  }
  // Decode every roamer before admitting any, so a malformed body
  // changes nothing.
  std::vector<mobility::RoamingExit> exits(n);
  for (std::size_t i = 0; i < n; ++i) {
    mobility::RoamingExit& exit = exits[i];
    const auto decode = [i](const json::Value* column, auto& out) {
      const auto decoded =
          json::to_integer<std::remove_reference_t<decltype(out)>>(&column->as_array()[i]);
      if (decoded) out = *decoded;
      return decoded.has_value();
    };
    if (!decode(plmn, exit.plmn) || !decode(cqi, exit.cqi) || !decode(y_mm, exit.y_mm)) {
      return bad("roamer plmn/cqi/y_mm out of range");
    }
    exit.side = *side;
  }
  std::uint64_t admitted = 0;
  for (const mobility::RoamingExit& exit : exits) admitted += field->admit_roamer(exit) ? 1 : 0;
  Object out;
  out.emplace("region", plan_.name);
  out.emplace("admitted", static_cast<double>(admitted));
  out.emplace("dropped", static_cast<double>(exits.size() - admitted));
  return Value(std::move(out));
}

void EdgeNode::advance_to(std::int64_t t_us) {
  if (t_us > simulator().now().as_micros()) {
    (void)simulator().run_until(SimTime::from_micros(t_us));
  }
}

std::string EdgeNode::tick(std::int64_t t_us) {
  advance_to(t_us);
  // Written straight into the body, keys in json::serialize's sorted
  // order, so no json::Value is built per roamer.
  std::string body = "{\"headroom\":";
  body += json::serialize(headroom_json());
  if (const std::optional<SimTime> next = simulator().next_event_at(); next.has_value()) {
    body += ",\"next_event_us\":";
    json::append_number(body, static_cast<double>(next->as_micros()));
  }
  body += ",\"region\":";
  json::append_escaped(body, plan_.name);
  std::vector<mobility::RoamingExit> exits;
  if (mobility::Field* field = region_->field(); field != nullptr) field->drain_exits(exits);
  if (!exits.empty()) {
    body += ",\"roamers\":{";
    bool first_side = true;
    for (const int side : {1, -1}) {
      if (std::none_of(exits.begin(), exits.end(),
                       [side](const mobility::RoamingExit& e) { return e.side == side; })) {
        continue;
      }
      if (!first_side) body.push_back(',');
      first_side = false;
      const auto column = [&](const char* key, auto member) {
        body += key;
        bool first = true;
        for (const mobility::RoamingExit& exit : exits) {
          if (exit.side != side) continue;
          if (!first) body.push_back(',');
          first = false;
          json::append_number(body, static_cast<double>(exit.*member));
        }
        body.push_back(']');
      };
      body += side > 0 ? "\"east\":{" : "\"west\":{";
      column("\"cqi\":[", &mobility::RoamingExit::cqi);
      column(",\"plmn\":[", &mobility::RoamingExit::plmn);
      body += ",\"side\":";
      json::append_number(body, static_cast<double>(side));
      column(",\"y_mm\":[", &mobility::RoamingExit::y_mm);
      body.push_back('}');
    }
    body.push_back('}');
  }
  body += ",\"t_us\":";
  json::append_number(body, static_cast<double>(simulator().now().as_micros()));
  body.push_back('}');
  return body;
}

Result<json::Value> EdgeNode::submit(const json::Value& body) {
  core::Orchestrator& orch = orchestrator();
  if (orch.suspended()) {
    return make_error(Errc::unavailable,
                      "region " + plan_.name + " is restarting; defer admission");
  }
  Result<scenario::ScenarioRequest> request = scenario::request_from_json(body);
  if (!request.ok()) return request.error();

  const scenario::ScenarioRequest& req = request.value();
  const core::SubmitVerdict verdict =
      orch.submit(req.spec, region_->make_workload(req.spec.vertical, req.workload_seed));

  Object out;
  out.emplace("region", plan_.name);
  out.emplace("request", static_cast<double>(verdict.request.value()));
  out.emplace("slice", static_cast<double>(verdict.slice.value()));
  out.emplace("state", std::string(core::to_string(verdict.state)));
  return Value(std::move(out));
}

Result<void> EdgeNode::apply_fault(const json::Value& body) {
  if (!body.is_object()) return bad("fault body must be an object");
  const Object& obj = body.as_object();
  const auto field = [&](std::string_view key) -> std::string {
    const auto it = obj.find(key);
    return it != obj.end() && it->second.is_string() ? it->second.as_string() : std::string();
  };
  const std::string kind = field("kind");
  const std::string target = field("target");
  Duration duration;
  if (const json::Value* v = body.find("duration_us"); v != nullptr && v->is_number()) {
    const std::optional<std::int64_t> us =
        json::to_integer<std::int64_t>(v, 0, json::kMaxExactInteger);
    if (!us) return bad("duration_us must be in [0, 2^53]");
    duration = Duration::micros(*us);
  }

  using Toggle = Result<void> (scenario::Region::*)(const std::string&, bool);
  Toggle toggle = nullptr;
  if (kind == "dc_down" || kind == "dc_up") toggle = &scenario::Region::set_dc_up;
  if (kind == "cell_down" || kind == "cell_up") toggle = &scenario::Region::set_cell_up;
  if (toggle != nullptr) {
    const bool up = kind.ends_with("_up");
    if (Result<void> r = (*region_.*toggle)(target, up); !r.ok()) return r;
    if (!up && duration > Duration::zero()) {
      simulator().schedule_after(
          duration, [this, toggle, target] { (void)(*region_.*toggle)(target, true); });
    }
    return {};
  }
  if (kind == "controller_restart") {
    if (duration <= Duration::zero()) return bad("controller_restart needs duration_us > 0");
    region_->restart(duration);
    return {};
  }
  return bad("unknown fault kind '" + kind + "'");
}

json::Value EdgeNode::info_json() const {
  Object out;
  out.emplace("region", plan_.name);
  out.emplace("cells", static_cast<double>(plan_.cells));
  out.emplace("edge_dcs", static_cast<double>(plan_.edge_dcs));
  out.emplace("hosts_per_dc", static_cast<double>(plan_.hosts_per_dc));
  out.emplace("price_factor", plan_.price_factor);
  return Value(std::move(out));
}

json::Value EdgeNode::headroom_json() const {
  const core::Testbed& tb = region_->testbed();
  const core::OrchestratorSummary summary = tb.orchestrator->summary();
  bool core_dc_up = true;
  std::size_t edge_dcs_up = 0;
  for (const auto& [name, dc] : tb.dc_names) {
    const bool up = tb.cloud.datacenter_available(dc);
    if (name == "core") {
      core_dc_up = up;
    } else {
      edge_dcs_up += up ? 1 : 0;
    }
  }

  Object out;
  out.emplace("region", plan_.name);
  out.emplace("t_us", static_cast<double>(tb.simulator.now().as_micros()));
  out.emplace("headroom_mbps", tb.orchestrator->sellable_capacity().as_mbps());
  out.emplace("price_factor", plan_.price_factor);
  out.emplace("suspended", tb.orchestrator->suspended());
  out.emplace("core_dc_up", core_dc_up);
  out.emplace("edge_dcs_up", static_cast<double>(edge_dcs_up));
  out.emplace("active", static_cast<double>(summary.active_slices));
  out.emplace("installing", static_cast<double>(summary.installing_slices));
  out.emplace("contracted_mbps", summary.contracted_total.as_mbps());
  out.emplace("reserved_mbps", summary.reserved_total.as_mbps());
  return Value(std::move(out));
}

json::Value EdgeNode::summary_json() const {
  const core::Testbed& tb = region_->testbed();
  Object out;
  region_->tally().write(out);
  out.emplace("region", plan_.name);
  out.emplace("t_us", static_cast<double>(tb.simulator.now().as_micros()));
  out.emplace("cells", static_cast<double>(plan_.cells));
  out.emplace("suspended", tb.orchestrator->suspended());
  return Value(std::move(out));
}

std::string EdgeNode::metrics_body() const {
  std::string body = "{\"metrics\":";
  std::string registry_body;
  region_->testbed().registry.metrics_body(registry_body);
  body += registry_body;
  body += ",\"trace\":";
  body += json::serialize(telemetry::trace::Tracer::instance().status_json());
  body.push_back('}');
  return body;
}

std::string EdgeNode::federation_metrics_body() const {
  Object out;
  out.emplace("region", plan_.name);
  out.emplace("metrics", region_->testbed().registry.export_json());
  return json::serialize(Value(std::move(out)));
}

std::string EdgeNode::federation_trace_body() const {
  const telemetry::trace::Tracer& tracer = telemetry::trace::Tracer::instance();
  std::string spans;
  tracer.export_component_spans_json(component_.index, spans);
  std::string body = "{\"dropped\":";
  json::append_number(body, static_cast<double>(tracer.dropped()));
  body += ",\"region\":";
  json::append_escaped(body, plan_.name);
  body += ",\"spans\":";
  body += spans;
  body.push_back('}');
  return body;
}

std::shared_ptr<net::Router> EdgeNode::make_router() {
  auto router = std::make_shared<net::Router>();
  // Every northbound handler runs under the region's trace component, so
  // spans it triggers — orchestrator admission, epoch phases, domain
  // installs — are id-keyed by region regardless of the hosting process.
  // `reply` routes answer with body_of() and ignore the request body;
  // `post` routes parse it, advance the region to the broker's time
  // (the optional `t_us` query parameter) and answer with handle(body)'s
  // document; /federation/tick writes its reply body itself
  // (EdgeNode::tick).
  const auto reply = [&](net::Method method, const char* path, auto body_of) {
    router->add(method, path, [this, body_of](const net::RouteContext&) {
      telemetry::trace::ComponentScope trace_component(component_);
      return net::Response::json(net::Status::ok, body_of());
    });
  };
  const auto post = [&](const char* path, auto handle) {
    router->add(net::Method::post, path, [this, handle](const net::RouteContext& ctx) {
      telemetry::trace::ComponentScope trace_component(component_);
      std::optional<std::int64_t> t_us;
      if (const auto it = ctx.query.find("t_us"); it != ctx.query.end()) {
        t_us = parse_t_us(it->second);
        if (!t_us) return net::Response::from_error(bad("t_us must be an integer in [0, 2^53]"));
      }
      Result<json::Value> body = json::parse(ctx.request->body);
      if (!body.ok()) return net::Response::from_error(body.error());
      if (t_us) advance_to(*t_us);
      Result<json::Value> outcome = handle(body.value());
      if (!outcome.ok()) return net::Response::from_error(outcome.error());
      return net::Response::json(net::Status::ok, json::serialize(outcome.value()));
    });
  };

  const net::Method get = net::Method::get;
  reply(get, "/federation/info", [this] { return json::serialize(info_json()); });
  reply(get, "/federation/headroom", [this] { return json::serialize(headroom_json()); });
  reply(get, "/federation/summary", [this] { return json::serialize(summary_json()); });
  reply(get, "/federation/healthz",
        [this] { return json::serialize(orchestrator().health_json()); });
  reply(get, "/metrics", [this] { return metrics_body(); });
  reply(get, "/federation/metrics", [this] { return federation_metrics_body(); });
  reply(get, "/federation/trace", [this] { return federation_trace_body(); });
  reply(get, "/federation/mobility", [this] { return json::serialize(mobility_json()); });

  router->add(net::Method::post, "/federation/tick", [this](const net::RouteContext& ctx) {
    telemetry::trace::ComponentScope trace_component(component_);
    Result<json::Value> body = json::parse(ctx.request->body);
    if (!body.ok()) return net::Response::from_error(body.error());
    const std::optional<std::int64_t> t_us =
        json::to_integer<std::int64_t>(body.value().find("t_us"));
    if (!t_us) return net::Response::from_error(bad("tick body needs integer t_us"));
    return net::Response::json(net::Status::ok, tick(*t_us));
  });
  post("/federation/slices", [this](const Value& body) { return submit(body); });
  post("/federation/mobility/ingress", [this](const Value& body) { return admit_roamers(body); });
  post("/federation/fault", [this](const Value& body) -> Result<Value> {
    if (Result<void> r = apply_fault(body); !r.ok()) return r.error();
    Object out;
    out.emplace("region", plan_.name);
    out.emplace("applied", true);
    return Value(std::move(out));
  });
  return router;
}

}  // namespace slices::federation
