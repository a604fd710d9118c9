#include "federation/broker.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "telemetry/trace.hpp"
#include "transport/cspf.hpp"

namespace slices::federation {
namespace {

// Backbone leases outlive their slice by this margin so a route is
// never torn down under an expiring-but-still-billed slice.
constexpr std::int64_t kLeaseMarginUs = 3'600'000'000;

double number_or(const json::Value& body, std::string_view key, double fallback) {
  const json::Value* v = body.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool bool_or(const json::Value& body, std::string_view key, bool fallback) {
  const json::Value* v = body.find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

std::string string_or(const json::Value& body, std::string_view key, std::string fallback) {
  const json::Value* v = body.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

/// A whole number of µs in [0, 2^53] (a tick reply's next_event_us);
/// nullopt for anything else, a fraction included.
std::optional<std::int64_t> whole_us(const json::Value* v) {
  if (v == nullptr || !v->is_number() || v->as_number() != std::trunc(v->as_number())) {
    return std::nullopt;
  }
  return json::to_integer<std::int64_t>(v, 0, json::kMaxExactInteger);
}

/// `path` with the broker's time as its `t_us` query parameter: the
/// edge advances to it before it acts.
std::string at_time(const char* path, std::int64_t t_us) {
  return std::string(path) + "?t_us=" + std::to_string(t_us);
}

/// Chrome "thread_name" metadata event, naming one lane of the merged
/// federated trace.
void append_thread_name(std::string& out, int tid, const std::string& name, bool& first) {
  if (!first) out.push_back(',');
  first = false;
  out += "{\"args\":{\"name\":";
  json::append_escaped(out, name);
  out += "},\"cat\":\"__metadata\",\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
  json::append_number(out, static_cast<double>(tid));
  out.push_back('}');
}

/// One complete ("X") Chrome event from a pulled span document
/// ({"name","sim_us","trace","span","parent","depth"} — ids as decimal
/// strings). Malformed spans are skipped.
void append_span_event(std::string& out, const json::Value& span, int tid, bool& first) {
  const json::Value* name = span.find("name");
  const json::Value* sim_us = span.find("sim_us");
  const json::Value* depth = span.find("depth");
  const json::Value* trace = span.find("trace");
  const json::Value* span_id = span.find("span");
  const json::Value* parent = span.find("parent");
  if (name == nullptr || !name->is_string() || sim_us == nullptr || !sim_us->is_number() ||
      depth == nullptr || !depth->is_number() || trace == nullptr || !trace->is_string() ||
      span_id == nullptr || !span_id->is_string() || parent == nullptr ||
      !parent->is_string()) {
    return;
  }
  if (!first) out.push_back(',');
  first = false;
  out += "{\"name\":";
  json::append_escaped(out, name->as_string());
  out += ",\"cat\":\"slices\",\"ph\":\"X\",\"pid\":0,\"tid\":";
  json::append_number(out, static_cast<double>(tid));
  out += ",\"ts\":";
  json::append_number(out, sim_us->as_number());
  out += ",\"dur\":0,\"args\":{\"depth\":";
  json::append_number(out, depth->as_number());
  out += ",\"parent\":";
  json::append_escaped(out, parent->as_string());
  out += ",\"span\":";
  json::append_escaped(out, span_id->as_string());
  out += ",\"trace\":";
  json::append_escaped(out, trace->as_string());
  out += "}}";
}

json::Value decision_to_json(const PlacementDecision& d) {
  json::Object out;
  out.emplace("seq", static_cast<double>(d.seq));
  out.emplace("t_us", static_cast<double>(d.t_us));
  out.emplace("tenant", d.tenant);
  out.emplace("throughput_mbps", d.throughput_mbps);
  out.emplace("home", d.home_region);
  out.emplace("placed", d.placed_region);
  out.emplace("outcome", d.outcome);
  out.emplace("score", d.score);
  out.emplace("cross_region", !d.placed_region.empty() && d.placed_region != d.home_region);
  return json::Value(std::move(out));
}

}  // namespace

Broker::Broker(net::RestBus* bus, const MetroFabric& fabric)
    : bus_(bus), backbone_(fabric.backbone) {
  for (const RegionPlan& plan : fabric.regions) {
    regions_.push_back(plan.name);
    region_price_.emplace(plan.name, plan.price_factor);
  }
  std::sort(regions_.begin(), regions_.end());
  // Region names are "r<i>" so sorted order == plan order for < 10
  // regions; the index map keeps larger cities honest.
  for (const RegionPlan& plan : fabric.regions) {
    auto it = std::find(regions_.begin(), regions_.end(), plan.name);
    region_index_.emplace(plan.name, static_cast<std::size_t>(it - regions_.begin()));
  }
  border_nodes_.resize(regions_.size());
  for (std::size_t i = 0; i < fabric.regions.size(); ++i) {
    border_nodes_[region_index_.at(fabric.regions[i].name)] = fabric.border_nodes[i];
  }
  links_.resize(regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) links_[i].service = service_name(regions_[i]);
}

void Broker::tick_all(std::int64_t t_us) {
  // Release due backbone leases before the epoch work at t.
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->release_us <= t_us) {
      for (LinkId link : it->links) backbone_reserved_[link] -= it->rate;
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  // A region with a fresh headroom and nothing due by t is skipped: its
  // state at t is its state at its last tick, so the cached headroom is
  // what a tick would return, and its next mutating call advances it.
  std::vector<std::size_t> due;
  std::vector<std::string> services;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const RegionLink& link = links_[i];
    if (!link.headroom.is_null() && link.next_event_us.has_value() && *link.next_event_us > t_us) {
      continue;
    }
    due.push_back(i);
    services.push_back(link.service);
  }
  // One round for every due region. Each request carries t as its trace
  // context's sim clock, so an in-process edge's spans timestamp as a
  // remote edge process's do, whichever edge ran before it.
  telemetry::trace::set_sim_now(t_us);
  if (!due.empty()) {
    json::Object body;
    body.emplace("t_us", static_cast<double>(t_us));
    std::vector<Result<json::Value>> replies = bus_->call_json_each(
        services, net::Method::post, "/federation/tick", json::Value(std::move(body)));
    for (std::size_t k = 0; k < due.size(); ++k) {
      RegionLink& link = links_[due[k]];
      // A dead edge is the edge process's problem: its headroom stays
      // stale (readers re-poll it), it stays due, and admission-level
      // calls surface errors.
      mark_stale(link);
      if (!replies[k].ok() || !replies[k].value().is_object()) continue;
      json::Object& fields = replies[k].value().as_object();
      if (auto it = fields.find("headroom"); it != fields.end()) {
        link.headroom = std::move(it->second);
      }
      if (auto it = fields.find("next_event_us"); it != fields.end()) {
        link.next_event_us = whole_us(&it->second);
      }
      if (auto it = fields.find("roamers"); it != fields.end() && it->second.is_object()) {
        link.roamers.push_back(std::move(it->second));
      }
    }
  }
  telemetry::trace::set_sim_now(t_us);
}

const json::Value* Broker::headroom(std::size_t region) {
  RegionLink& link = links_[region];
  if (link.headroom.is_null()) {
    Result<json::Value> doc = bus_->get_json(link.service, "/federation/headroom");
    if (!doc.ok()) return nullptr;
    link.headroom = std::move(doc).value();
  }
  return &link.headroom;
}

const json::Value* Broker::cached_headroom(const std::string& region) const {
  const auto it = region_index_.find(region);
  if (it == region_index_.end() || links_[it->second].headroom.is_null()) return nullptr;
  return &links_[it->second].headroom;
}

Result<json::Value> Broker::inject_fault(const std::string& region, const json::Value& body,
                                         std::int64_t t_us) {
  const auto it = region_index_.find(region);
  if (it == region_index_.end()) {
    return make_error(Errc::not_found, "no region '" + region + "'");
  }
  RegionLink& link = links_[it->second];
  mark_stale(link);
  return bus_->call_json(link.service, net::Method::post, at_time("/federation/fault", t_us),
                         body);
}

std::vector<Broker::Candidate> Broker::collect_candidates(double throughput_mbps,
                                                          bool needs_edge,
                                                          bool* any_suspended) {
  std::vector<Candidate> out;
  *any_suspended = false;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const json::Value* doc = headroom(i);
    if (doc == nullptr) continue;  // unreachable edge == not a candidate
    const json::Value& h = *doc;
    if (bool_or(h, "suspended", false)) {
      *any_suspended = true;
      continue;
    }
    const bool core_up = bool_or(h, "core_dc_up", true);
    const double edge_up = number_or(h, "edge_dcs_up", 0.0);
    const bool placeable = needs_edge ? edge_up > 0.0 : (core_up || edge_up > 0.0);
    if (!placeable) continue;
    const double headroom_mbps = number_or(h, "headroom_mbps", 0.0);
    if (headroom_mbps < throughput_mbps) continue;
    Candidate c;
    c.index = i;
    c.headroom_mbps = headroom_mbps;
    c.price = region_price_.at(regions_[i]);
    c.score = headroom_mbps / c.price;
    out.push_back(c);
  }
  return out;
}

bool Broker::reserve_backbone(const std::string& home, const std::string& placed,
                              DataRate demand, std::int64_t release_us) {
  const NodeId src = border_nodes_[region_index_.at(home)];
  const NodeId dst = border_nodes_[region_index_.at(placed)];
  auto residual = [this](const transport::Link& link) {
    auto it = backbone_reserved_.find(link.id);
    const DataRate reserved = it == backbone_reserved_.end() ? DataRate::zero() : it->second;
    return clamp_non_negative(link.nominal_capacity - reserved);
  };
  std::optional<transport::Route> route =
      transport::find_route(backbone_, src, dst, demand, residual);
  if (!route.has_value()) return false;
  for (LinkId link : route->links) backbone_reserved_[link] += demand;
  leases_.push_back(BackboneLease{release_us, std::move(route->links), demand});
  ++counters_.backbone_reservations;
  double reserved_peak = 0.0;
  for (const auto& [link, rate] : backbone_reserved_)
    reserved_peak = std::max(reserved_peak, rate.as_mbps());
  counters_.backbone_reserved_mbps_peak =
      std::max(counters_.backbone_reserved_mbps_peak, reserved_peak);
  return true;
}

PlacementDecision Broker::submit(const json::Value& body, const std::string& home_region,
                                 std::int64_t now_us) {
  ++counters_.submitted;
  PlacementDecision decision;
  decision.seq = next_seq_++;
  decision.t_us = now_us;
  decision.tenant = string_or(body, "tenant", "");
  decision.throughput_mbps = number_or(body, "throughput_mbps", 0.0);
  decision.home_region = home_region;

  const bool needs_edge = bool_or(body, "needs_edge", false);
  const double duration_hours = number_or(body, "duration_hours", 0.0);

  // The edge speaks the fig2 request grammar; "region" is broker-level.
  json::Value edge_body = body;
  if (edge_body.is_object()) edge_body.as_object().erase("region");

  bool any_suspended = false;
  std::vector<Candidate> candidates =
      collect_candidates(decision.throughput_mbps, needs_edge, &any_suspended);

  // Best score wins; ties go to the lexicographically smaller region so
  // the choice is independent of poll order.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.score > b.score; });

  bool any_edge_rejected = false;
  for (const Candidate& c : candidates) {
    const std::string& region = regions_[c.index];
    const bool cross_region = region != home_region;
    if (cross_region) {
      const std::int64_t release_us =
          now_us + static_cast<std::int64_t>(duration_hours * 3'600'000'000.0) + kLeaseMarginUs;
      if (!reserve_backbone(home_region, region, DataRate::mbps(decision.throughput_mbps),
                            release_us)) {
        continue;  // no backbone capacity towards this region
      }
    }
    RegionLink& link = links_[c.index];
    mark_stale(link);  // an admission attempt mutates the region
    Result<json::Value> placed = bus_->call_json(
        link.service, net::Method::post, at_time("/federation/slices", now_us), edge_body);
    const bool accepted =
        placed.ok() && string_or(placed.value(), "state", "rejected") != "rejected";
    if (accepted) {
      decision.placed_region = region;
      decision.outcome = cross_region ? "remote" : "local";
      decision.score = c.score;
      decision.request = static_cast<std::uint64_t>(number_or(placed.value(), "request", 0.0));
      if (cross_region)
        ++counters_.placed_remote;
      else
        ++counters_.placed_local;
      std::lock_guard<std::mutex> lock(mutex_);
      placements_.push_back(decision);
      return decision;
    }
    // The edge itself said no (its admission control saw risk — or a
    // hard cap like the broadcast-PLMN budget — that the headroom
    // forecast did not). Roll back the lease we just took and shop the
    // next-best region; the request is edge_rejected only when every
    // candidate refuses it.
    if (cross_region && !leases_.empty()) {
      BackboneLease lease = std::move(leases_.back());
      leases_.pop_back();
      for (LinkId link : lease.links) backbone_reserved_[link] -= lease.rate;
      --counters_.backbone_reservations;
    }
    if (!any_edge_rejected) decision.score = c.score;  // best refusing region
    any_edge_rejected = true;
  }

  if (any_edge_rejected) {
    decision.placed_region.clear();
    decision.outcome = "edge_rejected";
    ++counters_.edge_rejected;
    std::lock_guard<std::mutex> lock(mutex_);
    placements_.push_back(decision);
    return decision;
  }

  if (candidates.empty() && any_suspended) {
    // Nothing can take it now, but a region is mid-restart: hold the
    // request in the deferred lane and retry at the next epoch tick.
    decision.outcome = "deferred";
    ++counters_.deferred_total;
    deferred_.push_back(DeferredRequest{body, home_region, decision.seq});
  } else {
    decision.outcome = "no_region";
    ++counters_.rejected_no_region;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  placements_.push_back(decision);
  return decision;
}

std::size_t Broker::retry_deferred(std::int64_t now_us) {
  if (deferred_.empty()) return 0;
  std::vector<DeferredRequest> pending = std::move(deferred_);
  deferred_.clear();
  std::size_t placed = 0;
  for (DeferredRequest& req : pending) {
    PlacementDecision d = submit(req.body, req.home_region, now_us);
    // submit() counts the retry as a fresh submission; undo the double
    // count so `submitted` means distinct requests.
    --counters_.submitted;
    if (d.outcome == "local" || d.outcome == "remote") ++placed;
  }
  return placed;
}

std::size_t Broker::route_roamers(std::int64_t now_us) {
  std::size_t admitted_total = 0;
  for (std::size_t src = 0; src < regions_.size(); ++src) {
    const std::vector<json::Value> handed_over = std::exchange(links_[src].roamers, {});
    for (const json::Value& roamers : handed_over) {
      // One batch per border: region i's east border faces region i+1;
      // west of r0 wraps to SIZE_MAX, off the metro line.
      const std::pair<const char*, std::size_t> borders[] = {{"east", src + 1},
                                                             {"west", src - 1}};
      for (const auto& [side, dst_index] : borders) {
        const json::Value* batch = roamers.find(side);
        const json::Value* plmn = batch == nullptr ? nullptr : batch->find("plmn");
        if (plmn == nullptr || !plmn->is_array() || plmn->as_array().empty()) continue;
        const std::uint64_t count = plmn->as_array().size();
        counters_.roam_attempts += count;
        if (dst_index >= regions_.size()) {  // walked off the end of the metro line
          counters_.roam_dropped += count;
          continue;
        }
        // Signalling lease on the border leg: 0.1 Mb/s per roamer for an
        // hour, best effort — a saturated backbone degrades the roamers'
        // traffic, it must not strand them between regions.
        (void)reserve_backbone(regions_[src], regions_[dst_index],
                               DataRate::mbps(0.1 * static_cast<double>(count)),
                               now_us + 3'600'000'000);
        RegionLink& dst = links_[dst_index];
        mark_stale(dst);  // attaching roamers mutates the region
        Result<json::Value> outcome =
            bus_->call_json(dst.service, net::Method::post,
                            at_time("/federation/mobility/ingress", now_us), *batch);
        if (!outcome.ok()) {
          counters_.roam_dropped += count;
          continue;
        }
        const std::uint64_t admitted =
            static_cast<std::uint64_t>(number_or(outcome.value(), "admitted", 0.0));
        counters_.roam_admitted += admitted;
        counters_.roam_dropped +=
            static_cast<std::uint64_t>(number_or(outcome.value(), "dropped", 0.0));
        admitted_total += admitted;
      }
    }
  }
  return admitted_total;
}

json::Value Broker::regions_json() {
  json::Array list;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const std::string& region = regions_[i];
    const json::Value* doc = headroom(i);
    json::Object entry;
    entry.emplace("region", region);
    entry.emplace("price_factor", region_price_.at(region));
    if (doc != nullptr && doc->is_object()) {
      for (const auto& [key, value] : doc->as_object()) {
        if (key != "region") entry.insert_or_assign(key, value);
      }
      entry.emplace("reachable", true);
    } else {
      entry.emplace("reachable", false);
    }
    list.push_back(json::Value(std::move(entry)));
  }
  json::Object out;
  out.emplace("regions", json::Value(std::move(list)));
  out.emplace("deferred_pending", static_cast<double>(deferred_.size()));
  json::Object counters;
  counters.emplace("submitted", static_cast<double>(counters_.submitted));
  counters.emplace("placed_local", static_cast<double>(counters_.placed_local));
  counters.emplace("placed_remote", static_cast<double>(counters_.placed_remote));
  counters.emplace("edge_rejected", static_cast<double>(counters_.edge_rejected));
  counters.emplace("rejected_no_region", static_cast<double>(counters_.rejected_no_region));
  counters.emplace("deferred_total", static_cast<double>(counters_.deferred_total));
  counters.emplace("backbone_reservations",
                   static_cast<double>(counters_.backbone_reservations));
  counters.emplace("backbone_reserved_mbps_peak", counters_.backbone_reserved_mbps_peak);
  counters.emplace("roam_attempts", static_cast<double>(counters_.roam_attempts));
  counters.emplace("roam_admitted", static_cast<double>(counters_.roam_admitted));
  counters.emplace("roam_dropped", static_cast<double>(counters_.roam_dropped));
  out.emplace("counters", json::Value(std::move(counters)));
  return json::Value(std::move(out));
}

const json::Value& Broker::refresh_snapshot(std::int64_t t_us) {
  json::Value snapshot = regions_json();
  snapshot.as_object().emplace("t_us", static_cast<double>(t_us));

  // Broker-side SLO instruments, sampled on sim time each tick. All
  // inputs are sim-derived (deferred lane, lease table, the current
  // headroom documents), so the registry contents are identical
  // across in-process / socket / multi-process edges.
  const SimTime t = SimTime::from_micros(t_us);
  registry_.observe("federation.deferred_depth", t, static_cast<double>(deferred_.size()));
  double backbone_mbps = 0.0;
  for (const auto& [link, rate] : backbone_reserved_) backbone_mbps += rate.as_mbps();
  registry_.observe("federation.backbone_reserved_mbps", t, backbone_mbps);
  registry_.observe("federation.backbone_leases", t, static_cast<double>(leases_.size()));
  registry_.gauge("federation.submitted").set(static_cast<double>(counters_.submitted));
  registry_.gauge("federation.placed_local").set(static_cast<double>(counters_.placed_local));
  registry_.gauge("federation.placed_remote").set(static_cast<double>(counters_.placed_remote));
  registry_.gauge("federation.edge_rejected").set(static_cast<double>(counters_.edge_rejected));
  registry_.gauge("federation.rejected_no_region")
      .set(static_cast<double>(counters_.rejected_no_region));
  registry_.gauge("federation.deferred_total")
      .set(static_cast<double>(counters_.deferred_total));
  registry_.gauge("federation.roam_attempts")
      .set(static_cast<double>(counters_.roam_attempts));
  registry_.gauge("federation.roam_admitted")
      .set(static_cast<double>(counters_.roam_admitted));
  registry_.gauge("federation.roam_dropped")
      .set(static_cast<double>(counters_.roam_dropped));
  if (const json::Value* list = snapshot.find("regions"); list != nullptr && list->is_array()) {
    for (const json::Value& entry : list->as_array()) {
      const json::Value* region = entry.find("region");
      if (region == nullptr || !region->is_string()) continue;
      const std::string prefix = "federation." + region->as_string();
      for (const char* key : {"headroom_mbps", "reserved_mbps", "contracted_mbps", "active"}) {
        const json::Value* v = entry.find(key);
        if (v != nullptr && v->is_number()) {
          registry_.observe(prefix + "." + key, t, v->as_number());
        }
      }
    }
  }

  if (facade_enabled_) {
    // The facade bodies need bus pulls, which only the run loop may do;
    // rebuild them here so HttpServer threads serve plain strings.
    std::string metrics = json::serialize(federation_metrics_json(t_us));
    std::string trace;
    export_federated_trace(trace);
    std::lock_guard<std::mutex> lock(mutex_);
    regions_snapshot_ = std::move(snapshot);
    metrics_snapshot_ = std::move(metrics);
    trace_snapshot_ = std::move(trace);
    return regions_snapshot_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  regions_snapshot_ = std::move(snapshot);
  return regions_snapshot_;
}

json::Value Broker::federation_metrics_json(std::int64_t t_us) {
  json::Object regions;
  telemetry::MonitorRegistry merged;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    const std::string& region = regions_[i];
    Result<json::Value> doc = bus_->get_json(links_[i].service, "/federation/metrics");
    const json::Value* metrics =
        doc.ok() ? doc.value().find("metrics") : nullptr;
    if (metrics == nullptr || !metrics->is_object()) {
      regions.emplace(region, json::Value(nullptr));  // unreachable edge
      continue;
    }
    merged.merge_from(*metrics);
    regions.emplace(region, *metrics);
  }
  json::Object out;
  out.emplace("broker", registry_.snapshot());
  out.emplace("merged", merged.snapshot());
  out.emplace("regions", json::Value(std::move(regions)));
  out.emplace("t_us", static_cast<double>(t_us));
  return json::Value(std::move(out));
}

void Broker::export_federated_trace(std::string& out) {
  // Pull every region's span list *before* reading the broker lane: the
  // pulls' own bus.call spans then appear in the broker lane on every
  // transport, keeping in-process and multi-process exports identical.
  std::vector<json::Value> region_spans(regions_.size(), json::Value(nullptr));
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    Result<json::Value> doc = bus_->get_json(links_[i].service, "/federation/trace");
    if (!doc.ok()) continue;
    if (const json::Value* spans = doc.value().find("spans");
        spans != nullptr && spans->is_array()) {
      region_spans[i] = *spans;
    }
  }
  std::string own;
  telemetry::trace::Tracer::instance().export_component_spans_json(0, own);
  json::Value own_spans{nullptr};
  if (Result<json::Value> parsed = json::parse(own); parsed.ok()) {
    own_spans = std::move(parsed).value();
  }

  out.clear();
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  append_thread_name(out, 0, "broker", first);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    append_thread_name(out, static_cast<int>(1 + i), links_[i].service, first);
  }
  if (own_spans.is_array()) {
    for (const json::Value& span : own_spans.as_array()) {
      append_span_event(out, span, 0, first);
    }
  }
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!region_spans[i].is_array()) continue;
    for (const json::Value& span : region_spans[i].as_array()) {
      append_span_event(out, span, static_cast<int>(1 + i), first);
    }
  }
  out += "]}";
}

json::Value Broker::placements_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Array list;
  for (const PlacementDecision& d : placements_) list.push_back(decision_to_json(d));
  json::Object out;
  out.emplace("placements", json::Value(std::move(list)));
  return json::Value(std::move(out));
}

std::shared_ptr<net::Router> Broker::make_router() {
  auto router = std::make_shared<net::Router>();
  auto ok_json = [](const json::Value& doc) {
    return net::Response::json(net::Status::ok, json::serialize(doc));
  };
  router->add(net::Method::get, "/federation/regions",
              [this, ok_json](const net::RouteContext&) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (regions_snapshot_.is_null()) {
                  return net::Response::json(net::Status::ok, "{\"regions\":[]}");
                }
                return net::Response::json(net::Status::ok,
                                           json::serialize(regions_snapshot_));
              });
  router->add(net::Method::get, "/federation/placements",
              [this, ok_json](const net::RouteContext&) {
                return ok_json(placements_json());
              });
  router->add(net::Method::get, "/federation/metrics",
              [this](const net::RouteContext&) {
                std::lock_guard<std::mutex> lock(mutex_);
                return net::Response::json(
                    net::Status::ok,
                    metrics_snapshot_.empty() ? "{\"regions\":{}}" : metrics_snapshot_);
              });
  router->add(net::Method::get, "/federation/trace",
              [this](const net::RouteContext&) {
                std::lock_guard<std::mutex> lock(mutex_);
                return net::Response::json(
                    net::Status::ok,
                    trace_snapshot_.empty()
                        ? "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
                        : trace_snapshot_);
              });
  router->add(net::Method::get, "/federation/healthz",
              [this, ok_json](const net::RouteContext&) {
                json::Object doc;
                doc.emplace("regions", static_cast<double>(regions_.size()));
                {
                  std::lock_guard<std::mutex> lock(mutex_);
                  doc.emplace("placements", static_cast<double>(placements_.size()));
                }
                doc.emplace("status", "ok");
                return ok_json(json::Value(std::move(doc)));
              });
  return router;
}

}  // namespace slices::federation
