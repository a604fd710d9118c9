#include "transport/controller.hpp"

#include <cassert>
#include <string>

#include "json/value.hpp"

#include "telemetry/trace.hpp"

namespace slices::transport {

namespace {

/// Paths per parallel_for range: a path serves in tens of nanoseconds,
/// so ranges amortize the claim over a cache line's worth of reports.
constexpr std::size_t kPathGrain = 64;

/// "transport.path.<id>." — the dot keeps path 1's prefix off path 10.
std::string path_prefix(PathId path) {
  return "transport.path." + std::to_string(path.value()) + ".";
}

}  // namespace

TransportController::TransportController(Topology topology, Rng rng,
                                         telemetry::MonitorRegistry* registry)
    : topology_(std::move(topology)), fading_(topology_, rng), registry_(registry) {
  // The topology is append-only and owned here, so the per-link columns
  // are sized once for its lifetime.
  reserved_by_slot_.assign(topology_.link_count(), DataRate::zero());
  link_down_.assign(topology_.link_count(), 0);
}

DataRate TransportController::reserved_on(LinkId link) const noexcept {
  const std::uint32_t slot = topology_.link_slot(link);
  return slot == Topology::kNoSlot ? DataRate::zero() : reserved_by_slot_[slot];
}

DataRate TransportController::residual(const Link& link) const noexcept {
  if (!link_up(link.id)) return DataRate::zero();
  return clamp_non_negative(link.nominal_capacity - reserved_on(link.id));
}

Result<void> TransportController::set_link_up(LinkId link, bool up) {
  const std::uint32_t slot = topology_.link_slot(link);
  if (slot == Topology::kNoSlot) return make_error(Errc::not_found, "unknown link");
  link_down_[slot] = up ? 0 : 1;
  return {};
}

DataRate TransportController::current_capacity(const Link& link) const noexcept {
  if (!link_up(link.id)) return DataRate::zero();
  return fading_.effective_capacity(link);
}

Result<PathId> TransportController::allocate_path(SliceId slice, NodeId src, NodeId dst,
                                                  DataRate rate, Duration max_delay,
                                                  PathObjective objective) {
  return install_path(PathId::invalid(), slice, src, dst, rate, max_delay, objective);
}

Result<void> TransportController::restore_path(PathId id, SliceId slice, NodeId src,
                                               NodeId dst, DataRate rate, Duration max_delay,
                                               PathObjective objective) {
  if (!id.valid()) return make_error(Errc::invalid_argument, "invalid path id");
  if (paths_.contains(id)) {
    return make_error(Errc::conflict,
                      "path " + std::to_string(id.value()) + " already installed");
  }
  const Result<PathId> installed = install_path(id, slice, src, dst, rate, max_delay, objective);
  if (!installed.ok()) return installed.error();
  path_ids_.advance_past(id);
  return {};
}

Result<PathId> TransportController::install_path(PathId id, SliceId slice, NodeId src,
                                                 NodeId dst, DataRate rate, Duration max_delay,
                                                 PathObjective objective) {
  if (rate <= DataRate::zero()) return make_error(Errc::invalid_argument, "rate must be > 0");

  const ResidualFn residual_fn = [this](const Link& link) { return residual(link); };
  const std::optional<Route> route =
      find_route(topology_, src, dst, rate, residual_fn, objective);
  if (!route) {
    return make_error(Errc::insufficient_capacity,
                      "no route with " + std::to_string(rate.as_mbps()) + " Mb/s residual");
  }
  if (route->total_delay > max_delay) {
    return make_error(Errc::sla_unsatisfiable,
                      "best route delay " + std::to_string(route->total_delay.as_millis()) +
                          " ms exceeds bound " + std::to_string(max_delay.as_millis()) + " ms");
  }

  PathReservation reservation;
  reservation.id = id.valid() ? id : path_ids_.next();
  reservation.slice = slice;
  reservation.src = src;
  reservation.dst = dst;
  reservation.reserved = rate;
  reservation.max_delay = max_delay;
  reservation.route = *route;

  reserve_bandwidth(reservation.route, rate);
  install_rules(reservation);
  const PathId installed = reservation.id;
  const PathReservation* stored = paths_.insert(installed, std::move(reservation));
  assert(stored != nullptr);
  const std::uint32_t slot = paths_.slot_of(installed);
  install_route_columns(slot, stored->route);
  install_serve_columns(slot, *stored);
  return installed;
}

void TransportController::install_rules(PathReservation& reservation) {
  for (const LinkId link_id : reservation.route.links) {
    const Link* link = topology_.find_link(link_id);
    // One rule per traversed node. A slice can hold several paths (e.g.
    // RAN->edge and edge->core legs) whose node sets overlap; reuse the
    // existing rule in that case.
    if (flows_.lookup(link->from, reservation.slice) == nullptr) {
      const Result<FlowRuleId> r = flows_.install(link->from, reservation.slice, link_id);
      assert(r.ok());
      (void)r;
    }
  }
}

void TransportController::reserve_bandwidth(const Route& route, DataRate rate) {
  for (const LinkId link : route.links) {
    reserved_by_slot_[topology_.link_slot(link)] += rate;
  }
}

void TransportController::release_bandwidth(const Route& route, DataRate rate) {
  for (const LinkId link : route.links) {
    DataRate& reserved = reserved_by_slot_[topology_.link_slot(link)];
    reserved = clamp_non_negative(reserved - rate);
  }
}

void TransportController::install_route_columns(std::uint32_t path_slot, const Route& route) {
  if (path_slot >= route_offset_.size()) {
    route_offset_.resize(path_slot + 1, 0);
    route_len_.resize(path_slot + 1, 0);
    route_delay_.resize(path_slot + 1, Duration::zero());
  }
  route_offset_[path_slot] = static_cast<std::uint32_t>(route_links_.size());
  route_len_[path_slot] = static_cast<std::uint32_t>(route.links.size());
  Duration delay = Duration::zero();
  for (const LinkId link_id : route.links) {
    // Every route comes from CSPF over this topology, which never
    // removes a link.
    const std::uint32_t slot = topology_.link_slot(link_id);
    assert(slot != Topology::kNoSlot);
    route_links_.push_back(slot);
    delay += topology_.links()[slot].delay;
  }
  route_delay_[path_slot] = delay;
  route_live_words_ += route.links.size();
}

void TransportController::clear_route_columns(std::uint32_t path_slot) {
  route_live_words_ -= route_len_[path_slot];
  route_len_[path_slot] = 0;
  route_delay_[path_slot] = Duration::zero();
  // Repack once dead words outnumber live ones (amortized O(1); cold —
  // only releases and reroutes abandon spans).
  if (route_links_.size() >= 64 && route_links_.size() - route_live_words_ > route_live_words_) {
    compact_route_arena();
  }
}

void TransportController::install_serve_columns(std::uint32_t path_slot,
                                                const PathReservation& reservation) {
  if (path_slot >= path_reserved_.size()) {
    path_reserved_.resize(path_slot + 1, DataRate::zero());
    path_sla_.resize(path_slot + 1, Duration::zero());
    path_slice_.resize(path_slot + 1, SliceId{});
  }
  path_reserved_[path_slot] = reservation.reserved;
  path_sla_[path_slot] = reservation.max_delay;
  path_slice_[path_slot] = reservation.slice;
  const std::uint64_t v = reservation.id.value();
  if (v < kMaxFlatPathId) {
    if (v >= path_slot_by_id_.size()) {
      path_slot_by_id_.resize(v + 1, DenseIdMap<PathId, PathReservation>::kNoSlot);
    }
    path_slot_by_id_[v] = path_slot;
  }
}

void TransportController::forget_path_slot(PathId id) noexcept {
  const std::uint64_t v = id.value();
  if (v < path_slot_by_id_.size()) {
    path_slot_by_id_[v] = DenseIdMap<PathId, PathReservation>::kNoSlot;
  }
}

void TransportController::compact_route_arena() {
  std::vector<std::uint32_t> packed;
  packed.reserve(route_live_words_);
  for (std::uint32_t slot = 0; slot < paths_.slot_count(); ++slot) {
    if (!(paths_.slot_at(slot).key.valid())) continue;
    const std::uint32_t off = route_offset_[slot];
    const std::uint32_t len = route_len_[slot];
    route_offset_[slot] = static_cast<std::uint32_t>(packed.size());
    packed.insert(packed.end(), route_links_.begin() + off, route_links_.begin() + off + len);
  }
  route_links_ = std::move(packed);
}

Result<void> TransportController::resize_path(PathId path, DataRate new_rate) {
  PathReservation* found = paths_.find(path);
  if (found == nullptr) return make_error(Errc::not_found, "unknown path");
  PathReservation& reservation = *found;
  if (new_rate < DataRate::zero())
    return make_error(Errc::invalid_argument, "negative rate");

  const DataRate delta = new_rate - reservation.reserved;
  if (delta > DataRate::zero()) {
    for (const LinkId link_id : reservation.route.links) {
      if (residual(*topology_.find_link(link_id)) < delta) {
        return make_error(Errc::insufficient_capacity,
                          "link " + std::to_string(link_id.value()) +
                              " cannot absorb the increase");
      }
    }
  }
  if (delta > DataRate::zero()) {
    reserve_bandwidth(reservation.route, delta);
  } else {
    release_bandwidth(reservation.route, clamp_non_negative(reservation.reserved - new_rate));
  }
  reservation.reserved = new_rate;
  path_reserved_[paths_.slot_of(path)] = new_rate;
  return {};
}

Result<void> TransportController::release_path(PathId path) {
  const std::uint32_t path_slot = paths_.slot_of(path);
  if (path_slot == DenseIdMap<PathId, PathReservation>::kNoSlot) {
    return make_error(Errc::not_found, "unknown path");
  }
  PathReservation& stored = paths_.slot_at(path_slot).value;
  release_bandwidth(stored.route, stored.reserved);
  // Remove this path's flow rules unless another path of the same slice
  // still uses the node.
  const SliceId slice = stored.slice;
  const PathReservation removed = std::move(stored);
  clear_route_columns(path_slot);
  forget_path_slot(path);
  paths_.erase(path);
  for (const LinkId link_id : removed.route.links) {
    const Link* link = topology_.find_link(link_id);
    bool still_used = false;
    for (const auto& [other_id, other] : paths_) {
      if (other.slice != slice) continue;
      for (const LinkId other_link : other.route.links) {
        if (topology_.find_link(other_link)->from == link->from) {
          still_used = true;
          break;
        }
      }
      if (still_used) break;
    }
    if (!still_used) {
      if (const FlowRule* rule = flows_.lookup(link->from, slice)) {
        const Result<void> r = flows_.remove(rule->id);
        assert(r.ok());
        (void)r;
      }
    }
  }
  // The path's instruments go with it, handles first (they point into
  // the registry), so /metrics carries live paths only.
  path_handles_.erase(path);
  if (registry_ != nullptr) registry_->erase_prefix(path_prefix(path));
  return {};
}

const PathReservation* TransportController::find_path(PathId path) const noexcept {
  return paths_.find(path);
}

void TransportController::try_reroute(PathReservation& reservation) {
  // Residual as seen when this path's own reservation is lifted:
  // effective (faded) capacity minus what *other* paths reserve. The
  // path's own reservation must not be added back on top of the faded
  // capacity — a link in deep fade cannot carry it, which is exactly
  // why we are rerouting.
  const ResidualFn residual_fn = [this, &reservation](const Link& link) {
    DataRate others = reserved_on(link.id);
    for (const LinkId own : reservation.route.links) {
      if (own == link.id) {
        others = clamp_non_negative(others - reservation.reserved);
        break;
      }
    }
    return clamp_non_negative(current_capacity(link) - others);
  };
  const std::optional<Route> fresh = find_route(topology_, reservation.src, reservation.dst,
                                                reservation.reserved, residual_fn,
                                                PathObjective::min_delay);
  if (!fresh || fresh->total_delay > reservation.max_delay) return;
  // Only move when the route actually changes.
  if (fresh->links == reservation.route.links) return;

  release_bandwidth(reservation.route, reservation.reserved);
  flows_.remove_slice(reservation.slice);
  reservation.route = *fresh;
  const std::uint32_t path_slot = paths_.slot_of(reservation.id);
  assert((path_slot != DenseIdMap<PathId, PathReservation>::kNoSlot));
  clear_route_columns(path_slot);
  install_route_columns(path_slot, reservation.route);
  reserve_bandwidth(reservation.route, reservation.reserved);
  install_rules(reservation);
  // Reinstall rules of the slice's *other* paths dropped by remove_slice.
  for (auto& [id, other] : paths_) {
    if (other.slice == reservation.slice && other.id != reservation.id) {
      install_rules(other);
    }
  }
  ++reroutes_;
}

void TransportController::publish_path_telemetry(const PathServeReport& report, SimTime now) {
  PathHandles* handles = path_handles_.find(report.path);
  if (handles == nullptr) {
    const std::string prefix = path_prefix(report.path);
    handles = path_handles_.insert(
        report.path, PathHandles{registry_->handle(prefix + "served_mbps"),
                                 registry_->handle(prefix + "delay_ms")});
  }
  handles->served.observe(now, report.served.as_mbps());
  handles->delay.observe(now, report.experienced_delay.as_millis());
}

void TransportController::publish_totals_telemetry(SimTime now) {
  double reserved_total = 0.0;
  double capacity_total = 0.0;
  for (const Link& link : topology_.links()) {
    reserved_total += reserved_on(link.id).as_mbps();
    capacity_total += current_capacity(link).as_mbps();
  }
  if (!reserved_total_.valid()) {
    reserved_total_ = registry_->handle("transport.reserved_mbps");
    capacity_total_ = registry_->handle("transport.capacity_mbps");
  }
  reserved_total_.observe(now, reserved_total);
  capacity_total_.observe(now, capacity_total);
}

void TransportController::serve_epoch(std::span<const std::pair<PathId, DataRate>> demands,
                                      SimTime now, std::vector<PathServeReport>& out) {
  TRACE_SCOPE("transport.serve_epoch");
  fading_.step();

  const std::size_t n_links = topology_.link_count();
  const std::vector<Link>& links = topology_.links();
  const std::size_t n = demands.size();

  // All scratch is carved from the epoch arena up front (reserve first:
  // arena growth mid-epoch would dangle earlier spans), so steady-state
  // epochs never allocate. Reports are written straight into `out`
  // (resized, caller-retained capacity) rather than staged and copied.
  epoch_arena_.reset();
  epoch_arena_.reserve(n_links * sizeof(double) +
                       n * (sizeof(PathId) + sizeof(std::uint8_t)) + 128);
  std::span<double> scale = epoch_arena_.alloc_array<double>(n_links);
  std::span<PathId> repair = epoch_arena_.alloc_array<PathId>(n);
  std::span<std::uint8_t> valid = epoch_arena_.alloc_array<std::uint8_t>(n);
  out.clear();
  out.resize(n);

  // Per-link scale column by slot: 1.0 unless fading pushed effective
  // capacity below the total reservation, in which case every
  // traversing path is scaled by cap/reserved.
  for (std::size_t slot = 0; slot < n_links; ++slot) {
    double s = 1.0;
    const DataRate reserved = reserved_by_slot_[slot];
    if (reserved > DataRate::zero()) {
      const DataRate capacity =
          link_down_[slot] != 0
              ? DataRate::zero()
              : links[slot].nominal_capacity * fading_.factor_at_slot(slot);
      if (!(capacity >= reserved)) s = capacity / reserved;
    }
    scale[slot] = s;
  }

  // Phase 1 — per-path serving, shardable across the pool: each task
  // reads the serve columns, the route CSR and the scale column and
  // writes only its own report slot, so execution order cannot affect
  // the result.
  const auto serve_path = [&](std::size_t i) {
    const auto& [path_id, demand] = demands[i];
    const TransportController& self = *this;
    const std::uint32_t path_slot = self.path_slot_fast(path_id);
    if (path_slot == DenseIdMap<PathId, PathReservation>::kNoSlot) return;

    double factor = 1.0;
    const std::uint32_t off = self.route_offset_[path_slot];
    const std::uint32_t len = self.route_len_[path_slot];
    for (std::uint32_t k = 0; k < len; ++k) {
      const double s = scale[self.route_links_[off + k]];
      if (s < factor) factor = s;
    }
    const Duration delay = self.route_delay_[path_slot];
    const DataRate reserved = self.path_reserved_[path_slot];

    PathServeReport& report = out[i];
    report.path = path_id;
    report.slice = self.path_slice_[path_slot];
    report.demand = demand;
    // The reservation caps the slice; fading scales what the links can
    // actually carry of that reservation.
    const DataRate cap = reserved * factor;
    report.served = min(demand, cap);
    report.degraded = factor < 0.999;
    // Congestion adds queueing delay as the path saturates. The guard
    // is deliberately conservative (0.89 of capacity, with margin for
    // the epsilon and rounding) so the division — the one expensive op
    // per path — only runs when the penalty could actually be nonzero;
    // when it does run, the arithmetic is exactly the reference's.
    double queue_penalty = 0.0;
    if (!(report.served <= cap * 0.89)) {
      const double utilization = reserved <= DataRate::zero()
                                     ? 0.0
                                     : report.served / (cap + DataRate::mbps(1e-9));
      if (utilization > 0.9) queue_penalty = (utilization - 0.9) * 10.0;
    }
    report.experienced_delay = delay * (1.0 + queue_penalty);
    report.delay_violated = report.experienced_delay > self.path_sla_[path_slot];
    valid[i] = 1;
  };
  parallel_for(pool_, n, kPathGrain, [&serve_path](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) serve_path(i);
  });

  // Phase 2 — sequential reduction in demand order: compact away
  // unknown-path slots (rare), publish telemetry, note degraded paths
  // for repair.
  std::size_t n_repair = 0;
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] == 0) continue;
    if (w != i) out[w] = out[i];
    const PathServeReport& report = out[w];
    ++w;
    if (report.degraded) repair[n_repair++] = report.path;
    if (registry_ != nullptr) publish_path_telemetry(report, now);
  }
  out.resize(w);

  for (std::size_t i = 0; i < n_repair; ++i) {
    if (PathReservation* reservation = paths_.find(repair[i])) try_reroute(*reservation);
  }

  if (registry_ != nullptr) publish_totals_telemetry(now);
}

std::shared_ptr<net::Router> TransportController::make_router() {
  auto router = std::make_shared<net::Router>();

  router->add(net::Method::get, "/topology", [this](const net::RouteContext&) {
    json::Array nodes;
    for (const Node& n : topology_.nodes()) {
      json::Object entry;
      entry.emplace("id", static_cast<double>(n.id.value()));
      entry.emplace("name", n.name);
      entry.emplace("kind", std::string(to_string(n.kind)));
      nodes.push_back(std::move(entry));
    }
    json::Array links;
    for (const Link& l : topology_.links()) {
      json::Object entry;
      entry.emplace("id", static_cast<double>(l.id.value()));
      entry.emplace("from", static_cast<double>(l.from.value()));
      entry.emplace("to", static_cast<double>(l.to.value()));
      entry.emplace("technology", std::string(to_string(l.technology)));
      entry.emplace("capacity_mbps", l.nominal_capacity.as_mbps());
      entry.emplace("effective_mbps", current_capacity(l).as_mbps());
      entry.emplace("reserved_mbps", reserved_on(l.id).as_mbps());
      entry.emplace("delay_ms", l.delay.as_millis());
      links.push_back(std::move(entry));
    }
    json::Object body;
    body.emplace("nodes", std::move(nodes));
    body.emplace("links", std::move(links));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::post, "/paths", [this](const net::RouteContext& ctx) {
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const json::Value& v = doc.value();
    const Result<double> slice = v.get_number("slice");
    const Result<double> src = v.get_number("src");
    const Result<double> dst = v.get_number("dst");
    const Result<double> rate = v.get_number("rate_mbps");
    const Result<double> delay = v.get_number("max_delay_ms");
    for (const auto* field : {&slice, &src, &dst, &rate, &delay}) {
      if (!field->ok()) return net::Response::from_error(field->error());
    }
    const Result<PathId> path = allocate_path(
        SliceId{static_cast<std::uint64_t>(slice.value())},
        NodeId{static_cast<std::uint64_t>(src.value())},
        NodeId{static_cast<std::uint64_t>(dst.value())}, DataRate::mbps(rate.value()),
        Duration::millis(delay.value()));
    if (!path.ok()) return net::Response::from_error(path.error());
    const PathReservation* reservation = find_path(path.value());
    json::Object body;
    body.emplace("path", static_cast<double>(path.value().value()));
    body.emplace("hops", static_cast<double>(reservation->route.hops()));
    body.emplace("delay_ms", reservation->route.total_delay.as_millis());
    return net::Response::json(net::Status::created,
                               json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::put, "/paths/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const Result<double> rate = doc.value().get_number("rate_mbps");
    if (!rate.ok()) return net::Response::from_error(rate.error());
    const Result<void> r = resize_path(PathId{id.value()}, DataRate::mbps(rate.value()));
    if (!r.ok()) return net::Response::from_error(r.error());
    return net::Response::json(net::Status::ok, "{}");
  });

  router->add(net::Method::del, "/paths/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<void> r = release_path(PathId{id.value()});
    if (!r.ok()) return net::Response::from_error(r.error());
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::get, "/metrics", [this](const net::RouteContext&) {
    if (registry_ == nullptr) return net::Response::json(net::Status::ok, "{}");
    registry_->metrics_body(metrics_buffer_, "transport.");
    return net::Response::json(net::Status::ok, metrics_buffer_);
  });

  return router;
}

}  // namespace slices::transport
