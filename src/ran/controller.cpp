#include "ran/controller.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "json/value.hpp"

#include "telemetry/trace.hpp"

namespace slices::ran {

static_assert(RanController::kNoUeSlot == DenseIdMap<UeId, int>::kNoSlot);

namespace {

/// Cells per parallel_for range: a cell serves in under 200 ns
/// (BM_EpochServe reads ~24 µs per 128-cell epoch, reduce included), so
/// a range is tens of microseconds of work, more than waking a pool
/// worker costs. A RAN of up to 128 cells serves in one range on the
/// calling thread.
constexpr std::size_t kCellGrain = 128;

/// Modelled X2 interruption of one handover: ~50 ms baseline plus a
/// per-UE jitter hashed from the UE id, so the latency histogram is
/// deterministic yet spread like a real handover latency distribution.
std::uint64_t handover_latency_us(UeId ue) noexcept {
  const std::uint64_t h = (ue.value() * 0x9e3779b97f4a7c15ull) ^ (ue.value() >> 7);
  return 50'000 + h % 30'000;
}

/// "ran.plmn.<id>." — the dot keeps PLMN 1's prefix off PLMN 10.
std::string plmn_prefix(PlmnId plmn) { return "ran.plmn." + std::to_string(plmn.value()) + "."; }

}  // namespace

void RanController::add_cell(Cell cell) {
  assert(find_cell(cell.id()) == nullptr && "duplicate cell id");
  // Already-installed PLMNs must appear on new cells too.
  for (const auto& [plmn, unused] : installed_) {
    const Result<void> r = cell.broadcast_plmn(plmn);
    assert(r.ok());
    (void)r;
  }
  cell_index_.insert_or_assign(cell.id(), static_cast<std::uint32_t>(cells_.size()));
  cells_.push_back(std::move(cell));
  cell_active_.push_back(1);
}

const Cell* RanController::find_cell(CellId id) const noexcept {
  const std::uint32_t* index = cell_index_.find(id);
  return index == nullptr ? nullptr : &cells_[*index];
}

Result<void> RanController::install_plmn(PlmnId plmn) {
  if (installed_.contains(plmn))
    return make_error(Errc::conflict, "PLMN already installed");
  // Validate first so failure leaves no cell half-configured.
  for (const Cell& cell : cells_) {
    if (cell.broadcasts(plmn))
      return make_error(Errc::conflict, "PLMN already broadcast on " + cell.name());
    if (cell.broadcast_count() >= kMaxBroadcastPlmns)
      return make_error(Errc::insufficient_capacity,
                        "broadcast list full on " + cell.name());
  }
  for (Cell& cell : cells_) {
    const Result<void> r = cell.broadcast_plmn(plmn);
    assert(r.ok());
    (void)r;
  }
  installed_.insert(plmn, std::monostate{});
  return {};
}

Result<void> RanController::remove_plmn(PlmnId plmn) {
  if (!installed_.contains(plmn)) return make_error(Errc::not_found, "PLMN not installed");
  if (allocations_.contains(plmn))
    return make_error(Errc::conflict, "PLMN still holds a radio allocation");
  if (attached_ues(plmn) > 0) return make_error(Errc::conflict, "UEs still attached");
  for (Cell& cell : cells_) {
    const Result<void> r = cell.withdraw_plmn(plmn);
    assert(r.ok());
    (void)r;
  }
  attached_by_plmn_.erase(plmn);
  installed_.erase(plmn);
  // The PLMN's instruments go with it, handles first (they point into
  // the registry), so /metrics carries live PLMNs only.
  plmn_handles_.erase(plmn);
  if (registry_ != nullptr) registry_->erase_prefix(plmn_prefix(plmn));
  return {};
}

Result<RanAllocation> RanController::set_allocation(PlmnId plmn, DataRate rate,
                                                    Cqi planning_cqi) {
  if (!installed_.contains(plmn))
    return make_error(Errc::not_found, "PLMN not installed; install before allocating");
  if (rate < DataRate::zero())
    return make_error(Errc::invalid_argument, "negative rate");

  // Plan: most-free-first over cells, each cell contributing up to its
  // free PRBs (counting this PLMN's own current reservation as free).
  std::vector<Cell*> order;
  order.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cell_active_[i] != 0) order.push_back(&cells_[i]);  // plan on live cells only
  }
  std::sort(order.begin(), order.end(), [&](const Cell* a, const Cell* b) {
    const int free_a = a->unreserved_prbs().value + a->reservation_of(plmn).value;
    const int free_b = b->unreserved_prbs().value + b->reservation_of(plmn).value;
    if (free_a != free_b) return free_a > free_b;
    return a->id() < b->id();
  });

  RanAllocation alloc;
  alloc.plmn = plmn;
  alloc.rate = rate;
  DataRate remaining = rate;
  for (Cell* cell : order) {
    if (remaining <= DataRate::zero()) break;
    const Cqi cqi = cell->mean_cqi(plmn, planning_cqi);
    const int free = cell->unreserved_prbs().value + cell->reservation_of(plmn).value;
    const int needed = prbs_needed(remaining, cqi).value;
    const int grant = needed < free ? needed : free;
    if (grant <= 0) continue;
    alloc.per_cell[cell->id()] = PrbCount{grant};
    remaining -= throughput_of(PrbCount{grant}, cqi);
  }

  if (remaining > DataRate::zero()) {
    return make_error(Errc::insufficient_capacity,
                      "RAN cannot guarantee " + std::to_string(rate.as_mbps()) +
                          " Mb/s; short by " + std::to_string(remaining.as_mbps()) +
                          " Mb/s");
  }

  // Apply. set_reservation can only fail on capacity, which the plan
  // already respected, so failures here are programming errors.
  for (Cell& cell : cells_) {
    const auto it = alloc.per_cell.find(cell.id());
    const PrbCount target = it == alloc.per_cell.end() ? PrbCount{0} : it->second;
    const Result<void> r = cell.set_reservation(plmn, target);
    assert(r.ok());
    (void)r;
  }
  return allocations_.insert_or_assign(plmn, std::move(alloc));
}

void RanController::release_allocation(PlmnId plmn) {
  for (Cell& cell : cells_) cell.clear_reservation(plmn);
  allocations_.erase(plmn);
}

const RanAllocation* RanController::find_allocation(PlmnId plmn) const noexcept {
  return allocations_.find(plmn);
}

DataRate RanController::available_capacity(Cqi planning_cqi) const noexcept {
  DataRate sum = DataRate::zero();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cell_active_[i] == 0) continue;
    sum += throughput_of(cells_[i].unreserved_prbs(), planning_cqi);
  }
  return sum;
}

DataRate RanController::total_capacity(Cqi planning_cqi) const noexcept {
  DataRate sum = DataRate::zero();
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cell_active_[i] == 0) continue;
    sum += throughput_of(cells_[i].total_prbs(), planning_cqi);
  }
  return sum;
}

Result<UeId> RanController::attach_ue(PlmnId plmn, Cqi cqi) {
  if (!installed_.contains(plmn))
    return make_error(Errc::not_found, "PLMN not on the air; UE cannot attach");
  if (cells_.empty()) return make_error(Errc::unavailable, "no cells");

  std::uint32_t least = 0;
  for (std::uint32_t i = 1; i < cells_.size(); ++i) {
    if (cells_[i].attached_total() < cells_[least].attached_total()) least = i;
  }
  return attach_at(least, plmn, cqi);
}

Result<UeId> RanController::attach_at(std::uint32_t index, PlmnId plmn, Cqi cqi) {
  const UeId ue = ue_ids_.next();
  const Result<std::uint32_t> row = cells_[index].attach(plmn, cqi);
  if (!row.ok()) return row.error();
  ues_.insert(ue, UeRecord{plmn, index, row.value()});
  if (std::size_t* count = attached_by_plmn_.find(plmn)) {
    ++*count;
  } else {
    attached_by_plmn_.insert(plmn, 1);
  }
  return ue;
}

Result<void> RanController::detach_ue(UeId ue) {
  UeRecord record;
  if (!ues_.erase(ue, &record)) return make_error(Errc::not_found, "unknown UE");
  cells_[record.cell].detach(record.row);
  if (std::size_t* count = attached_by_plmn_.find(record.plmn)) {
    assert(*count > 0);
    --*count;
  }
  return {};
}

Result<UeId> RanController::attach_ue_at(CellId cell, PlmnId plmn, Cqi cqi) {
  if (!installed_.contains(plmn))
    return make_error(Errc::not_found, "PLMN not on the air; UE cannot attach");
  const std::uint32_t* index = cell_index_.find(cell);
  if (index == nullptr) return make_error(Errc::not_found, "unknown cell");
  if (cell_active_[*index] == 0) return make_error(Errc::conflict, "cell is inactive");
  return attach_at(*index, plmn, cqi);
}

std::optional<Cqi> RanController::ue_cqi(UeId ue) const noexcept {
  const UeRecord* record = ues_.find(ue);
  if (record == nullptr) return std::nullopt;
  return cells_[record->cell].cqi_at(record->row);
}

PlmnId RanController::lowest_installed_plmn() const noexcept {
  PlmnId lowest = PlmnId::invalid();
  for (const auto& [plmn, unused] : installed_) {
    if (!lowest.valid() || plmn.value() < lowest.value()) lowest = plmn;
  }
  return lowest;
}

HandoverStats RanController::apply_handovers(std::span<const HandoverRequest> batch,
                                             SimTime now,
                                             std::span<std::uint8_t> outcomes) {
  TRACE_SCOPE("ran.handover.apply");
  HandoverStats stats;
  if (batch.empty()) return stats;
  assert(outcomes.empty() || outcomes.size() >= batch.size());

  const std::size_t n_cells = cells_.size();
  handover_arrivals_.assign(n_cells, 0);
  handover_departures_.assign(n_cells, 0);
  telemetry::Histogram* latency = nullptr;
  if (registry_ != nullptr) {
    if (handover_handles_.attempts == nullptr) {
      handover_handles_.attempts = &registry_->counter("ran.handover.attempts");
      handover_handles_.successes = &registry_->counter("ran.handover.success");
      handover_handles_.drops = &registry_->counter("ran.handover.drops");
      handover_handles_.latency = &registry_->histogram("ran.handover.latency_us");
    }
    latency = handover_handles_.latency;
  }

  for (std::size_t k = 0; k < batch.size(); ++k) {
    const HandoverRequest& req = batch[k];
    bool ok = false;

    // The request addresses the UE's index slot and the target's cells_
    // index, so every check is an array read: a slot whose key is not
    // the request's UE is stale. The record names the source cell and
    // row, and the source cell maps the row's PLMN slot to its broadcast
    // position, so the move below is position- and row-addressed on both
    // cells.
    auto* entry = req.slot < ues_.slot_count() && req.target < n_cells &&
                          cell_active_[req.target] != 0
                      ? &ues_.slot_at(req.slot)
                      : nullptr;
    if (entry != nullptr && entry->key == req.ue && req.ue.valid() &&
        entry->value.cell != req.target) {
      UeRecord& record = entry->value;
      Cell& source = cells_[record.cell];
      Cell& destination = cells_[req.target];
      const std::size_t src_index = source.plmn_index_at(record.row);
      // Cells normally share one broadcast order. A cell added after a
      // PLMN removal, or one that broadcast PLMNs of its own, may not;
      // only then does the target position need a search.
      std::size_t dst_index = src_index;
      if (dst_index >= destination.broadcast_count() ||
          destination.broadcast_at(dst_index) != record.plmn) {
        dst_index = destination.broadcast_index(record.plmn);
      }
      if (dst_index < destination.broadcast_count()) {
        // PRB migration, decided on the pre-handover population: the
        // leaving UE takes its per-UE share of the source reservation
        // along, clamped to what the target has free. Only live Cell
        // reservations move — the planned RanAllocation::per_cell layout
        // stays as installed (and this loop stays allocation-free).
        const std::uint32_t src_row = record.row;
        const int src_reserved = source.reservation_at(src_index).value;
        const auto src_attached = static_cast<int>(source.attached_count_at(src_index));
        const int share = src_reserved / src_attached;
        const int moved = std::min(share, destination.unreserved_prbs().value);
        record.row = destination.attach_at(dst_index, source.cqi_at(src_row));
        source.detach_at(src_index, src_row);
        if (moved > 0) {
          source.add_reservation_at(src_index, -moved);
          destination.add_reservation_at(dst_index, moved);
        }
        ++handover_departures_[record.cell];
        ++handover_arrivals_[req.target];
        record.cell = req.target;
        if (latency != nullptr) latency->record(handover_latency_us(req.ue));
        ok = true;
      }
    }
    stats.successes += ok ? 1 : 0;
    if (!outcomes.empty()) outcomes[k] = ok ? 1 : 0;
  }
  stats.attempts = batch.size();
  stats.drops = stats.attempts - stats.successes;
  handover_totals_ += stats;

  if (registry_ != nullptr) {
    handover_handles_.attempts->increment(stats.attempts);
    handover_handles_.successes->increment(stats.successes);
    handover_handles_.drops->increment(stats.drops);
    if (cell_flow_handles_.size() < n_cells) cell_flow_handles_.resize(n_cells);
    for (std::size_t i = 0; i < n_cells; ++i) {
      if (handover_arrivals_[i] == 0 && handover_departures_[i] == 0) continue;
      CellFlowHandles& h = cell_flow_handles_[i];
      if (!h.arrivals.valid()) {
        const std::string prefix = "ran.cell." + std::to_string(cells_[i].id().value());
        h.arrivals = registry_->handle(prefix + ".ho_in");
        h.departures = registry_->handle(prefix + ".ho_out");
      }
      h.arrivals.observe(now, static_cast<double>(handover_arrivals_[i]));
      h.departures.observe(now, static_cast<double>(handover_departures_[i]));
    }
  }
  return stats;
}

Result<void> RanController::set_cell_active(CellId cell, bool active) {
  const std::uint32_t* index = cell_index_.find(cell);
  if (index == nullptr) return make_error(Errc::not_found, "unknown cell");
  cell_active_[*index] = active ? 1 : 0;
  return {};
}

std::size_t RanController::attached_ues(PlmnId plmn) const noexcept {
  const std::size_t* count = attached_by_plmn_.find(plmn);
  return count == nullptr ? 0 : *count;
}

void RanController::observe_cell_telemetry(std::size_t cell_index, SimTime now,
                                           PrbCount used, bool active) {
  if (registry_ == nullptr) return;
  const Cell& cell = cells_[cell_index];
  CellHandles& h = cell_handles_[cell_index];
  if (!active) {
    if (!h.prb_used.valid()) {
      const std::string prefix = "ran.cell." + std::to_string(cell.id().value());
      h.prb_used = registry_->handle(prefix + ".prb_used");
      h.utilization = registry_->handle(prefix + ".utilization");
    }
    h.prb_used.observe(now, 0.0);
    h.utilization.observe(now, 0.0);
    return;
  }
  if (!h.prb_used.valid() || !h.prb_reserved.valid()) {
    const std::string prefix = "ran.cell." + std::to_string(cell.id().value());
    if (!h.prb_used.valid()) {
      h.prb_used = registry_->handle(prefix + ".prb_used");
      h.utilization = registry_->handle(prefix + ".utilization");
    }
    if (!h.prb_reserved.valid()) h.prb_reserved = registry_->handle(prefix + ".prb_reserved");
  }
  h.prb_used.observe(now, static_cast<double>(used.value));
  h.prb_reserved.observe(now, static_cast<double>(cell.reserved_prbs().value));
  h.utilization.observe(now, static_cast<double>(used.value) /
                                 static_cast<double>(cell.total_prbs().value));
}

// The SoA epoch kernel. Shape: prepare flat per-demand indices ->
// per-cell tasks write grants into arena slabs -> sequential slot-order
// reduction. All scratch is arena storage rewound between epochs;
// per-cell working sets are fixed-size stack arrays — the steady-state
// loop performs no heap allocation at any pool size.
void RanController::serve_epoch(std::span<const std::pair<PlmnId, DataRate>> demands,
                                SimTime now, std::vector<RanServeReport>& out) {
  TRACE_SCOPE("ran.serve_epoch");
  const std::size_t n_demands = demands.size();
  const std::size_t n_cells = cells_.size();
  const std::size_t n_grants = n_cells * kMaxBroadcastPlmns;

  // Reserve the arena's worst case up front: alloc_array must never
  // grow the block after the first span is handed out (growth would
  // dangle the earlier spans).
  epoch_arena_.reset();
  epoch_arena_.reserve(n_demands * (sizeof(RanServeReport) + 2 * sizeof(std::uint64_t) +
                                    sizeof(std::uint32_t)) +
                       n_grants * (sizeof(PlmnGrant) + sizeof(std::int32_t)) +
                       n_cells * (sizeof(std::uint32_t) + sizeof(int) + 1) + 256);
  const std::span<RanServeReport> totals = epoch_arena_.alloc_array<RanServeReport>(n_demands);
  const std::span<std::uint32_t> order = epoch_arena_.alloc_array<std::uint32_t>(n_demands);
  const std::span<std::uint64_t> everywhere = epoch_arena_.alloc_array<std::uint64_t>(n_demands);
  const std::span<std::uint64_t> broadcasting =
      epoch_arena_.alloc_array<std::uint64_t>(n_demands);
  const std::span<PlmnGrant> grants = epoch_arena_.alloc_array<PlmnGrant>(n_grants);
  const std::span<std::int32_t> grant_demand = epoch_arena_.alloc_array<std::int32_t>(n_grants);
  const std::span<std::uint32_t> grant_count = epoch_arena_.alloc_array<std::uint32_t>(n_cells);
  const std::span<int> used = epoch_arena_.alloc_array<int>(n_cells);
  const std::span<std::uint8_t> active = epoch_arena_.alloc_array<std::uint8_t>(n_cells);

  // Phase 0 — per-demand indices shared read-only by every cell task.
  {
    TRACE_SCOPE("ran.epoch.prepare");
    for (std::size_t d = 0; d < n_demands; ++d) {
      const auto& [plmn, demand] = demands[d];
      totals[d] = RanServeReport{plmn, demand, DataRate::zero(), DataRate::zero()};
      order[d] = static_cast<std::uint32_t>(d);
      const std::size_t* count = attached_by_plmn_.find(plmn);
      everywhere[d] = count == nullptr ? 0 : *count;
      std::uint64_t b = 0;
      for (const Cell& c : cells_) {
        if (c.broadcasts(plmn)) ++b;
      }
      broadcasting[d] = b;
    }
    // Reports (and their telemetry) are published in ascending PLMN order.
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return demands[a].first < demands[b].first;
    });
  }

  // The share of demand `d` that falls on broadcast position `idx` of
  // `cell`: weighted by attached UEs, or an equal split over the
  // broadcasting cells while the PLMN has none. A live cell serves this
  // share and a dead one leaves it unserved.
  const auto share_of = [&](const Cell& cell, std::size_t idx, std::size_t d) {
    if (everywhere[d] > 0) {
      return static_cast<double>(cell.attached_count_at(idx)) /
             static_cast<double>(everywhere[d]);
    }
    return broadcasting[d] > 0 ? 1.0 / static_cast<double>(broadcasting[d]) : 0.0;
  };

  // Phase 1 — per-cell tasks: every cell reads itself plus the shared
  // indices and writes only its own grant-slab row, so execution order
  // cannot affect the result.
  const auto serve_cell = [&](std::size_t i) {
    const Cell& cell = cells_[i];
    grant_count[i] = 0;
    used[i] = 0;
    active[i] = cell_active_[i];
    if (active[i] == 0) return;

    const std::size_t b = cell.broadcast_count();
    std::array<DataRate, kMaxBroadcastPlmns> dem{};
    std::int32_t* gd = grant_demand.data() + i * kMaxBroadcastPlmns;
    for (std::size_t j = 0; j < b; ++j) gd[j] = -1;
    for (std::size_t d = 0; d < n_demands; ++d) {
      const std::size_t idx = cell.broadcast_index(demands[d].first);
      if (idx == b) continue;
      dem[idx] += demands[d].second * share_of(cell, idx, d);
      if (gd[idx] < 0) gd[idx] = static_cast<std::int32_t>(d);
    }

    PlmnGrant* g = grants.data() + i * kMaxBroadcastPlmns;
    const std::size_t count =
        cell.serve_epoch(std::span<const DataRate>(dem.data(), b), Cqi{10},
                         std::span<PlmnGrant>(g, kMaxBroadcastPlmns));
    grant_count[i] = static_cast<std::uint32_t>(count);
    int prbs = 0;
    for (std::size_t j = 0; j < count; ++j) prbs += g[j].granted.value;
    used[i] = prbs;
  };
  {
    TRACE_SCOPE("ran.epoch.cells");
    parallel_for(pool_, n_cells, kCellGrain, [&serve_cell](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) serve_cell(i);
    });
  }

  // Phase 2 — sequential reduction in cell order on the calling thread;
  // this fixed order is what keeps reports and telemetry bit-for-bit
  // identical at any pool size.
  {
    TRACE_SCOPE("ran.epoch.reduce");
    if (registry_ != nullptr && cell_handles_.size() < n_cells) {
      cell_handles_.resize(n_cells);
    }
    for (std::size_t i = 0; i < n_cells; ++i) {
      if (active[i] == 0) {
        // Cell outage: its share of every PLMN's demand goes unserved.
        const Cell& cell = cells_[i];
        const std::size_t b = cell.broadcast_count();
        for (std::size_t d = 0; d < n_demands; ++d) {
          const std::size_t idx = cell.broadcast_index(demands[d].first);
          if (idx == b) continue;
          totals[d].unserved += demands[d].second * share_of(cell, idx, d);
        }
        observe_cell_telemetry(i, now, PrbCount{0}, /*active=*/false);
        continue;
      }
      const PlmnGrant* g = grants.data() + i * kMaxBroadcastPlmns;
      const std::int32_t* gd = grant_demand.data() + i * kMaxBroadcastPlmns;
      for (std::size_t j = 0; j < grant_count[i]; ++j) {
        if (gd[j] < 0) continue;  // broadcast PLMN with zero offered demand
        RanServeReport& total = totals[static_cast<std::size_t>(gd[j])];
        total.served += g[j].served;
        total.unserved += g[j].unserved;
      }
      observe_cell_telemetry(i, now, PrbCount{used[i]}, /*active=*/true);
    }
  }

  out.clear();
  out.reserve(n_demands);
  for (std::size_t k = 0; k < n_demands; ++k) {
    const RanServeReport& report = totals[order[k]];
    if (registry_ != nullptr) publish_plmn_telemetry(report, now);
    out.push_back(report);
  }
}

void RanController::publish_plmn_telemetry(const RanServeReport& report, SimTime now) {
  PlmnHandles* handles = plmn_handles_.find(report.plmn);
  if (handles == nullptr) {
    const std::string prefix = plmn_prefix(report.plmn);
    handles = &plmn_handles_.insert_or_assign(
        report.plmn, PlmnHandles{registry_->handle(prefix + "demand_mbps"),
                                 registry_->handle(prefix + "served_mbps"),
                                 registry_->handle(prefix + "unserved_mbps")});
  }
  handles->demand.observe(now, report.demand.as_mbps());
  handles->served.observe(now, report.served.as_mbps());
  handles->unserved.observe(now, report.unserved.as_mbps());
}

std::shared_ptr<net::Router> RanController::make_router() {
  auto router = std::make_shared<net::Router>();

  router->add(net::Method::get, "/capacity", [this](const net::RouteContext&) {
    json::Array cells;
    for (const Cell& cell : cells_) {
      json::Object entry;
      entry.emplace("id", static_cast<double>(cell.id().value()));
      entry.emplace("name", cell.name());
      entry.emplace("total_prb", cell.total_prbs().value);
      entry.emplace("reserved_prb", cell.reserved_prbs().value);
      entry.emplace("free_prb", cell.unreserved_prbs().value);
      cells.push_back(std::move(entry));
    }
    json::Object body;
    body.emplace("cells", std::move(cells));
    body.emplace("available_mbps", available_capacity().as_mbps());
    body.emplace("total_mbps", total_capacity().as_mbps());
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::post, "/plmns", [this](const net::RouteContext& ctx) {
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const Result<double> plmn = doc.value().get_number("plmn");
    if (!plmn.ok()) return net::Response::from_error(plmn.error());
    const Result<void> r = install_plmn(PlmnId{static_cast<std::uint64_t>(plmn.value())});
    if (!r.ok()) return net::Response::from_error(r.error());
    return net::Response::json(net::Status::created, "{}");
  });

  router->add(net::Method::del, "/plmns/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<void> r = remove_plmn(PlmnId{id.value()});
    if (!r.ok()) return net::Response::from_error(r.error());
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::put, "/allocations/{plmn}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("plmn");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const Result<double> rate = doc.value().get_number("rate_mbps");
    if (!rate.ok()) return net::Response::from_error(rate.error());
    const Result<RanAllocation> r =
        set_allocation(PlmnId{id.value()}, DataRate::mbps(rate.value()));
    if (!r.ok()) return net::Response::from_error(r.error());
    json::Object body;
    body.emplace("plmn", static_cast<double>(id.value()));
    body.emplace("rate_mbps", r.value().rate.as_mbps());
    body.emplace("total_prb", r.value().total_prbs().value);
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::del, "/allocations/{plmn}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("plmn");
    if (!id.ok()) return net::Response::from_error(id.error());
    release_allocation(PlmnId{id.value()});
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::post, "/ues", [this](const net::RouteContext& ctx) {
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const Result<double> plmn = doc.value().get_number("plmn");
    if (!plmn.ok()) return net::Response::from_error(plmn.error());
    int cqi = 10;
    if (const json::Value* c = doc.value().find("cqi"); c != nullptr && c->is_number()) {
      cqi = static_cast<int>(c->as_number());
      if (cqi < 1 || cqi > 15)
        return net::Response::from_error(make_error(Errc::invalid_argument, "cqi out of range"));
    }
    const Result<UeId> ue =
        attach_ue(PlmnId{static_cast<std::uint64_t>(plmn.value())}, Cqi{cqi});
    if (!ue.ok()) return net::Response::from_error(ue.error());
    json::Object body;
    body.emplace("ue", static_cast<double>(ue.value().value()));
    return net::Response::json(net::Status::created,
                               json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::del, "/ues/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<void> r = detach_ue(UeId{id.value()});
    if (!r.ok()) return net::Response::from_error(r.error());
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::get, "/metrics", [this](const net::RouteContext&) {
    if (registry_ == nullptr)
      return net::Response::json(net::Status::ok, "{}");
    registry_->metrics_body(metrics_buffer_, "ran.");
    return net::Response::json(net::Status::ok, metrics_buffer_);
  });

  return router;
}

}  // namespace slices::ran
