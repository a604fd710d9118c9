#include "mobility/field.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "telemetry/trace.hpp"

namespace slices::mobility {

namespace {

// Hash salts separating the independent draw families.
constexpr std::uint64_t kSpawnSalt = 0x8f14e45fceea167aull;
constexpr std::uint64_t kStormSalt = 0xd1b54a32d192ed03ull;
constexpr std::uint64_t kRoamerSalt = 0x2545f4914f6cdd1dull;

/// Commuter waves are vehicular: participants sprint relative to their
/// pedestrian speed so a wave actually reaches the region border within
/// a scenario's monitoring epochs.
constexpr double kCommuterSprint = 5.0;
/// Stadium ingress participants stop once this close to the venue cell.
constexpr double kArrivalRadiusM = 5.0;

/// UE rows per parallel_for range of the move pass: a row moves in tens
/// of nanoseconds, so a range is tens of microseconds of work.
constexpr std::size_t kRowGrain = 1024;

/// move_row verdict beyond any cell index: the UE left the region
/// across a border that has a neighbour (the row's x says which).
constexpr std::uint32_t kExit = ~std::uint32_t{0};

[[nodiscard]] double clamped(double v, double lo, double hi) noexcept {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

Field::Field(FieldConfig config, ran::RanController* ran, ThreadPool* pool)
    : config_(std::move(config)),
      ran_(ran),
      pool_(pool),
      grid_(ran->cell_count(), config_.cell_spacing_m) {
  assert(ran_ != nullptr);
}

void Field::add_storm(StormKind kind, SimTime start, SimTime end, double fraction,
                      std::size_t cell_index) {
  Storm storm;
  storm.kind = kind;
  storm.start_us = start.as_micros();
  storm.end_us = end.as_micros();
  storm.fraction = clamped(fraction, 0.0, 1.0);
  storm.cell = cell_index >= grid_.cells() ? grid_.cells() - 1 : cell_index;
  storm.salt = mix64(config_.seed ^ kStormSalt ^
                     (0x9e3779b97f4a7c15ull * (storms_.size() + 1)));
  storms_.push_back(storm);
  active_storms_.reserve(storms_.size());  // step() stays allocation-free
}

std::size_t Field::allocate_row() {
  std::size_t row;
  if (!free_.empty()) {
    row = free_.back();
    free_.pop_back();
  } else {
    row = ue_.size();
    ue_.emplace_back();
    plmn_.emplace_back();
    key_.emplace_back();
    draw_.emplace_back();
    x_.emplace_back();
    y_.emplace_back();
    tx_.emplace_back();
    ty_.emplace_back();
    speed_.emplace_back();
    cell_.emplace_back();
    slot_.emplace_back();
    live_.emplace_back();
  }
  live_[row] = 1;
  draw_[row] = 0;
  ++live_rows_;
  return row;
}

void Field::free_row(std::size_t row) {
  assert(live_[row] == 1);
  live_[row] = 0;
  ue_[row] = UeId::invalid();
  --live_rows_;
  free_.push_back(static_cast<std::uint32_t>(row));
}

void Field::spawn_population(PlmnId plmn, double speed) {
  const int span = config_.cqi_max >= config_.cqi_min
                       ? config_.cqi_max - config_.cqi_min + 1
                       : 1;
  const std::uint64_t base = mix64(config_.seed ^ kSpawnSalt ^
                                   (0x9e3779b97f4a7c15ull * plmn.value()));
  for (std::size_t j = 0; j < config_.ues_per_slice; ++j) {
    const std::size_t row = allocate_row();
    key_[row] = mix64(base + j);
    const double px = unit_interval(draw(row)) * grid_.width();
    const double py = unit_interval(draw(row)) * grid_.height();
    int cqi = config_.cqi_min + static_cast<int>(draw(row) % static_cast<std::uint64_t>(span));
    cqi = cqi < 1 ? 1 : (cqi > 15 ? 15 : cqi);
    const std::size_t cell = grid_.nearest_cell(px, py);
    const Result<UeId> ue = ran_->attach_ue_at(ran_->cell_at(cell).id(), plmn, ran::Cqi{cqi});
    if (!ue.ok()) {
      free_row(row);
      ++spawn_failures_;
      continue;
    }
    ue_[row] = ue.value();
    slot_[row] = ran_->ue_slot(ue.value());
    plmn_[row] = plmn;
    x_[row] = px;
    y_[row] = py;
    tx_[row] = px;
    ty_[row] = py;
    speed_[row] = speed > 0.0 ? speed : config_.default_speed_mps;
    cell_[row] = static_cast<std::uint32_t>(cell);
  }
}

void Field::sync_population(std::span<const PlmnId> live, std::span<const double> speeds) {
  // Drain populations whose slice is gone, then complete the PLMN
  // removal that slice teardown deferred while our UEs were attached.
  for (std::size_t p = 0; p < populated_.size();) {
    const PlmnId plmn = populated_[p];
    const bool still_live =
        std::find(live.begin(), live.end(), plmn) != live.end();
    if (still_live) {
      ++p;
      continue;
    }
    for (std::size_t i = 0; i < ue_.size(); ++i) {
      if (live_[i] == 0 || !(plmn_[i] == plmn)) continue;
      // not_found when something else detached the UE first.
      (void)ran_->detach_ue(ue_[i]);
      free_row(i);
    }
    if (ran_->plmn_installed(plmn)) (void)ran_->remove_plmn(plmn);
    populated_.erase(populated_.begin() + static_cast<std::ptrdiff_t>(p));
  }

  for (std::size_t i = 0; i < live.size(); ++i) {
    const PlmnId plmn = live[i];
    if (!plmn.valid() || !ran_->plmn_installed(plmn)) continue;
    if (std::find(populated_.begin(), populated_.end(), plmn) != populated_.end())
      continue;
    spawn_population(plmn, i < speeds.size() ? speeds[i] : 0.0);
    populated_.push_back(plmn);
  }
}

std::uint32_t Field::move_row(std::size_t row, double dt_s) {
  double px = x_[row];
  double py = y_[row];
  const double step = speed_[row] * dt_s;
  const double x_max = grid_.width() - 1e-9;
  const double y_max = grid_.height() - 1e-9;
  const bool east_ok = config_.region_index + 1 < config_.region_count;
  const bool west_ok = config_.region_index > 0;

  // First active storm this UE participates in wins; participation is a
  // pure hash of (UE key, storm salt), so it is stable for the storm's
  // whole window and costs no draw-counter state.
  const Storm* storm = nullptr;
  for (const Storm* s : active_storms_) {
    if (unit_interval(mix64(key_[row] ^ s->salt)) >= s->fraction) continue;
    storm = s;
    break;
  }

  if (storm != nullptr) {
    switch (storm->kind) {
      case StormKind::stadium_ingress: {
        const double cx = grid_.cell_x(storm->cell);
        const double cy = grid_.cell_y(storm->cell);
        const double dx = cx - px;
        const double dy = cy - py;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist > kArrivalRadiusM && dist > 0.0) {
          const double hop = step < dist ? step : dist;
          px += dx / dist * hop;
          py += dy / dist * hop;
        }
        break;
      }
      case StormKind::stadium_egress: {
        const double cx = grid_.cell_x(storm->cell);
        const double cy = grid_.cell_y(storm->cell);
        double dx = px - cx;
        double dy = py - cy;
        double dist = std::sqrt(dx * dx + dy * dy);
        if (dist < 1e-6) {
          // Sitting on the venue: flee along a hashed bearing.
          const double angle =
              unit_interval(mix64(key_[row] ^ storm->salt ^ 0x77ull)) * 6.283185307179586;
          dx = std::cos(angle);
          dy = std::sin(angle);
          dist = 1.0;
        }
        px += dx / dist * step;
        py += dy / dist * step;
        break;
      }
      case StormKind::commuter_wave: {
        const double dir = east_ok ? 1.0 : (west_ok ? -1.0 : 1.0);
        px += dir * step * kCommuterSprint;
        break;
      }
    }
    // Only commuter participants may carry x past a border that has a
    // neighbour; everyone stays inside the rectangle otherwise.
    const bool exiting = storm->kind == StormKind::commuter_wave;
    if (!(exiting && west_ok) && px < 0.0) px = 0.0;
    if (!(exiting && east_ok) && px > x_max) px = x_max;
    py = clamped(py, 0.0, y_max);
  } else {
    // Random-waypoint walk: head to the waypoint, redraw on arrival.
    const double dx = tx_[row] - px;
    const double dy = ty_[row] - py;
    const double dist = std::sqrt(dx * dx + dy * dy);
    if (dist <= step) {
      px = tx_[row];
      py = ty_[row];
      tx_[row] = unit_interval(draw(row)) * grid_.width();
      ty_[row] = unit_interval(draw(row)) * grid_.height();
    } else {
      px += dx / dist * step;
      py += dy / dist * step;
    }
  }

  x_[row] = px;
  y_[row] = py;
  if ((px >= grid_.width() && east_ok) || (px < 0.0 && west_ok)) return kExit;
  return static_cast<std::uint32_t>(grid_.nearest_cell(px, py));
}

void Field::step(SimTime now) {
  const std::int64_t now_us = now.as_micros();
  const double dt_s =
      last_step_us_ < 0 ? 0.0 : static_cast<double>(now_us - last_step_us_) / 1e6;
  last_step_us_ = now_us;

  // The storms active at `now`, resolved once for the whole step.
  active_storms_.clear();
  for (const Storm& storm : storms_) {
    if (now_us >= storm.start_us && now_us < storm.end_us) active_storms_.push_back(&storm);
  }

  const std::size_t rows = ue_.size();
  if (pending_requests_.size() < rows) {
    pending_requests_.resize(rows);
    pending_rows_.resize(rows);
    exit_rows_.resize(rows);
  }
  // A serial run is one range, so only its first count is written.
  range_counts_.assign((rows + kRowGrain - 1) / kRowGrain, RangeCounts{});

  // Fused move-and-gather pass. Each range writes only row-local state
  // and its own buffer slices, so it shards bit-identically. A row's
  // request is written unconditionally and kept (the count advances)
  // only when its cell changed; a dead row "stays" in its cell.
  parallel_for(pool_, rows, kRowGrain, [this, dt_s](std::size_t begin, std::size_t end) {
    ran::HandoverRequest* requests = pending_requests_.data() + begin;
    std::uint32_t* request_rows = pending_rows_.data() + begin;
    std::uint32_t* exits = exit_rows_.data() + begin;
    std::uint32_t n = 0;
    std::uint32_t n_exits = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t next = live_[i] != 0 ? move_row(i, dt_s) : cell_[i];
      if (next == kExit) {
        exits[n_exits++] = static_cast<std::uint32_t>(i);
        continue;
      }
      requests[n] = ran::HandoverRequest{ue_[i], slot_[i], next};
      request_rows[n] = static_cast<std::uint32_t>(i);
      n += next != cell_[i] ? 1 : 0;
    }
    range_counts_[begin / kRowGrain] = RangeCounts{n, n_exits};
  });

  // Join in range order: slide each range's requests down to the end of
  // the batch so far, then detach the exits in row order. Cell-boundary
  // crossings are addressed by the UE's index slot and the cell index;
  // apply_handovers drops a stale slot.
  std::size_t count = 0;
  for (std::size_t r = 0; r < range_counts_.size(); ++r) {
    const std::size_t begin = r * kRowGrain;
    const std::size_t n = range_counts_[r].requests;
    if (begin != count && n > 0) {
      std::copy_n(pending_requests_.begin() + static_cast<std::ptrdiff_t>(begin), n,
                  pending_requests_.begin() + static_cast<std::ptrdiff_t>(count));
      std::copy_n(pending_rows_.begin() + static_cast<std::ptrdiff_t>(begin), n,
                  pending_rows_.begin() + static_cast<std::ptrdiff_t>(count));
    }
    count += n;
  }
  pending_count_ = count;
  for (std::size_t r = 0; r < range_counts_.size(); ++r) {
    const std::uint32_t* exits = exit_rows_.data() + r * kRowGrain;
    for (std::uint32_t e = 0; e < range_counts_[r].exits; ++e) exit_row(exits[e]);
  }
}

void Field::exit_row(std::size_t row) {
  // By UE id: something else (an operator's DELETE /ues/{id}) may have
  // detached the UE already.
  RoamingExit exit;
  exit.plmn = plmn_[row].value();
  const std::optional<ran::Cqi> cqi = ran_->ue_cqi(ue_[row]);
  exit.cqi = cqi.has_value() ? cqi->index() : 10;
  exit.y_mm = static_cast<std::int64_t>(std::llround(y_[row] * 1000.0));
  exit.side = x_[row] < 0.0 ? -1 : 1;  // west exits sit below x = 0
  (void)ran_->detach_ue(ue_[row]);
  exits_.push_back(exit);
  ++exits_total_;
  free_row(row);
}

ran::HandoverStats Field::apply(SimTime now) {
  if (pending_count_ == 0) return {};
  if (outcome_scratch_.size() < pending_count_) outcome_scratch_.resize(pending_count_);
  const std::span<std::uint8_t> outcomes(outcome_scratch_.data(), pending_count_);
  const ran::HandoverStats stats = ran_->apply_handovers(pending_handovers(), now, outcomes);
  for (std::size_t k = 0; k < pending_count_; ++k) {
    if (outcomes[k] != 0) cell_[pending_rows_[k]] = pending_requests_[k].target;
  }
  pending_count_ = 0;
  return stats;
}

void Field::drain_exits(std::vector<RoamingExit>& out) {
  out.insert(out.end(), exits_.begin(), exits_.end());
  exits_.clear();
}

bool Field::admit_roamer(const RoamingExit& exit) {
  // National-roaming fallback: the home slice lives in the source
  // region, so attach under the lowest PLMN on the air here.
  const PlmnId plmn = ran_->lowest_installed_plmn();
  if (!plmn.valid()) {
    ++roamers_dropped_;
    return false;
  }
  // Exited east (+1) => enters through our west border, and vice versa.
  const double px = exit.side > 0 ? 0.25 * grid_.spacing()
                                  : grid_.width() - 0.25 * grid_.spacing();
  const double py =
      clamped(static_cast<double>(exit.y_mm) / 1000.0, 0.0, grid_.height() - 1e-9);
  const int cqi = exit.cqi < 1 ? 1 : (exit.cqi > 15 ? 15 : exit.cqi);
  const std::size_t cell = grid_.nearest_cell(px, py);
  const Result<UeId> ue = ran_->attach_ue_at(ran_->cell_at(cell).id(), plmn, ran::Cqi{cqi});
  if (!ue.ok()) {
    ++roamers_dropped_;
    return false;
  }
  const std::size_t row = allocate_row();
  key_[row] = mix64(config_.seed ^ kRoamerSalt ^
                    (0x9e3779b97f4a7c15ull * (roamers_admitted_ + roamers_dropped_ + 1)));
  ue_[row] = ue.value();
  slot_[row] = ran_->ue_slot(ue.value());
  plmn_[row] = plmn;
  x_[row] = px;
  y_[row] = py;
  tx_[row] = px;
  ty_[row] = py;
  speed_[row] = config_.default_speed_mps;
  cell_[row] = static_cast<std::uint32_t>(cell);
  ++roamers_admitted_;
  return true;
}

}  // namespace slices::mobility
