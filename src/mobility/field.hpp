#pragma once
// The mobility Field: one region's moving UE population.
//
// A Field owns the positions of the UEs it animates over the region's
// cell grid and drives them through the RAN controller: it spawns a
// per-slice population when a PLMN comes on the air (attach_ue_at at
// the hashed home position), walks every UE each epoch (random
// waypoints, or a storm flow-field while one is active), and turns
// cell-boundary crossings into a HandoverRequest batch the controller
// applies in one allocation-free pass. UEs that cross the *region*
// boundary during a commuter wave are detached and queued as
// RoamingExit records for the federation broker to route to the
// neighbour region.
//
// Determinism: positions live in SoA columns, every random draw is a
// counter-based hash of the UE's own key (see model.hpp), and step() is
// one fused pass per parallel_for range: each range moves its rows,
// classifies each row's next cell and writes its handover requests and
// region-exit rows into its own row-indexed slices of two buffers sized
// to the row count. A serial join then concatenates the ranges' slices
// in range order and detaches the exits in row order — so the batch,
// the exits and everything downstream are bit-identical at any pool
// size.
//
// The Field records each UE's slot in the controller's UE index at
// attach and addresses its handover requests by that slot and the
// target's cell index, so the per-row work of step() and apply() makes
// no id lookup. Region exits and slice drain detach by UE id, since
// something else may have detached the UE first.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "mobility/model.hpp"
#include "ran/controller.hpp"

namespace slices::mobility {

/// A UE that left its region across a metro border (detached locally;
/// the broker re-attaches it in the neighbour region). Integer wire
/// format so the record survives JSON transport byte-exactly.
struct RoamingExit {
  std::uint64_t plmn = 0;   ///< home PLMN id value (informational)
  int cqi = 10;             ///< last reported CQI
  std::int64_t y_mm = 0;    ///< position along the border, millimetres
  int side = 1;             ///< +1 exited east, -1 exited west
};

/// One region's mobility engine.
class Field {
 public:
  /// `ran` must outlive the Field; the grid covers its current cells
  /// (add cells before constructing). `pool` may be null (serial move).
  Field(FieldConfig config, ran::RanController* ran, ThreadPool* pool = nullptr);

  [[nodiscard]] const CellGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const FieldConfig& config() const noexcept { return config_; }

  /// Register a storm window (scenario `mobility.storms[]` entry whose
  /// region filter matched this field). `cell_index` is the stadium
  /// cell (clamped into the grid; ignored by commuter waves).
  void add_storm(StormKind kind, SimTime start, SimTime end, double fraction,
                 std::size_t cell_index);

  /// Reconcile the population with the installed PLMN set: spawn
  /// `ues_per_slice` UEs for each PLMN in `live` that has none yet, and
  /// drain (detach + free) the population of PLMNs no longer live —
  /// completing the deferred remove_plmn that slice teardown could not
  /// finish while our UEs were attached. Call once per epoch, before
  /// step(). `live` must be in deterministic order. `speeds[i]` is the
  /// movement speed (m/s) of `live[i]`'s population, from its slice's
  /// vertical speed class; a missing or non-positive entry takes the
  /// configured default.
  void sync_population(std::span<const PlmnId> live, std::span<const double> speeds = {});

  /// Advance every UE to `now`, classify its next cell and gather the
  /// transitions (one fused pool-sharded pass, joined in range order):
  /// replaces the pending handover batch and, in a metro, appends to
  /// the roaming-exit queue (exiting UEs are detached here, in row
  /// order).
  void step(SimTime now);

  [[nodiscard]] std::span<const ran::HandoverRequest> pending_handovers() const noexcept {
    return {pending_requests_.data(), pending_count_};
  }

  /// Apply the pending handover batch through the controller and update
  /// serving-cell rows for the successes. Clears the batch.
  ran::HandoverStats apply(SimTime now);

  /// Move this epoch's roaming exits into `out` (appended; queue cleared).
  void drain_exits(std::vector<RoamingExit>& out);

  /// Admit a UE roaming in from a neighbour region: place it just
  /// inside the border it entered through and attach it under the
  /// lowest installed PLMN (national-roaming fallback — its home slice
  /// lives in the source region). Returns false when no PLMN is on the
  /// air or the border cell refuses the attach.
  bool admit_roamer(const RoamingExit& exit);

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::size_t population() const noexcept { return live_rows_; }
  /// Total rows (live + freed); the bound for row().
  [[nodiscard]] std::size_t row_count() const noexcept { return ue_.size(); }
  /// One row of the UE columns. A freed row reads live = false and an
  /// invalid UE, and keeps its last position until the row is reused.
  struct RowView {
    bool live = false;
    UeId ue;
    PlmnId plmn;
    std::uint32_t cell = 0;  ///< serving cell, grid index
    double x = 0.0;          ///< position, metres
    double y = 0.0;
  };
  [[nodiscard]] RowView row(std::size_t r) const noexcept {
    return RowView{live_[r] != 0, ue_[r], plmn_[r], cell_[r], x_[r], y_[r]};
  }
  [[nodiscard]] std::uint64_t exits_total() const noexcept { return exits_total_; }
  [[nodiscard]] std::uint64_t roamers_admitted() const noexcept { return roamers_admitted_; }
  [[nodiscard]] std::uint64_t roamers_dropped() const noexcept { return roamers_dropped_; }
  [[nodiscard]] std::size_t storm_count() const noexcept { return storms_.size(); }

 private:
  struct Storm {
    StormKind kind;
    std::int64_t start_us;
    std::int64_t end_us;
    double fraction;
    std::size_t cell;        // stadium focus, grid index
    std::uint64_t salt;      // participation hash salt
  };

  /// One per-UE hash draw (advances the row's draw counter).
  std::uint64_t draw(std::size_t row) noexcept {
    return mix64(key_[row] + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(++draw_[row]));
  }

  /// Move one live row by `dt_s` under the active storms; returns the
  /// row's next cell index, or the region-exit marker (field.cpp).
  std::uint32_t move_row(std::size_t row, double dt_s);
  /// Detach a row whose UE left the region and queue its RoamingExit.
  void exit_row(std::size_t row);
  std::size_t allocate_row();
  void free_row(std::size_t row);
  void spawn_population(PlmnId plmn, double speed);

  FieldConfig config_;
  ran::RanController* ran_;
  ThreadPool* pool_;
  CellGrid grid_;

  // SoA columns; rows are reused via a LIFO free list so indices stay
  // dense and iteration order deterministic.
  std::vector<UeId> ue_;
  std::vector<PlmnId> plmn_;
  std::vector<std::uint64_t> key_;
  std::vector<std::uint32_t> draw_;
  std::vector<double> x_, y_;        // position, metres
  std::vector<double> tx_, ty_;      // current waypoint
  std::vector<double> speed_;        // m/s
  std::vector<std::uint32_t> cell_;  // serving cell, grid index
  std::vector<std::uint32_t> slot_;  // the UE's slot in the controller's UE index
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_;
  std::size_t live_rows_ = 0;

  std::vector<Storm> storms_;
  std::vector<const Storm*> active_storms_;  // storms active at the current step
  std::vector<PlmnId> populated_;    // PLMNs with a spawned population (sorted)

  std::int64_t last_step_us_ = -1;

  // Per-epoch transition batch. The three row buffers are sized to the
  // row count: a step() range [begin, end) writes its requests (with
  // their rows) and its exit rows from offset `begin`, and its counts
  // at range_counts_[begin / grain]; the join then compacts the
  // requests to the front, so the batch is pending_requests_[0,
  // pending_count_). Capacity is reused across epochs.
  struct RangeCounts {
    std::uint32_t requests = 0;
    std::uint32_t exits = 0;
  };
  std::vector<ran::HandoverRequest> pending_requests_;
  std::vector<std::uint32_t> pending_rows_;
  std::vector<std::uint32_t> exit_rows_;
  std::vector<RangeCounts> range_counts_;
  std::size_t pending_count_ = 0;
  std::vector<std::uint8_t> outcome_scratch_;
  std::vector<RoamingExit> exits_;

  std::uint64_t exits_total_ = 0;
  std::uint64_t roamers_admitted_ = 0;
  std::uint64_t roamers_dropped_ = 0;
  std::uint64_t spawn_failures_ = 0;
};

}  // namespace slices::mobility
