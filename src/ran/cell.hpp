#pragma once
// MOCN-sharing LTE cell model.
//
// The testbed's eNBs support the Multi Operator Core Network sharing
// model: one cell broadcasts several PLMN ids and can "reserve radio
// resources for each particular network". A Cell therefore tracks the
// broadcast PLMN set (bounded, as over-the-air SIB1 lists are), a
// dedicated PRB reservation per PLMN, the attached UE population, and
// serves offered demand each monitoring epoch via the MOCN scheduler.
//
// UE state is a structure-of-arrays column store (ran/ue_soa.hpp): a UE
// row is two bytes, its PLMN's slot and its CQI, with CQI 0 marking a
// hole. A PLMN takes the lowest free slot when it starts broadcasting
// and keeps it until it is withdrawn; the cell maps slot <-> broadcast
// position in two kMaxBroadcastPlmns-entry tables. Everything else here
// is position-addressed, and a withdrawal only shifts the positions in
// those tables: it reads and writes no UE row. Attach/detach are O(1)
// and iteration is in deterministic row order. The UE API is
// row-addressed: attach returns the UE's row and every later read and
// detach names that row. The cell keeps no UE identity at all —
// RanController owns the only UE index (UE id -> {plmn, cell, row}) and
// allocates every id; a handover request addresses that record by its
// slot, reads the source broadcast position through the row's PLMN slot,
// and moves the UE and its share of the PRB reservation through the
// position-addressed inline calls below, which cannot fail. Each
// broadcast PLMN keeps a running (count, cqi_sum) aggregate and its PRB
// reservation, and the cell keeps the running sum of those reservations,
// so attached_count / mean_cqi — the per-epoch scheduling inputs — and
// reserved_prbs / unreserved_prbs — read on every handover — stay O(1).

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "ran/phy.hpp"
#include "ran/scheduler.hpp"
#include "ran/ue_soa.hpp"

namespace slices::ran {

/// Maximum PLMN ids one cell may broadcast (SIB1 PLMN-IdentityList).
inline constexpr std::size_t kMaxBroadcastPlmns = 6;

/// One eNB cell.
class Cell {
 public:
  Cell(CellId id, std::string name, Bandwidth bandwidth, SharingPolicy policy);

  [[nodiscard]] CellId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] PrbCount total_prbs() const noexcept { return total_; }
  [[nodiscard]] SharingPolicy sharing_policy() const noexcept { return policy_; }

  /// Sum of all dedicated reservations (a running total).
  [[nodiscard]] PrbCount reserved_prbs() const noexcept { return reserved_; }
  /// PRBs not reserved by any PLMN.
  [[nodiscard]] PrbCount unreserved_prbs() const noexcept {
    return total_ - reserved_prbs();
  }

  // --- PLMN broadcast management (slice <-> PLMN mapping) ---------------

  /// Start broadcasting `plmn`. Errors: conflict (already broadcast),
  /// insufficient_capacity (SIB1 list full).
  [[nodiscard]] Result<void> broadcast_plmn(PlmnId plmn);

  /// Stop broadcasting and free the PLMN's slot; touches no UE row.
  /// Errors: not_found; conflict if a reservation or attached UEs still
  /// exist (release/detach first).
  [[nodiscard]] Result<void> withdraw_plmn(PlmnId plmn);

  [[nodiscard]] bool broadcasts(PlmnId plmn) const noexcept;

  /// Number of PLMNs currently broadcast (<= kMaxBroadcastPlmns).
  [[nodiscard]] std::size_t broadcast_count() const noexcept { return broadcast_.size(); }
  /// Position of `plmn` in the broadcast list, or broadcast_count()
  /// when not broadcast. Positions are dense and stable until a
  /// withdraw; the epoch kernel uses them to index per-cell scratch.
  [[nodiscard]] std::size_t broadcast_index(PlmnId plmn) const noexcept {
    return plmn_index(plmn);
  }
  [[nodiscard]] PlmnId broadcast_at(std::size_t index) const noexcept {
    return broadcast_[index];
  }

  // --- PRB reservations --------------------------------------------------

  /// Set the dedicated reservation of `plmn` to `prbs` (PUT semantics;
  /// both grow and shrink — shrinking is how overbooking reclaims radio
  /// capacity). Errors: not_found (PLMN not broadcast),
  /// invalid_argument (negative), insufficient_capacity.
  [[nodiscard]] Result<void> set_reservation(PlmnId plmn, PrbCount prbs);

  /// Drop the reservation entirely (idempotent).
  void clear_reservation(PlmnId plmn);

  /// Current reservation (0 when none).
  [[nodiscard]] PrbCount reservation_of(PlmnId plmn) const noexcept;

  // --- UE population -----------------------------------------------------

  /// Attach a UE under `plmn` and return its row. Errors: not_found
  /// (PLMN not broadcast — the demo's gating: devices connect only once
  /// their slice's PLMN is on the air).
  [[nodiscard]] Result<std::uint32_t> attach(PlmnId plmn, Cqi cqi);

  /// Detach the UE at live row `row`; the row is reused LIFO.
  void detach(std::uint32_t row) noexcept { detach_at(plmn_index_at(row), row); }

  /// Reported CQI of the UE at live row `row`.
  [[nodiscard]] Cqi cqi_at(std::uint32_t row) const noexcept { return ues_.cqi_at(row); }
  /// Broadcast position of the UE at live row `row`.
  [[nodiscard]] std::size_t plmn_index_at(std::uint32_t row) const noexcept {
    return position_of_[ues_.plmn_slot_at(row)];
  }

  // --- Handover primitives: position-addressed, cannot fail --------------

  /// Attach a UE under broadcast position `index` (< broadcast_count())
  /// and return its row.
  std::uint32_t attach_at(std::size_t index, Cqi cqi) {
    assert(index < broadcast_.size());
    ++plmns_[index].count;
    plmns_[index].cqi_sum += cqi.index();
    return ues_.insert(slot_of_[index], cqi);
  }
  /// Detach the UE at live row `row`, whose broadcast position the
  /// caller already read as `index` (== plmn_index_at(row)).
  void detach_at(std::size_t index, std::uint32_t row) noexcept {
    assert(index == plmn_index_at(row));
    PlmnState& stats = plmns_[index];
    assert(stats.count > 0);
    --stats.count;
    stats.cqi_sum -= ues_.cqi_at(row).index();
    ues_.erase(row);
  }
  /// Reservation of broadcast position `index`.
  [[nodiscard]] PrbCount reservation_at(std::size_t index) const noexcept {
    return plmns_[index].reserved;
  }
  /// Grow (prbs > 0) or shrink (prbs < 0) the reservation of broadcast
  /// position `index`. The caller keeps it within [0, free PRBs].
  void add_reservation_at(std::size_t index, int prbs) noexcept {
    plmns_[index].reserved.value += prbs;
    reserved_.value += prbs;
    assert(plmns_[index].reserved.value >= 0 && reserved_.value <= total_.value);
  }

  [[nodiscard]] std::size_t attached_count(PlmnId plmn) const noexcept;
  /// Same by broadcast position (no PLMN scan); `index` < broadcast_count().
  [[nodiscard]] std::size_t attached_count_at(std::size_t index) const noexcept {
    return plmns_[index].count;
  }
  [[nodiscard]] std::size_t attached_total() const noexcept { return ues_.size(); }
  /// The UE column store, read-only: row liveness and the raw columns.
  [[nodiscard]] const UeSoa& ues() const noexcept { return ues_; }

  /// Mean CQI of `plmn`'s attached UEs, or `fallback` when none.
  [[nodiscard]] Cqi mean_cqi(PlmnId plmn, Cqi fallback) const noexcept;
  /// Same by broadcast position (no PLMN scan); `index` < broadcast_count().
  [[nodiscard]] Cqi mean_cqi_at(std::size_t index, Cqi fallback) const noexcept;

  // --- Serving -----------------------------------------------------------

  /// Serve one epoch, allocation-free: `demand_by_index[i]` is the
  /// offered demand of broadcast PLMN i (size >= broadcast_count(),
  /// caller-aggregated), `grants` receives broadcast_count() grants in
  /// broadcast order. CQI used is the PLMN's mean UE CQI (fallback when
  /// no UEs). Returns broadcast_count().
  std::size_t serve_epoch(std::span<const DataRate> demand_by_index, Cqi fallback_cqi,
                          std::span<PlmnGrant> grants) const noexcept;

 private:
  /// Per-PLMN state of one broadcast PLMN; index-aligned with
  /// `broadcast_`. The UE aggregate is maintained on attach/detach/CQI
  /// updates so the scheduler inputs never rescan the population.
  struct PlmnState {
    std::size_t count = 0;
    std::int64_t cqi_sum = 0;
    PrbCount reserved{0};  ///< dedicated reservation (0 = none)
  };

  [[nodiscard]] std::size_t plmn_index(PlmnId plmn) const noexcept;

  CellId id_;
  std::string name_;
  PrbCount total_;
  SharingPolicy policy_;
  std::vector<PlmnId> broadcast_;               // ordered: deterministic scheduling
  std::vector<PlmnState> plmns_;                // index-aligned with broadcast_
  // Broadcast position -> the PLMN's slot (the byte its UE rows hold),
  // and slot -> position; a free slot's position entry is stale.
  std::array<std::uint8_t, kMaxBroadcastPlmns> slot_of_{};
  std::array<std::uint8_t, kMaxBroadcastPlmns> position_of_{};
  PrbCount reserved_{0};                        // sum of plmns_[i].reserved
  UeSoa ues_;                                   // columnar attached-UE store
};

}  // namespace slices::ran
