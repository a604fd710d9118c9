#pragma once
// RAN domain controller.
//
// Sits between the end-to-end orchestrator and the cells, exactly like
// the radio controller in the paper's hierarchy: it installs PLMNs
// (the slice <-> PLMN mapping of the demo), translates throughput-level
// slice allocations into per-cell PRB reservations, attaches UEs, serves
// offered demand every monitoring epoch and publishes utilization
// telemetry through a REST /metrics endpoint.

#include <cstdint>
#include <map>
#include <optional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/dense_map.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "net/router.hpp"
#include "ran/cell.hpp"
#include "telemetry/registry.hpp"

namespace slices::ran {

/// One slice's radio allocation as installed across cells.
struct RanAllocation {
  PlmnId plmn;
  DataRate rate;                        ///< throughput the reservation guarantees
  std::map<CellId, PrbCount> per_cell;  ///< dedicated PRBs on each cell

  [[nodiscard]] PrbCount total_prbs() const noexcept {
    PrbCount sum{0};
    for (const auto& [cell, prbs] : per_cell) sum += prbs;
    return sum;
  }
};

/// Per-PLMN serving outcome of one epoch, aggregated over cells.
struct RanServeReport {
  PlmnId plmn;
  DataRate demand;
  DataRate served;
  DataRate unserved;
};

/// One requested inter-cell handover (produced per epoch by the
/// mobility Field's fused move-and-gather pass). The request is
/// addressed, not looked up: `slot` is the UE's slot in the UE index
/// (RanController::ue_slot, stable until the UE detaches) and `target`
/// is the destination's dense cell index (cell_at order). `ue` names
/// the UE the slot was taken for, so a stale slot — the UE detached and
/// a later attach reused the slot — is detected and dropped.
struct HandoverRequest {
  UeId ue;
  std::uint32_t slot = 0;
  std::uint32_t target = 0;
};

/// Aggregate outcome of one apply_handovers batch.
struct HandoverStats {
  std::uint64_t attempts = 0;
  std::uint64_t successes = 0;
  std::uint64_t drops = 0;

  HandoverStats& operator+=(const HandoverStats& o) noexcept {
    attempts += o.attempts;
    successes += o.successes;
    drops += o.drops;
    return *this;
  }
};

/// The radio-domain controller.
class RanController {
 public:
  explicit RanController(telemetry::MonitorRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Add a cell to the managed RAN. Cells are fixed infrastructure; add
  /// them before traffic starts.
  void add_cell(Cell cell);

  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] const Cell* find_cell(CellId id) const noexcept;

  // --- PLMN lifecycle ----------------------------------------------------

  /// Install `plmn` network-wide (broadcast on every cell). Errors:
  /// conflict (already installed), insufficient_capacity (some cell's
  /// broadcast list is full — nothing is left half-installed).
  [[nodiscard]] Result<void> install_plmn(PlmnId plmn);

  /// Remove `plmn` everywhere, its "ran.plmn.<id>.*" instruments
  /// included. Errors: not_found; conflict while an allocation or
  /// attached UEs exist.
  [[nodiscard]] Result<void> remove_plmn(PlmnId plmn);

  [[nodiscard]] bool plmn_installed(PlmnId plmn) const noexcept {
    return installed_.contains(plmn);
  }

  // --- Slice allocations ---------------------------------------------------

  /// Create or resize the radio allocation of `plmn` to guarantee
  /// `rate`. PRBs are spread over cells (most-free-first) using each
  /// cell's current mean UE CQI (or `planning_cqi` when no UEs yet).
  /// Shrinking always succeeds; growing fails atomically with
  /// insufficient_capacity when the RAN cannot fit the increase.
  [[nodiscard]] Result<RanAllocation> set_allocation(PlmnId plmn, DataRate rate,
                                                     Cqi planning_cqi = Cqi{10});

  /// Drop the allocation of `plmn` (idempotent).
  void release_allocation(PlmnId plmn);

  [[nodiscard]] const RanAllocation* find_allocation(PlmnId plmn) const noexcept;

  /// Throughput still allocatable at `planning_cqi` (sum of unreserved
  /// PRBs across cells, converted).
  [[nodiscard]] DataRate available_capacity(Cqi planning_cqi = Cqi{10}) const noexcept;
  /// Total RAN capacity at `planning_cqi`.
  [[nodiscard]] DataRate total_capacity(Cqi planning_cqi = Cqi{10}) const noexcept;

  // --- UEs -----------------------------------------------------------------

  /// Attach a new UE under `plmn` to the cell with fewest attached UEs.
  /// Errors: not_found when the PLMN is not installed (the demo gating).
  [[nodiscard]] Result<UeId> attach_ue(PlmnId plmn, Cqi cqi);

  [[nodiscard]] Result<void> detach_ue(UeId ue);

  [[nodiscard]] std::size_t attached_ues(PlmnId plmn) const noexcept;

  /// Attach a new UE under `plmn` to a specific cell (mobility placement
  /// — the Field knows where the UE is, so least-loaded selection does
  /// not apply). Errors: not_found (PLMN not installed / unknown cell),
  /// conflict (cell inactive).
  [[nodiscard]] Result<UeId> attach_ue_at(CellId cell, PlmnId plmn, Cqi cqi);

  /// Apply one epoch's batch of mobility handovers, sequentially in
  /// batch order. Each success migrates the UE's share of its PLMN's
  /// source-cell PRB reservation to the target cell (clamped to the
  /// target's free PRBs) — the MOCN reservation follows the load.
  /// Every check is an array read: failures (a slot out of range or no
  /// longer holding the request's UE, a target index out of range, the
  /// same cell, an inactive target) count as drops and leave the UE
  /// where it was. A success is one pass of inline, position-addressed
  /// Cell calls (attach, detach, reservation shift) that cannot fail,
  /// plus its latency-histogram sample. When `outcomes` is non-empty it
  /// must be at least batch-sized and receives 1/0 per request. Emits
  /// ran.handover.* telemetry (counters, latency histogram, per-cell
  /// arrival/departure series) when a registry is attached.
  /// Steady-state allocation-free: per-cell scratch is controller-owned
  /// and reused (pinned by the zero-alloc guard in mobility_test).
  HandoverStats apply_handovers(std::span<const HandoverRequest> batch, SimTime now,
                                std::span<std::uint8_t> outcomes = {});

  [[nodiscard]] const HandoverStats& handover_totals() const noexcept {
    return handover_totals_;
  }

  // --- Mobility introspection ---------------------------------------------

  /// Sentinel of ue_slot for a UE that is not attached.
  static constexpr std::uint32_t kNoUeSlot = ~std::uint32_t{0};

  [[nodiscard]] bool ue_attached(UeId ue) const noexcept { return ues_.contains(ue); }
  /// Slot of `ue` in the UE index (kNoUeSlot when not attached). The
  /// slot is stable until the UE detaches; a later attach may reuse it.
  [[nodiscard]] std::uint32_t ue_slot(UeId ue) const noexcept { return ues_.slot_of(ue); }
  /// Serving cell of `ue` (invalid id when unknown).
  [[nodiscard]] CellId ue_cell(UeId ue) const noexcept {
    const UeRecord* record = ues_.find(ue);
    return record == nullptr ? CellId::invalid() : cells_[record->cell].id();
  }
  /// Reported CQI of `ue` on its serving cell.
  [[nodiscard]] std::optional<Cqi> ue_cqi(UeId ue) const noexcept;
  /// Cell by dense index (add order); `index` < cell_count().
  [[nodiscard]] const Cell& cell_at(std::size_t index) const noexcept {
    return cells_[index];
  }
  /// Lowest installed PLMN id (invalid when none is installed).
  [[nodiscard]] PlmnId lowest_installed_plmn() const noexcept;

  // --- Failure injection -----------------------------------------------------

  /// Deactivate/reactivate a cell (eNB outage). An inactive cell serves
  /// nothing and its PRBs stop counting toward planning capacity;
  /// existing reservations stay installed and resume on recovery.
  /// Errors: not_found.
  [[nodiscard]] Result<void> set_cell_active(CellId cell, bool active);

  [[nodiscard]] bool cell_active(CellId cell) const noexcept {
    const std::uint32_t* index = cell_index_.find(cell);
    return index == nullptr || cell_active_[*index] != 0;
  }

  // --- Serving + monitoring -------------------------------------------------

  /// Serve one epoch of offered demand (Mb/s per PLMN). Demand of a
  /// PLMN is split across cells proportionally to its attached UEs
  /// (equally when none). Publishes telemetry when a registry is set.
  /// Writes the reports into `out` (cleared first; capacity is reused)
  /// in ascending PLMN order, one per demanded PLMN. Precondition: PLMN
  /// ids in `demands` are unique.
  ///
  /// When a thread pool is attached, per-cell serving is sharded across
  /// it as one task per cell. Results are written to per-cell slots and
  /// reduced on the calling thread in cell order, so the reports and
  /// telemetry are bit-for-bit identical at any pool size. All per-epoch
  /// scratch comes from a per-controller arena that is rewound, not
  /// freed, between epochs — after a warm-up epoch the steady-state
  /// serve loop performs no heap allocation (pinned by epoch_alloc_test).
  /// determinism_test pins the reports and telemetry to recorded digests.
  void serve_epoch(std::span<const std::pair<PlmnId, DataRate>> demands, SimTime now,
                   std::vector<RanServeReport>& out);

  /// Attach a worker pool (non-owning; may be nullptr to detach).
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// REST facade (see DESIGN.md for the route table). The router holds a
  /// non-owning pointer to this controller; keep the controller alive.
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

 private:
  /// The only UE index in the RAN: the serving cell (cells_ index) and
  /// the UE's row in that cell's column store.
  struct UeRecord {
    PlmnId plmn;
    std::uint32_t cell = 0;
    std::uint32_t row = 0;
  };

  /// Attach a new UE on cells_[index] and record it in the UE index.
  [[nodiscard]] Result<UeId> attach_at(std::uint32_t index, PlmnId plmn, Cqi cqi);
  void observe_cell_telemetry(std::size_t cell_index, SimTime now, PrbCount used,
                              bool active);
  /// Observe one PLMN's serve report into its "ran.plmn.<id>.*" series,
  /// interning the handles on first use (remove_plmn drops them).
  void publish_plmn_telemetry(const RanServeReport& report, SimTime now);

  // Telemetry handles interned on first use so the epoch loop never
  // rebuilds "ran.cell.N.*" / "ran.plmn.N.*" key strings.
  struct CellHandles {
    telemetry::SeriesHandle prb_used;
    telemetry::SeriesHandle prb_reserved;
    telemetry::SeriesHandle utilization;
  };
  struct PlmnHandles {
    telemetry::SeriesHandle demand;
    telemetry::SeriesHandle served;
    telemetry::SeriesHandle unserved;
  };
  // Handover instruments, interned on the first apply_handovers call so
  // the steady-state batch path never touches the registry's name maps.
  struct HandoverHandles {
    telemetry::Counter* attempts = nullptr;
    telemetry::Counter* successes = nullptr;
    telemetry::Counter* drops = nullptr;
    telemetry::Histogram* latency = nullptr;
  };
  struct CellFlowHandles {
    telemetry::SeriesHandle arrivals;
    telemetry::SeriesHandle departures;
  };

  // Hot-path state is slot-indexed (common/dense_map.hpp): attach,
  // detach and the epoch demand scans are O(1) lookups / contiguous
  // walks, and iteration is in deterministic slot order.
  std::vector<Cell> cells_;
  DenseIdMap<CellId, std::uint32_t> cell_index_;  ///< cell id -> cells_ index
  std::vector<std::uint8_t> cell_active_;          ///< 1 = up; index-aligned with cells_
  DenseIdMap<PlmnId, std::monostate> installed_;
  DenseIdMap<PlmnId, RanAllocation> allocations_;
  DenseIdMap<UeId, UeRecord> ues_;
  /// Attached-UE count per PLMN, maintained incrementally on attach and
  /// detach so serve_epoch never rescans the UE population.
  DenseIdMap<PlmnId, std::size_t> attached_by_plmn_;
  IdAllocator<UeTag> ue_ids_;
  telemetry::MonitorRegistry* registry_;
  ThreadPool* pool_ = nullptr;
  /// Per-epoch scratch, reused so steady-state epochs never allocate:
  /// the arena carries all flat per-cell/per-demand arrays of the
  /// batched kernel.
  Arena epoch_arena_;
  std::vector<CellHandles> cell_handles_;  // index-aligned with cells_
  DenseIdMap<PlmnId, PlmnHandles> plmn_handles_;
  std::string metrics_buffer_;  ///< reused /metrics serialization buffer
  /// Handover telemetry + per-batch scratch (reused; see apply_handovers).
  HandoverStats handover_totals_;
  HandoverHandles handover_handles_;
  std::vector<CellFlowHandles> cell_flow_handles_;   // index-aligned with cells_
  std::vector<std::uint32_t> handover_arrivals_;     // per-cell, reused per batch
  std::vector<std::uint32_t> handover_departures_;   // per-cell, reused per batch
};

}  // namespace slices::ran
