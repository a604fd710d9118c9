#pragma once
// Transport domain controller.
//
// Owns the topology, link fading state, capacity reservations and the
// OpenFlow tables. The orchestrator asks it for "dedicated paths ...
// to guarantee the required delay and capacity" (paper §3); every
// monitoring epoch it advances fading, serves offered demand over the
// installed paths, repairs paths broken by deep fades, and publishes
// telemetry.

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/dense_map.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "net/router.hpp"
#include "telemetry/registry.hpp"
#include "transport/cspf.hpp"
#include "transport/fading.hpp"
#include "transport/flow_table.hpp"
#include "transport/topology.hpp"

namespace slices::transport {

/// An installed path reservation.
struct PathReservation {
  PathId id;
  SliceId slice;
  NodeId src;
  NodeId dst;
  DataRate reserved;
  Duration max_delay;  ///< SLA bound the path must respect
  Route route;
};

/// Per-path serving outcome of one epoch.
struct PathServeReport {
  PathId path;
  SliceId slice;
  DataRate demand;
  DataRate served;
  Duration experienced_delay;
  bool delay_violated = false;   ///< experienced_delay > max_delay
  bool degraded = false;         ///< fading cut below the reservation
};

/// The transport-domain controller.
class TransportController {
 public:
  /// Takes ownership of the topology; `rng` seeds the fading field.
  TransportController(Topology topology, Rng rng,
                      telemetry::MonitorRegistry* registry = nullptr);

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const FlowTable& flow_table() const noexcept { return flows_; }
  [[nodiscard]] const FadingField& fading() const noexcept { return fading_; }

  // --- Path lifecycle ------------------------------------------------------

  /// Reserve a path for `slice` from `src` to `dst` carrying `rate`
  /// within `max_delay`. Runs CSPF over residual capacity, reserves
  /// bandwidth on each traversed link and installs flow rules. Errors:
  /// insufficient_capacity (no capacity-feasible route),
  /// sla_unsatisfiable (routes exist but none meets the delay bound).
  [[nodiscard]] Result<PathId> allocate_path(SliceId slice, NodeId src, NodeId dst,
                                             DataRate rate, Duration max_delay,
                                             PathObjective objective = PathObjective::min_delay);

  /// Crash-recovery variant of allocate_path: install the reservation
  /// under its original `id` (from the durable store) instead of a
  /// freshly allocated one, and keep the id allocator ahead of it. The
  /// route is recomputed over the *current* substrate — it may differ
  /// from the pre-crash route, but src/dst/rate/delay are preserved.
  /// Errors: invalid_argument (invalid id), conflict (id already
  /// installed), plus allocate_path's.
  [[nodiscard]] Result<void> restore_path(PathId id, SliceId slice, NodeId src, NodeId dst,
                                          DataRate rate, Duration max_delay,
                                          PathObjective objective = PathObjective::min_delay);

  /// Resize an existing path reservation (grow re-validates capacity on
  /// the current route; it does not reroute). Shrink always succeeds.
  [[nodiscard]] Result<void> resize_path(PathId path, DataRate new_rate);

  /// Tear down a path: release bandwidth, remove flow rules and erase
  /// its "transport.path.<id>.*" instruments.
  [[nodiscard]] Result<void> release_path(PathId path);

  [[nodiscard]] const PathReservation* find_path(PathId path) const noexcept;

  /// Residual (nominal − reserved) capacity of a link; zero while the
  /// link is administratively down.
  [[nodiscard]] DataRate residual(const Link& link) const noexcept;

  /// Total reserved bandwidth of a link.
  [[nodiscard]] DataRate reserved_on(LinkId link) const noexcept;

  // --- Failure injection -----------------------------------------------------

  /// Administrative link state: a down link carries nothing until
  /// brought back up — serving drops to zero, new allocations avoid it
  /// and the repair loop routes existing paths around it. Errors:
  /// not_found.
  [[nodiscard]] Result<void> set_link_up(LinkId link, bool up);

  [[nodiscard]] bool link_up(LinkId link) const noexcept {
    const std::uint32_t slot = topology_.link_slot(link);
    return slot == Topology::kNoSlot || link_down_[slot] == 0;
  }

  /// Capacity a link can carry right now: nominal x fading, zero when
  /// administratively down.
  [[nodiscard]] DataRate current_capacity(const Link& link) const noexcept;

  // --- Epoch processing ------------------------------------------------------

  /// Advance fading one epoch, then serve `demands` (offered Mb/s per
  /// path). Serving: a link whose effective capacity dropped below its
  /// total reservation scales all traversing paths proportionally.
  /// Afterwards, paths that were degraded are rerouted when a better
  /// feasible route exists (the "network reconfiguration" arc of
  /// Fig. 1). Publishes telemetry when a registry is set.
  ///
  /// Writes the reports into `out` (cleared first; capacity is reused).
  /// Per-epoch scratch — the per-link scale column, outcome slots and
  /// the repair list — is carved from a per-controller arena that is
  /// rewound, not freed, between epochs: after a warm-up epoch the
  /// steady-state serve loop performs no heap allocation (pinned by
  /// epoch_alloc_test). Same parallel-for + sequential-reduction shape
  /// as the RAN kernel; output is bit-identical at any pool size and
  /// matches the digests recorded in determinism_test.
  void serve_epoch(std::span<const std::pair<PathId, DataRate>> demands, SimTime now,
                   std::vector<PathServeReport>& out);

  /// Attach a worker pool (non-owning; may be nullptr to detach). The
  /// per-path serving computation shards across it; reduction, repair
  /// and telemetry stay sequential on the calling thread, keeping the
  /// output bit-for-bit identical at any pool size.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// Number of reroutes performed since construction.
  [[nodiscard]] std::uint64_t reroutes() const noexcept { return reroutes_; }

  /// REST facade (topology, path CRUD, metrics).
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

 private:
  /// allocate_path and restore_path's shared body: checks, CSPF and
  /// install. An invalid `id` draws a fresh one, and only once every
  /// check has passed, so a failed allocation consumes no id.
  [[nodiscard]] Result<PathId> install_path(PathId id, SliceId slice, NodeId src, NodeId dst,
                                            DataRate rate, Duration max_delay,
                                            PathObjective objective);
  void install_rules(PathReservation& reservation);
  void reserve_bandwidth(const Route& route, DataRate rate);
  void release_bandwidth(const Route& route, DataRate rate);
  void try_reroute(PathReservation& reservation);
  void install_route_columns(std::uint32_t path_slot, const Route& route);
  void clear_route_columns(std::uint32_t path_slot);
  void install_serve_columns(std::uint32_t path_slot, const PathReservation& reservation);
  void forget_path_slot(PathId id) noexcept;
  /// Path slot of `id` in O(1) through the flat id->slot column when the
  /// id is small enough to have one; hash-probe fallback otherwise.
  [[nodiscard]] std::uint32_t path_slot_fast(PathId id) const noexcept {
    const std::uint64_t v = id.value();
    if (v < path_slot_by_id_.size()) return path_slot_by_id_[v];
    return paths_.slot_of(id);
  }
  void compact_route_arena();
  void publish_path_telemetry(const PathServeReport& report, SimTime now);
  void publish_totals_telemetry(SimTime now);

  // Telemetry handles interned on first use so the epoch loop never
  // rebuilds "transport.path.N.*" key strings.
  struct PathHandles {
    telemetry::SeriesHandle served;
    telemetry::SeriesHandle delay;
  };

  Topology topology_;
  FadingField fading_;
  FlowTable flows_;
  /// Reservations in a slot arena (stable value addresses, slot-order
  /// iteration); the hot per-path/per-link state lives in columns
  /// aligned with the path slots / link slots below.
  DenseIdMap<PathId, PathReservation> paths_;
  // Route CSR: path slot -> (offset, len) into route_links_, a flat
  // arena of *link slots*. route_delay_ is the static propagation
  // delay, summed in route order at install time so serving never walks
  // Link structs. Reroutes append a fresh span and abandon the old one;
  // compact_route_arena() repacks once dead words outnumber live ones.
  std::vector<std::uint32_t> route_offset_;
  std::vector<std::uint32_t> route_len_;
  std::vector<Duration> route_delay_;
  std::vector<std::uint32_t> route_links_;
  std::size_t route_live_words_ = 0;
  // Serve columns by path slot: the fields the epoch kernel reads per
  // path, peeled off PathReservation so serving never pulls the full
  // slot (route vector and endpoints included) through the cache.
  // Stale entries behind freed slots are harmless — the slot is
  // unreachable until reuse overwrites them.
  std::vector<DataRate> path_reserved_;
  std::vector<Duration> path_sla_;
  std::vector<SliceId> path_slice_;
  // Flat id -> path slot for ids below kMaxFlatPathId (the IdAllocator
  // hands them out sequentially from 1, so this stays dense); larger
  // restored ids fall back to the DenseIdMap probe.
  static constexpr std::uint64_t kMaxFlatPathId = std::uint64_t{1} << 22;
  std::vector<std::uint32_t> path_slot_by_id_;
  std::vector<DataRate> reserved_by_slot_;  ///< by link slot
  std::vector<std::uint8_t> link_down_;     ///< by link slot; 1 = admin down
  IdAllocator<PathTag> path_ids_;
  telemetry::MonitorRegistry* registry_;
  std::uint64_t reroutes_ = 0;
  ThreadPool* pool_ = nullptr;
  DenseIdMap<PathId, PathHandles> path_handles_;
  telemetry::SeriesHandle reserved_total_;
  telemetry::SeriesHandle capacity_total_;
  Arena epoch_arena_;           ///< per-epoch scratch, rewound not freed
  std::string metrics_buffer_;  ///< reused /metrics serialization buffer
};

}  // namespace slices::transport
