#pragma once
// Global federation broker (docs/federation.md).
//
// The top tier of the hierarchy: receives every slice request, reads
// each region's forecast headroom (cached from the region's latest
// tick reply), and places the slice in the region with the best
// headroom/price score. A slice placed away from its tenant's home
// region additionally reserves transport on the inter-region backbone
// (CSPF over the metro ring or mesh, with broker-held residual
// accounting); requests no region can take while an edge is restarting
// queue in the deferred-admission lane and are retried at the next
// epoch tick.
//
// Every edge interaction goes through the bus, so the broker computes
// identically whether the edges are routers in this process, HTTP
// servers in other threads, or other OS processes. The broker makes
// every call that mutates a region, so it knows when a cached headroom
// document goes stale.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/units.hpp"
#include "federation/fabric.hpp"
#include "json/value.hpp"
#include "net/rest_bus.hpp"
#include "net/router.hpp"
#include "telemetry/registry.hpp"

namespace slices::federation {

/// One placement decision, kept for the audit surface
/// (`slicectl <port> federation placements`).
struct PlacementDecision {
  std::uint64_t seq = 0;
  std::int64_t t_us = 0;
  std::string tenant;
  double throughput_mbps = 0.0;
  std::string home_region;
  std::string placed_region;  ///< empty when nothing was placed
  /// "local" | "remote" | "deferred" | "no_region" | "edge_rejected"
  std::string outcome;
  double score = 0.0;         ///< headroom/price of the chosen region
  std::uint64_t request = 0;  ///< edge-side request id (placed outcomes)
};

/// Aggregate broker counters (also summed into the scorecard).
struct BrokerCounters {
  std::uint64_t submitted = 0;
  std::uint64_t placed_local = 0;
  std::uint64_t placed_remote = 0;
  std::uint64_t edge_rejected = 0;
  std::uint64_t rejected_no_region = 0;
  std::uint64_t deferred_total = 0;   ///< entries into the deferred lane
  std::uint64_t backbone_reservations = 0;
  double backbone_reserved_mbps_peak = 0.0;
  // Inter-region mobility (route_roamers); zero unless a mobility
  // scenario is running.
  std::uint64_t roam_attempts = 0;    ///< exits drained from the regions
  std::uint64_t roam_admitted = 0;    ///< re-attached in the neighbour
  std::uint64_t roam_dropped = 0;     ///< neighbour refused the attach
};

class Broker {
 public:
  /// `bus` must outlive the broker and have one service per region
  /// registered under service_name(region). The fabric supplies region
  /// order (sorted), prices and the backbone.
  Broker(net::RestBus* bus, const MetroFabric& fabric);

  /// Bus service name of a region's edge node: "edge.<region>".
  [[nodiscard]] static std::string service_name(const std::string& region) {
    return "edge." + region;
  }

  /// Drive the metro's clock to `t_us`: one POST /federation/tick to
  /// every due region, sent as one bus round (RestBus::call_json_each,
  /// sorted region order). Caches each reply's headroom and
  /// next_event_us and keeps its roaming exits for route_roamers(). A
  /// region is due unless its cached headroom is fresh and its last
  /// tick reply said its next event lies after `t_us`; a skipped
  /// region's state at `t_us` is its state at its last tick, and the
  /// mutating calls advance it to the broker's time themselves.
  /// Releases backbone reservations whose slices have expired first.
  void tick_all(std::int64_t t_us);

  /// Place one request. `body` is the scenario request JSON (the
  /// "region" key, if present, is stripped before the edge sees it).
  /// Returns the recorded decision.
  PlacementDecision submit(const json::Value& body, const std::string& home_region,
                           std::int64_t now_us);

  /// Retry the deferred lane (epoch ticks); returns how many placed.
  std::size_t retry_deferred(std::int64_t now_us);

  /// Inter-region handover: forward every roaming-exit batch the ticks
  /// handed over (sorted region order, east before west) to the
  /// neighbour region the UEs walked into (+1 = east, -1 = west on the
  /// metro line), unchanged, as its ingress body. Each batch takes a
  /// best-effort signalling lease on the backbone leg. Returns how many
  /// roamers were re-admitted. Call once per epoch tick, after
  /// tick_all().
  std::size_t route_roamers(std::int64_t now_us);

  /// Region-scoped fault (POST /federation/fault with `body`) at the
  /// broker's time `t_us`. Clears the region's cached headroom. Errors:
  /// not_found (unknown region), or the edge's.
  Result<json::Value> inject_fault(const std::string& region, const json::Value& body,
                                   std::int64_t t_us);

  /// Live per-region roll-up from the cached headroom documents.
  /// Single-threaded with the run loop (a stale region is re-read over
  /// the bus); the REST facade serves the snapshot taken by the latest
  /// refresh_snapshot() instead.
  [[nodiscard]] json::Value regions_json();
  /// Take the tick's snapshot (regions_json()) and return it. The
  /// reference stays valid until the next refresh; the run loop is the
  /// snapshot's only writer, so it may read it without the lock.
  const json::Value& refresh_snapshot(std::int64_t t_us);

  /// The region's cached headroom document, or nullptr while it is
  /// stale (no successful tick since the last call that mutated it).
  [[nodiscard]] const json::Value* cached_headroom(const std::string& region) const;

  [[nodiscard]] json::Value placements_json() const;
  [[nodiscard]] const BrokerCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::size_t deferred_pending() const noexcept { return deferred_.size(); }
  [[nodiscard]] const std::vector<std::string>& regions() const noexcept { return regions_; }

  /// Broker-side SLO instruments (docs/federation.md): deferred-lane
  /// depth, backbone lease occupancy, per-region headroom at refresh,
  /// placement counters. Sampled by refresh_snapshot() on sim time, so
  /// the contents are transport-invariant.
  [[nodiscard]] const telemetry::MonitorRegistry& registry() const noexcept {
    return registry_;
  }

  /// Federation-wide metrics roll-up: pulls every region's full-fidelity
  /// /federation/metrics export over the bus and merges them (counters
  /// add, histograms bucket-merge). Returns
  ///   {"t_us", "regions": {<r>: <export>}, "merged": <snapshot>,
  ///    "broker": <broker-registry snapshot>}
  /// Byte-identical across in-process / socket / multi-process edges.
  /// Single-threaded with the run loop (drives the bus).
  [[nodiscard]] json::Value federation_metrics_json(std::int64_t t_us);

  /// One merged Chrome trace for the whole metro: per-region span lists
  /// pulled over the bus plus the broker's own spans, stitched into
  /// region-named lanes (tid 0 = broker, tid 1+i = regions in sorted
  /// order). Region pulls happen before the broker lane is read, so the
  /// pulls' own bus.call spans land in the export on every transport.
  /// Single-threaded with the run loop (drives the bus).
  void export_federated_trace(std::string& out);

  /// When enabled, refresh_snapshot() also rebuilds the federation
  /// metrics/trace bodies the REST facade serves (they require bus
  /// pulls, which only the run loop may do). Off by default to keep
  /// non-facade runs free of the export cost.
  void set_facade_enabled(bool on) noexcept { facade_enabled_ = on; }

  /// REST facade for slicectl: GET /federation/regions (latest
  /// snapshot), GET /federation/placements, GET /federation/metrics,
  /// GET /federation/trace, GET /federation/healthz. Handlers only read
  /// mutex-guarded snapshots — safe to serve from an HttpServer thread
  /// while the run loop mutates the broker.
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

 private:
  struct Candidate {
    std::size_t index = 0;  ///< into regions_
    double headroom_mbps = 0.0;
    double price = 1.0;
    double score = 0.0;
  };

  /// Read every region's headroom and keep those that can take the
  /// request (not suspended, DC gate, enough headroom). Sorted by
  /// region name; `any_suspended` reports whether a region was skipped
  /// for being suspended (the deferral trigger).
  [[nodiscard]] std::vector<Candidate> collect_candidates(double throughput_mbps,
                                                          bool needs_edge,
                                                          bool* any_suspended);

  /// Reserve backbone transport home -> placed. False when no feasible
  /// route exists at the demand.
  bool reserve_backbone(const std::string& home, const std::string& placed,
                        DataRate demand, std::int64_t release_us);

  /// The region's headroom document: the cached one, or (when stale)
  /// a GET /federation/headroom whose answer is cached in turn. nullptr
  /// when the edge is unreachable.
  [[nodiscard]] const json::Value* headroom(std::size_t region);

  net::RestBus* bus_;
  std::vector<std::string> regions_;             ///< sorted names
  /// Per-region protocol state, index-aligned with regions_.
  struct RegionLink {
    std::string service;  ///< bus service name, service_name(region)
    /// Headroom as of the latest tick or fallback GET; null once a call
    /// that mutates the region (slices, fault, ingress, a failed tick)
    /// makes it stale. A region's headroom is a pure function of its
    /// state, so a cached document equals a fresh GET.
    json::Value headroom{nullptr};
    /// The region's earliest pending event as of its latest tick reply;
    /// nullopt (due at every timestamp) until a reply carries a valid
    /// one, and again once the region is mutated.
    std::optional<std::int64_t> next_event_us;
    /// Exit batches ({"east"|"west": batch}) handed over by ticks and
    /// not yet routed. A tick hands its exits over once.
    std::vector<json::Value> roamers;
  };
  /// Forget what the broker knows of a region's state before a call
  /// that mutates it: the headroom goes stale and the region is due.
  static void mark_stale(RegionLink& link) {
    link.headroom = nullptr;
    link.next_event_us.reset();
  }
  std::vector<RegionLink> links_;
  std::map<std::string, std::size_t> region_index_;
  std::map<std::string, double> region_price_;
  transport::Topology backbone_;
  std::vector<NodeId> border_nodes_;             ///< index-aligned with regions_

  std::map<LinkId, DataRate> backbone_reserved_;
  struct BackboneLease {
    std::int64_t release_us = 0;
    std::vector<LinkId> links;
    DataRate rate;
  };
  std::vector<BackboneLease> leases_;

  struct DeferredRequest {
    json::Value body;
    std::string home_region;
    std::uint64_t seq = 0;
  };
  std::vector<DeferredRequest> deferred_;

  BrokerCounters counters_;
  std::uint64_t next_seq_ = 1;
  telemetry::MonitorRegistry registry_;
  bool facade_enabled_ = false;

  // REST-facade state: the run loop writes under the mutex, HttpServer
  // handler threads read under it.
  mutable std::mutex mutex_;
  std::vector<PlacementDecision> placements_;
  json::Value regions_snapshot_{nullptr};
  std::string metrics_snapshot_;  ///< facade /federation/metrics body
  std::string trace_snapshot_;    ///< facade /federation/trace body
};

}  // namespace slices::federation
