#pragma once
// Edge orchestrator node: one region of the federated city
// (docs/federation.md).
//
// Wraps an unmodified core::Orchestrator — with its own simulator,
// domain controllers and intra-region REST bus — behind a small
// northbound REST surface the global broker drives:
//
//   GET  /federation/info      static region facts (cells, DCs, price)
//   GET  /federation/headroom  forecast headroom + placement gates
//   GET  /federation/summary   the region tally (scenario::RegionTally)
//   GET  /federation/healthz   the orchestrator's health document
//   GET  /federation/metrics   full-fidelity registry export (mergeable)
//   GET  /federation/trace     this region's spans (transport-invariant)
//   GET  /federation/mobility  population + handover/roaming counters
//   GET  /metrics              registry snapshot + tracer drop counters
//   POST /federation/tick      lock-step clock: run_until(t_us), reply
//                              with headroom, the next pending event's
//                              time + drained roaming exits
//   POST /federation/slices    delegated admission (503 while suspended)
//   POST /federation/fault     region-scoped fault injection
//   POST /federation/mobility/ingress  admit a neighbour's roamers
//
// The three mutating POSTs take the broker's time as `?t_us=<µs>` and
// advance the region to it before acting, so a region the broker did
// not tick at that time (it had nothing due) acts at the same simulated
// time as a ticked one.
//
// Because every interaction crosses this router, an EdgeNode behaves
// identically whether the router is dispatched in-process, over a
// loopback socket in another thread, or in another OS process — the
// transport-parity half of the federation determinism bar. Handlers run
// under a trace ComponentScope named "edge.<region>", so spans they
// trigger carry region-keyed ids whether they record into the broker
// process's tracer (in-process edges) or a remote edge's.

#include <memory>
#include <string>

#include "common/result.hpp"
#include "core/orchestrator.hpp"
#include "federation/fabric.hpp"
#include "json/value.hpp"
#include "mobility/field.hpp"
#include "net/router.hpp"
#include "ran/controller.hpp"
#include "scenario/region.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"

namespace slices::federation {

/// One region's full stack: a core::Testbed in the metro layout (cells
/// behind an aggregation tree, one core DC and `plan.edge_dcs` edge DCs)
/// finished by the same core::wire_testbed as the Fig. 2 testbed, inside
/// the scenario::Region layer the fig2 runner uses too. The orchestrator
/// runs on the region's own simulator.
class EdgeNode {
 public:
  /// `scenario` supplies the orchestrator config and demand-surge
  /// phases; `epoch_threads` overrides the config's worker count.
  EdgeNode(const RegionPlan& plan, const scenario::Scenario& scenario,
           std::size_t epoch_threads);

  [[nodiscard]] const std::string& name() const noexcept { return plan_.name; }
  [[nodiscard]] const RegionPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] core::Orchestrator& orchestrator() noexcept { return region_->orchestrator(); }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return region_->testbed().simulator; }
  [[nodiscard]] ran::RanController& ran() noexcept { return region_->testbed().ran; }

  /// Run the region's clock forward to absolute time `t_us` (µs since
  /// origin). Monotonic: earlier times are a no-op.
  void advance_to(std::int64_t t_us);

  /// POST /federation/tick: advance_to(t_us), then drain the roaming
  /// exits. Returns the reply body {"region", "t_us", "headroom":
  /// headroom_json(), "next_event_us", "roamers": {"east"|"west":
  /// batch}}, where "next_event_us" is the region simulator's earliest
  /// pending event (omitted when none is pending) and a batch is one
  /// side's exits as columns, {"side", "plmn": [...], "cqi": [...],
  /// "y_mm": [...]} — the neighbour's ingress body as is. "roamers" and
  /// empty sides are omitted.
  [[nodiscard]] std::string tick(std::int64_t t_us);

  /// Delegated admission. Body: the scenario request JSON shape
  /// (vertical, throughput_mbps, workload_seed, ...). Errors:
  /// unavailable (suspended — the deferred-admission path),
  /// invalid_argument (malformed body).
  [[nodiscard]] Result<json::Value> submit(const json::Value& body);

  /// Region-scoped fault. Body: {"kind": "cell_down"|"cell_up"|
  /// "dc_down"|"dc_up"|"controller_restart", "target": "c3"|"core"|
  /// "edge0", "duration_us": n}. Down events with duration_us > 0
  /// auto-restore on the region clock; restarts always resume after
  /// duration_us.
  [[nodiscard]] Result<void> apply_fault(const json::Value& body);

  [[nodiscard]] json::Value info_json() const;
  [[nodiscard]] json::Value headroom_json() const;
  [[nodiscard]] json::Value summary_json() const;

  /// Mobility engine; null unless the scenario has an enabled mobility
  /// block. Valid for the node's lifetime.
  [[nodiscard]] mobility::Field* field() noexcept { return region_->field(); }

  /// GET /federation/mobility: population + handover/roaming counters.
  [[nodiscard]] json::Value mobility_json() const;
  /// POST /federation/mobility/ingress: admit roamers arriving from a
  /// neighbour region. Body: one batch of a tick reply, {"side": 1|-1,
  /// "plmn": [...], "cqi": [...], "y_mm": [...]}, columns of equal
  /// length. Returns {"region", "admitted", "dropped"}. A body with a
  /// bad side, a missing or ragged column or an out-of-range value is
  /// invalid_argument and admits nobody.
  [[nodiscard]] Result<json::Value> admit_roamers(const json::Value& body);

  /// GET /metrics body: the region registry snapshot plus the tracer's
  /// status (per-lane ring-overwrite drop counters included), so silent
  /// span loss is visible wherever metrics are scraped.
  [[nodiscard]] std::string metrics_body() const;
  /// GET /federation/metrics body: {"region", "metrics": export_json()}
  /// — the full-fidelity, mergeable form the broker aggregates.
  [[nodiscard]] std::string federation_metrics_body() const;
  /// GET /federation/trace body: {"region", "dropped", "spans": [...]}
  /// — this region's spans in span-id order, byte-identical whether the
  /// region ran in the broker's process or its own.
  [[nodiscard]] std::string federation_trace_body() const;

  /// The northbound REST surface (routes above). Handlers capture
  /// `this`; the node must outlive the router.
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

 private:
  RegionPlan plan_;
  telemetry::trace::ComponentRef component_;  ///< "edge.<region>" trace identity
  std::unique_ptr<scenario::Region> region_;
};

}  // namespace slices::federation
