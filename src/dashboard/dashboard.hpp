#pragma once
// The control dashboard of the demo, rendered as text/JSON.
//
// "All operations are displayed in a control dashboard that shows the
// installed network slices resource utilization as well as the achieved
// multiplexing gains." The Dashboard reads orchestrator + controller
// state and renders the same panels: the slice table, per-domain
// utilization, and the gains-vs-penalties headline.

#include <string>

#include "core/testbed.hpp"
#include "json/value.hpp"

namespace slices::dashboard {

/// Renders panels from a live testbed. Non-owning; the testbed must
/// outlive the dashboard.
class Dashboard {
 public:
  explicit Dashboard(const core::Testbed* testbed) : testbed_(testbed) {}

  /// The slice table: one row per open slice (pending, installing,
  /// active).
  [[nodiscard]] std::string render_slices() const;

  /// Per-domain utilization: cells (PRBs), links (reserved/effective),
  /// datacenters (vCPUs).
  [[nodiscard]] std::string render_domains() const;

  /// The headline panel: multiplexing gain, earned vs penalties, net.
  [[nodiscard]] std::string render_headline() const;

  /// REST-bus traffic counters (the controller <-> orchestrator feed).
  [[nodiscard]] std::string render_bus() const;

  /// Liveness panel: the orchestrator's /healthz document as a table
  /// (status, component reachability, journal lag, last epoch, tracer).
  [[nodiscard]] std::string render_health() const;

  /// The most recent orchestration events (the demo's activity feed).
  [[nodiscard]] std::string render_events(std::size_t count = 12) const;

  /// Federation pane, rendered from a broker /federation/metrics
  /// document (GET it from the facade or Broker::federation_metrics_json):
  /// broker placement/SLO instruments plus a per-region roll-up of each
  /// edge's registry export. Static because the document comes from the
  /// broker, not from this dashboard's single-region testbed.
  [[nodiscard]] static std::string render_federation(const json::Value& metrics);

  /// Mobility pane from the same merged /federation/metrics document:
  /// per-region handover attempt/success/drop counters (the edges'
  /// ran.handover.* instruments) plus the broker's inter-region roam
  /// funnel. Empty string when the run carries no mobility signal, so
  /// static-UE deployments render exactly as before.
  [[nodiscard]] static std::string render_mobility(const json::Value& metrics);

  /// All panels concatenated.
  [[nodiscard]] std::string render_all() const;

  /// Machine-readable snapshot of everything the panels show.
  [[nodiscard]] json::Value snapshot() const;

 private:
  const core::Testbed* testbed_;
};

}  // namespace slices::dashboard
