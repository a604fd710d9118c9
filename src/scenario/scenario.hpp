#pragma once
// Declarative end-to-end scenario DSL (docs/scenarios.md).
//
// A scenario is one JSON document describing everything a reproducible
// experiment needs: the topology preset, orchestrator tuning, a
// stochastic workload (possibly phase- and diurnally-modulated), a
// timeline of injected failures (link/cell/datacenter outages,
// controller restarts, UE churn storms), optional explicit requests
// (used by record/replay) and pass/fail targets for the scorecard.
//
// Parsing is strict: unknown keys, duplicate keys, out-of-range rates
// and overlapping phases are rejected with line- or field-precise
// messages ("events[3].period_minutes must be > 0"), never silently
// defaulted. serialize_scenario() is canonical — parsing its output
// reproduces the same Scenario, which the round-trip tests rely on.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "core/orchestrator.hpp"
#include "core/request_generator.hpp"
#include "core/slice.hpp"
#include "json/value.hpp"
#include "mobility/model.hpp"
#include "traffic/verticals.hpp"

namespace slices::scenario {

/// Failure/chaos event kinds injectable on the simulation clock.
enum class EventKind {
  link_down,           ///< take a transport link down (optionally auto-restore)
  link_up,             ///< bring a link back
  link_flap,           ///< `count` down/up cycles of period `flap_period`
  cell_down,           ///< deactivate an eNB cell (optionally auto-restore)
  cell_up,             ///< reactivate a cell
  dc_down,             ///< fail a datacenter site; live slices there are torn down
  dc_up,               ///< recover a datacenter
  controller_restart,  ///< suspend the orchestration loop for `duration`
  churn_storm,         ///< burst of UE arrivals on every active slice
};

[[nodiscard]] std::string_view to_string(EventKind k) noexcept;

/// One timeline entry. Which fields are meaningful depends on `kind`
/// (see docs/scenarios.md); parse-time validation enforces it.
struct ScenarioEvent {
  Duration at;                       ///< injection time from scenario start
  EventKind kind = EventKind::link_down;
  /// fig2: link "mmwave"/"uwave", cell "a"/"b" or dc "edge"/"core";
  /// metro: cell "c<k>" or dc "core"/"edge<k>".
  std::string target;
  Duration duration;                 ///< auto-restore delay / restart & storm length; zero = none
  int flap_count = 0;                ///< link_flap: number of down/up cycles
  Duration flap_period;              ///< link_flap: cycle period
  Duration flap_down;                ///< link_flap: down time per cycle (< period)
  double storm_ues_per_hour = 0.0;   ///< churn_storm: per-slice arrival rate
  Duration storm_mean_holding;       ///< churn_storm: mean UE holding time
  /// Metro topologies only: the region ("r0".."rN-1") the fault hits.
  /// Empty on "fig2" scenarios — single-region semantics are unchanged
  /// and fig2 documents serialize byte-identically to before.
  std::string region;
};

/// A workload phase: a time window that overrides the Poisson arrival
/// rate and/or scales every active slice's offered demand (a surge).
struct Phase {
  std::string name;
  Duration start;
  Duration end;
  /// Arrival rate inside the window; unset inherits the workload base rate.
  std::optional<double> arrivals_per_hour;
  /// Multiplier on every slice's offered demand inside the window.
  double demand_scale = 1.0;
};

/// One explicit request (replay path — recorded streams replay these
/// instead of re-drawing from the generator).
struct ScenarioRequest {
  Duration at;                        ///< submission time from scenario start
  core::SliceSpec spec;
  std::uint64_t workload_seed = 0;    ///< seeds the demand model (traffic::make_traffic)
  /// Metro topologies only: home region of the tenant ("r0".."rN-1");
  /// empty lets the federation broker draw one deterministically.
  std::string region;
};

/// Federated (metro) deployment shape; meaningful only when
/// Scenario::topology == "metro". Defaults describe a small 4-region
/// city; bench_s1 scales the same generator to 1024+ cells.
struct FederationSpec {
  std::size_t regions = 4;
  std::size_t cells_per_region = 16;
  std::size_t edge_dcs_per_region = 1;  ///< plus one core DC per region
  std::size_t hosts_per_dc = 2;
  std::string backbone = "ring";        ///< inter-region fabric: "ring" | "mesh"
  double backbone_gbps = 40.0;          ///< capacity of each backbone leg
};

/// One scheduled mobility storm (the `mobility.storms[]` array).
struct MobilityStorm {
  mobility::StormKind kind = mobility::StormKind::stadium_ingress;
  Duration at;              ///< window start, from scenario start
  Duration duration;        ///< window length
  double fraction = 0.25;   ///< participating share of each region's UEs
  /// Stadium focus cell — "a"/"b" on fig2, "c<k>" on metro; empty =
  /// first cell. Not accepted on commuter waves (they target a border).
  std::string cell;
  /// Metro only: region the storm hits; empty = every region.
  std::string region;
};

/// The `mobility` block: moving-UE populations and their storms.
/// Meaningful only when `enabled` (a document without the block keeps
/// the static-UE behaviour and its exact byte layout).
struct MobilitySpec {
  bool enabled = false;
  double cell_spacing_m = 500.0;     ///< cell-grid pitch of each region
  double default_speed_mps = 1.4;    ///< pedestrian default
  std::size_t ues_per_slice = 50;    ///< mobile population per admitted slice
  int cqi_min = 5;                   ///< spawn-time CQI draw range
  int cqi_max = 15;
  /// Per-vertical speed overrides (m/s), canonical order of
  /// traffic::all_verticals().
  std::vector<std::pair<traffic::Vertical, double>> speed_classes;
  std::vector<MobilityStorm> storms;
};

/// Pass/fail thresholds evaluated against the final scorecard. Any
/// unset target is not checked.
struct ScenarioTargets {
  std::optional<double> min_admission_rate;     ///< admitted / decided, in [0,1]
  std::optional<double> max_violation_rate;     ///< violation epochs / served epochs
  std::optional<double> min_net_revenue;        ///< monetary units
  std::optional<double> min_multiplexing_gain;  ///< mean contracted/reserved

  [[nodiscard]] bool any() const noexcept {
    return min_admission_rate || max_violation_rate || min_net_revenue ||
           min_multiplexing_gain;
  }
};

/// The parsed scenario document.
struct Scenario {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;
  Duration duration = Duration::hours(24.0);
  std::string topology = "fig2";        ///< "fig2" (testbed) or "metro" (federated)
  /// Metro shape; defaults apply when topology == "metro" and the
  /// document has no "federation" object. Ignored on "fig2".
  FederationSpec federation;
  core::OrchestratorConfig orchestrator;
  /// Stochastic workload; `rate_schedule` stays empty here — phases are
  /// compiled into a schedule by the runner.
  core::RequestGeneratorConfig workload;
  /// Moving-UE population; disabled unless the document has a
  /// "mobility" block.
  MobilitySpec mobility;
  /// False for recorded scenarios: only `requests` are submitted.
  bool generate_arrivals = true;
  std::vector<Phase> phases;
  std::vector<ScenarioEvent> events;
  std::vector<ScenarioRequest> requests;
  ScenarioTargets targets;
};

/// Parse a scenario document. JSON syntax errors are protocol_error
/// with "line L, column C"; semantic errors are invalid_argument with
/// the offending field path. Duplicate object keys are rejected.
[[nodiscard]] Result<Scenario> parse_scenario(std::string_view text);

/// Same, from an already-parsed document (record/replay path).
[[nodiscard]] Result<Scenario> scenario_from_json(const json::Value& doc);

/// Canonical JSON form: every field explicit, sorted keys. Parsing the
/// output reproduces the same Scenario.
[[nodiscard]] json::Value scenario_to_json(const Scenario& scenario);

/// Pretty-printed scenario_to_json() with a trailing newline.
[[nodiscard]] std::string serialize_scenario(const Scenario& scenario);

/// Read + parse a scenario file. Errors: unavailable (I/O), plus parse
/// errors prefixed with the path.
[[nodiscard]] Result<Scenario> load_scenario_file(const std::string& path);

// Per-entry converters, shared with the recorder (journal records carry
// the same JSON shapes as the DSL arrays).
[[nodiscard]] json::Value event_to_json(const ScenarioEvent& event);
[[nodiscard]] json::Value request_to_json(const ScenarioRequest& request);
[[nodiscard]] Result<ScenarioEvent> event_from_json(const json::Value& doc);
[[nodiscard]] Result<ScenarioRequest> request_from_json(const json::Value& doc);

// Grammar-selecting variants: `fed` != nullptr parses with metro
// semantics (region-scoped targets, optional request homes). The
// recorder uses these to replay metro journals; nullptr behaves exactly
// like the overloads above.
[[nodiscard]] Result<ScenarioEvent> event_from_json(const json::Value& doc,
                                                    const FederationSpec* fed);
[[nodiscard]] Result<ScenarioRequest> request_from_json(const json::Value& doc,
                                                        const FederationSpec* fed);

}  // namespace slices::scenario
