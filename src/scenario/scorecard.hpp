#pragma once
// The score layer of both scenario drivers (docs/scenarios.md).
//
// The paper's orchestrator is scored by one ledger: admissions, SLA
// violations, earnings against penalties, and the multiplexing gain of
// overbooking. ScorecardCore holds that ledger once; the fig2 Scorecard
// and the metro federation::FederatedScorecard each add only their own
// sections. RegionTally is one region's end-of-run share of the ledger,
// read by the fig2 card directly and served by a metro region as
// /federation/summary.
//
// Every number in the default scorecard is derived from simulated time
// and deterministic state, so the same scenario + seed serializes to
// byte-identical JSON regardless of epoch_threads or host speed — the
// property scenario_test pins. Wall-clock profiling is opt-in and lands
// in a separate, explicitly nondeterministic section.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "json/value.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/histogram.hpp"

namespace slices::scenario {

/// Summary of a telemetry::Histogram, scaled into reporting units.
struct Percentiles {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;

  [[nodiscard]] static Percentiles of(const telemetry::Histogram& hist, double scale = 1.0);
  [[nodiscard]] json::Value to_json() const;
};

/// Multiplexing-gain samples, one per scored epoch tick.
struct GainAccumulator {
  double sum = 0.0;
  std::uint64_t samples = 0;
  double peak = 1.0;

  void record(double gain) noexcept {
    sum += gain;
    ++samples;
    if (gain > peak) peak = gain;
  }
  /// 1 (no overbooking) before the first sample.
  [[nodiscard]] double mean() const noexcept {
    return samples == 0 ? 1.0 : sum / static_cast<double>(samples);
  }
};

/// One region's end-of-run numbers, all read from its
/// OrchestratorSummary (the closed slices' counts are running totals).
struct RegionTally {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t active_at_end = 0;  ///< installing or active at the horizon
  std::uint64_t expired = 0;
  std::uint64_t terminated = 0;
  std::uint64_t served_epochs = 0;
  std::uint64_t violation_epochs = 0;
  std::int64_t earned_cents = 0;
  std::int64_t penalty_cents = 0;
  std::int64_t net_cents = 0;
  std::uint64_t reconfigurations = 0;
  double contracted_mbps = 0.0;
  double reserved_mbps = 0.0;
  double multiplexing_gain = 1.0;

  /// Add every field to `out` under its own name.
  void write(json::Object& out) const;
  /// Decode a body written by write() that crossed a socket: integers
  /// go through json::to_integer (0 when absent or out of range),
  /// absent numbers keep their defaults.
  void read(const json::Value& doc);
};

/// The sections both scorecards share.
struct ScorecardCore {
  std::string scenario;
  std::uint64_t seed = 0;
  double duration_hours = 0.0;

  // Admission funnel.
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double admission_rate = 0.0;  ///< admitted / max(1, admitted + rejected)

  // SLA ledger.
  std::uint64_t served_epochs = 0;
  std::uint64_t violation_epochs = 0;
  double violation_rate = 0.0;  ///< violation / max(1, served)

  // Revenue (integer cents — exact).
  std::int64_t earned_cents = 0;
  std::int64_t penalty_cents = 0;
  std::int64_t net_cents = 0;

  // Overbooking.
  double multiplexing_gain_mean = 1.0;
  double multiplexing_gain_peak = 1.0;
  std::uint64_t reconfigurations = 0;

  // Operations.
  std::uint64_t epochs = 0;  ///< fig2: epochs that ran (not suspended); metro: broker ticks
  std::uint64_t events_injected = 0;  ///< concrete failure/chaos actions applied

  // Mobility & handover: serialized only when the scenario enables the
  // subsystem, so static-UE scorecards keep their exact byte layout.
  bool mobility_enabled = false;
  std::uint64_t handover_attempts = 0;  ///< intra-region, RAN-side
  std::uint64_t handover_successes = 0;
  std::uint64_t handover_drops = 0;
  std::uint64_t mobile_population = 0;  ///< live mobile UEs at the horizon

  // Target evaluation (empty failures + true when no targets set).
  bool targets_met = true;
  std::vector<std::string> target_failures;

  /// Add one region's admissions, SLA epochs, revenue and
  /// reconfigurations, saturating at each field's limits. Rejections
  /// are the caller's to set: fig2 takes its region's, a metro the
  /// broker's.
  void add_region(const RegionTally& region);
  /// Derive admission_rate, violation_rate and the gain mean and peak.
  void derive(const GainAccumulator& gain);
  /// The shared sections; a card adds its own sections (and its own
  /// keys inside "ops" and "mobility") to the returned object.
  [[nodiscard]] json::Object shared_json() const;
};

/// Fixed four-decimal rendering used in target and fault messages.
[[nodiscard]] std::string format_rate(double v);

/// Check the scenario's targets against a card's headline numbers: one
/// failure message per missed target, in declaration order.
void evaluate_targets(const ScenarioTargets& targets, ScorecardCore& card);

/// The scored outcome of one fig2 run.
struct Scorecard : ScorecardCore {
  // Lifecycle census at the end of the run.
  std::uint64_t active_at_end = 0;
  std::uint64_t expired = 0;
  std::uint64_t terminated = 0;

  // Churn-storm operations.
  std::uint64_t ue_arrivals = 0;  ///< churn-storm UE attach attempts
  std::uint64_t ue_blocked = 0;

  Percentiles install_ms;      ///< end-to-end install latency (simulated, ms)
  Percentiles active_slices;   ///< per-epoch active-slice count
  Percentiles reserved_mbps;   ///< per-epoch total reservation

  // Mobility beyond the shared trio.
  std::uint64_t mobility_exits = 0;      ///< UEs that roamed out across a region border
  std::uint64_t roamers_admitted = 0;    ///< inbound roamers re-attached here
  std::uint64_t roamers_dropped = 0;

  /// Wall-clock epoch latency (µs); only with RunOptions::wall_profile.
  /// Nondeterministic — excluded from determinism/parity comparisons by
  /// keeping it out of to_json() unless present.
  std::optional<Percentiles> epoch_wall_us;

  [[nodiscard]] json::Value to_json() const;
  /// Pretty JSON with a trailing newline.
  [[nodiscard]] std::string serialize() const;
};

}  // namespace slices::scenario
