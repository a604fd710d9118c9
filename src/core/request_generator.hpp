#pragma once
// Stochastic slice-request workload for admission experiments.
//
// The demo operator requests slices by hand through the dashboard; the
// admission experiments (D1, A1) need a reproducible stream of
// heterogeneous requests instead: Poisson arrivals, vertical mix,
// dispersed durations and prices. Each generated request comes with the
// matching demand workload so the slice actually offers traffic once
// admitted.
//
// Arrival rates may be time-varying: a piecewise-constant schedule
// (scenario phases) and/or a sinusoidal diurnal modulation. The
// constant-rate path consumes the RNG stream exactly as the original
// generator did, so old seeds reproduce bit-identical request streams.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/slice.hpp"
#include "traffic/model.hpp"
#include "traffic/verticals.hpp"

namespace slices::core {

/// One step of a piecewise-constant arrival-rate schedule: from `at`
/// (inclusive) onward the Poisson rate is `arrivals_per_hour`, until the
/// next later point takes over.
struct RatePoint {
  Duration at;
  double arrivals_per_hour = 0.0;
};

/// Tuning of the request stream.
struct RequestGeneratorConfig {
  /// Base Poisson arrival rate; also the rate before the first
  /// rate_schedule point.
  double arrivals_per_hour = 0.5;
  /// Optional piecewise-constant rate overrides, sorted by `at`
  /// (validated in the constructor). Empty = constant base rate.
  std::vector<RatePoint> rate_schedule;
  /// Optional sinusoidal modulation: the instantaneous rate is scaled by
  /// (1 + diurnal_depth * sin(2π t / diurnal_period)). 0 = off.
  double diurnal_depth = 0.0;
  Duration diurnal_period = Duration::hours(24.0);
  Duration min_duration = Duration::hours(2.0);
  Duration max_duration = Duration::hours(24.0);
  /// Prices/penalties are scaled by a uniform factor in
  /// [1 − dispersion, 1 + dispersion] to differentiate tenants.
  double price_dispersion = 0.4;
  /// Vertical mix; empty means all built-in verticals, equally likely.
  std::vector<traffic::Vertical> verticals;
};

/// One generated request: the spec plus the tenant's demand process
/// (and the seed it was built from, so record/replay can rebuild it).
struct GeneratedRequest {
  SliceSpec spec;
  std::unique_ptr<traffic::TrafficModel> workload;
  std::uint64_t workload_seed = 0;
};

/// Deterministic (seeded) request stream.
class RequestGenerator {
 public:
  RequestGenerator(RequestGeneratorConfig config, Rng rng);

  /// Gap from `from` to the next arrival of the (possibly
  /// non-homogeneous) Poisson process. A constant-rate configuration (no
  /// schedule, no diurnal modulation) draws one exponential gap. A
  /// zero-rate stretch with no later positive-rate step yields a sentinel gap far
  /// past any practical scenario horizon (~10k years).
  [[nodiscard]] Duration next_interarrival(SimTime from);

  /// Draw the next request.
  [[nodiscard]] GeneratedRequest next_request();

  /// Instantaneous arrival rate at `t` (schedule x diurnal modulation).
  [[nodiscard]] double rate_at(SimTime t) const noexcept;

  [[nodiscard]] const RequestGeneratorConfig& config() const noexcept { return config_; }

 private:
  /// Piecewise-constant component of the rate at elapsed time `at`.
  [[nodiscard]] double step_rate_at(Duration at) const noexcept;
  /// Next schedule boundary strictly after `at`; nullopt when none.
  [[nodiscard]] std::optional<Duration> next_boundary(Duration at) const noexcept;

  RequestGeneratorConfig config_;
  Rng rng_;
};

}  // namespace slices::core
