#include "core/request_generator.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace slices::core {
namespace {

/// Gap returned when the remaining schedule has rate zero forever —
/// far beyond any practical scenario horizon, never scheduled in
/// practice (callers stop at the scenario end).
constexpr double kNeverHours = 1e8;

}  // namespace

RequestGenerator::RequestGenerator(RequestGeneratorConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  assert(config_.arrivals_per_hour >= 0.0);
  assert(config_.min_duration > Duration::zero());
  assert(config_.max_duration >= config_.min_duration);
  assert(config_.price_dispersion >= 0.0 && config_.price_dispersion < 1.0);
  assert(config_.diurnal_depth >= 0.0 && config_.diurnal_depth <= 1.0);
  assert(config_.diurnal_period > Duration::zero());
  // The constant-rate entry point requires a positive rate; schedules
  // may legitimately contain zero-rate stretches.
  assert(config_.arrivals_per_hour > 0.0 || !config_.rate_schedule.empty());
#ifndef NDEBUG
  for (std::size_t i = 1; i < config_.rate_schedule.size(); ++i) {
    assert(config_.rate_schedule[i - 1].at < config_.rate_schedule[i].at &&
           "rate_schedule must be sorted by time");
  }
  for (const RatePoint& p : config_.rate_schedule) assert(p.arrivals_per_hour >= 0.0);
#endif
  if (config_.verticals.empty()) config_.verticals = traffic::all_verticals();
}

double RequestGenerator::step_rate_at(Duration at) const noexcept {
  double rate = config_.arrivals_per_hour;
  for (const RatePoint& p : config_.rate_schedule) {
    if (p.at <= at) {
      rate = p.arrivals_per_hour;
    } else {
      break;
    }
  }
  return rate;
}

std::optional<Duration> RequestGenerator::next_boundary(Duration at) const noexcept {
  for (const RatePoint& p : config_.rate_schedule) {
    if (p.at > at) return p.at;
  }
  return std::nullopt;
}

double RequestGenerator::rate_at(SimTime t) const noexcept {
  const Duration elapsed = Duration::micros(t.as_micros());
  double rate = step_rate_at(elapsed);
  if (config_.diurnal_depth > 0.0) {
    const double angle = 2.0 * std::numbers::pi *
                         (t.as_seconds() / config_.diurnal_period.as_seconds());
    rate *= 1.0 + config_.diurnal_depth * std::sin(angle);
  }
  return rate < 0.0 ? 0.0 : rate;
}

Duration RequestGenerator::next_interarrival(SimTime from) {
  const Duration elapsed = Duration::micros(from.as_micros());

  // Constant rate: the exact draw (and RNG consumption) of the original
  // generator, so old seeds replay bit-identically.
  if (config_.rate_schedule.empty() && config_.diurnal_depth == 0.0) {
    return Duration::hours(rng_.exponential(config_.arrivals_per_hour));
  }

  if (config_.diurnal_depth == 0.0) {
    // Piecewise-constant: exponential within the current step; if the
    // draw crosses the next boundary, restart there (memoryless — the
    // restarted process is exactly the non-homogeneous one).
    Duration at = elapsed;
    while (true) {
      const double rate = step_rate_at(at);
      const std::optional<Duration> boundary = next_boundary(at);
      if (rate <= 0.0) {
        if (!boundary) return Duration::hours(kNeverHours);
        at = *boundary;
        continue;
      }
      const Duration gap = Duration::hours(rng_.exponential(rate));
      if (boundary && at + gap >= *boundary) {
        at = *boundary;
        continue;
      }
      return at + gap - elapsed;
    }
  }

  // Diurnal modulation: Lewis–Shedler thinning against the peak rate.
  double peak_step = config_.arrivals_per_hour;
  for (const RatePoint& p : config_.rate_schedule) {
    peak_step = std::max(peak_step, p.arrivals_per_hour);
  }
  const double rate_max = peak_step * (1.0 + config_.diurnal_depth);
  if (rate_max <= 0.0) return Duration::hours(kNeverHours);
  Duration at = elapsed;
  // Bounded candidate count: each iteration advances `at` by an Exp
  // draw, so hitting the bound means the accepted rate is ~0 everywhere.
  for (int i = 0; i < 1000000; ++i) {
    at += Duration::hours(rng_.exponential(rate_max));
    const double rate = rate_at(SimTime::from_micros(at.as_micros()));
    if (rng_.uniform() * rate_max < rate) return at - elapsed;
  }
  return Duration::hours(kNeverHours);
}

GeneratedRequest RequestGenerator::next_request() {
  const std::size_t pick = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(config_.verticals.size()) - 1));
  const traffic::Vertical vertical = config_.verticals[pick];
  const Duration duration = Duration::seconds(rng_.uniform(
      config_.min_duration.as_seconds(), config_.max_duration.as_seconds()));

  SliceSpec spec = SliceSpec::from_profile(traffic::profile_for(vertical), duration);
  const double price_scale =
      rng_.uniform(1.0 - config_.price_dispersion, 1.0 + config_.price_dispersion);
  spec.price_per_hour = spec.price_per_hour * price_scale;
  spec.penalty_per_violation = spec.penalty_per_violation * price_scale;

  GeneratedRequest out;
  out.spec = std::move(spec);
  // Same RNG consumption as the original `rng_.fork()` (which seeded the
  // child with next_u64()), but the seed is kept so record/replay can
  // rebuild an identical workload process.
  out.workload_seed = rng_.next_u64();
  out.workload = traffic::make_traffic(vertical, Rng(out.workload_seed));
  return out;
}

}  // namespace slices::core
