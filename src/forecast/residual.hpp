#pragma once
// Residual tracking: turns a point forecaster into an upper-bound
// estimator.
//
// Overbooking needs more than a point forecast — reclaiming reserved
// capacity down to the *expected* demand would violate SLAs roughly half
// the time. The orchestrator therefore tracks one-step-ahead residuals
// (actual − predicted) and adds the empirical q-quantile of recent
// residuals as a safety margin. The quantile q is the orchestrator's
// "risk budget" knob: higher q ⇒ safer ⇒ less reclaimable capacity —
// exactly the multiplexing-gain vs. SLA-penalty trade-off the demo
// dashboard displays.
//
// The window is kept sorted as it is recorded: a FIFO ring remembers
// arrival order (which residual leaves next) and a sorted copy of the
// same values answers quantiles with two array reads. Queries run every
// epoch per slice, on every admission decision and once per backtest
// step, while a record happens once per observation, so the sort cost
// moves to the rare side as two binary searches and one shift.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

namespace slices::forecast {

/// Sliding-window store of forecast residuals with quantile queries.
///
/// Ordering: plain `<`, with every NaN after +inf (all NaNs equivalent).
/// Equivalent values (NaNs among themselves, -0.0 and +0.0) keep their
/// arrival order, so the sorted copy is exactly a stable sort of the
/// window. A NaN residual thus takes a top slot until it leaves the
/// window; a quantile whose interpolation reads a NaN (or multiplies an
/// infinity by a zero weight) is NaN, and safety_margin() turns a NaN
/// quantile into 0. Which of two equal zeros a quantile reads shows only
/// in the sign of a zero quantile; safety_margin() returns +0 for both.
class ResidualTracker {
 public:
  explicit ResidualTracker(std::size_t window = 256) : window_(window) {
    assert(window > 0);
  }

  /// Record a realized residual (actual − predicted). Once the window is
  /// full the oldest residual leaves it; no allocation happens then.
  void record(double residual) {
    if (ring_.size() < window_) {
      ring_.push_back(residual);
      // After every equivalent value: ties stay in arrival order.
      sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), residual, before),
                     residual);
      return;
    }
    const double evicted = ring_[head_];
    ring_[head_] = residual;
    head_ = head_ + 1 == window_ ? 0 : head_ + 1;
    // The evicted residual is the oldest of its equivalents, so it sits
    // first among them. Both positions are taken with it still present;
    // one shift of the values between them replaces it.
    const auto out = std::lower_bound(sorted_.begin(), sorted_.end(), evicted, before);
    const auto at = std::upper_bound(sorted_.begin(), sorted_.end(), residual, before);
    if (at <= out) {
      std::copy_backward(at, out, out + 1);
      *at = residual;
    } else {
      std::copy(out + 1, at, out);
      *(at - 1) = residual;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }

  /// Empirical q-quantile of stored residuals (q in [0,1]), linearly
  /// interpolated between the two nearest order statistics.
  /// Precondition: !empty().
  [[nodiscard]] double quantile(double q) const {
    assert(!empty());
    assert(q >= 0.0 && q <= 1.0);
    if (sorted_.size() == 1) return sorted_.front();
    const double pos = q * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < sorted_.size() ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
  }

  /// Safety margin for confidence q: the q-quantile clamped to >= 0
  /// (a negative margin would *shrink* the forecast, which is never
  /// safe for an upper bound).
  [[nodiscard]] double safety_margin(double q) const {
    if (empty()) return 0.0;
    const double m = quantile(q);
    return m > 0.0 ? m : 0.0;
  }

 private:
  /// The window's strict weak order: `<`, NaN greatest.
  static bool before(double a, double b) noexcept {
    return a < b || (std::isnan(b) && !std::isnan(a));
  }

  std::size_t window_;
  std::vector<double> ring_;    ///< arrival order; ring_[head_] is the oldest once full
  std::vector<double> sorted_;  ///< the same values, stably sorted by before()
  std::size_t head_ = 0;
};

}  // namespace slices::forecast
