#pragma once
// Small statistics toolkit: Welford online accumulator and quantile
// estimation over sample vectors. Only the benches (run summaries,
// latency percentiles) and telemetry_test use it.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

namespace slices::telemetry {

/// Numerically stable online mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : (x < min_ ? x : min_);
    max_ = n_ == 1 ? x : (x > max_ ? x : max_);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance; 0 when fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double minimum() const noexcept { return min_; }
  [[nodiscard]] double maximum() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Single-quantile (q in [0,1]) selection with linear interpolation
/// between order statistics; partially reorders `values` in place.
/// O(n) via nth_element instead of a full sort — the fast path when one
/// quantile is needed from a scratch buffer.
[[nodiscard]] inline double quantile_inplace(std::vector<double>& values, double q) {
  assert(!values.empty());
  assert(q >= 0.0 && q <= 1.0);
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_v = *lo_it;
  if (frac == 0.0 || lo + 1 >= values.size()) return lo_v;
  // The (lo+1)-th order statistic is the minimum of the upper partition.
  const double hi_v = *std::min_element(lo_it + 1, values.end());
  return lo_v * (1.0 - frac) + hi_v * frac;
}

/// Quantile (q in [0,1]) by linear interpolation between order
/// statistics. Copies its input; intended for report-time use. Callers
/// that own a scratch vector should use quantile_inplace directly.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  return quantile_inplace(values, q);
}

/// Mean absolute error between two equal-length vectors.
[[nodiscard]] inline double mean_absolute_error(const std::vector<double>& a,
                                                const std::vector<double>& b) {
  assert(a.size() == b.size() && !a.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

/// Root-mean-square error between two equal-length vectors.
[[nodiscard]] inline double root_mean_square_error(const std::vector<double>& a,
                                                   const std::vector<double>& b) {
  assert(a.size() == b.size() && !a.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace slices::telemetry
