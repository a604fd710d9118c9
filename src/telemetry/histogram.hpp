#pragma once
// Mergeable log-linear latency histogram (HdrHistogram-style bucketing).
// Values are non-negative integers (microseconds in practice). Each
// power-of-two octave is split into SubBuckets linear sub-buckets, so
// the relative quantile error is bounded by 1/SubBuckets (6.25% at the
// default 16) while the bucket count stays logarithmic in the range.
//
// Buckets are plain additive counts, so merging histograms — across
// epochs, threads, or components — is an elementwise sum and is
// associative; quantiles computed from a merge equal quantiles over the
// concatenated samples up to bucket resolution.
//
// Determinism rule: histograms registered in a MonitorRegistry are
// serialized into /metrics and compared bit-for-bit by determinism_test,
// so only sim-derived or otherwise reproducible values may be recorded
// there by default. Wall-clock observations must stay behind
// trace::wall_clock() (see docs/observability.md).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "json/value.hpp"

namespace slices::telemetry {

/// Log-linear histogram over uint64 values with p50/p90/p99/p999 export.
class Histogram {
 public:
  /// Sub-buckets per octave; power of two. Relative error <= 1/SubBuckets.
  static constexpr std::uint64_t kSubBucketBits = 4;
  static constexpr std::uint64_t kSubBuckets = 1u << kSubBucketBits;
  /// Index of the bucket holding UINT64_MAX, the last one record() can fill.
  static constexpr std::size_t kMaxBucket = (64 - kSubBucketBits + 1) * kSubBuckets - 1;

  void record(std::uint64_t value) noexcept {
    const std::size_t i = bucket_index(value);
    if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
    ++buckets_[i];
    ++count_;
    sum_ += value;
    min_ = count_ == 1 ? value : (value < min_ ? value : min_);
    max_ = count_ == 1 ? value : (value > max_ ? value : max_);
  }

  /// Full-fidelity export for cross-process merging: the scalar state
  /// plus the non-zero buckets as [index, count] pairs. Unlike the
  /// quantile summary in MonitorRegistry snapshots, this loses nothing:
  /// merge_json(to_json()) into an empty histogram reproduces the
  /// original bit for bit.
  [[nodiscard]] json::Value to_json() const {
    json::Object out;
    json::Array buckets;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      json::Array pair;
      pair.emplace_back(static_cast<double>(i));
      pair.emplace_back(static_cast<double>(buckets_[i]));
      buckets.push_back(std::move(pair));
    }
    out.emplace("buckets", std::move(buckets));
    out.emplace("count", static_cast<double>(count_));
    out.emplace("max", static_cast<double>(max_));
    out.emplace("min", static_cast<double>(min_));
    out.emplace("sum", static_cast<double>(sum_));
    return out;
  }

  /// Elementwise-add a to_json() document into this histogram. The
  /// document comes off the wire (a remote edge's
  /// /federation/metrics), so every number is range-checked: malformed
  /// documents are ignored, and malformed bucket pairs (including an
  /// index past the last bucket a uint64 can reach) are skipped.
  void merge_json(const json::Value& doc) {
    if (!doc.is_object()) return;
    const auto field = [&doc](std::string_view key) {
      return json::to_integer<std::uint64_t>(doc.find(key));
    };
    const std::optional<std::uint64_t> other_count = field("count");
    const std::optional<std::uint64_t> other_sum = field("sum");
    const std::optional<std::uint64_t> other_min = field("min");
    const std::optional<std::uint64_t> other_max = field("max");
    const json::Value* buckets = doc.find("buckets");
    if (!other_count || !other_sum || !other_min || !other_max || buckets == nullptr ||
        !buckets->is_array()) {
      return;
    }
    if (*other_count == 0) return;
    for (const json::Value& pair : buckets->as_array()) {
      if (!pair.is_array() || pair.as_array().size() != 2) continue;
      const std::optional<std::size_t> i =
          json::to_integer<std::size_t>(&pair.as_array()[0], 0, kMaxBucket);
      const std::optional<std::uint64_t> bucket_count =
          json::to_integer<std::uint64_t>(&pair.as_array()[1]);
      if (!i || !bucket_count) continue;
      if (*i >= buckets_.size()) buckets_.resize(*i + 1, 0);
      buckets_[*i] += *bucket_count;
    }
    min_ = count_ == 0 ? *other_min : (*other_min < min_ ? *other_min : min_);
    max_ = count_ == 0 ? *other_max : (*other_max > max_ ? *other_max : max_);
    count_ += *other_count;
    sum_ += *other_sum;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t minimum() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t maximum() const noexcept { return max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Quantile (q in [0,1]) with linear interpolation inside the bucket.
  /// Clamped to the observed [min, max] so tails never report values
  /// outside what was actually recorded.
  [[nodiscard]] double value_at_quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      const double before = static_cast<double>(cumulative);
      cumulative += buckets_[i];
      if (static_cast<double>(cumulative) <= rank) continue;
      const double lo = static_cast<double>(bucket_lower(i));
      const double hi = static_cast<double>(bucket_upper(i));
      const double frac = (rank - before) / static_cast<double>(buckets_[i]);
      const double v = lo + frac * (hi - lo);
      const double lo_clamp = static_cast<double>(min_);
      const double hi_clamp = static_cast<double>(max_);
      return v < lo_clamp ? lo_clamp : (v > hi_clamp ? hi_clamp : v);
    }
    return static_cast<double>(max_);
  }

  /// Bucket index for `value`: identity below kSubBuckets, then
  /// (octave, sub-bucket) with kSubBuckets linear steps per octave.
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const auto exponent = static_cast<std::uint64_t>(std::bit_width(value) - 1);
    const std::uint64_t shift = exponent - kSubBucketBits;
    return static_cast<std::size_t>((shift + 1) * kSubBuckets + ((value >> shift) - kSubBuckets));
  }

  /// Smallest value mapping to bucket `i` (inverse of bucket_index).
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t i) noexcept {
    if (i < kSubBuckets) return i;
    const std::uint64_t octave = i / kSubBuckets;  // >= 1
    const std::uint64_t sub = i % kSubBuckets;
    return (kSubBuckets + sub) << (octave - 1);
  }

  /// Largest value mapping to bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept {
    return bucket_lower(i + 1) - 1;
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

static_assert(Histogram::bucket_index(~std::uint64_t{0}) == Histogram::kMaxBucket);

}  // namespace slices::telemetry
