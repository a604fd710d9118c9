#pragma once
// Bounded time series of (time, value) samples — the storage behind all
// monitoring in the system. Controllers append utilization samples; the
// forecasting engine reads windows of history out of these buffers.

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/units.hpp"

namespace slices::telemetry {

/// A single monitoring sample.
struct Sample {
  SimTime time;
  double value = 0.0;

  friend constexpr bool operator==(const Sample&, const Sample&) noexcept = default;
};

/// Fixed-capacity ring buffer of samples ordered by append time.
/// Appends must be non-decreasing in time (monitoring is causal).
class TimeSeries {
 public:
  /// Capacity must be positive; old samples are evicted FIFO.
  explicit TimeSeries(std::size_t capacity) : capacity_(capacity) {
    assert(capacity > 0);
    buffer_.reserve(capacity);
  }

  /// Append a sample. Precondition: time >= time of last sample.
  void append(SimTime time, double value) {
    assert(empty() || time >= back().time);
    if (buffer_.size() < capacity_) {
      buffer_.push_back(Sample{time, value});
    } else {
      buffer_[head_] = Sample{time, value};
      head_ = (head_ + 1) % capacity_;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// i-th sample in chronological order, 0 = oldest retained.
  [[nodiscard]] const Sample& at(std::size_t i) const {
    assert(i < size());
    return buffer_[(head_ + i) % buffer_.size()];
  }

  /// Most recent sample. Precondition: !empty().
  [[nodiscard]] const Sample& back() const {
    assert(!empty());
    return at(size() - 1);
  }

  /// Most recent value, or `fallback` when no samples exist yet.
  [[nodiscard]] double latest_or(double fallback) const noexcept {
    return empty() ? fallback : back().value;
  }

  /// Mean of the most recent `n` values (summed oldest first); nullopt
  /// when empty. Walks the ring in place: /metrics calls this for every
  /// series on every poll.
  [[nodiscard]] std::optional<double> mean_last(std::size_t n) const {
    if (empty()) return std::nullopt;
    const std::size_t count = n < size() ? n : size();
    double sum = 0.0;
    for (std::size_t i = size() - count; i < size(); ++i) sum += at(i).value;
    return sum / static_cast<double>(count);
  }

  /// Maximum of the most recent `n` values; nullopt when empty.
  [[nodiscard]] std::optional<double> max_last(std::size_t n) const {
    if (empty()) return std::nullopt;
    const std::size_t count = n < size() ? n : size();
    double m = at(size() - count).value;
    for (std::size_t i = size() - count; i < size(); ++i) m = at(i).value > m ? at(i).value : m;
    return m;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of oldest element once full
  std::vector<Sample> buffer_;
};

}  // namespace slices::telemetry
