#pragma once
// Monitor registry: named counters, gauges and time series owned by one
// component (a controller or the orchestrator). The registry snapshots
// to JSON, which is what each controller's /metrics REST endpoint
// returns to the orchestrator — the "real time monitoring" feed of the
// paper's closed loop (Fig. 1).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "json/value.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/timeseries.hpp"

namespace slices::telemetry {

/// Monotonic event counter.
class Counter {
 public:
  void increment(std::uint64_t by = 1) noexcept { value_ += by; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value (utilization, queue depth, residual capacity...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Stable handle to a (series, gauge) pair resolved once by name.
/// Hot paths intern the dotted key at setup and observe through the
/// handle each epoch instead of rebuilding the string. The pointers
/// stay valid for the registry's lifetime: series are unique_ptr-held
/// and gauges live in std::map nodes, neither of which relocates.
class SeriesHandle {
 public:
  SeriesHandle() = default;

  /// Append to the series and mirror into the gauge, exactly like
  /// MonitorRegistry::observe(name, ...).
  void observe(SimTime time, double value) {
    series_->append(time, value);
    gauge_->set(value);
  }

  [[nodiscard]] bool valid() const noexcept { return series_ != nullptr; }

 private:
  friend class MonitorRegistry;
  SeriesHandle(TimeSeries* series, Gauge* gauge) noexcept : series_(series), gauge_(gauge) {}

  TimeSeries* series_ = nullptr;
  Gauge* gauge_ = nullptr;
};

/// Registry of named instruments. Names are dotted paths, e.g.
/// "cell.1.prb_used" or "slice.7.throughput_mbps".
class MonitorRegistry {
 public:
  explicit MonitorRegistry(std::size_t series_capacity = 4096)
      : series_capacity_(series_capacity) {}

  /// Get or create a counter.
  Counter& counter(const std::string& name) { return counters_[name]; }
  /// Get or create a gauge.
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  /// Get or create a time series (capacity fixed at registry default).
  TimeSeries& series(const std::string& name) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, std::make_unique<TimeSeries>(series_capacity_)).first;
    }
    return *it->second;
  }

  /// Get or create a latency histogram. Histograms serialize as
  /// {"count","max","min","p50","p90","p99","p999","sum"} under the
  /// top-level "histograms" key of snapshot()/metrics_body().
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const {
    const auto it = histograms_.find(std::string(name));
    return it == histograms_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] const TimeSeries* find_series(std::string_view name) const {
    const auto it = series_.find(std::string(name));
    return it == series_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const {
    const auto it = gauges_.find(std::string(name));
    return it == gauges_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Counter* find_counter(std::string_view name) const {
    const auto it = counters_.find(std::string(name));
    return it == counters_.end() ? nullptr : &it->second;
  }

  /// Record a sample into `name`'s series and mirror it into a gauge of
  /// the same name (latest value is often all a caller needs).
  void observe(const std::string& name, SimTime time, double value) {
    series(name).append(time, value);
    gauge(name).set(value);
  }

  /// Resolve (and create if needed) the series+gauge pair for `name`
  /// once; the returned handle observes without any map lookup.
  [[nodiscard]] SeriesHandle handle(const std::string& name) {
    return SeriesHandle{&series(name), &gauge(name)};
  }

  /// Erase every counter, gauge, histogram and series whose name starts
  /// with `prefix` (all of them when empty); returns how many went. End
  /// the prefix with '.' so that "slice.1." leaves "slice.10.*" alone.
  /// Pointers and handles into the erased instruments dangle: drop them
  /// before calling this.
  std::size_t erase_prefix(std::string_view prefix);

  /// Snapshot every instrument whose name starts with `prefix` (all of
  /// them when empty) into a JSON object:
  /// { "counters": {...}, "gauges": {...}, "histograms": {...},
  ///   "series": { name: {"n": ..., "latest": ..., "mean_16": ...} } }
  [[nodiscard]] json::Value snapshot(std::string_view prefix = {}) const;

  /// Serialize snapshot(prefix) straight into `out` (cleared first,
  /// capacity reused) without building the JSON DOM — the per-epoch
  /// /metrics hot path. Byte-identical to json::serialize(snapshot(prefix)).
  void metrics_body(std::string& out, std::string_view prefix = {}) const;

  /// Snapshot one series' recent window as a JSON array of
  /// {"t": seconds, "v": value} pairs (most recent `n`).
  [[nodiscard]] json::Value series_window(std::string_view name, std::size_t n) const;

  /// Full-fidelity export for broker-side aggregation: counters and
  /// gauges by value, histograms via Histogram::to_json (raw buckets,
  /// not the lossy quantile summary of snapshot()). Series are
  /// deliberately excluded — they are per-process sample windows, not
  /// mergeable instruments.
  [[nodiscard]] json::Value export_json(std::string_view prefix = {}) const;

  /// Merge an export_json() document into this registry: counters add,
  /// gauges add (a merged gauge therefore reads as the *sum* across
  /// sources), histograms bucket-merge. Malformed entries are skipped.
  void merge_from(const json::Value& doc);

 private:
  std::size_t series_capacity_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace slices::telemetry
