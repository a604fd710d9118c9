#pragma once
// Dimensioned quantities used throughout the orchestrator: data rates,
// simulated time, radio resources (PRBs), compute resources, and money.
// All are small value types with explicit constructors so raw doubles
// cannot silently cross domain boundaries with the wrong unit.

#include <cmath>
#include <compare>
#include <cstdint>
#include <ostream>
#include <string>

namespace slices {

// ---------------------------------------------------------------------------
// Data rate
// ---------------------------------------------------------------------------

/// A (non-negative in normal use) data rate. Stored as bits per second in
/// double precision; helpers construct/extract in Mb/s which is the unit
/// the paper's dashboard and SLAs use.
class DataRate {
 public:
  constexpr DataRate() noexcept = default;

  [[nodiscard]] static constexpr DataRate bps(double v) noexcept { return DataRate{v}; }
  [[nodiscard]] static constexpr DataRate kbps(double v) noexcept { return DataRate{v * 1e3}; }
  [[nodiscard]] static constexpr DataRate mbps(double v) noexcept { return DataRate{v * 1e6}; }
  [[nodiscard]] static constexpr DataRate gbps(double v) noexcept { return DataRate{v * 1e9}; }
  [[nodiscard]] static constexpr DataRate zero() noexcept { return DataRate{0.0}; }

  [[nodiscard]] constexpr double bits_per_second() const noexcept { return bps_; }
  [[nodiscard]] constexpr double as_mbps() const noexcept { return bps_ / 1e6; }

  friend constexpr auto operator<=>(DataRate, DataRate) noexcept = default;
  friend constexpr DataRate operator+(DataRate a, DataRate b) noexcept { return DataRate{a.bps_ + b.bps_}; }
  friend constexpr DataRate operator-(DataRate a, DataRate b) noexcept { return DataRate{a.bps_ - b.bps_}; }
  friend constexpr DataRate operator*(DataRate a, double k) noexcept { return DataRate{a.bps_ * k}; }
  friend constexpr DataRate operator*(double k, DataRate a) noexcept { return DataRate{a.bps_ * k}; }
  friend constexpr DataRate operator/(DataRate a, double k) noexcept { return DataRate{a.bps_ / k}; }
  /// Dimensionless ratio of two rates (e.g. utilization).
  friend constexpr double operator/(DataRate a, DataRate b) noexcept { return a.bps_ / b.bps_; }
  constexpr DataRate& operator+=(DataRate o) noexcept { bps_ += o.bps_; return *this; }
  constexpr DataRate& operator-=(DataRate o) noexcept { bps_ -= o.bps_; return *this; }

  friend std::ostream& operator<<(std::ostream& os, DataRate r) {
    return os << r.as_mbps() << " Mb/s";
  }

 private:
  constexpr explicit DataRate(double bps) noexcept : bps_(bps) {}
  double bps_ = 0.0;
};

/// Clamp a rate to be non-negative (used after subtractions).
[[nodiscard]] constexpr DataRate clamp_non_negative(DataRate r) noexcept {
  return r < DataRate::zero() ? DataRate::zero() : r;
}

[[nodiscard]] constexpr DataRate min(DataRate a, DataRate b) noexcept { return a < b ? a : b; }
[[nodiscard]] constexpr DataRate max(DataRate a, DataRate b) noexcept { return a < b ? b : a; }

// ---------------------------------------------------------------------------
// Simulated time
// ---------------------------------------------------------------------------

/// Simulated duration with microsecond resolution. Signed so that
/// differences are representable; negative durations are never scheduled.
class Duration {
 public:
  constexpr Duration() noexcept = default;

  [[nodiscard]] static constexpr Duration micros(std::int64_t v) noexcept { return Duration{v}; }
  [[nodiscard]] static constexpr Duration millis(double v) noexcept {
    return Duration{static_cast<std::int64_t>(v * 1e3)};
  }
  [[nodiscard]] static constexpr Duration seconds(double v) noexcept {
    return Duration{static_cast<std::int64_t>(v * 1e6)};
  }
  [[nodiscard]] static constexpr Duration minutes(double v) noexcept { return seconds(v * 60.0); }
  [[nodiscard]] static constexpr Duration hours(double v) noexcept { return seconds(v * 3600.0); }
  [[nodiscard]] static constexpr Duration zero() noexcept { return Duration{0}; }

  [[nodiscard]] constexpr std::int64_t as_micros() const noexcept { return us_; }
  [[nodiscard]] constexpr double as_millis() const noexcept { return static_cast<double>(us_) / 1e3; }
  [[nodiscard]] constexpr double as_seconds() const noexcept { return static_cast<double>(us_) / 1e6; }
  [[nodiscard]] constexpr double as_hours() const noexcept { return as_seconds() / 3600.0; }

  friend constexpr auto operator<=>(Duration, Duration) noexcept = default;
  friend constexpr Duration operator+(Duration a, Duration b) noexcept { return Duration{a.us_ + b.us_}; }
  friend constexpr Duration operator-(Duration a, Duration b) noexcept { return Duration{a.us_ - b.us_}; }
  friend constexpr Duration operator*(Duration a, double k) noexcept {
    return Duration{static_cast<std::int64_t>(static_cast<double>(a.us_) * k)};
  }
  friend constexpr double operator/(Duration a, Duration b) noexcept {
    return static_cast<double>(a.us_) / static_cast<double>(b.us_);
  }
  constexpr Duration& operator+=(Duration o) noexcept { us_ += o.us_; return *this; }

  friend std::ostream& operator<<(std::ostream& os, Duration d) {
    return os << d.as_seconds() << " s";
  }

 private:
  constexpr explicit Duration(std::int64_t us) noexcept : us_(us) {}
  std::int64_t us_ = 0;
};

/// Absolute simulated time (microseconds since simulation start).
class SimTime {
 public:
  constexpr SimTime() noexcept = default;

  [[nodiscard]] static constexpr SimTime origin() noexcept { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime from_micros(std::int64_t us) noexcept { return SimTime{us}; }
  [[nodiscard]] static constexpr SimTime from_seconds(double s) noexcept {
    return SimTime{static_cast<std::int64_t>(s * 1e6)};
  }

  [[nodiscard]] constexpr std::int64_t as_micros() const noexcept { return us_; }
  [[nodiscard]] constexpr double as_seconds() const noexcept { return static_cast<double>(us_) / 1e6; }
  [[nodiscard]] constexpr double as_hours() const noexcept { return as_seconds() / 3600.0; }

  friend constexpr auto operator<=>(SimTime, SimTime) noexcept = default;
  friend constexpr SimTime operator+(SimTime t, Duration d) noexcept { return SimTime{t.us_ + d.as_micros()}; }
  friend constexpr Duration operator-(SimTime a, SimTime b) noexcept { return Duration::micros(a.us_ - b.us_); }

  friend std::ostream& operator<<(std::ostream& os, SimTime t) {
    return os << t.as_seconds() << " s";
  }

 private:
  constexpr explicit SimTime(std::int64_t us) noexcept : us_(us) {}
  std::int64_t us_ = 0;
};

// ---------------------------------------------------------------------------
// Radio resources
// ---------------------------------------------------------------------------

/// A count of LTE Physical Resource Blocks (per subframe). PRBs are the
/// currency of the RAN domain: MOCN reservations, scheduler grants and
/// the RAN controller's telemetry are all expressed in PRBs.
struct PrbCount {
  int value = 0;

  friend constexpr auto operator<=>(PrbCount, PrbCount) noexcept = default;
  friend constexpr PrbCount operator+(PrbCount a, PrbCount b) noexcept { return {a.value + b.value}; }
  friend constexpr PrbCount operator-(PrbCount a, PrbCount b) noexcept { return {a.value - b.value}; }
  constexpr PrbCount& operator+=(PrbCount o) noexcept { value += o.value; return *this; }
  constexpr PrbCount& operator-=(PrbCount o) noexcept { value -= o.value; return *this; }

  friend std::ostream& operator<<(std::ostream& os, PrbCount p) { return os << p.value << " PRB"; }
};

// ---------------------------------------------------------------------------
// Compute resources
// ---------------------------------------------------------------------------

/// A bundle of compute resources (a flavor footprint, a host capacity, a
/// datacenter aggregate...). Component-wise arithmetic and comparison:
/// `fits_within` is the admission predicate used by placement.
struct ComputeCapacity {
  double vcpus = 0.0;
  double memory_mb = 0.0;
  double disk_gb = 0.0;

  friend constexpr bool operator==(const ComputeCapacity&, const ComputeCapacity&) noexcept = default;
  friend constexpr ComputeCapacity operator+(ComputeCapacity a, const ComputeCapacity& b) noexcept {
    return {a.vcpus + b.vcpus, a.memory_mb + b.memory_mb, a.disk_gb + b.disk_gb};
  }
  friend constexpr ComputeCapacity operator-(ComputeCapacity a, const ComputeCapacity& b) noexcept {
    return {a.vcpus - b.vcpus, a.memory_mb - b.memory_mb, a.disk_gb - b.disk_gb};
  }
  friend constexpr ComputeCapacity operator*(ComputeCapacity a, double k) noexcept {
    return {a.vcpus * k, a.memory_mb * k, a.disk_gb * k};
  }
  constexpr ComputeCapacity& operator+=(const ComputeCapacity& o) noexcept {
    vcpus += o.vcpus; memory_mb += o.memory_mb; disk_gb += o.disk_gb; return *this;
  }
  constexpr ComputeCapacity& operator-=(const ComputeCapacity& o) noexcept {
    vcpus -= o.vcpus; memory_mb -= o.memory_mb; disk_gb -= o.disk_gb; return *this;
  }

  /// True when this footprint fits inside `cap` on every axis.
  [[nodiscard]] constexpr bool fits_within(const ComputeCapacity& cap) const noexcept {
    return vcpus <= cap.vcpus && memory_mb <= cap.memory_mb && disk_gb <= cap.disk_gb;
  }
  [[nodiscard]] constexpr bool non_negative() const noexcept {
    return vcpus >= 0.0 && memory_mb >= 0.0 && disk_gb >= 0.0;
  }

  friend std::ostream& operator<<(std::ostream& os, const ComputeCapacity& c) {
    return os << c.vcpus << " vCPU / " << c.memory_mb << " MB / " << c.disk_gb << " GB";
  }
};

// ---------------------------------------------------------------------------
// Money
// ---------------------------------------------------------------------------

/// Fixed-point money in integer cents. Revenue accounting (slice prices,
/// SLA penalties, net revenue) must not accumulate floating-point drift,
/// so all bookkeeping is exact; conversion to double happens only for
/// reporting ratios.
class Money {
 public:
  constexpr Money() noexcept = default;

  [[nodiscard]] static constexpr Money cents(std::int64_t v) noexcept { return Money{v}; }
  [[nodiscard]] static constexpr Money units(double v) noexcept {
    // Round half away from zero to the nearest cent.
    const double c = v * 100.0;
    return Money{static_cast<std::int64_t>(c >= 0 ? c + 0.5 : c - 0.5)};
  }
  [[nodiscard]] static constexpr Money zero() noexcept { return Money{0}; }

  [[nodiscard]] constexpr std::int64_t as_cents() const noexcept { return cents_; }
  [[nodiscard]] constexpr double as_units() const noexcept { return static_cast<double>(cents_) / 100.0; }

  friend constexpr auto operator<=>(Money, Money) noexcept = default;
  friend constexpr Money operator+(Money a, Money b) noexcept { return Money{a.cents_ + b.cents_}; }
  friend constexpr Money operator-(Money a, Money b) noexcept { return Money{a.cents_ - b.cents_}; }
  friend constexpr Money operator-(Money a) noexcept { return Money{-a.cents_}; }
  /// Scale by a dimensionless factor, rounding to the nearest cent.
  friend constexpr Money operator*(Money a, double k) noexcept {
    const double c = static_cast<double>(a.cents_) * k;
    return Money{static_cast<std::int64_t>(c >= 0 ? c + 0.5 : c - 0.5)};
  }
  constexpr Money& operator+=(Money o) noexcept { cents_ += o.cents_; return *this; }
  constexpr Money& operator-=(Money o) noexcept { cents_ -= o.cents_; return *this; }

  friend std::ostream& operator<<(std::ostream& os, Money m) { return os << m.as_units(); }

 private:
  constexpr explicit Money(std::int64_t c) noexcept : cents_(c) {}
  std::int64_t cents_ = 0;
};

}  // namespace slices
