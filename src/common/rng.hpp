#pragma once
// Deterministic random-number generation.
//
// Every stochastic component (traffic models, link fading, arrival
// processes) draws from an explicitly seeded Rng so that a whole
// simulation run is reproducible from a single seed, and independent
// components can be given independent streams via `fork()`.

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace slices {

/// SplitMix64-seeded xoshiro256** generator with distribution helpers.
/// Not cryptographic; chosen for speed and well-understood statistical
/// quality in simulation workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    // SplitMix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box–Muller (one draw per call, no caching, to
  /// keep the stream position deterministic regardless of call pattern).
  double normal() noexcept {
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;  // avoid log(0)
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Exponential with given rate (mean 1/rate). Precondition: rate > 0.
  double exponential(double rate) noexcept {
    assert(rate > 0.0);
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// Poisson-distributed count with given mean. Knuth for small means,
  /// normal approximation above 64 (sufficient for traffic-arrival use).
  std::int64_t poisson(double mean) noexcept {
    assert(mean >= 0.0);
    if (mean <= 0.0) return 0;
    if (mean > 64.0) {
      const double draw = normal(mean, std::sqrt(mean));
      return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
    }
    const double limit = std::exp(-mean);
    double prod = uniform();
    std::int64_t count = 0;
    while (prod > limit) {
      prod *= uniform();
      ++count;
    }
    return count;
  }

  /// Derive an independent child stream (for per-component determinism).
  [[nodiscard]] Rng fork() noexcept { return Rng{next_u64()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

}  // namespace slices
