#pragma once
// Online traffic forecasters.
//
// The paper's orchestrator "monitors past slices traffic behaviors [and]
// forecasts future traffic demands" (citing Sciancalepore et al.,
// INFOCOM'17, which builds on Holt–Winters-style exponential smoothing).
// This module provides a family of online forecasters sharing one
// interface: observe one sample per monitoring period, predict h periods
// ahead. All models are O(1) state and O(1) per update so the
// orchestrator can run one instance per slice per domain.

#include <cassert>
#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace slices::forecast {

/// Interface of an online, single-series point forecaster.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Ingest the next observation (one fixed monitoring period later than
  /// the previous one).
  virtual void observe(double value) = 0;

  /// Point forecast `steps_ahead` periods into the future (>= 1).
  /// Precondition: ready().
  [[nodiscard]] virtual double predict(std::size_t steps_ahead) const = 0;

  /// True once enough history has been seen to produce forecasts.
  [[nodiscard]] virtual bool ready() const noexcept = 0;

  /// Stable model name for reports and dashboards.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Fresh copy with identical hyper-parameters and empty state
  /// (used by the backtester and the per-slice model factory).
  [[nodiscard]] virtual std::unique_ptr<Forecaster> make_empty() const = 0;
};

/// Predicts the last observed value for every horizon (persistence
/// model). The weakest sensible baseline; also the fallback before
/// richer models warm up.
class NaiveForecaster final : public Forecaster {
 public:
  void observe(double value) override {
    last_ = value;
    seen_ = true;
  }
  [[nodiscard]] double predict(std::size_t) const override {
    assert(seen_);
    return last_;
  }
  [[nodiscard]] bool ready() const noexcept override { return seen_; }
  [[nodiscard]] std::string_view name() const noexcept override { return "naive"; }
  [[nodiscard]] std::unique_ptr<Forecaster> make_empty() const override {
    return std::make_unique<NaiveForecaster>();
  }

 private:
  double last_ = 0.0;
  bool seen_ = false;
};

/// Simple moving average over the most recent `window` samples.
class MovingAverageForecaster final : public Forecaster {
 public:
  explicit MovingAverageForecaster(std::size_t window) : window_(window) {
    assert(window > 0);
  }

  void observe(double value) override {
    values_.push_back(value);
    sum_ += value;
    if (values_.size() > window_) {
      sum_ -= values_[values_.size() - window_ - 1];
    }
  }
  [[nodiscard]] double predict(std::size_t) const override {
    assert(ready());
    const std::size_t n = values_.size() < window_ ? values_.size() : window_;
    return sum_ / static_cast<double>(n);
  }
  [[nodiscard]] bool ready() const noexcept override { return !values_.empty(); }
  [[nodiscard]] std::string_view name() const noexcept override { return "sma"; }
  [[nodiscard]] std::unique_ptr<Forecaster> make_empty() const override {
    return std::make_unique<MovingAverageForecaster>(window_);
  }

 private:
  std::size_t window_;
  double sum_ = 0.0;
  std::vector<double> values_;  // grows; only the trailing window matters
};

/// Exponentially weighted moving average (simple exponential smoothing).
class EwmaForecaster final : public Forecaster {
 public:
  explicit EwmaForecaster(double alpha) : alpha_(alpha) {
    assert(alpha > 0.0 && alpha <= 1.0);
  }

  void observe(double value) override {
    level_ = seen_ ? alpha_ * value + (1.0 - alpha_) * level_ : value;
    seen_ = true;
  }
  [[nodiscard]] double predict(std::size_t) const override {
    assert(seen_);
    return level_;
  }
  [[nodiscard]] bool ready() const noexcept override { return seen_; }
  [[nodiscard]] std::string_view name() const noexcept override { return "ewma"; }
  [[nodiscard]] std::unique_ptr<Forecaster> make_empty() const override {
    return std::make_unique<EwmaForecaster>(alpha_);
  }

 private:
  double alpha_;
  double level_ = 0.0;
  bool seen_ = false;
};

/// Holt's linear method: level + trend double exponential smoothing.
class HoltForecaster final : public Forecaster {
 public:
  HoltForecaster(double alpha, double beta) : alpha_(alpha), beta_(beta) {
    assert(alpha > 0.0 && alpha <= 1.0);
    assert(beta > 0.0 && beta <= 1.0);
  }

  void observe(double value) override {
    if (count_ == 0) {
      level_ = value;
    } else if (count_ == 1) {
      trend_ = value - level_;
      level_ = value;
    } else {
      const double prev_level = level_;
      level_ = alpha_ * value + (1.0 - alpha_) * (level_ + trend_);
      trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    }
    ++count_;
  }
  [[nodiscard]] double predict(std::size_t steps_ahead) const override {
    assert(ready());
    return level_ + static_cast<double>(steps_ahead) * trend_;
  }
  [[nodiscard]] bool ready() const noexcept override { return count_ >= 2; }
  [[nodiscard]] std::string_view name() const noexcept override { return "holt"; }
  [[nodiscard]] std::unique_ptr<Forecaster> make_empty() const override {
    return std::make_unique<HoltForecaster>(alpha_, beta_);
  }

 private:
  double alpha_;
  double beta_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::size_t count_ = 0;
};

/// Additive Holt–Winters triple exponential smoothing — the model class
/// behind the paper's forecasting reference. Captures the diurnal
/// seasonality of vertical traffic that makes overbooking profitable.
class HoltWintersForecaster final : public Forecaster {
 public:
  /// `season_length` is the number of monitoring periods per season
  /// (e.g. 24 for hourly samples with daily seasonality).
  HoltWintersForecaster(double alpha, double beta, double gamma, std::size_t season_length)
      : alpha_(alpha), beta_(beta), gamma_(gamma), season_length_(season_length) {
    assert(alpha > 0.0 && alpha <= 1.0);
    assert(beta > 0.0 && beta <= 1.0);
    assert(gamma > 0.0 && gamma <= 1.0);
    assert(season_length >= 2);
    seasonal_.assign(season_length, 0.0);
  }

  void observe(double value) override {
    if (warmup_.size() < season_length_) {
      // First full season: buffer, then initialize level/seasonals.
      warmup_.push_back(value);
      if (warmup_.size() == season_length_) initialize_from_warmup();
      return;
    }
    const std::size_t idx = phase_ % season_length_;
    const double prev_level = level_;
    level_ = alpha_ * (value - seasonal_[idx]) + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    seasonal_[idx] = gamma_ * (value - level_) + (1.0 - gamma_) * seasonal_[idx];
    ++phase_;
  }

  [[nodiscard]] double predict(std::size_t steps_ahead) const override {
    assert(ready());
    const std::size_t idx = (phase_ + steps_ahead - 1) % season_length_;
    return level_ + static_cast<double>(steps_ahead) * trend_ + seasonal_[idx];
  }

  [[nodiscard]] bool ready() const noexcept override {
    return warmup_.size() == season_length_;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "holt_winters"; }
  [[nodiscard]] std::unique_ptr<Forecaster> make_empty() const override {
    return std::make_unique<HoltWintersForecaster>(alpha_, beta_, gamma_, season_length_);
  }

  [[nodiscard]] std::size_t season_length() const noexcept { return season_length_; }

 private:
  void initialize_from_warmup() {
    double sum = 0.0;
    for (const double v : warmup_) sum += v;
    level_ = sum / static_cast<double>(season_length_);
    trend_ = 0.0;
    for (std::size_t i = 0; i < season_length_; ++i) seasonal_[i] = warmup_[i] - level_;
    phase_ = 0;
  }

  double alpha_;
  double beta_;
  double gamma_;
  std::size_t season_length_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> seasonal_;
  std::vector<double> warmup_;
  std::size_t phase_ = 0;
};

}  // namespace slices::forecast
