// Unit + property tests for the forecasting engine: online models,
// residual tracking, backtesting, model selection, demand estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <numbers>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "forecast/backtest.hpp"
#include "forecast/demand_estimator.hpp"
#include "forecast/forecaster.hpp"
#include "forecast/residual.hpp"

namespace slices::forecast {
namespace {

std::vector<double> constant_series(double v, std::size_t n) {
  return std::vector<double>(n, v);
}

std::vector<double> linear_series(double start, double slope, std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = start + slope * static_cast<double>(i);
  return out;
}

std::vector<double> seasonal_series(double mean, double amplitude, std::size_t period,
                                    std::size_t n, double noise = 0.0,
                                    std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(i % period) / static_cast<double>(period);
    out[i] = mean + amplitude * std::sin(angle) + noise * rng.normal();
  }
  return out;
}

void feed(Forecaster& model, const std::vector<double>& series) {
  for (const double v : series) model.observe(v);
}

// --- individual models -------------------------------------------------------

TEST(NaiveForecaster, PredictsLastValue) {
  NaiveForecaster model;
  EXPECT_FALSE(model.ready());
  model.observe(5.0);
  EXPECT_TRUE(model.ready());
  model.observe(7.0);
  EXPECT_DOUBLE_EQ(model.predict(1), 7.0);
  EXPECT_DOUBLE_EQ(model.predict(10), 7.0);
}

TEST(MovingAverageForecaster, AveragesWindow) {
  MovingAverageForecaster model(3);
  feed(model, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(model.predict(1), 3.0);  // (2+3+4)/3
}

TEST(MovingAverageForecaster, ShortHistoryUsesWhatExists) {
  MovingAverageForecaster model(10);
  feed(model, {4.0, 6.0});
  EXPECT_DOUBLE_EQ(model.predict(1), 5.0);
}

TEST(EwmaForecaster, ConvergesToConstant) {
  EwmaForecaster model(0.3);
  feed(model, constant_series(12.0, 50));
  EXPECT_NEAR(model.predict(1), 12.0, 1e-6);
}

TEST(EwmaForecaster, FirstObservationSeedsLevel) {
  EwmaForecaster model(0.2);
  model.observe(10.0);
  EXPECT_DOUBLE_EQ(model.predict(1), 10.0);
}

TEST(HoltForecaster, TracksLinearTrendExactly) {
  HoltForecaster model(0.5, 0.5);
  feed(model, linear_series(10.0, 2.0, 60));
  // On a noiseless ramp Holt locks the slope: h-step forecast continues it.
  const double last = 10.0 + 2.0 * 59.0;
  EXPECT_NEAR(model.predict(1), last + 2.0, 0.1);
  EXPECT_NEAR(model.predict(5), last + 10.0, 0.5);
}

TEST(HoltForecaster, ReadyAfterTwoObservations) {
  HoltForecaster model(0.4, 0.1);
  model.observe(1.0);
  EXPECT_FALSE(model.ready());
  model.observe(2.0);
  EXPECT_TRUE(model.ready());
}

TEST(HoltWinters, ReadyAfterOneSeason) {
  HoltWintersForecaster model(0.4, 0.05, 0.3, 8);
  for (int i = 0; i < 7; ++i) {
    model.observe(static_cast<double>(i));
    EXPECT_FALSE(model.ready());
  }
  model.observe(7.0);
  EXPECT_TRUE(model.ready());
}

TEST(HoltWinters, LearnsPureSeasonalPattern) {
  const std::size_t period = 12;
  HoltWintersForecaster model(0.3, 0.02, 0.4, period);
  const std::vector<double> series = seasonal_series(50.0, 20.0, period, period * 20);
  feed(model, series);
  // Forecast one full season ahead and compare with the true pattern.
  for (std::size_t h = 1; h <= period; ++h) {
    const double truth = series[series.size() - period + h - 1];
    EXPECT_NEAR(model.predict(h), truth, 2.0) << "h=" << h;
  }
}

TEST(HoltWinters, BeatsNaiveOnSeasonalTraffic) {
  const std::vector<double> series = seasonal_series(100.0, 40.0, 24, 24 * 30, 2.0);
  const BacktestReport hw =
      backtest(HoltWintersForecaster(0.4, 0.05, 0.3, 24), series);
  const BacktestReport naive = backtest(NaiveForecaster{}, series);
  EXPECT_LT(hw.rmse, naive.rmse * 0.6);
}

// Property sweep: every model family must produce finite forecasts on
// every canonical signal shape.
struct ModelCase {
  const char* label;
  std::unique_ptr<Forecaster> (*make)();
};

// Print the label, not the raw bytes: gtest puts GetParam() into the test
// name, and pointer bytes would make that name change from run to run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.label; }

class AllModels : public ::testing::TestWithParam<ModelCase> {};

TEST_P(AllModels, FiniteForecastsOnCanonicalSignals) {
  const std::vector<std::vector<double>> signals = {
      constant_series(5.0, 100), linear_series(1.0, 0.5, 100),
      seasonal_series(10.0, 4.0, 24, 120, 0.5), constant_series(0.0, 100)};
  for (const auto& signal : signals) {
    std::unique_ptr<Forecaster> model = GetParam().make();
    feed(*model, signal);
    ASSERT_TRUE(model->ready());
    for (const std::size_t h : {1u, 4u, 24u}) {
      EXPECT_TRUE(std::isfinite(model->predict(h)))
          << GetParam().label << " h=" << h;
    }
  }
}

TEST_P(AllModels, MakeEmptyResetsState) {
  std::unique_ptr<Forecaster> model = GetParam().make();
  feed(*model, constant_series(9.0, 64));
  const std::unique_ptr<Forecaster> fresh = model->make_empty();
  EXPECT_FALSE(fresh->ready());
  EXPECT_EQ(fresh->name(), model->name());
}

INSTANTIATE_TEST_SUITE_P(
    Families, AllModels,
    ::testing::Values(
        ModelCase{"naive", [] { return std::unique_ptr<Forecaster>(new NaiveForecaster()); }},
        ModelCase{"sma",
                  [] { return std::unique_ptr<Forecaster>(new MovingAverageForecaster(8)); }},
        ModelCase{"ewma", [] { return std::unique_ptr<Forecaster>(new EwmaForecaster(0.3)); }},
        ModelCase{"holt",
                  [] { return std::unique_ptr<Forecaster>(new HoltForecaster(0.4, 0.1)); }},
        ModelCase{"holt_winters",
                  [] {
                    return std::unique_ptr<Forecaster>(
                        new HoltWintersForecaster(0.4, 0.05, 0.3, 24));
                  }}),
    [](const ::testing::TestParamInfo<ModelCase>& info) { return info.param.label; });

// --- ResidualTracker -----------------------------------------------------------

TEST(ResidualTracker, QuantileOfKnownResiduals) {
  ResidualTracker tracker(64);
  for (int i = 1; i <= 100; ++i) tracker.record(static_cast<double>(i));  // keeps 37..100
  EXPECT_EQ(tracker.size(), 64u);
  EXPECT_DOUBLE_EQ(tracker.quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(tracker.quantile(1.0), 100.0);
}

TEST(ResidualTracker, SafetyMarginNeverNegative) {
  ResidualTracker tracker;
  for (int i = 0; i < 50; ++i) tracker.record(-5.0);  // model over-forecasts
  EXPECT_DOUBLE_EQ(tracker.safety_margin(0.95), 0.0);
  EXPECT_DOUBLE_EQ(ResidualTracker{}.safety_margin(0.95), 0.0);  // empty
}

TEST(ResidualTracker, MarginGrowsWithQuantile) {
  ResidualTracker tracker;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) tracker.record(rng.normal(0.0, 3.0));
  EXPECT_LE(tracker.safety_margin(0.5), tracker.safety_margin(0.9));
  EXPECT_LE(tracker.safety_margin(0.9), tracker.safety_margin(0.99));
}

// The copy-and-sort quantile that ResidualTracker's sorted window
// replaced: keep the window in arrival order, copy and sort it per query.
// `stable` sorts with the window's own order (`<`, NaN greatest, equal
// values in arrival order); otherwise it is std::sort with `<`, which
// leaves the order of equal values (-0.0 and +0.0) unspecified and gives
// NaN no defined place at all.
class ReferenceWindow {
 public:
  explicit ReferenceWindow(std::size_t window) : window_(window) {}

  void record(double residual) {
    values_.push_back(residual);
    if (values_.size() > window_) values_.pop_front();
  }

  [[nodiscard]] double quantile(double q, bool stable) const {
    std::vector<double> sorted(values_.begin(), values_.end());
    if (stable) {
      std::stable_sort(sorted.begin(), sorted.end(), [](double a, double b) {
        return a < b || (std::isnan(b) && !std::isnan(a));
      });
    } else {
      std::sort(sorted.begin(), sorted.end());
    }
    if (sorted.size() == 1) return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = lo + 1 < sorted.size() ? lo + 1 : lo;
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  [[nodiscard]] double safety_margin(double q, bool stable) const {
    if (values_.empty()) return 0.0;
    const double m = quantile(q, stable);
    return m > 0.0 ? m : 0.0;
  }

 private:
  std::size_t window_;
  std::deque<double> values_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr double kQuantiles[] = {0.0, 0.5, 0.9, 0.95, 1.0};

// After every record, every quantile and margin of the sorted window
// equals the reference's bit for bit. Against the parent's plain
// std::sort, quantiles are equal as values (only a zero's sign may
// differ) and margins, which clamp to +0, are equal bit for bit.
void expect_matches_reference(std::size_t window, const std::vector<double>& stream) {
  ResidualTracker tracker(window);
  ReferenceWindow reference(window);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    tracker.record(stream[i]);
    reference.record(stream[i]);
    ASSERT_EQ(tracker.size(), std::min(i + 1, window));
    for (const double q : kQuantiles) {
      ASSERT_EQ(bits(tracker.quantile(q)), bits(reference.quantile(q, true)))
          << "window " << window << " step " << i << " q " << q;
      ASSERT_EQ(tracker.quantile(q), reference.quantile(q, false))
          << "window " << window << " step " << i << " q " << q;
      ASSERT_EQ(bits(tracker.safety_margin(q)), bits(reference.safety_margin(q, false)))
          << "window " << window << " step " << i << " q " << q;
    }
  }
}

TEST(ResidualTracker, SortedWindowMatchesCopyAndSortOnRandomStreams) {
  for (const std::size_t window : {1u, 2u, 64u, 256u}) {
    Rng rng(window + 11);
    std::vector<double> stream(4000);
    for (double& v : stream) v = rng.normal(0.5, 4.0);
    expect_matches_reference(window, stream);
  }
}

TEST(ResidualTracker, SortedWindowMatchesCopyAndSortWithDuplicatesAndSignedZeros) {
  // Few distinct values, so most evictions remove a value with equal
  // copies still in the window, and zeros of both signs tie.
  constexpr double kValues[] = {-0.0, 0.0, 1.0, -1.0, 2.5, -0.0, 0.0, 2.5};
  for (const std::size_t window : {1u, 2u, 64u, 256u}) {
    Rng rng(window + 29);
    std::vector<double> stream(3000);
    for (double& v : stream) v = kValues[rng.uniform_int(0, 7)];
    expect_matches_reference(window, stream);
  }
}

TEST(ResidualTracker, EvictsTheOldestOfEqualCopies) {
  ResidualTracker tracker(3);
  for (const double v : {2.0, 2.0, 1.0, 3.0}) tracker.record(v);  // window {2, 1, 3}
  EXPECT_EQ(tracker.quantile(0.0), 1.0);
  EXPECT_EQ(tracker.quantile(0.5), 2.0);
  EXPECT_EQ(tracker.quantile(1.0), 3.0);

  // +0.0 arrives first, so it leaves first and -0.0 stays: the window is
  // {-0.0, -5.0}, whose top order statistic is -0.0 itself.
  ResidualTracker zeros(2);
  for (const double v : {0.0, -0.0, -5.0}) zeros.record(v);
  EXPECT_EQ(zeros.quantile(0.0), -5.0);
  EXPECT_EQ(bits(zeros.quantile(1.0)), bits(-0.0));
  EXPECT_EQ(bits(zeros.safety_margin(1.0)), bits(0.0));
}

TEST(ResidualTracker, NonFiniteResidualsSortAboveEverythingAndLeaveOnTime) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ResidualTracker tracker(4);
  for (const double v : {1.0, kNan, kInf, -2.0}) tracker.record(v);  // sorted {-2, 1, inf, NaN}
  EXPECT_EQ(tracker.quantile(0.0), -2.0);
  EXPECT_TRUE(std::isnan(tracker.quantile(1.0)));  // NaN is the top slot
  EXPECT_EQ(tracker.safety_margin(1.0), 0.0);      // a NaN margin is no margin

  // Once the NaN has left the window, the window is exact again.
  for (const double v : {3.0, 4.0}) tracker.record(v);  // sorted {-2, 3, 4, inf}
  EXPECT_EQ(tracker.quantile(0.0), -2.0);
  EXPECT_EQ(tracker.quantile(0.5), 3.5);

  std::vector<double> stream(2000);
  Rng rng(41);
  for (double& v : stream) {
    const double u = rng.uniform();
    v = u < 0.02 ? kNan : u < 0.04 ? kInf : u < 0.06 ? -kInf : rng.normal(0.0, 2.0);
  }
  ResidualTracker window(64);
  ReferenceWindow reference(64);
  for (const double v : stream) {
    window.record(v);
    reference.record(v);
    for (const double q : kQuantiles) {
      const double got = window.quantile(q);
      const double want = reference.quantile(q, true);
      ASSERT_TRUE(bits(got) == bits(want) || (std::isnan(got) && std::isnan(want)));
      ASSERT_EQ(bits(window.safety_margin(q)), bits(reference.safety_margin(q, true)));
    }
  }
}

// backtest() with the parent's copy-and-sort margin, step for step.
BacktestReport reference_backtest(const Forecaster& prototype, const std::vector<double>& series,
                                  double safety_quantile, std::size_t residual_window) {
  std::unique_ptr<Forecaster> model = prototype.make_empty();
  ReferenceWindow residuals(residual_window);
  BacktestReport report;
  report.model = std::string(prototype.name());
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  double bias_sum = 0.0;
  std::size_t violations = 0;
  for (const double actual : series) {
    if (model->ready()) {
      const double predicted = model->predict(1);
      const double upper = predicted + residuals.safety_margin(safety_quantile, false);
      const double err = actual - predicted;
      abs_sum += std::abs(err);
      sq_sum += err * err;
      bias_sum += err;
      if (actual > upper) ++violations;
      residuals.record(err);
      ++report.evaluated;
    }
    model->observe(actual);
  }
  if (report.evaluated > 0) {
    const auto n = static_cast<double>(report.evaluated);
    report.mae = abs_sum / n;
    report.rmse = std::sqrt(sq_sum / n);
    report.bias = bias_sum / n;
    report.upper_bound_violation_rate = static_cast<double>(violations) / n;
  }
  return report;
}

TEST(Backtest, SameReportAsCopyAndSortReference) {
  const std::vector<double> series = seasonal_series(30.0, 12.0, 96, 2000, 3.0, 17);
  for (const auto& candidate : default_candidates(96)) {
    for (const std::size_t window : {16u, 256u}) {
      for (const double q : {0.5, 0.95}) {
        const BacktestReport got = backtest(*candidate, series, q, window);
        const BacktestReport want = reference_backtest(*candidate, series, q, window);
        EXPECT_EQ(got.model, want.model);
        EXPECT_EQ(got.evaluated, want.evaluated);
        EXPECT_EQ(bits(got.mae), bits(want.mae));
        EXPECT_EQ(bits(got.rmse), bits(want.rmse));
        EXPECT_EQ(bits(got.bias), bits(want.bias));
        EXPECT_EQ(bits(got.upper_bound_violation_rate), bits(want.upper_bound_violation_rate))
            << got.model << " window " << window << " q " << q;
      }
    }
  }
}

// --- backtest -------------------------------------------------------------------

TEST(Backtest, PerfectModelHasZeroError) {
  const BacktestReport report = backtest(NaiveForecaster{}, constant_series(10.0, 50));
  EXPECT_EQ(report.evaluated, 49u);  // first sample warms up
  EXPECT_DOUBLE_EQ(report.mae, 0.0);
  EXPECT_DOUBLE_EQ(report.rmse, 0.0);
  EXPECT_DOUBLE_EQ(report.upper_bound_violation_rate, 0.0);
}

TEST(Backtest, ViolationRateRoughlyMatchesQuantile) {
  const std::vector<double> series = seasonal_series(100.0, 30.0, 24, 24 * 60, 5.0);
  const BacktestReport report =
      backtest(HoltWintersForecaster(0.4, 0.05, 0.3, 24), series, /*q=*/0.9);
  // With a 0.9 safety quantile, ~10% of actuals may exceed the bound.
  EXPECT_LT(report.upper_bound_violation_rate, 0.2);
  EXPECT_GT(report.upper_bound_violation_rate, 0.01);
}

TEST(Backtest, BiasDetectsSystematicUnderforecast) {
  const BacktestReport report = backtest(NaiveForecaster{}, linear_series(0.0, 1.0, 100));
  EXPECT_NEAR(report.bias, 1.0, 1e-9);  // naive lags a ramp by one slope
}

TEST(CompareModels, RanksByRmseBestFirst) {
  const std::vector<double> series = seasonal_series(80.0, 30.0, 24, 24 * 30, 1.0);
  const auto reports = compare_models(default_candidates(24), series);
  ASSERT_GE(reports.size(), 5u);
  EXPECT_EQ(reports.front().model, "holt_winters");
  for (std::size_t i = 0; i + 1 < reports.size(); ++i) {
    EXPECT_LE(reports[i].rmse, reports[i + 1].rmse);
  }
}

// --- DemandEstimator -------------------------------------------------------------

TEST(DemandEstimator, UpperBoundCoversForecast) {
  DemandEstimator estimator(std::make_unique<EwmaForecaster>(0.3));
  Rng rng(9);
  for (int i = 0; i < 200; ++i) estimator.observe(rng.normal(40.0, 5.0));
  ASSERT_TRUE(estimator.ready());
  const double point = estimator.predict(1);
  EXPECT_GE(estimator.upper_bound(0.95, 1), point);
  EXPECT_GE(estimator.upper_bound(0.95, 4), estimator.upper_bound(0.0, 4) - 1e-9);
}

TEST(DemandEstimator, UpperBoundIsMaxOverHorizon) {
  // Rising trend: longer horizon must raise the bound.
  DemandEstimator estimator(std::make_unique<HoltForecaster>(0.5, 0.5));
  for (int i = 0; i < 50; ++i) estimator.observe(10.0 + 2.0 * i);
  EXPECT_GT(estimator.upper_bound(0.5, 8), estimator.upper_bound(0.5, 1));
}

TEST(DemandEstimator, NeverNegative) {
  DemandEstimator estimator(std::make_unique<HoltForecaster>(0.5, 0.5));
  for (int i = 0; i < 50; ++i) estimator.observe(100.0 - 2.0 * i);  // falling to 2
  EXPECT_GE(estimator.upper_bound(0.95, 24), 0.0);
}

TEST(DemandEstimator, AdaptiveReselectsOnSeasonalData) {
  DemandEstimator estimator = DemandEstimator::adaptive(24);
  const std::vector<double> series = seasonal_series(60.0, 25.0, 24, 24 * 20, 1.0);
  for (const double v : series) estimator.observe(v);
  EXPECT_EQ(estimator.model_name(), "holt_winters");
  EXPECT_EQ(estimator.observations(), series.size());
}

TEST(DemandEstimator, LastObservationTracked) {
  DemandEstimator estimator(std::make_unique<NaiveForecaster>());
  EXPECT_DOUBLE_EQ(estimator.last_observation(), 0.0);
  estimator.observe(3.5);
  EXPECT_DOUBLE_EQ(estimator.last_observation(), 3.5);
}

}  // namespace
}  // namespace slices::forecast
