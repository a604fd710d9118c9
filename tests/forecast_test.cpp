// Unit + property tests for the forecasting engine: online models,
// residual tracking, backtesting, model selection, demand estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "forecast/ar.hpp"
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

TEST(SeasonalNaive, RepeatsLastSeasonExactly) {
  const std::size_t period = 6;
  SeasonalNaiveForecaster model(period);
  const std::vector<double> season{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  feed(model, season);
  ASSERT_TRUE(model.ready());
  for (std::size_t h = 1; h <= period; ++h) {
    EXPECT_DOUBLE_EQ(model.predict(h), season[h - 1]) << "h=" << h;
  }
}

TEST(SeasonalNaive, TracksRollingSeasonAfterWrap) {
  SeasonalNaiveForecaster model(3);
  feed(model, {1.0, 2.0, 3.0});   // first season
  feed(model, {10.0, 20.0});      // overwrite two oldest
  // One period ahead should be the sample one season old: 3.0 came 3
  // periods before the next step? Next expected phase repeats 3.0,
  // then 10.0, then 20.0.
  EXPECT_DOUBLE_EQ(model.predict(1), 3.0);
  EXPECT_DOUBLE_EQ(model.predict(2), 10.0);
  EXPECT_DOUBLE_EQ(model.predict(3), 20.0);
}

TEST(SeasonalNaive, PerfectOnPureSeasonalBacktest) {
  const std::vector<double> series = seasonal_series(50.0, 20.0, 12, 12 * 20);
  const BacktestReport report = backtest(SeasonalNaiveForecaster(12), series);
  EXPECT_NEAR(report.rmse, 0.0, 1e-9);
}

TEST(SeasonalNaive, NotReadyBeforeFullSeason) {
  SeasonalNaiveForecaster model(4);
  feed(model, {1.0, 2.0, 3.0});
  EXPECT_FALSE(model.ready());
  model.observe(4.0);
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

// --- ArForecaster -----------------------------------------------------------------

TEST(ArForecaster, RecoversAr1Coefficient) {
  // x_t = 5 + 0.7 x_{t-1} + noise: RLS must find ~[5, 0.7].
  ArForecaster model(1, 1.0);
  Rng rng(3);
  double x = 20.0;
  for (int i = 0; i < 3000; ++i) {
    model.observe(x);
    x = 5.0 + 0.7 * x + rng.normal(0.0, 0.3);
  }
  ASSERT_TRUE(model.ready());
  EXPECT_NEAR(model.coefficients()[1], 0.7, 0.05);
  EXPECT_NEAR(model.coefficients()[0], 5.0, 1.0);
  // Long-horizon forecast approaches the process mean 5/(1-0.7).
  EXPECT_NEAR(model.predict(200), 5.0 / 0.3, 1.5);
}

TEST(ArForecaster, ConstantSeriesConverges) {
  ArForecaster model(2);
  for (int i = 0; i < 100; ++i) model.observe(12.0);
  ASSERT_TRUE(model.ready());
  EXPECT_NEAR(model.predict(1), 12.0, 0.2);
  EXPECT_NEAR(model.predict(8), 12.0, 0.5);
}

TEST(ArForecaster, NotReadyUntilWarm) {
  ArForecaster model(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(model.ready());
    model.observe(static_cast<double>(i));
  }
}

TEST(ArForecaster, MakeEmptyResets) {
  ArForecaster model(2);
  for (int i = 0; i < 50; ++i) model.observe(3.0);
  const auto fresh = model.make_empty();
  EXPECT_FALSE(fresh->ready());
  EXPECT_EQ(fresh->name(), "ar_rls");
}

TEST(ArForecaster, BeatsNaiveOnAutocorrelatedTraffic) {
  // A strongly mean-reverting AR(1) process: exploit the correlation.
  Rng rng(8);
  std::vector<double> series;
  double x = 50.0;
  for (int i = 0; i < 2000; ++i) {
    series.push_back(x);
    x = 25.0 + 0.5 * x + rng.normal(0.0, 2.0);
  }
  const BacktestReport ar = backtest(ArForecaster(1, 1.0), series);
  const BacktestReport naive = backtest(NaiveForecaster{}, series);
  EXPECT_LT(ar.rmse, naive.rmse);
}

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
