// Unit + property tests for traffic models and vertical profiles.

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "traffic/model.hpp"
#include "traffic/verticals.hpp"

namespace slices::traffic {
namespace {

SimTime at_hours(double h) { return SimTime::from_seconds(h * 3600.0); }

double empirical_mean(TrafficModel& model, int samples, Duration step) {
  double sum = 0.0;
  SimTime t = SimTime::origin();
  for (int i = 0; i < samples; ++i) {
    sum += model.sample(t);
    t = t + step;
  }
  return sum / samples;
}

TEST(ConstantTraffic, AlwaysTheSame) {
  ConstantTraffic model(7.5);
  EXPECT_DOUBLE_EQ(model.sample(at_hours(0.0)), 7.5);
  EXPECT_DOUBLE_EQ(model.sample(at_hours(13.0)), 7.5);
  EXPECT_DOUBLE_EQ(model.mean_rate(), 7.5);
  EXPECT_DOUBLE_EQ(model.peak_rate(), 7.5);
}

TEST(DiurnalTraffic, OscillatesAroundMean) {
  DiurnalTraffic model(50.0, 30.0, Duration::hours(24.0), Duration::zero(), 0.0, Rng(1));
  // Noise-free: crest at 6h, trough at 18h.
  EXPECT_NEAR(model.sample(at_hours(6.0)), 80.0, 1e-6);
  EXPECT_NEAR(model.sample(at_hours(18.0)), 20.0, 1e-6);
  EXPECT_NEAR(model.sample(at_hours(24.0)), 50.0, 1e-6);
}

TEST(DiurnalTraffic, EmpiricalMeanMatches) {
  DiurnalTraffic model(40.0, 20.0, Duration::hours(24.0), Duration::zero(), 0.05, Rng(2));
  EXPECT_NEAR(empirical_mean(model, 24 * 50, Duration::hours(1.0)), 40.0, 1.5);
}

TEST(DiurnalTraffic, NeverNegativeEvenWithHeavyNoise) {
  DiurnalTraffic model(5.0, 5.0, Duration::hours(24.0), Duration::zero(), 1.0, Rng(3));
  SimTime t = SimTime::origin();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(model.sample(t), 0.0);
    t = t + Duration::minutes(15.0);
  }
}

TEST(SessionTraffic, MeanMatchesOfferedLoad) {
  // 100 arrivals/h x 0.5h holding x 1 Mb/s = 50 Mb/s mean.
  SessionTraffic model(100.0, Duration::minutes(30.0), 1.0, 0.0, Rng(4));
  EXPECT_DOUBLE_EQ(model.mean_rate(), 50.0);
  EXPECT_NEAR(empirical_mean(model, 5000, Duration::minutes(15.0)), 50.0, 1.0);
}

TEST(SessionTraffic, PeakAboveMeanWithDiurnalDepth) {
  SessionTraffic model(100.0, Duration::minutes(30.0), 1.0, 0.5, Rng(5));
  EXPECT_GT(model.peak_rate(), model.mean_rate());
}

TEST(OnOffTraffic, DutyCycleSetsMean) {
  // p_off_on = p_on_off => 50% duty.
  OnOffTraffic model(2.0, 10.0, 0.2, 0.2, Rng(6));
  EXPECT_DOUBLE_EQ(model.mean_rate(), 7.0);
  EXPECT_DOUBLE_EQ(model.peak_rate(), 12.0);
  EXPECT_NEAR(empirical_mean(model, 20000, Duration::minutes(15.0)), 7.0, 0.3);
}

TEST(OnOffTraffic, OnlyTwoLevels) {
  OnOffTraffic model(1.0, 4.0, 0.3, 0.3, Rng(7));
  SimTime t = SimTime::origin();
  for (int i = 0; i < 1000; ++i) {
    const double v = model.sample(t);
    EXPECT_TRUE(v == 1.0 || v == 5.0) << v;
    t = t + Duration::minutes(15.0);
  }
}

TEST(CompositeTraffic, SumsComponents) {
  auto composite = CompositeTraffic(std::make_unique<ConstantTraffic>(3.0),
                                    std::make_unique<ConstantTraffic>(4.0));
  EXPECT_DOUBLE_EQ(composite.sample(at_hours(1.0)), 7.0);
  EXPECT_DOUBLE_EQ(composite.mean_rate(), 7.0);
  EXPECT_DOUBLE_EQ(composite.peak_rate(), 7.0);
}

TEST(TrafficDeterminism, SameSeedSameTrace) {
  DiurnalTraffic a(30.0, 10.0, Duration::hours(24.0), Duration::zero(), 0.2, Rng(42));
  DiurnalTraffic b(30.0, 10.0, Duration::hours(24.0), Duration::zero(), 0.2, Rng(42));
  SimTime t = SimTime::origin();
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(a.sample(t), b.sample(t));
    t = t + Duration::minutes(15.0);
  }
}

// --- vertical profiles: parameterized over all verticals --------------------

class VerticalSweep : public ::testing::TestWithParam<Vertical> {};

TEST_P(VerticalSweep, ProfileIsSane) {
  const VerticalProfile profile = profile_for(GetParam());
  EXPECT_EQ(profile.vertical, GetParam());
  EXPECT_FALSE(profile.label.empty());
  EXPECT_GT(profile.expected_throughput_mbps, 0.0);
  EXPECT_GT(profile.max_latency, Duration::zero());
  EXPECT_GT(profile.price_per_hour, 0.0);
  EXPECT_GT(profile.penalty_per_violation, 0.0);
  EXPECT_TRUE(profile.edge_compute.non_negative());
}

TEST_P(VerticalSweep, TrafficIsNonNegativeAndBounded) {
  std::unique_ptr<TrafficModel> model = make_traffic(GetParam(), Rng(11));
  const double peak = model->peak_rate();
  SimTime t = SimTime::origin();
  double observed_max = 0.0;
  for (int i = 0; i < 24 * 4 * 14; ++i) {  // two weeks of 15-min samples
    const double v = model->sample(t);
    EXPECT_GE(v, 0.0);
    observed_max = std::max(observed_max, v);
    t = t + Duration::minutes(15.0);
  }
  // Observed traffic should roughly respect the declared plausible peak
  // (generous slack: peaks are statistical, not hard caps).
  EXPECT_LT(observed_max, peak * 1.6) << to_string(GetParam());
  EXPECT_GT(observed_max, 0.0);
}

TEST_P(VerticalSweep, EmpiricalMeanNearDeclaredMean) {
  std::unique_ptr<TrafficModel> model = make_traffic(GetParam(), Rng(13));
  const double declared = model->mean_rate();
  double sum = 0.0;
  const int n = 24 * 4 * 30;
  SimTime t = SimTime::origin();
  for (int i = 0; i < n; ++i) {
    sum += model->sample(t);
    t = t + Duration::minutes(15.0);
  }
  EXPECT_NEAR(sum / n, declared, declared * 0.25 + 0.5) << to_string(GetParam());
}

TEST_P(VerticalSweep, PeakCoversContractedThroughputScale) {
  // The profile's contracted throughput should be in the same ballpark
  // as the traffic model's plausible peak (the demo contracts at peak).
  const VerticalProfile profile = profile_for(GetParam());
  std::unique_ptr<TrafficModel> model = make_traffic(GetParam(), Rng(17));
  EXPECT_GT(profile.expected_throughput_mbps, model->mean_rate() * 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllVerticals, VerticalSweep,
                         ::testing::ValuesIn(all_verticals()),
                         [](const ::testing::TestParamInfo<Vertical>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Verticals, AllVerticalsEnumerated) {
  EXPECT_EQ(all_verticals().size(), 5u);
}

TEST(Verticals, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const Vertical v : all_verticals()) EXPECT_TRUE(names.insert(to_string(v)).second);
}

}  // namespace
}  // namespace slices::traffic
