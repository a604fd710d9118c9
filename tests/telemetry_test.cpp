// Unit tests for time series, statistics and the monitor registry.

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/rng.hpp"
#include "json/value.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"

namespace slices::telemetry {
namespace {

SimTime at(double s) { return SimTime::from_seconds(s); }

// --- TimeSeries ---------------------------------------------------------------

TEST(TimeSeries, AppendsAndReads) {
  TimeSeries ts(8);
  EXPECT_TRUE(ts.empty());
  ts.append(at(1.0), 10.0);
  ts.append(at(2.0), 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.at(0).value, 10.0);
  EXPECT_DOUBLE_EQ(ts.back().value, 20.0);
  EXPECT_DOUBLE_EQ(ts.latest_or(-1.0), 20.0);
}

TEST(TimeSeries, LatestOrFallback) {
  TimeSeries ts(4);
  EXPECT_DOUBLE_EQ(ts.latest_or(-1.0), -1.0);
}

TEST(TimeSeries, EvictsOldestWhenFull) {
  TimeSeries ts(3);
  for (int i = 0; i < 5; ++i) ts.append(at(i), static_cast<double>(i));
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.at(0).value, 2.0);
  EXPECT_DOUBLE_EQ(ts.at(1).value, 3.0);
  EXPECT_DOUBLE_EQ(ts.at(2).value, 4.0);
}

TEST(TimeSeries, WrapAroundKeepsChronologicalOrder) {
  TimeSeries ts(4);
  for (int i = 0; i < 11; ++i) ts.append(at(i), static_cast<double>(i * i));
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    EXPECT_LT(ts.at(i).time, ts.at(i + 1).time);
  }
  EXPECT_DOUBLE_EQ(ts.back().value, 100.0);
}

TEST(TimeSeries, LastValuesAndWindows) {
  TimeSeries ts(16);
  for (int i = 1; i <= 10; ++i) ts.append(at(i), static_cast<double>(i));
  EXPECT_DOUBLE_EQ(*ts.mean_last(3), 9.0);
  EXPECT_DOUBLE_EQ(*ts.mean_last(4), 8.5);
  EXPECT_DOUBLE_EQ(*ts.mean_last(100), 5.5);  // fewer samples than asked for
  EXPECT_DOUBLE_EQ(*ts.max_last(5), 10.0);
  EXPECT_DOUBLE_EQ(*ts.max_last(100), 10.0);
  EXPECT_FALSE(TimeSeries(4).mean_last(3).has_value());
}

// --- RunningStats -----------------------------------------------------------------

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.minimum(), 2.0);
  EXPECT_DOUBLE_EQ(stats.maximum(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
}

TEST(RunningStats, StableUnderLargeOffsets) {
  RunningStats stats;
  for (int i = 0; i < 1000; ++i) stats.add(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(stats.variance(), 1.0, 1e-6);
}

// --- quantile / error metrics ---------------------------------------------------

TEST(Quantile, InterpolatesOrderStatistics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 1.4);
}

TEST(Quantile, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
}

TEST(Quantile, InplaceMatchesSortingVariant) {
  // quantile() is now a thin wrapper over quantile_inplace; pin that the
  // nth_element fast path agrees with the documented interpolation on
  // unsorted input, including the pinned 0.1 -> 1.4 case above.
  std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<double> scratch = v;
    EXPECT_DOUBLE_EQ(quantile_inplace(scratch, q), quantile(v, q)) << "q=" << q;
  }
  std::vector<double> scratch = v;
  EXPECT_DOUBLE_EQ(quantile_inplace(scratch, 0.1), 1.4);
}

TEST(Quantile, InplacePermutesButKeepsElements) {
  std::vector<double> v{9.0, 7.0, 8.0, 1.0, 3.0};
  (void)quantile_inplace(v, 0.5);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<double>{1.0, 3.0, 7.0, 8.0, 9.0}));
}

// --- Histogram --------------------------------------------------------------------

TEST(Histogram, ExactBelowSubBucketRange) {
  // Values below kSubBuckets map to identity buckets: no resolution loss.
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_lower(v), v);
    EXPECT_EQ(Histogram::bucket_upper(v), v);
  }
}

TEST(Histogram, BucketBoundariesAreContinuous) {
  // lower(i+1) == upper(i) + 1 for a long prefix, and every value maps
  // into a bucket whose [lower, upper] range contains it.
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(Histogram::bucket_lower(i + 1), Histogram::bucket_upper(i) + 1) << "i=" << i;
  }
  for (const std::uint64_t v :
       {std::uint64_t{15}, std::uint64_t{16}, std::uint64_t{17}, std::uint64_t{31},
        std::uint64_t{32}, std::uint64_t{1023}, std::uint64_t{1024}, std::uint64_t{1025},
        std::uint64_t{1} << 40, (std::uint64_t{1} << 40) + 12345}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(i), v) << "v=" << v;
    EXPECT_GE(Histogram::bucket_upper(i), v) << "v=" << v;
  }
}

TEST(Histogram, BucketRelativeErrorBound) {
  // Bucket width over bucket lower bound is the worst-case relative
  // quantile error: bounded by 1/kSubBuckets.
  for (std::size_t i = Histogram::kSubBuckets; i < 512; ++i) {
    const double lo = static_cast<double>(Histogram::bucket_lower(i));
    const double width = static_cast<double>(Histogram::bucket_upper(i)) - lo + 1.0;
    EXPECT_LE(width / lo, 1.0 / static_cast<double>(Histogram::kSubBuckets) + 1e-12)
        << "i=" << i;
  }
}

TEST(Histogram, QuantilesOnSmallExactValues) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 5; ++v) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 15u);
  EXPECT_EQ(h.minimum(), 1u);
  EXPECT_EQ(h.maximum(), 5u);
  // Values 1..5 sit in exact buckets; quantiles interpolate like the
  // order-statistics quantile() above.
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.value_at_quantile(1.0), 5.0);
}

TEST(Histogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.record(1000);  // one sample: every quantile is that sample
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(h.value_at_quantile(0.999), 1000.0);
  EXPECT_DOUBLE_EQ(h.value_at_quantile(1.0), 1000.0);
}

TEST(Histogram, QuantileWithinRelativeErrorOfExact) {
  Histogram h;
  std::vector<double> exact;
  std::uint64_t x = 88172645463325252ull;  // xorshift, deterministic
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t v = x % 1000000;  // up to 1s in µs
    h.record(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double approx = h.value_at_quantile(q);
    const double truth = quantile(exact, q);
    EXPECT_NEAR(approx, truth, truth / static_cast<double>(Histogram::kSubBuckets) + 1.0)
        << "q=" << q;
  }
}

TEST(Histogram, MergeIsAssociativeAndOrderInsensitive) {
  const auto fill = [](Histogram& h, std::uint64_t seed, int n) {
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      h.record(x % 100000);
    }
  };
  Histogram a, b, c;
  fill(a, 1, 300);
  fill(b, 2, 500);
  fill(c, 3, 700);

  Histogram ab_c;  // (a + b) + c
  ab_c.merge_json(a.to_json());
  ab_c.merge_json(b.to_json());
  ab_c.merge_json(c.to_json());
  Histogram bc;  // a + (b + c), built in a different order
  bc.merge_json(c.to_json());
  bc.merge_json(b.to_json());
  Histogram a_bc;
  a_bc.merge_json(bc.to_json());
  a_bc.merge_json(a.to_json());

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.sum(), a_bc.sum());
  EXPECT_EQ(ab_c.minimum(), a_bc.minimum());
  EXPECT_EQ(ab_c.maximum(), a_bc.maximum());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(ab_c.value_at_quantile(q), a_bc.value_at_quantile(q)) << "q=" << q;
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.record(5);
  a.record(500);
  const std::uint64_t count = a.count();
  a.merge_json(empty.to_json());
  EXPECT_EQ(a.count(), count);
  EXPECT_EQ(a.minimum(), 5u);
  EXPECT_EQ(a.maximum(), 500u);

  Histogram b;
  b.merge_json(a.to_json());  // merge into a fresh histogram adopts min/max
  EXPECT_EQ(b.minimum(), 5u);
  EXPECT_EQ(b.maximum(), 500u);
  EXPECT_EQ(b.count(), count);
}

TEST(ErrorMetrics, MaeAndRmse) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(mean_absolute_error(a, b), 1.0);
  EXPECT_NEAR(root_mean_square_error(a, b), std::sqrt(5.0 / 3.0), 1e-12);
}

// --- MonitorRegistry ---------------------------------------------------------------

TEST(MonitorRegistry, CountersAndGauges) {
  MonitorRegistry reg;
  reg.counter("requests").increment();
  reg.counter("requests").increment(4);
  reg.gauge("load").set(0.7);
  reg.gauge("load").add(0.1);
  EXPECT_EQ(reg.find_counter("requests")->value(), 5u);
  EXPECT_NEAR(reg.find_gauge("load")->value(), 0.8, 1e-12);
  EXPECT_EQ(reg.find_counter("ghost"), nullptr);
  EXPECT_EQ(reg.find_gauge("ghost"), nullptr);
}

TEST(MonitorRegistry, ObserveMirrorsSeriesToGauge) {
  MonitorRegistry reg;
  reg.observe("cell.prb", at(1.0), 40.0);
  reg.observe("cell.prb", at(2.0), 60.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("cell.prb")->value(), 60.0);
  ASSERT_NE(reg.find_series("cell.prb"), nullptr);
  EXPECT_EQ(reg.find_series("cell.prb")->size(), 2u);
}

TEST(MonitorRegistry, SnapshotIsWellFormedJson) {
  MonitorRegistry reg;
  reg.counter("a").increment(2);
  reg.gauge("b").set(1.5);
  reg.observe("c", at(3.0), 9.0);

  const json::Value snap = reg.snapshot();
  const std::string text = json::serialize(snap);
  const Result<json::Value> reparsed = json::parse(text);
  ASSERT_TRUE(reparsed.ok());

  EXPECT_DOUBLE_EQ(snap.find("counters")->find("a")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(snap.find("gauges")->find("b")->as_number(), 1.5);
  const json::Value* series = snap.find("series")->find("c");
  ASSERT_NE(series, nullptr);
  EXPECT_DOUBLE_EQ(series->find("latest")->as_number(), 9.0);
  EXPECT_DOUBLE_EQ(series->find("latest_t")->as_number(), 3.0);
}

TEST(MonitorRegistry, SnapshotPrefixFiltersEveryInstrumentKind) {
  MonitorRegistry reg;
  reg.counter("ran.attach").increment(3);
  reg.counter("transport.reroutes").increment(1);
  reg.gauge("ran.util").set(0.5);
  reg.gauge("cloud.cpu").set(0.9);
  reg.observe("ran.cell.1.prb", at(1.0), 10.0);
  reg.observe("transport.path.1.mbps", at(1.0), 40.0);

  const json::Value ran = reg.snapshot("ran.");
  EXPECT_NE(ran.find("counters")->find("ran.attach"), nullptr);
  EXPECT_EQ(ran.find("counters")->find("transport.reroutes"), nullptr);
  EXPECT_NE(ran.find("gauges")->find("ran.util"), nullptr);
  EXPECT_EQ(ran.find("gauges")->find("cloud.cpu"), nullptr);
  EXPECT_NE(ran.find("series")->find("ran.cell.1.prb"), nullptr);
  EXPECT_EQ(ran.find("series")->find("transport.path.1.mbps"), nullptr);

  // Empty prefix keeps the everything-snapshot.
  const json::Value all = reg.snapshot();
  EXPECT_NE(all.find("series")->find("transport.path.1.mbps"), nullptr);
}

TEST(MonitorRegistry, MetricsBodyMatchesDomSerialization) {
  MonitorRegistry reg;
  reg.counter("ran.attach").increment(7);
  reg.counter("transport.reroutes").increment(2);
  reg.gauge("ran.util").set(0.375);
  reg.observe("ran.cell.1.prb", at(1.0), 10.0);
  reg.observe("ran.cell.1.prb", at(2.0), 12.5);
  reg.observe("transport.path.1.mbps", at(2.0), 41.830000000000005);
  (void)reg.series("ran.empty");  // series with no points

  std::string direct;
  for (const std::string prefix : {"", "ran.", "transport.", "ghost."}) {
    reg.metrics_body(direct, prefix);
    EXPECT_EQ(direct, json::serialize(reg.snapshot(prefix))) << "prefix=" << prefix;
    EXPECT_TRUE(json::parse(direct).ok()) << "prefix=" << prefix;
  }

  // Buffer reuse: a second call overwrites, not appends.
  reg.metrics_body(direct, "ran.");
  const std::string once = direct;
  reg.metrics_body(direct, "ran.");
  EXPECT_EQ(direct, once);
}

TEST(MonitorRegistry, ErasePrefixRetiresOneSliceAndNothingElse) {
  // Slice 10's instruments, and everything else, are in both
  // registries; only `retired` ever held slice 1's.
  const auto fill_survivors = [](MonitorRegistry& reg) {
    reg.counter("slice.10.violations").increment(2);
    reg.gauge("slice.10.load").set(0.25);
    reg.histogram("slice.10.delay_us").record(300);
    reg.observe("slice.10.demand_mbps", at(1.0), 12.5);
    reg.observe("slice.demand_mbps", at(1.0), 4.0);
    reg.counter("slice1.violations").increment(1);
    reg.observe("orchestrator.active_slices", at(1.0), 2.0);
  };
  MonitorRegistry retired;
  fill_survivors(retired);
  retired.counter("slice.1.violations").increment(3);
  retired.gauge("slice.1.load").set(0.5);
  retired.histogram("slice.1.delay_us").record(200);
  retired.observe("slice.1.demand_mbps", at(1.0), 8.0);
  retired.observe("slice.1.demand_mbps", at(2.0), 9.0);
  MonitorRegistry never;
  fill_survivors(never);

  // Four instruments, plus the gauge that mirrors the series.
  EXPECT_EQ(retired.erase_prefix("slice.1."), 5u);
  EXPECT_EQ(retired.find_counter("slice.1.violations"), nullptr);
  EXPECT_EQ(retired.find_gauge("slice.1.load"), nullptr);
  EXPECT_EQ(retired.find_histogram("slice.1.delay_us"), nullptr);
  EXPECT_EQ(retired.find_series("slice.1.demand_mbps"), nullptr);
  EXPECT_EQ(retired.find_gauge("slice.1.demand_mbps"), nullptr);
  ASSERT_NE(retired.find_counter("slice.10.violations"), nullptr);
  EXPECT_EQ(retired.find_counter("slice.10.violations")->value(), 2u);

  std::string after;
  std::string oracle;
  for (const std::string prefix : {"", "slice.", "slice.10."}) {
    retired.metrics_body(after, prefix);
    never.metrics_body(oracle, prefix);
    EXPECT_EQ(after, oracle) << "prefix=" << prefix;
  }
  EXPECT_EQ(retired.erase_prefix("slice.1."), 0u);
}

TEST(MonitorRegistry, HistogramSnapshotShape) {
  MonitorRegistry reg;
  Histogram& h = reg.histogram("orch.epoch_us");
  (void)reg.histogram("orch.empty");  // registered but never recorded
  for (std::uint64_t v = 1; v <= 5; ++v) h.record(v * 100);

  const json::Value snap = reg.snapshot();
  const json::Value* hist = snap.find("histograms");
  ASSERT_NE(hist, nullptr);
  const json::Value* full = hist->find("orch.epoch_us");
  ASSERT_NE(full, nullptr);
  EXPECT_DOUBLE_EQ(full->find("count")->as_number(), 5.0);
  EXPECT_DOUBLE_EQ(full->find("sum")->as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(full->find("min")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(full->find("max")->as_number(), 500.0);
  EXPECT_NE(full->find("p50"), nullptr);
  EXPECT_NE(full->find("p999"), nullptr);

  // Empty histograms serialize as {"count":0} so the instrument set is
  // visible without implying fake quantiles.
  const json::Value* empty = hist->find("orch.empty");
  ASSERT_NE(empty, nullptr);
  EXPECT_DOUBLE_EQ(empty->find("count")->as_number(), 0.0);
  EXPECT_EQ(empty->find("p50"), nullptr);

  EXPECT_EQ(reg.find_histogram("ghost"), nullptr);
  EXPECT_EQ(reg.find_histogram("orch.epoch_us"), &h);
}

TEST(MonitorRegistry, MetricsBodyMatchesDomWithHistograms) {
  // Byte-identity of the DOM-free serializer must hold with histogram
  // data present (populated, empty, and prefix-filtered).
  MonitorRegistry reg;
  reg.counter("ran.attach").increment(3);
  reg.gauge("ran.util").set(0.25);
  reg.observe("ran.cell.1.prb", at(1.0), 10.0);
  Histogram& h = reg.histogram("orch.epoch_us");
  for (std::uint64_t v : {7u, 19u, 23u, 101u, 4099u}) h.record(v);
  (void)reg.histogram("ran.empty_hist");

  std::string direct;
  for (const std::string prefix : {"", "orch.", "ran.", "ghost."}) {
    reg.metrics_body(direct, prefix);
    EXPECT_EQ(direct, json::serialize(reg.snapshot(prefix))) << "prefix=" << prefix;
    EXPECT_TRUE(json::parse(direct).ok()) << "prefix=" << prefix;
  }
}

TEST(MonitorRegistry, SeriesWindowReturnsRecentPoints) {
  MonitorRegistry reg;
  for (int i = 0; i < 10; ++i) reg.observe("x", at(i), static_cast<double>(i));
  const json::Value window = reg.series_window("x", 3);
  ASSERT_TRUE(window.is_array());
  ASSERT_EQ(window.as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(window.as_array()[0].find("v")->as_number(), 7.0);
  EXPECT_DOUBLE_EQ(window.as_array()[2].find("v")->as_number(), 9.0);
  EXPECT_TRUE(reg.series_window("ghost", 5).as_array().empty());
}

// --- Trace ------------------------------------------------------------------------

// The tracer is a process-wide singleton; each test starts from a clean,
// disabled state and restores it.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::set_wall_clock(false);
    trace::clear();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::set_wall_clock(false);
    trace::clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  { TRACE_SCOPE("noop"); }
  EXPECT_EQ(trace::Tracer::instance().span_count(), 0u);
}

TEST_F(TraceTest, ScopesRecordNestedSpans) {
  trace::set_enabled(true);
  trace::set_sim_now(1500);
  {
    TRACE_SCOPE("outer");
    TRACE_SCOPE("inner");
  }
  EXPECT_EQ(trace::Tracer::instance().span_count(), 2u);

  std::string out;
  trace::Tracer::instance().export_chrome_json(out);
  const Result<json::Value> doc = json::parse(out);
  ASSERT_TRUE(doc.ok());
  const json::Value* events = doc.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  // Scopes record at exit, so the inner span lands first and carries
  // depth 1; both stamp the published sim clock.
  const json::Value& inner = events->as_array()[0];
  const json::Value& outer = events->as_array()[1];
  EXPECT_EQ(inner.find("name")->as_string(), "inner");
  EXPECT_DOUBLE_EQ(inner.find("args")->find("depth")->as_number(), 1.0);
  EXPECT_EQ(outer.find("name")->as_string(), "outer");
  EXPECT_DOUBLE_EQ(outer.find("args")->find("depth")->as_number(), 0.0);
  EXPECT_DOUBLE_EQ(outer.find("ts")->as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(outer.find("dur")->as_number(), 0.0);  // wall clock off
}

TEST_F(TraceTest, ExportIsDeterministicWithWallClockOff) {
  trace::set_enabled(true);
  const auto run = [] {
    trace::clear();
    trace::set_sim_now(10);
    { TRACE_SCOPE("a"); }
    trace::set_sim_now(20);
    { TRACE_SCOPE("b"); }
    std::string out;
    trace::Tracer::instance().export_chrome_json(out);
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(TraceTest, WallClockAddsDurations) {
  trace::set_enabled(true);
  trace::set_wall_clock(true);
  { TRACE_SCOPE("timed"); }
  std::string out;
  trace::Tracer::instance().export_chrome_json(out);
  const Result<json::Value> doc = json::parse(out);
  ASSERT_TRUE(doc.ok());
  bool found = false;
  for (const json::Value& event : doc.value().find("traceEvents")->as_array()) {
    if (event.find("name")->as_string() != "timed") continue;
    found = true;
    EXPECT_GE(event.find("dur")->as_number(), 0.0);
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, FullLaneOverwritesOldestAndCountsDrops) {
  trace::Tracer& tracer = trace::Tracer::instance();
  trace::set_enabled(true);
  tracer.set_lane_capacity(4);
  // Lane capacity applies to lanes created after the call, so record
  // from a fresh thread (which gets a fresh lane).
  std::thread worker([] {
    for (int i = 0; i < 10; ++i) {
      TRACE_SCOPE("spin");
    }
  });
  worker.join();
  tracer.set_lane_capacity(trace::Tracer::kDefaultLaneCapacity);
  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);

  std::string out;
  tracer.export_chrome_json(out);
  const Result<json::Value> doc = json::parse(out);
  ASSERT_TRUE(doc.ok());
  // Oldest-first: the retained spans are the last four recorded.
  const auto& events = doc.value().find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().find("args")->find("seq")->as_number(), 6.0);
  EXPECT_DOUBLE_EQ(events.back().find("args")->find("seq")->as_number(), 9.0);
}

TEST(Histogram, JsonRoundTripIsLossless) {
  Histogram h;
  for (std::uint64_t v : {0u, 1u, 15u, 16u, 17u, 1000u, 123456u}) h.record(v);
  Histogram rebuilt;
  rebuilt.merge_json(h.to_json());
  EXPECT_EQ(json::serialize(rebuilt.to_json()), json::serialize(h.to_json()));
  EXPECT_EQ(rebuilt.count(), h.count());
  EXPECT_EQ(rebuilt.sum(), h.sum());
  EXPECT_EQ(rebuilt.minimum(), h.minimum());
  EXPECT_EQ(rebuilt.maximum(), h.maximum());
}

TEST(Histogram, JsonMergeIsAssociativeAndCommutative) {
  // Property check over seeded pseudo-random sample sets: bucket counts
  // are plain sums, so any merge order/grouping must give the same
  // to_json() bytes.
  Rng rng(20260808);
  std::vector<Histogram> parts(3);
  for (Histogram& h : parts) {
    const int samples = rng.uniform_int(1, 64);
    for (int i = 0; i < samples; ++i) {
      h.record(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)));
    }
  }
  const auto merged_json = [](const Histogram& x, const Histogram& y) {
    Histogram out;
    out.merge_json(x.to_json());
    out.merge_json(y.to_json());
    return out;
  };
  // Commutativity: A+B == B+A.
  EXPECT_EQ(json::serialize(merged_json(parts[0], parts[1]).to_json()),
            json::serialize(merged_json(parts[1], parts[0]).to_json()));
  // Associativity: (A+B)+C == A+(B+C).
  Histogram left = merged_json(parts[0], parts[1]);
  left.merge_json(parts[2].to_json());
  Histogram right = merged_json(parts[1], parts[2]);
  Histogram a_first;
  a_first.merge_json(parts[0].to_json());
  a_first.merge_json(right.to_json());
  EXPECT_EQ(json::serialize(left.to_json()), json::serialize(a_first.to_json()));
}

TEST(Histogram, CrossProcessJsonMergeMatchesSingleHistogram) {
  // The broker-side aggregation path: two "edge" histograms cross a
  // process boundary as to_json() documents and are merged; the result
  // must be bit-identical to one histogram that saw every sample.
  Rng rng(42);
  Histogram edge_a;
  Histogram edge_b;
  Histogram single;
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16));
    (i % 2 == 0 ? edge_a : edge_b).record(v);
    single.record(v);
  }
  Histogram broker;
  broker.merge_json(json::parse(json::serialize(edge_a.to_json())).value());
  broker.merge_json(json::parse(json::serialize(edge_b.to_json())).value());
  EXPECT_EQ(json::serialize(broker.to_json()), json::serialize(single.to_json()));
  EXPECT_DOUBLE_EQ(broker.value_at_quantile(0.5), single.value_at_quantile(0.5));
}

TEST(Histogram, MergeJsonIgnoresMalformedDocuments) {
  Histogram h;
  h.record(7);
  const std::string before = json::serialize(h.to_json());
  h.merge_json(json::Value(nullptr));
  h.merge_json(json::Value(3.0));
  h.merge_json(json::parse(R"({"count": 2})").value());          // missing fields
  h.merge_json(json::parse(R"({"buckets": [], "count": 0, "max": 0, "min": 0, "sum": 0})")
                   .value());  // empty merge is identity
  EXPECT_EQ(json::serialize(h.to_json()), before);
}

TEST(MonitorRegistry, ExportJsonExcludesSeriesAndKeepsRawBuckets) {
  MonitorRegistry registry;
  registry.counter("requests").increment(3);
  registry.gauge("load").set(0.5);
  registry.histogram("latency_us").record(1000);
  registry.observe("demand", at(1.0), 12.0);

  const json::Value doc = registry.export_json();
  EXPECT_EQ(doc.find("series"), nullptr) << "series are per-process windows, not mergeable";
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("requests")->as_number(), 3.0);
  // observe() mirrors into a gauge, which the export does carry.
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("demand")->as_number(), 12.0);
  const json::Value* hist = doc.find("histograms")->find("latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->find("buckets"), nullptr) << "export must be raw buckets, not quantiles";
  EXPECT_EQ(hist->find("p50"), nullptr);
}

TEST(MonitorRegistry, MergeFromAddsCountersGaugesAndHistograms) {
  MonitorRegistry a;
  a.counter("admitted").increment(2);
  a.gauge("reserved_mbps").set(100.0);
  a.histogram("headroom").record(10);

  MonitorRegistry b;
  b.counter("admitted").increment(5);
  b.counter("only_b").increment(1);
  b.gauge("reserved_mbps").set(50.0);
  b.histogram("headroom").record(20);

  a.merge_from(b.export_json());
  EXPECT_EQ(a.find_counter("admitted")->value(), 7u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 1u);
  // Merged gauges read as the sum across sources (documented semantics).
  EXPECT_DOUBLE_EQ(a.find_gauge("reserved_mbps")->value(), 150.0);
  EXPECT_EQ(a.find_histogram("headroom")->count(), 2u);
  EXPECT_EQ(a.find_histogram("headroom")->minimum(), 10u);
  EXPECT_EQ(a.find_histogram("headroom")->maximum(), 20u);
}

TEST(MonitorRegistry, CrossRegistryMergeMatchesSingleRegistry) {
  // Registry-level analog of the cross-process histogram parity: two
  // half registries merged through their JSON exports must serialize
  // exactly like one registry that recorded everything.
  Rng rng(7);
  MonitorRegistry half_a;
  MonitorRegistry half_b;
  MonitorRegistry whole;
  for (int i = 0; i < 200; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.uniform_int(0, 4096));
    MonitorRegistry& half = i % 2 == 0 ? half_a : half_b;
    half.histogram("epoch_us").record(v);
    whole.histogram("epoch_us").record(v);
    half.counter("epochs").increment();
    whole.counter("epochs").increment();
  }
  MonitorRegistry merged;
  merged.merge_from(json::parse(json::serialize(half_a.export_json())).value());
  merged.merge_from(json::parse(json::serialize(half_b.export_json())).value());
  EXPECT_EQ(json::serialize(merged.export_json()), json::serialize(whole.export_json()));
}

TEST_F(TraceTest, ClearResetsSpansAndTimeline) {
  trace::set_enabled(true);
  trace::set_sim_now(999);
  { TRACE_SCOPE("x"); }
  trace::clear();
  EXPECT_EQ(trace::Tracer::instance().span_count(), 0u);
  EXPECT_EQ(trace::Tracer::instance().sim_now(), 0);

  const json::Value status = trace::Tracer::instance().status_json();
  EXPECT_TRUE(status.find("enabled")->as_bool());
  EXPECT_DOUBLE_EQ(status.find("spans")->as_number(), 0.0);
}

TEST_F(TraceTest, LaneCapacityAppliesToExistingLanesAtClear) {
  trace::Tracer& tracer = trace::Tracer::instance();
  trace::set_enabled(true);
  { TRACE_SCOPE("warm"); }  // this thread's lane now exists at the default capacity
  trace::clear();

  // A live ring is never resized in place: the shrink stays pending...
  tracer.set_lane_capacity(2);
  for (int i = 0; i < 5; ++i) {
    TRACE_SCOPE("pre");
  }
  EXPECT_EQ(tracer.span_count(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);

  // ...and takes effect at the next clear(), where the spans were being
  // dropped anyway.
  trace::clear();
  for (int i = 0; i < 5; ++i) {
    TRACE_SCOPE("post");
  }
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);

  const json::Value status = tracer.status_json();
  bool saw_lane = false;
  for (const json::Value& lane : status.find("lane_detail")->as_array()) {
    if (lane.find("spans")->as_number() != 2.0) continue;
    saw_lane = true;
    EXPECT_DOUBLE_EQ(lane.find("capacity")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(lane.find("dropped")->as_number(), 3.0);
  }
  EXPECT_TRUE(saw_lane);
  tracer.set_lane_capacity(trace::Tracer::kDefaultLaneCapacity);
}

TEST_F(TraceTest, ContextHeaderRoundTrips) {
  trace::Context ctx;
  ctx.trace = 3;
  ctx.parent = (0xabcdefull << trace::Tracer::kComponentShift) | 17u;
  ctx.depth = 4;
  ctx.sim_us = 1234567;
  std::string wire;
  trace::encode_context(ctx, wire);
  const trace::Context back = trace::parse_context(wire);
  EXPECT_TRUE(back.valid());
  EXPECT_EQ(back.trace, ctx.trace);
  EXPECT_EQ(back.parent, ctx.parent);
  EXPECT_EQ(back.depth, ctx.depth);
  EXPECT_EQ(back.sim_us, ctx.sim_us);

  for (const char* garbage : {"", "1-2-3", "a-b-c-d", "1-2-3-4-5", "0-0-0-0"}) {
    EXPECT_FALSE(trace::parse_context(garbage).valid()) << garbage;
  }
}

TEST_F(TraceTest, ContextScopeParentsSpansAcrossThreads) {
  // The socket-transport shape: a caller records "bus.call" and stamps
  // its context; the handler thread adopts it and records "handler".
  // The handler span must parent the caller span exactly as a nested
  // in-process scope would.
  trace::set_enabled(true);
  trace::set_sim_now(50);
  trace::Context carried;
  {
    TRACE_SCOPE("bus.call");
    carried = trace::Tracer::instance().current_context();
  }
  ASSERT_TRUE(carried.valid());
  EXPECT_EQ(carried.depth, 1u);

  std::thread server([&carried] {
    trace::ContextScope adopt(carried);
    TRACE_SCOPE("handler");
  });
  server.join();

  std::string out;
  trace::Tracer::instance().export_chrome_json(out);
  const Result<json::Value> doc = json::parse(out);
  ASSERT_TRUE(doc.ok());
  const json::Value* caller = nullptr;
  const json::Value* handler = nullptr;
  for (const json::Value& event : doc.value().find("traceEvents")->as_array()) {
    if (event.find("name")->as_string() == "bus.call") caller = &event;
    if (event.find("name")->as_string() == "handler") handler = &event;
  }
  ASSERT_NE(caller, nullptr);
  ASSERT_NE(handler, nullptr);
  EXPECT_EQ(handler->find("args")->find("parent")->as_string(),
            caller->find("args")->find("span")->as_string());
  EXPECT_EQ(handler->find("args")->find("trace")->as_string(),
            caller->find("args")->find("trace")->as_string());
  EXPECT_DOUBLE_EQ(handler->find("args")->find("depth")->as_number(), 1.0);
  // The adopted sim clock slaves the handler's timestamp to the caller.
  EXPECT_DOUBLE_EQ(handler->find("ts")->as_number(), 50.0);
}

TEST_F(TraceTest, ComponentScopeKeysSpanIdsByComponent) {
  trace::Tracer& tracer = trace::Tracer::instance();
  trace::set_enabled(true);
  const trace::ComponentRef edge = tracer.intern_component("edge.r0");
  ASSERT_NE(edge.ptr, nullptr);
  EXPECT_NE(edge.index, 0u);
  // Interning is idempotent.
  EXPECT_EQ(tracer.intern_component("edge.r0").index, edge.index);

  {
    trace::ComponentScope scope(edge);
    TRACE_SCOPE("edge.work");
  }
  { TRACE_SCOPE("broker.work"); }

  std::string edge_spans;
  tracer.export_component_spans_json(edge.index, edge_spans);
  const Result<json::Value> edge_doc = json::parse(edge_spans);
  ASSERT_TRUE(edge_doc.ok());
  ASSERT_EQ(edge_doc.value().as_array().size(), 1u);
  const json::Value& span = edge_doc.value().as_array()[0];
  EXPECT_EQ(span.find("name")->as_string(), "edge.work");
  // Span ids are decimal strings carrying (component key << 40) | seq.
  const std::uint64_t id = std::strtoull(span.find("span")->as_string().c_str(), nullptr, 10);
  EXPECT_EQ(id >> trace::Tracer::kComponentShift, edge.ptr->key);
  EXPECT_EQ(id & ((1ull << trace::Tracer::kComponentShift) - 1), 1u);

  std::string broker_spans;
  tracer.export_component_spans_json(0, broker_spans);
  const Result<json::Value> broker_doc = json::parse(broker_spans);
  ASSERT_TRUE(broker_doc.ok());
  ASSERT_EQ(broker_doc.value().as_array().size(), 1u);
  const std::uint64_t broker_id = std::strtoull(
      broker_doc.value().as_array()[0].find("span")->as_string().c_str(), nullptr, 10);
  EXPECT_EQ(broker_id >> trace::Tracer::kComponentShift, 0u)
      << "the default component keys ids with 0 (broker / control plane)";
}

}  // namespace
}  // namespace slices::telemetry
