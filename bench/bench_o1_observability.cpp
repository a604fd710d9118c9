// Experiment O1 — cost of the observability layer. The tracing and
// latency-histogram instrumentation rides the orchestrator hot path
// (docs/observability.md); the contract is that a fully instrumented
// epoch at S1 scale (128 cells, 6 slices) costs < 3% over the same
// epoch with tracing disabled.
//
// Prints the paper-style overhead table from a manual interleaved
// timing loop, then runs google-benchmark timings of the kernels:
// epoch serve (tracing off / on / on+wall), span record, histogram
// record, the Chrome-trace export, the /metrics body, and one REST bus
// call over a kept-alive loopback connection and served in-process
// (both cross the codec, so their gap is the socket transport's cost).
//
// With SLICES_TRACE_OUT=<path> the measured run's trace is exported as
// Chrome trace-event JSON (Perfetto-loadable); CI uploads it as an
// artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/http_server.hpp"
#include "net/rest_bus.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

constexpr std::size_t kCells = 128;
constexpr std::size_t kSlices = 6;

/// Wall-clock µs of one orchestrator epoch.
double run_epoch_us(ScaledSystem& sys, SimTime& now) {
  now = now + Duration::minutes(15.0);
  const auto start = std::chrono::steady_clock::now();
  sys.orchestrator->run_epoch(now);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count() / 1000.0;
}

void print_experiment() {
  std::printf("\nO1: observability overhead at S1 scale (%zu cells, %zu slices)\n", kCells,
              kSlices);

  auto sys = make_scaled(kCells, kSlices);
  SimTime now = sys->simulator.now();
  telemetry::trace::set_enabled(false);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();

  constexpr int kWarmup = 20;
  constexpr int kBlocks = 120;  // 6 epochs per block -> 240 samples per mode
  const auto set_mode = [](int mode) {
    telemetry::trace::set_enabled(mode != 0);
    telemetry::trace::set_wall_clock(mode == 2);
  };
  for (int i = 0; i < kWarmup; ++i) (void)run_epoch_us(*sys, now);

  // Per-epoch cost drifts over a long run (allocator state, scheduler
  // preemption on shared CI runners), so batch timing with a fixed mode
  // order charges the drift to whichever mode runs later. Instead time
  // single epochs in a palindromic mode order — 0,1,2,2,1,0 cancels
  // linear drift inside every block — and compare per-mode *medians*,
  // which shrug off preemption spikes.
  static constexpr int kOrder[6] = {0, 1, 2, 2, 1, 0};
  std::vector<double> us[3];
  for (int b = 0; b < kBlocks; ++b) {
    for (const int mode : kOrder) {
      set_mode(mode);
      us[mode].push_back(run_epoch_us(*sys, now));
    }
  }
  set_mode(0);
  const auto median_epoch_us = [](std::vector<double>& samples) {
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
  };
  const double off = median_epoch_us(us[0]);
  const double on = median_epoch_us(us[1]);
  const double wall = median_epoch_us(us[2]);
  const double on_pct = (on / off - 1.0) * 100.0;
  const double wall_pct = (wall / off - 1.0) * 100.0;

  rule(72);
  std::printf("%-34s %12s %12s\n", "mode", "epoch µs", "overhead");
  rule(72);
  std::printf("%-34s %12.1f %12s\n", "tracing off", off, "--");
  std::printf("%-34s %12.1f %+11.2f%%\n", "tracing on (sim timestamps)", on, on_pct);
  std::printf("%-34s %12.1f %+11.2f%%\n", "tracing on + wall histograms", wall, wall_pct);
  rule(72);
  std::printf("target: < 3%% with tracing on -> %s\n",
              on_pct < 3.0 ? "MET" : "NOT MET (see docs/observability.md)");
  std::printf("spans retained: %zu, dropped (ring overwrite): %llu\n",
              telemetry::trace::Tracer::instance().span_count(),
              static_cast<unsigned long long>(telemetry::trace::Tracer::instance().dropped()));

  // Export the measured run for Perfetto when the caller asks (CI
  // uploads this as an artifact).
  if (const char* path = std::getenv("SLICES_TRACE_OUT"); path != nullptr && *path != '\0') {
    std::string trace_json;
    telemetry::trace::Tracer::instance().export_chrome_json(trace_json);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << trace_json;
    std::printf("trace written to %s (%zu bytes)\n", path, trace_json.size());
  }
  std::printf("\n");

  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
}

void BM_EpochTracing(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  const bool wall = state.range(0) == 2;
  auto sys = make_scaled(kCells, kSlices);
  SimTime now = sys->simulator.now();
  telemetry::trace::set_enabled(enabled);
  telemetry::trace::set_wall_clock(wall);
  telemetry::trace::clear();
  for (auto _ : state) {
    now = now + Duration::minutes(15.0);
    sys->orchestrator->run_epoch(now);
  }
  state.SetItemsProcessed(state.iterations());
  telemetry::trace::set_enabled(false);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();
}
BENCHMARK(BM_EpochTracing)
    ->Arg(0)  // tracing off
    ->Arg(1)  // tracing on, sim timestamps
    ->Arg(2)  // tracing on + wall-clock histograms
    ->Unit(benchmark::kMicrosecond);

void BM_SpanRecord(benchmark::State& state) {
  telemetry::trace::set_enabled(true);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();
  for (auto _ : state) {
    TRACE_SCOPE("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
}
BENCHMARK(BM_SpanRecord);

void BM_SpanDisabled(benchmark::State& state) {
  telemetry::trace::set_enabled(false);
  for (auto _ : state) {
    TRACE_SCOPE("bench.span");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::Histogram hist;
  std::uint64_t v = 88172645463325252ull;
  for (auto _ : state) {
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    hist.record(v % 1000000);
  }
  benchmark::DoNotOptimize(hist.value_at_quantile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_TraceExport(benchmark::State& state) {
  telemetry::trace::set_enabled(true);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();
  telemetry::trace::set_sim_now(1000);
  for (int i = 0; i < 4096; ++i) {
    TRACE_SCOPE("bench.exported");
  }
  std::string out;
  for (auto _ : state) {
    telemetry::trace::Tracer::instance().export_chrome_json(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
  telemetry::trace::set_enabled(false);
  telemetry::trace::clear();
}
BENCHMARK(BM_TraceExport)->Unit(benchmark::kMicrosecond);

void BM_MetricsBody(benchmark::State& state) {
  // A /metrics scrape: serialize a registry populated roughly the way
  // one region's orchestrator populates it (a few dozen counters and
  // gauges, per-slice series, one busy latency histogram).
  telemetry::MonitorRegistry registry;
  std::uint64_t v = 88172645463325252ull;
  for (int i = 0; i < 48; ++i) {
    registry.counter("bench.counter." + std::to_string(i)).increment(i);
    registry.gauge("bench.gauge." + std::to_string(i)).set(i * 1.5);
    telemetry::SeriesHandle series = registry.handle("bench.series." + std::to_string(i));
    for (int t = 0; t < 16; ++t) {
      series.observe(SimTime::origin() + Duration::minutes(15.0 * t), i + t * 0.25);
    }
  }
  telemetry::Histogram& hist = registry.histogram("bench.latency_us");
  for (int i = 0; i < 4096; ++i) {
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
    hist.record(v % 1000000);
  }
  std::string out;
  for (auto _ : state) {
    registry.metrics_body(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_MetricsBody)->Unit(benchmark::kMicrosecond);

/// One broker -> edge REST exchange: a RestBus GET with a body the size
/// of a /federation/headroom answer, served in-process or over the bus's
/// kept-alive loopback connection to an HttpServer thread. Both cross
/// the same codec, so the gap between the two rows is the transport.
void bus_call(benchmark::State& state, bool over_socket) {
  auto router = std::make_shared<net::Router>();
  router->add(net::Method::get, "/federation/headroom", [](const net::RouteContext&) {
    return net::Response::json(net::Status::ok,
                               R"({"region":"r0","headroom_mbps":1234.5,"suspended":false})");
  });
  telemetry::trace::set_enabled(false);  // the bus alone
  net::RestBus bus;
  std::unique_ptr<net::HttpServer> server;
  std::thread serving;
  if (over_socket) {
    Result<std::unique_ptr<net::HttpServer>> bound = net::HttpServer::bind(router);
    if (!bound.ok()) {
      state.SkipWithError(bound.error().message.c_str());
      return;
    }
    server = std::move(bound).value();
    serving = std::thread([raw = server.get()] { raw->run(); });
    bus.register_remote("r0", server->port());
  } else {
    bus.register_service("r0", router);
  }
  for (auto _ : state) {
    Result<json::Value> doc = bus.get_json("r0", "/federation/headroom");
    if (!doc.ok()) {
      state.SkipWithError(doc.error().message.c_str());
      break;
    }
    benchmark::DoNotOptimize(doc.value());
  }
  if (server != nullptr) {
    bus.close_connections();
    server->stop();
    serving.join();
    state.counters["connections"] = static_cast<double>(server->connections_served());
  }
}

void BM_BusCallLoopback(benchmark::State& state) { bus_call(state, /*over_socket=*/true); }
BENCHMARK(BM_BusCallLoopback)->Unit(benchmark::kMicrosecond);

void BM_BusCallInProcess(benchmark::State& state) { bus_call(state, /*over_socket=*/false); }
BENCHMARK(BM_BusCallInProcess)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
