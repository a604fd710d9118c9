// scenario_bench: one process runs one scored scenario once.
//
//   scenario_bench <scenario.json> --seed N [--transport inproc|socket]
//                    [--trace-out path]
//
// Steps, all through the public entry points, with one epoch thread:
//   1. setup: parse the scenario and build its deployment kSetupReps
//      times (testbed, or fabric + edge nodes + socket binds), timing each;
//   2. the scored run: scenario::ScenarioRunner::run (fig2) or
//      federation::FederatedRunner::run (metro), timed, with the wall
//      clock on so the orchestrator's own latency histograms fill;
//   3. with --trace-out, the span tracer records the run too, wrapped in
//      a "bench.run" root span, and the Chrome trace is written there.
//
// Prints one JSON object on stdout: the scorecard text (perfbench/run.py
// hashes it), setup and run wall, CPU time, max RSS, the full-fidelity
// epoch and admission histograms, and a few layer counters. Exits 1 on
// bad input or a run() error; a missed scenario target is reported in the
// output ("targets_met"), not by the exit code.

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "federation/edge.hpp"
#include "federation/fabric.hpp"
#include "federation/runner.hpp"
#include "json/value.hpp"
#include "net/http_server.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace slices;

struct Args {
  std::string scenario_path;
  std::uint64_t seed = 0;
  bool seed_set = false;
  bool socket = false;
  std::string trace_out;
};

constexpr int kSetupReps = 5;
// Enough for the largest workload's span count with no ring overwrite;
// the run fails if any span is dropped.
constexpr std::size_t kLaneCapacity = 1u << 18;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int fail(const std::string& message) {
  std::cerr << "scenario_bench: " << message << "\n";
  return 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.scenario_path = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      args.seed_set = true;
    } else if (flag == "--transport") {
      if (value != "inproc" && value != "socket") return false;
      args.socket = value == "socket";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return args.seed_set;
}

Result<scenario::Scenario> load(const Args& args) {
  Result<scenario::Scenario> loaded = scenario::load_scenario_file(args.scenario_path);
  if (loaded.ok()) loaded.value().seed = args.seed;
  return loaded;
}

/// Parse plus deployment build, as the runners do it before their first
/// epoch. Returns the wall seconds, or a negative value on failure.
double time_setup(const Args& args) {
  const double t0 = now_s();
  Result<scenario::Scenario> loaded = load(args);
  if (!loaded.ok()) return -1.0;
  const scenario::Scenario& sc = loaded.value();
  if (sc.topology == "fig2") {
    core::OrchestratorConfig config = sc.orchestrator;
    config.epoch_threads = 1;
    const std::unique_ptr<core::Testbed> testbed = core::make_testbed(sc.seed, config);
    return now_s() - t0;
  }
  Result<federation::MetroFabric> fabric = federation::make_metro_fabric(sc.federation, sc.seed);
  if (!fabric.ok()) return -1.0;
  std::vector<std::unique_ptr<federation::EdgeNode>> edges;
  std::vector<std::unique_ptr<net::HttpServer>> servers;
  for (const federation::RegionPlan& plan : fabric.value().regions) {
    edges.push_back(std::make_unique<federation::EdgeNode>(plan, sc, 1));
    if (args.socket) {
      Result<std::unique_ptr<net::HttpServer>> server =
          net::HttpServer::bind(edges.back()->make_router());
      if (!server.ok()) return -1.0;
      servers.push_back(std::move(server.value()));
    }
  }
  const double elapsed = now_s() - t0;
  servers.clear();  // listeners close before the routers' edges go
  return elapsed;
}

json::Value histogram_json(const telemetry::Histogram* hist) {
  return hist != nullptr ? hist->to_json() : telemetry::Histogram{}.to_json();
}

/// What the scored run produced, independent of topology.
struct RunOutput {
  double run_s = 0.0;  ///< wall seconds of run() alone
  double cpu_s = 0.0;  ///< process CPU seconds during run()
  std::string scorecard;
  bool targets_met = false;
  double sim_hours = 0.0;
  json::Value epoch_us{nullptr};
  json::Value admission_us{nullptr};
  json::Object counters;
};

/// runner.run(), timed, inside the "bench.run" root span of the ledger.
template <typename Runner>
auto timed_run(Runner& runner, RunOutput& out) {
  TRACE_SCOPE("bench.run");
  const double cpu0 = cpu_s();
  const double t0 = now_s();
  auto card = runner.run();
  out.run_s = now_s() - t0;
  out.cpu_s = cpu_s() - cpu0;
  return card;
}

Result<RunOutput> run_fig2(scenario::Scenario sc) {
  scenario::ScenarioRunner runner(std::move(sc));
  RunOutput out;
  const Result<scenario::Scorecard> card = timed_run(runner, out);
  if (!card.ok()) return card.error();
  out.scorecard = card.value().serialize();
  out.targets_met = card.value().targets_met;
  out.sim_hours = card.value().duration_hours;
  const core::Testbed& testbed = *runner.testbed();
  out.epoch_us = histogram_json(testbed.registry.find_histogram("orchestrator.epoch_us"));
  out.admission_us = histogram_json(testbed.registry.find_histogram("orchestrator.admission_us"));
  std::uint64_t calls = 0;
  std::uint64_t rx_bytes = 0;
  for (const auto& [service, stats] : testbed.bus.stats()) {
    calls += stats.requests;
    rx_bytes += stats.bytes_rx;
  }
  out.counters.emplace("bus_calls", static_cast<double>(calls));
  out.counters.emplace("bus_rx_bytes", static_cast<double>(rx_bytes));
  out.counters.emplace("handover_attempts", static_cast<double>(card.value().handover_attempts));
  return out;
}

Result<RunOutput> run_metro(scenario::Scenario sc, bool socket) {
  federation::FederatedRunOptions options;
  options.socket_transport = socket;
  const std::int64_t end_us = sc.duration.as_micros();
  federation::FederatedRunner runner(std::move(sc), options);
  RunOutput out;
  const Result<federation::FederatedScorecard> card = timed_run(runner, out);
  if (!card.ok()) return card.error();
  // The metrics pull below crosses the bus; keep its spans out of the run.
  telemetry::trace::set_enabled(false);
  const federation::FederatedScorecard& c = card.value();
  out.scorecard = c.serialize();
  out.targets_met = c.targets_met;
  out.sim_hours = c.duration_hours;
  // Bucket-merge every region's full-fidelity export.
  const json::Value metrics = runner.broker()->federation_metrics_json(end_us);
  telemetry::MonitorRegistry merged;
  if (const json::Value* regions = metrics.find("regions"); regions != nullptr) {
    for (const auto& [region, doc] : regions->as_object()) {
      if (doc.is_object()) merged.merge_from(doc);
    }
  }
  out.epoch_us = histogram_json(merged.find_histogram("orchestrator.epoch_us"));
  out.admission_us = histogram_json(merged.find_histogram("orchestrator.admission_us"));
  std::uint64_t edge_attempts = 0;
  for (const federation::RegionScore& r : c.regions) edge_attempts += r.admitted + r.rejected;
  out.counters.emplace("edge_attempts", static_cast<double>(edge_attempts));
  out.counters.emplace("placements", static_cast<double>(c.placed_local + c.placed_remote));
  out.counters.emplace("edge_rejected", static_cast<double>(c.edge_rejected));
  out.counters.emplace("roams", static_cast<double>(c.roam_attempts));
  out.counters.emplace("handover_attempts", static_cast<double>(c.handover_attempts));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    return fail(
        "usage: scenario_bench <scenario.json> --seed N [--transport inproc|socket] "
        "[--trace-out path]");
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const double s = time_setup(args);
    if (s < 0.0) return fail("setup failed for " + args.scenario_path);
    setups.push_back(s);
  }

  Result<scenario::Scenario> loaded = load(args);
  if (!loaded.ok()) return fail(loaded.error().message);
  scenario::Scenario sc = std::move(loaded).value();
  const bool fig2 = sc.topology == "fig2";
  if (!fig2 && sc.topology != "metro") return fail("unknown topology " + sc.topology);
  if (fig2 && args.socket) return fail("--transport socket needs a metro scenario");

  // Wall clock on in every run: the orchestrator's epoch and admission
  // histograms are what the end-to-end latency metrics read.
  telemetry::trace::Tracer& tracer = telemetry::trace::Tracer::instance();
  telemetry::trace::set_wall_clock(true);
  const bool traced = !args.trace_out.empty();
  if (traced) {
    tracer.set_lane_capacity(kLaneCapacity);
    telemetry::trace::clear();
    telemetry::trace::set_enabled(true);
  }

  Result<RunOutput> run = fig2 ? run_fig2(std::move(sc)) : run_metro(std::move(sc), args.socket);
  telemetry::trace::set_enabled(false);
  if (!run.ok()) return fail("run failed: " + run.error().message);

  json::Object out;
  if (traced) {
    std::string trace;
    tracer.export_chrome_json(trace);
    std::ofstream file(args.trace_out, std::ios::binary);
    file << trace;
    if (!file) return fail("cannot write " + args.trace_out);
    json::Object status;
    status.emplace("spans", static_cast<double>(tracer.span_count()));
    status.emplace("dropped", static_cast<double>(tracer.dropped()));
    out.emplace("trace", std::move(status));
  }

  RunOutput& r = run.value();
  json::Array setup_list;
  for (double s : setups) setup_list.emplace_back(s);
  json::Object build;
  build.emplace("type", std::string(PERFBENCH_BUILD_TYPE));
  build.emplace("compiler", std::string(PERFBENCH_COMPILER));
  build.emplace("flags", std::string(PERFBENCH_FLAGS));
  out.emplace("build", std::move(build));
  out.emplace("setup_s", std::move(setup_list));
  out.emplace("run_s", r.run_s);
  out.emplace("cpu_s", r.cpu_s);
  out.emplace("max_rss_mb", max_rss_mb());
  out.emplace("sim_hours", r.sim_hours);
  out.emplace("targets_met", r.targets_met);
  out.emplace("epoch_us", std::move(r.epoch_us));
  out.emplace("admission_us", std::move(r.admission_us));
  out.emplace("counters", std::move(r.counters));
  out.emplace("scorecard", std::move(r.scorecard));
  std::cout << json::serialize(json::Value(std::move(out))) << "\n";
  return 0;
}
