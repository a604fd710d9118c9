// scenario_runner — drive declarative scenarios against the Fig. 2 testbed.
//
//   scenario_runner list [dir]
//       Show every scenario in `dir` (default: scenarios/) with its
//       horizon and targets.
//   scenario_runner validate <file>...
//       Parse each file and report the first error (with line/column and
//       field path). Exit 1 if any file is invalid.
//   scenario_runner run <file> [--threads N] [--seed N] [--record path]
//                       [--out path] [--trace path] [--federation-metrics path]
//                       [--wall-profile] [--quiet]
//       Execute the scenario and print the scorecard JSON. Exit 1 when
//       the scenario declares targets and the run misses any of them.
//   scenario_runner record <file> <journal> [run flags]
//       Shorthand for `run <file> --record <journal>`.
//   scenario_runner replay <journal> [run flags]
//       Re-run a recorded request/event stream; the scorecard is
//       byte-identical to the recorded run's.
//   scenario_runner edge <file> --region rX [--port N] [--threads N] [--trace]
//       Serve one region of a "metro" scenario as its own OS process
//       (prints "PORT <n>" once listening). A broker process started
//       with `run <file> --edge rX=PORT ...` drives it over loopback.
//
// Numeric flags must be whole decimals in range: --threads in [1, 256],
// ports in [0, 65535] (an --edge port in [1, 65535]); anything else
// exits 2 with a message.
//
// A "metro" scenario (topology: "metro") is dispatched to the
// federation runner; --transport socket serves every region over a
// loopback socket in-process, and --edge rX=PORT connects region rX to
// an already-running `scenario_runner edge` process instead.
// --broker-port exposes the broker's REST facade for slicectl.
//
// Scorecards are deterministic: same scenario + seed => same bytes, at
// any --threads setting and over any --transport/--edge combination
// (wall_profile is the one opt-in exception).
//
// --trace enables sim-clock span tracing and writes a Chrome trace after
// the run: for metro scenarios the broker's *merged* federation trace
// (every region stitched into its own lane), otherwise this process's
// tracer export. Remote edge processes must be started with `edge
// --trace` so their spans are available for the merge. --trace output is
// deterministic too: same bytes at any --threads/--transport/--edge
// combination. --federation-metrics (metro only) writes the broker's
// merged federation metrics document after the run.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.hpp"
#include "federation/runner.hpp"
#include "scenario/recorder.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "telemetry/trace.hpp"

using namespace slices;

namespace {

int fail(const std::string& message) {
  std::cerr << "scenario_runner: " << message << "\n";
  return 2;
}

int usage() {
  std::cerr << "usage: scenario_runner <list|validate|run|record|replay|edge> ...\n"
               "       (see the header comment in examples/scenario_runner.cpp)\n";
  return 2;
}

struct RunFlags {
  scenario::RunOptions options;
  federation::FederatedRunOptions federated;
  std::optional<std::uint64_t> seed_override;
  std::string out_path;
  std::string trace_path;
  std::string federation_metrics_path;
  bool quiet = false;
};

/// Tracing setup shared by `run --trace` and `edge --trace`: sim-clock
/// timestamps only (wall clock would break byte-parity across runs), a
/// lane ring big enough that no scenario-scale run overwrites spans, and
/// a clear() so identity counters start from a known state.
void enable_deterministic_tracing() {
  telemetry::trace::Tracer::instance().set_lane_capacity(1u << 20);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::set_enabled(true);
  telemetry::trace::clear();
}

/// Write `body` to `path`; false (after printing) on failure.
bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  if (!out) {
    fail("cannot write " + path);
    return false;
  }
  return true;
}

/// Parses trailing --flags shared by run/record/replay. Returns false
/// (after printing) on a malformed flag.
bool parse_run_flags(int argc, char** argv, int first, RunFlags& flags) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        fail(arg + " needs a " + what);
        return nullptr;
      }
      return argv[++i];
    };
    const auto number = [&](std::string_view flag, const char* v, std::uint64_t lo,
                            std::uint64_t hi) -> std::optional<std::uint64_t> {
      std::string error;
      const std::optional<std::uint64_t> n = cli::parse_flag(flag, v, lo, hi, error);
      if (!n) fail(error);
      return n;
    };
    if (arg == "--threads") {
      const char* v = value("count");
      if (v == nullptr) return false;
      const std::optional<std::uint64_t> n = number(arg, v, 1, cli::kMaxThreads);
      if (!n) return false;
      flags.options.epoch_threads = static_cast<std::size_t>(*n);
      flags.federated.epoch_threads = flags.options.epoch_threads;
    } else if (arg == "--transport") {
      const char* v = value("kind (inproc|socket)");
      if (v == nullptr) return false;
      const std::string kind = v;
      if (kind != "inproc" && kind != "socket") {
        fail("--transport must be inproc or socket, got '" + kind + "'");
        return false;
      }
      flags.federated.socket_transport = kind == "socket";
    } else if (arg == "--edge") {
      const char* v = value("region=port mapping");
      if (v == nullptr) return false;
      const std::string mapping = v;
      const std::size_t eq = mapping.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= mapping.size()) {
        fail("--edge wants rX=PORT, got '" + mapping + "'");
        return false;
      }
      const std::optional<std::uint64_t> port =
          number("--edge port", mapping.c_str() + eq + 1, 1, cli::kMaxPort);
      if (!port) return false;
      flags.federated.remote_edges[mapping.substr(0, eq)] = static_cast<std::uint16_t>(*port);
    } else if (arg == "--broker-port") {
      const char* v = value("port");
      if (v == nullptr) return false;
      const std::optional<std::uint64_t> port = number(arg, v, 0, cli::kMaxPort);
      if (!port) return false;
      flags.federated.broker_port = static_cast<std::uint16_t>(*port);
    } else if (arg == "--seed") {
      const char* v = value("seed");
      if (v == nullptr) return false;
      flags.seed_override = number(arg, v, 0, UINT64_MAX);
      if (!flags.seed_override) return false;
    } else if (arg == "--record") {
      const char* v = value("path");
      if (v == nullptr) return false;
      flags.options.record_path = v;
      flags.federated.record_path = v;
    } else if (arg == "--out") {
      const char* v = value("path");
      if (v == nullptr) return false;
      flags.out_path = v;
    } else if (arg == "--trace") {
      const char* v = value("path");
      if (v == nullptr) return false;
      flags.trace_path = v;
    } else if (arg == "--federation-metrics") {
      const char* v = value("path");
      if (v == nullptr) return false;
      flags.federation_metrics_path = v;
    } else if (arg == "--wall-profile") {
      flags.options.wall_profile = true;
    } else if (arg == "--quiet") {
      flags.quiet = true;
    } else {
      fail("unknown flag '" + arg + "'");
      return false;
    }
  }
  return true;
}

/// Shared tail of both runner paths: write/print the serialized card
/// and surface target misses on the exit code.
int report(const std::string& serialized, bool targets_met,
           const std::vector<std::string>& target_failures, const RunFlags& flags) {
  if (!flags.out_path.empty()) {
    std::ofstream out(flags.out_path, std::ios::binary | std::ios::trunc);
    out << serialized;
    if (!out) return fail("cannot write scorecard to " + flags.out_path);
  }
  if (!flags.quiet) std::cout << serialized;

  if (!targets_met) {
    for (const std::string& miss : target_failures)
      std::cerr << "scenario_runner: target missed: " << miss << "\n";
    return 1;
  }
  return 0;
}

int execute_federated(scenario::Scenario loaded, const RunFlags& flags) {
  if (flags.options.wall_profile)
    return fail("--wall-profile is not supported for metro scenarios");
  // The facade's live GET /federation/trace is useless without spans,
  // so a run serving the facade traces even when no --trace file was
  // asked for. Tracing-on never changes the scorecard (federation_test
  // pins byte-parity with tracing enabled).
  if (!flags.trace_path.empty() || flags.federated.broker_port != 0) {
    enable_deterministic_tracing();
  }
  federation::FederatedRunner runner(std::move(loaded), flags.federated);
  const Result<federation::FederatedScorecard> card = runner.run();
  if (!card.ok()) return fail(card.error().message);
  // Export order is part of the determinism contract: the trace first
  // (so the metrics pulls' bus.call spans stay out of it), then the
  // merged metrics. Both exports drive the bus from this thread, like
  // the run loop did.
  if (!flags.trace_path.empty()) {
    std::string trace;
    runner.broker()->export_federated_trace(trace);
    if (!write_file(flags.trace_path, trace)) return 2;
  }
  if (!flags.federation_metrics_path.empty()) {
    const std::int64_t end_us =
        (SimTime::origin() + runner.scenario().duration).as_micros();
    const json::Value doc = runner.broker()->federation_metrics_json(end_us);
    if (!write_file(flags.federation_metrics_path, json::serialize_pretty(doc) + "\n"))
      return 2;
  }
  return report(card.value().serialize(), card.value().targets_met,
                card.value().target_failures, flags);
}

int execute(scenario::Scenario loaded, const RunFlags& flags) {
  if (flags.seed_override) loaded.seed = *flags.seed_override;
  if (loaded.topology == "metro") return execute_federated(std::move(loaded), flags);
  if (!flags.federation_metrics_path.empty())
    return fail("--federation-metrics needs a metro scenario");
  if (!flags.trace_path.empty()) enable_deterministic_tracing();
  scenario::ScenarioRunner runner(std::move(loaded), flags.options);
  const Result<scenario::Scorecard> card = runner.run();
  if (!card.ok()) return fail(card.error().message);
  if (!flags.trace_path.empty()) {
    std::string trace;
    telemetry::trace::Tracer::instance().export_chrome_json(trace);
    if (!write_file(flags.trace_path, trace)) return 2;
  }
  return report(card.value().serialize(), card.value().targets_met,
                card.value().target_failures, flags);
}

int cmd_list(int argc, char** argv) {
  const std::filesystem::path dir = argc >= 3 ? argv[2] : "scenarios";
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  if (ec) return fail("cannot list " + dir.string() + ": " + ec.message());
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    const Result<scenario::Scenario> loaded = scenario::load_scenario_file(file.string());
    if (!loaded.ok()) {
      std::cout << file.string() << "\n    INVALID: " << loaded.error().message << "\n";
      continue;
    }
    const scenario::Scenario& s = loaded.value();
    std::cout << s.name << "  (" << file.string() << ")\n    " << s.duration.as_hours()
              << "h, seed " << s.seed << ", " << s.phases.size() << " phases, "
              << s.events.size() << " events, " << s.requests.size()
              << " explicit requests" << (s.targets.any() ? ", scored" : "") << "\n    "
              << s.description << "\n";
  }
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 3) return usage();
  int rc = 0;
  for (int i = 2; i < argc; ++i) {
    const Result<scenario::Scenario> loaded = scenario::load_scenario_file(argv[i]);
    if (loaded.ok()) {
      std::cout << argv[i] << ": ok (" << loaded.value().name << ")\n";
    } else {
      std::cout << argv[i] << ": " << loaded.error().message << "\n";
      rc = 1;
    }
  }
  return rc;
}

int cmd_run(int argc, char** argv) {
  if (argc < 3) return usage();
  RunFlags flags;
  if (!parse_run_flags(argc, argv, 3, flags)) return 2;
  Result<scenario::Scenario> loaded = scenario::load_scenario_file(argv[2]);
  if (!loaded.ok()) return fail(loaded.error().message);
  return execute(std::move(loaded.value()), flags);
}

int cmd_record(int argc, char** argv) {
  if (argc < 4) return usage();
  RunFlags flags;
  flags.options.record_path = argv[3];
  flags.federated.record_path = argv[3];
  if (!parse_run_flags(argc, argv, 4, flags)) return 2;
  Result<scenario::Scenario> loaded = scenario::load_scenario_file(argv[2]);
  if (!loaded.ok()) return fail(loaded.error().message);
  return execute(std::move(loaded.value()), flags);
}

net::HttpServer* g_edge_server = nullptr;

void stop_edge_server(int) {
  if (g_edge_server != nullptr) g_edge_server->stop();
}

/// Serve one region of a metro scenario as a standalone process. The
/// broker process (`run ... --edge rX=PORT`) drives the region's clock
/// and admission over loopback; this process only answers.
int cmd_edge(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string region;
  std::uint16_t port = 0;
  std::size_t threads = 1;
  bool trace = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        fail(arg + " needs a value");
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--region") {
      const char* v = value();
      if (v == nullptr) return 2;
      region = v;
    } else if (arg == "--port") {
      const char* v = value();
      if (v == nullptr) return 2;
      std::string error;
      const std::optional<std::uint64_t> n = cli::parse_flag(arg, v, 0, cli::kMaxPort, error);
      if (!n) return fail(error);
      port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return 2;
      std::string error;
      const std::optional<std::uint64_t> n = cli::parse_flag(arg, v, 1, cli::kMaxThreads, error);
      if (!n) return fail(error);
      threads = static_cast<std::size_t>(*n);
    } else if (arg == "--trace") {
      trace = true;
    } else {
      return fail("unknown flag '" + arg + "'");
    }
  }
  if (region.empty()) return fail("edge needs --region rX");

  Result<scenario::Scenario> loaded = scenario::load_scenario_file(argv[2]);
  if (!loaded.ok()) return fail(loaded.error().message);
  if (loaded.value().topology != "metro")
    return fail("edge serves metro scenarios only (topology is '" +
                loaded.value().topology + "')");

  Result<federation::MetroFabric> fabric =
      federation::make_metro_fabric(loaded.value().federation, loaded.value().seed);
  if (!fabric.ok()) return fail(fabric.error().message);
  const federation::RegionPlan* plan = nullptr;
  for (const federation::RegionPlan& p : fabric.value().regions) {
    if (p.name == region) plan = &p;
  }
  if (plan == nullptr) return fail("'" + region + "' is not a region of this scenario");

  // Tracing must be live before the node interns its component so the
  // region's span ids come out identical to an in-process run's.
  if (trace) enable_deterministic_tracing();
  federation::EdgeNode node(*plan, loaded.value(), threads);
  Result<std::unique_ptr<net::HttpServer>> server =
      net::HttpServer::bind(node.make_router(), port);
  if (!server.ok()) return fail(server.error().message);

  g_edge_server = server.value().get();
  std::signal(SIGINT, stop_edge_server);
  std::signal(SIGTERM, stop_edge_server);
  std::cout << "PORT " << server.value()->port() << "\n" << std::flush;
  (void)server.value()->run();
  return 0;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  RunFlags flags;
  if (!parse_run_flags(argc, argv, 3, flags)) return 2;
  Result<scenario::Scenario> loaded = scenario::load_recording(argv[2]);
  if (!loaded.ok()) return fail(loaded.error().message);
  return execute(std::move(loaded.value()), flags);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list(argc, argv);
  if (cmd == "validate") return cmd_validate(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "record") return cmd_record(argc, argv);
  if (cmd == "replay") return cmd_replay(argc, argv);
  if (cmd == "edge") return cmd_edge(argc, argv);
  return usage();
}
