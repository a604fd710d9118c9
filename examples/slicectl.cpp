// slicectl — a command-line client for the orchestrator's REST API.
//
// Against a running dashboard_server (or any deployment of the
// orchestrator router over HttpServer):
//
//   slicectl <port> report
//   slicectl <port> list
//   slicectl <port> get <slice-id>
//   slicectl <port> request <vertical> <hours> [throughput_mbps]
//   slicectl <port> resize <slice-id> <throughput_mbps>
//   slicectl <port> delete <slice-id>
//   slicectl <port> store-status
//   slicectl <port> snapshot
//   slicectl <port> restore
//   slicectl <port> compact
//   slicectl <port> health
//   slicectl <port> audit <slice-id>
//   slicectl <port> trace dump [--clear]
//   slicectl <port> trace clear
//
// Against a federation broker facade (scenario_runner run --broker-port):
//
//   slicectl <port> federation regions      per-region health/occupancy
//   slicectl <port> federation placements   the broker's decision log
//   slicectl <port> federation health       broker liveness
//   slicectl <port> federation metrics [--region rX]
//       merged metro-wide metrics (broker SLO registry + per-region
//       exports + the cross-region merge); --region prints one
//       region's export only
//   slicectl <port> federation trace [--region rX]
//       the merged Chrome trace (load in Perfetto); --region keeps
//       only that region's lane
//   slicectl <port> federation dashboard
//       the text federation pane (broker SLO table + per-region
//       roll-up) rendered from the same metrics document
//   slicectl <port> federation mobility
//       the handover pane: per-region handover attempt/success/drop
//       counters plus the broker's inter-region roam funnel
//
// Offline (no server required):
//
//   slicectl scenario validate <file>...
//   slicectl scenario run <file> [--threads N]     (N in [1, 256]; else exit 2)
//
// (a thin front for the full scenario_runner tool — see
// examples/scenario_runner.cpp for record/replay and flags).
//
// With no arguments it runs a scripted self-contained session: spins up
// an embedded testbed + HTTP server, then walks through request/list/
// resize/delete like an operator at the demo booth.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "cli_flags.hpp"
#include "core/testbed.hpp"
#include "dashboard/dashboard.hpp"
#include "federation/runner.hpp"
#include "net/http_server.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "traffic/verticals.hpp"

using namespace slices;

namespace {

int fail(const std::string& message) {
  std::cerr << "slicectl: " << message << "\n";
  return 1;
}

Result<net::Response> call(std::uint16_t port, net::Method method, std::string target,
                           std::string body = {}) {
  net::Request request;
  request.method = method;
  request.target = std::move(target);
  if (!body.empty()) {
    request.headers.insert_or_assign("Content-Type", "application/json");
    request.body = std::move(body);
  }
  return net::http_request(port, request);
}

int print_response(const Result<net::Response>& response) {
  if (!response.ok()) return fail(response.error().message);
  const int code = static_cast<int>(response.value().status);
  std::cout << code << " " << net::reason_phrase(response.value().status) << "\n";
  if (!response.value().body.empty()) {
    const Result<json::Value> doc = json::parse(response.value().body);
    std::cout << (doc.ok() ? json::serialize_pretty(doc.value()) : response.value().body)
              << "\n";
  }
  return code >= 200 && code < 300 ? 0 : 1;
}

int run_command(std::uint16_t port, int argc, char** argv) {
  const std::string cmd = argv[2];
  if (cmd == "report") return print_response(call(port, net::Method::get, "/report"));
  if (cmd == "list") return print_response(call(port, net::Method::get, "/slices"));
  if (cmd == "get" && argc >= 4) {
    return print_response(call(port, net::Method::get, std::string("/slices/") + argv[3]));
  }
  if (cmd == "request" && argc >= 5) {
    json::Value body;
    body["vertical"] = argv[3];
    body["duration_hours"] = std::atof(argv[4]);
    if (argc >= 6) body["throughput_mbps"] = std::atof(argv[5]);
    return print_response(
        call(port, net::Method::post, "/slices", json::serialize(body)));
  }
  if (cmd == "resize" && argc >= 5) {
    json::Value body;
    body["throughput_mbps"] = std::atof(argv[4]);
    return print_response(call(port, net::Method::patch,
                               std::string("/slices/") + argv[3], json::serialize(body)));
  }
  if (cmd == "delete" && argc >= 4) {
    return print_response(call(port, net::Method::del, std::string("/slices/") + argv[3]));
  }
  if (cmd == "store-status") {
    return print_response(call(port, net::Method::get, "/store/status"));
  }
  if (cmd == "snapshot") {
    return print_response(call(port, net::Method::post, "/store/snapshot"));
  }
  if (cmd == "restore") {
    return print_response(call(port, net::Method::post, "/store/restore"));
  }
  if (cmd == "compact") {
    return print_response(call(port, net::Method::post, "/store/compact"));
  }
  if (cmd == "health") {
    return print_response(call(port, net::Method::get, "/healthz"));
  }
  if (cmd == "audit" && argc >= 4) {
    return print_response(
        call(port, net::Method::get, std::string("/slices/") + argv[3] + "/audit"));
  }
  if (cmd == "federation" && argc >= 4) {
    const std::string sub = argv[3];
    if (sub == "regions") {
      return print_response(call(port, net::Method::get, "/federation/regions"));
    }
    if (sub == "placements") {
      return print_response(call(port, net::Method::get, "/federation/placements"));
    }
    if (sub == "health") {
      return print_response(call(port, net::Method::get, "/federation/healthz"));
    }
    if (sub == "dashboard") {
      const Result<net::Response> response =
          call(port, net::Method::get, "/federation/metrics");
      if (!response.ok()) return fail(response.error().message);
      if (static_cast<int>(response.value().status) != 200) return print_response(response);
      const Result<json::Value> doc = json::parse(response.value().body);
      if (!doc.ok()) return fail("bad metrics body: " + doc.error().message);
      std::cout << dashboard::Dashboard::render_federation(doc.value());
      return 0;
    }
    if (sub == "mobility") {
      const Result<net::Response> response =
          call(port, net::Method::get, "/federation/metrics");
      if (!response.ok()) return fail(response.error().message);
      if (static_cast<int>(response.value().status) != 200) return print_response(response);
      const Result<json::Value> doc = json::parse(response.value().body);
      if (!doc.ok()) return fail("bad metrics body: " + doc.error().message);
      const std::string pane = dashboard::Dashboard::render_mobility(doc.value());
      if (pane.empty()) {
        std::cout << "no mobility signal (scenario has no mobility block, or no "
                     "handovers yet)\n";
        return 0;
      }
      std::cout << pane;
      return 0;
    }
    const char* region =
        (argc >= 6 && std::strcmp(argv[4], "--region") == 0) ? argv[5] : nullptr;
    if (sub == "metrics") {
      const Result<net::Response> response =
          call(port, net::Method::get, "/federation/metrics");
      if (region == nullptr) return print_response(response);
      if (!response.ok()) return fail(response.error().message);
      const Result<json::Value> doc = json::parse(response.value().body);
      if (!doc.ok()) return fail("bad metrics body: " + doc.error().message);
      const json::Value* regions = doc.value().find("regions");
      const json::Value* entry = regions != nullptr ? regions->find(region) : nullptr;
      if (entry == nullptr)
        return fail(std::string("no region '") + region + "' in the metrics document");
      std::cout << json::serialize_pretty(*entry) << "\n";
      return 0;
    }
    if (sub == "trace") {
      const Result<net::Response> response =
          call(port, net::Method::get, "/federation/trace");
      if (!response.ok()) return fail(response.error().message);
      if (static_cast<int>(response.value().status) != 200) return print_response(response);
      if (region == nullptr) {
        // Raw bytes: a Chrome trace is for redirecting into a file and
        // loading in Perfetto, not for pretty-printing.
        std::cout << response.value().body << "\n";
        return 0;
      }
      const Result<json::Value> doc = json::parse(response.value().body);
      if (!doc.ok()) return fail("bad trace body: " + doc.error().message);
      const json::Value* events = doc.value().find("traceEvents");
      if (events == nullptr || !events->is_array())
        return fail("trace body has no traceEvents");
      // Resolve the region's lane from the thread_name metadata, then
      // keep only that lane's events (metadata included).
      const std::string lane = std::string("edge.") + region;
      double lane_tid = -1.0;
      for (const json::Value& e : events->as_array()) {
        const json::Value* ph = e.find("ph");
        const json::Value* name = e.find("name");
        const json::Value* args = e.find("args");
        const json::Value* tid = e.find("tid");
        if (ph != nullptr && ph->is_string() && ph->as_string() == "M" &&
            name != nullptr && name->is_string() && name->as_string() == "thread_name" &&
            args != nullptr && tid != nullptr && tid->is_number()) {
          const json::Value* lane_name = args->find("name");
          if (lane_name != nullptr && lane_name->is_string() &&
              lane_name->as_string() == lane) {
            lane_tid = tid->as_number();
          }
        }
      }
      if (lane_tid < 0.0) return fail("no lane named '" + lane + "' in the trace");
      json::Array kept;
      for (const json::Value& e : events->as_array()) {
        const json::Value* tid = e.find("tid");
        if (tid != nullptr && tid->is_number() && tid->as_number() == lane_tid)
          kept.push_back(e);
      }
      json::Object out;
      out.emplace("displayTimeUnit", std::string("ms"));
      out.emplace("traceEvents", std::move(kept));
      std::cout << json::serialize(json::Value(std::move(out))) << "\n";
      return 0;
    }
  }
  if (cmd == "trace" && argc >= 4) {
    const std::string sub = argv[3];
    if (sub == "dump") {
      const bool clear = argc >= 5 && std::strcmp(argv[4], "--clear") == 0;
      return print_response(
          call(port, net::Method::get, clear ? "/trace?clear=1" : "/trace"));
    }
    if (sub == "clear") {
      return print_response(call(port, net::Method::del, "/trace"));
    }
  }
  return fail("unknown command or missing arguments (see header comment for usage)");
}

int scenario_command(int argc, char** argv) {
  if (argc < 4) return fail("usage: slicectl scenario <validate|run> <file>...");
  const std::string sub = argv[2];
  if (sub == "validate") {
    int rc = 0;
    for (int i = 3; i < argc; ++i) {
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
  if (sub == "run") {
    scenario::RunOptions options;
    if (argc >= 6 && std::strcmp(argv[4], "--threads") == 0) {
      std::string error;
      const std::optional<std::uint64_t> threads =
          cli::parse_flag("--threads", argv[5], 1, cli::kMaxThreads, error);
      if (!threads) {
        fail(error);
        return 2;
      }
      options.epoch_threads = static_cast<std::size_t>(*threads);
    }
    Result<scenario::Scenario> loaded = scenario::load_scenario_file(argv[3]);
    if (!loaded.ok()) return fail(loaded.error().message);
    if (loaded.value().topology == "metro") {
      federation::FederatedRunOptions federated;
      federated.epoch_threads = options.epoch_threads;
      federation::FederatedRunner runner(std::move(loaded.value()), federated);
      const Result<federation::FederatedScorecard> card = runner.run();
      if (!card.ok()) return fail(card.error().message);
      std::cout << card.value().serialize();
      if (!card.value().targets_met) {
        for (const std::string& miss : card.value().target_failures)
          std::cerr << "slicectl: target missed: " << miss << "\n";
        return 1;
      }
      return 0;
    }
    scenario::ScenarioRunner runner(std::move(loaded.value()), options);
    const Result<scenario::Scorecard> card = runner.run();
    if (!card.ok()) return fail(card.error().message);
    std::cout << card.value().serialize();
    if (!card.value().targets_met) {
      for (const std::string& miss : card.value().target_failures)
        std::cerr << "slicectl: target missed: " << miss << "\n";
      return 1;
    }
    return 0;
  }
  return fail("unknown scenario subcommand '" + sub + "'");
}

int scripted_session() {
  auto tb = core::make_testbed(7);
  Result<std::unique_ptr<net::HttpServer>> bound =
      net::HttpServer::bind(tb->orchestrator->make_router(), 0);
  if (!bound.ok()) return fail(bound.error().message);
  net::HttpServer& server = *bound.value();
  std::thread server_thread([&server] { server.run(); });
  const std::uint16_t port = server.port();
  std::cout << "embedded orchestrator on port " << port << "\n";

  const auto step = [&](const char* title, net::Method method, std::string target,
                        std::string body = {}) {
    std::cout << "\n$ " << title << "\n";
    return print_response(call(port, method, std::move(target), std::move(body)));
  };

  json::Value request;
  request["vertical"] = "automotive";
  request["duration_hours"] = 12.0;
  int rc = step("slicectl request automotive 12", net::Method::post, "/slices",
                json::serialize(request));
  tb->simulator.run_for(Duration::seconds(30.0));  // let it activate
  rc |= step("slicectl list", net::Method::get, "/slices");
  json::Value resize;
  resize["throughput_mbps"] = 12.0;
  rc |= step("slicectl resize 1 12", net::Method::patch, "/slices/1",
             json::serialize(resize));
  rc |= step("slicectl report", net::Method::get, "/report");
  rc |= step("slicectl health", net::Method::get, "/healthz");
  rc |= step("slicectl audit 1", net::Method::get, "/slices/1/audit");
  rc |= step("slicectl delete 1", net::Method::del, "/slices/1");

  server.stop();
  server_thread.join();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "scenario") == 0) return scenario_command(argc, argv);
  if (argc < 3) return scripted_session();
  const int port = std::atoi(argv[1]);
  if (port <= 0 || port > 65535) return fail("bad port");
  return run_command(static_cast<std::uint16_t>(port), argc, argv);
}
