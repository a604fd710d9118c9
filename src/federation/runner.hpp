#pragma once
// Federated scenario runner (docs/federation.md).
//
// Drives one "metro" scenario across the whole hierarchy: generates
// the fabric, instantiates (or connects to) one EdgeNode per region,
// and runs the broker's lock-step timeline — at every timestamp the
// order is fixed (tick every due region, epoch-tick bookkeeping,
// failure events, explicit requests, generated arrivals), so the same scenario
// + seed yields a byte-identical FederatedScorecard at any
// epoch_threads setting and over any transport (in-process dispatch,
// loopback sockets in this process, or edges in other OS processes).
//
// Each region is an EdgeNode over the shared scenario::Region layer (the
// same stack, faults, mobility and tally code the fig2 runner uses), and
// the scorecard is built on the same score layer (scenario/scorecard.hpp:
// ledger sections, gain samples, recorder open/finish); only the
// timeline is this runner's own. The two orders, both pinned by
// golden scorecards: fig2 pre-schedules events on one simulator heap
// ahead of the re-armed epoch periodic, so an event at an epoch boundary
// runs before that epoch; here tick_all(t) runs every region's epoch at
// t first and the event is injected after it.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "federation/broker.hpp"
#include "federation/edge.hpp"
#include "federation/fabric.hpp"
#include "json/value.hpp"
#include "net/http_server.hpp"
#include "net/rest_bus.hpp"
#include "scenario/recorder.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scorecard.hpp"

namespace slices::federation {

/// Runner knobs that are NOT part of the scenario; every combination
/// must produce the same scorecard (the federation determinism bar).
struct FederatedRunOptions {
  /// Epoch-serving worker threads inside every edge orchestrator.
  std::size_t epoch_threads = 1;
  /// Serve every in-process edge over a real loopback socket (one port
  /// per region, all served by one HttpServer loop on one thread)
  /// instead of the bus's in-process transport.
  bool socket_transport = false;
  /// Regions served by other OS processes (`scenario_runner edge`):
  /// region name -> loopback port. These regions get no in-process
  /// EdgeNode; missing regions are built locally.
  std::map<std::string, std::uint16_t> remote_edges;
  /// When non-zero, serve the broker's REST facade (for slicectl) on
  /// this loopback port for the duration of the run.
  std::uint16_t broker_port = 0;
  /// When non-empty, record the run's request/event stream (regions
  /// pinned post-draw) into this journal for later replay.
  std::string record_path;
};

/// Per-region slice of the federated scorecard: the region's
/// /federation/summary tally plus its plan facts.
struct RegionScore : scenario::RegionTally {
  std::string name;
  std::size_t cells = 0;
  double price_factor = 1.0;

  [[nodiscard]] json::Value to_json() const;
};

/// The scored outcome of one federated run: the shared ledger summed
/// over regions, plus the broker's placement and roaming sections.
/// Deterministic: derived only from response bodies that crossed the
/// bus, never from wall clocks or transport byte counters.
struct FederatedScorecard : scenario::ScorecardCore {
  std::size_t total_cells = 0;

  // Broker placement breakdown ("rejected" in the shared funnel is
  // edge_rejected + rejected_no_region).
  std::uint64_t placed_local = 0;
  std::uint64_t placed_remote = 0;
  std::uint64_t edge_rejected = 0;
  std::uint64_t rejected_no_region = 0;
  std::uint64_t deferred_total = 0;
  std::uint64_t deferred_unplaced = 0;  ///< still queued at the horizon
  std::uint64_t backbone_reservations = 0;
  double backbone_reserved_mbps_peak = 0.0;

  // Inter-region roaming, broker-routed (mobility section).
  std::uint64_t roam_attempts = 0;
  std::uint64_t roam_admitted = 0;
  std::uint64_t roam_dropped = 0;

  std::vector<RegionScore> regions;

  [[nodiscard]] json::Value to_json() const;
  /// Pretty JSON with a trailing newline (byte-comparable).
  [[nodiscard]] std::string serialize() const;
};

/// Runs one metro scenario. Single-use, like scenario::ScenarioRunner.
class FederatedRunner {
 public:
  explicit FederatedRunner(scenario::Scenario scenario, FederatedRunOptions options = {});
  ~FederatedRunner();

  FederatedRunner(const FederatedRunner&) = delete;
  FederatedRunner& operator=(const FederatedRunner&) = delete;

  /// Execute to the horizon and score. Errors: invalid_argument (not a
  /// metro scenario / bad fabric / unknown remote region), conflict
  /// (already ran), unavailable (socket bind failure).
  [[nodiscard]] Result<FederatedScorecard> run();

  [[nodiscard]] const scenario::Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const MetroFabric& fabric() const noexcept { return fabric_; }
  /// Valid after run(); nullptr before. Locally-built edges only.
  [[nodiscard]] EdgeNode* edge(const std::string& region) noexcept;
  [[nodiscard]] Broker* broker() noexcept { return broker_.get(); }
  /// The broker <-> edges bus (its per-region traffic counters).
  [[nodiscard]] const net::RestBus& bus() const noexcept { return bus_; }

 private:
  [[nodiscard]] Result<void> build_edges();
  /// Run `server` on its own thread until the runner is destroyed.
  void serve(std::unique_ptr<net::HttpServer> server);
  void inject_event(const scenario::ScenarioEvent& event, std::int64_t t_us);
  void submit_scenario_request(const scenario::ScenarioRequest& request, std::int64_t t_us);
  [[nodiscard]] FederatedScorecard finalize();

  scenario::Scenario scenario_;
  FederatedRunOptions options_;
  MetroFabric fabric_;
  net::RestBus bus_;  ///< broker <-> edges (direct, socket or remote)
  std::vector<std::unique_ptr<EdgeNode>> edges_;  ///< local regions only
  /// The socket-served edges' server and the broker facade; stopped
  /// and joined by the destructor, whichever way run() returns.
  std::vector<std::unique_ptr<net::HttpServer>> servers_;
  std::vector<std::thread> server_threads_;
  std::unique_ptr<Broker> broker_;
  scenario::ScenarioRecorder recorder_;
  bool ran_ = false;

  // Sampled at epoch ticks (from the broker's snapshot — deterministic).
  scenario::GainAccumulator gain_;
  std::uint64_t epochs_ = 0;
  std::uint64_t events_injected_ = 0;
};

}  // namespace slices::federation
