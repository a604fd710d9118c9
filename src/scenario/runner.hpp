#pragma once
// Scenario runner (docs/scenarios.md).
//
// Drives one Scenario end-to-end on the Fig. 2 testbed, a one-region
// city: the deployment, demand envelope, faults, mobility and end-of-run
// tally come from the shared scenario::Region layer (the metro EdgeNode
// uses the same one), and the Scorecard is built on the score layer
// both drivers share (scenario/scorecard.hpp: ledger sections, gain
// samples; the recorder opens and finishes the same way too). This
// runner owns the timeline: it schedules arrivals, explicit requests
// and the failure timeline on the one simulator heap, and samples the
// orchestrator after every monitoring epoch. Events are pre-scheduled
// ahead of the re-armed epoch periodic, so an event at an epoch
// boundary runs before that epoch; the metro runner instead injects it
// after the epoch (see federation/runner.hpp). Runs are deterministic: the same scenario +
// seed yields a byte-identical scorecard at any epoch_threads setting,
// and a recorded run replays to the same scorecard.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "core/request_generator.hpp"
#include "core/testbed.hpp"
#include "core/ue_population.hpp"
#include "scenario/recorder.hpp"
#include "scenario/region.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scorecard.hpp"
#include "telemetry/histogram.hpp"

namespace slices::scenario {

/// Runner knobs that are NOT part of the scenario: anything here must
/// leave the scorecard unchanged (threads) or be explicitly excluded
/// from parity checks (wall profiling, recording).
struct RunOptions {
  /// Epoch-serving worker threads; every value produces the same
  /// scorecard (the determinism contract of the epoch pipeline).
  std::size_t epoch_threads = 1;
  /// Record wall-clock epoch latency into the scorecard's
  /// "wall_profile" section (nondeterministic; off by default).
  bool wall_profile = false;
  /// When non-empty, record the run's request/event stream into this
  /// journal for later replay.
  std::string record_path;
};

/// Runs one scenario. Single-use: construct, run(), read the scorecard
/// (and optionally poke at testbed() afterwards — it stays alive until
/// the runner is destroyed).
class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario, RunOptions options = {});

  /// Execute the scenario to its horizon and score it. Errors:
  /// conflict (already ran), unavailable (recording I/O).
  [[nodiscard]] Result<Scorecard> run();

  /// The live deployment (valid after run(), for tests/inspection).
  [[nodiscard]] const core::Testbed* testbed() const noexcept {
    return region_ ? &region_->testbed() : nullptr;
  }

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }

 private:
  void schedule_arrival();
  void submit_request(const core::SliceSpec& spec, std::uint64_t workload_seed);
  void flush_deferred();

  void schedule_event(const ScenarioEvent& event);
  /// Apply a link/cell/dc up or down event now and record the action.
  void apply_toggle(EventKind kind, const std::string& target);
  void apply_restart(Duration duration);
  void start_storm(const ScenarioEvent& event);
  void stop_storms();
  void record_action(const ScenarioEvent& event);

  void sample(SimTime now);
  [[nodiscard]] Scorecard finalize();

  Scenario scenario_;
  RunOptions options_;
  // Declared before every member that schedules into it or holds
  // controller pointers (storm populations), so teardown is safe.
  std::unique_ptr<Region> region_;
  std::unique_ptr<core::RequestGenerator> generator_;
  ScenarioRecorder recorder_;
  std::vector<std::unique_ptr<core::UePopulation>> storm_populations_;
  SimTime end_;
  bool ran_ = false;

  /// Requests arriving while the controller is "restarting" queue here
  /// and are submitted, in order, the moment the loop resumes.
  struct Deferred {
    core::SliceSpec spec;
    std::uint64_t workload_seed = 0;
  };
  std::vector<Deferred> deferred_;

  // Sampled statistics (all sim-derived — deterministic).
  std::uint64_t submitted_ = 0;
  std::uint64_t last_event_seq_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t events_injected_ = 0;
  std::uint64_t storm_seq_ = 0;
  std::uint64_t ue_arrivals_ = 0;
  std::uint64_t ue_blocked_ = 0;
  GainAccumulator gain_;
  telemetry::Histogram install_hist_;   ///< install latency, µs (sim)
  telemetry::Histogram active_hist_;    ///< per-epoch active slices
  telemetry::Histogram reserved_hist_;  ///< per-epoch reserved Mb/s
};

}  // namespace slices::scenario
