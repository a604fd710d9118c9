#pragma once
// Scenario flight recorder (docs/scenarios.md).
//
// Captures the externally-visible input stream of a run — every
// submitted request (with the seed of its demand model) and every
// concrete injected failure action — into an append-only journal using
// the store::Journal CRC-framed record format. A recording loads back
// as a Scenario with generate_arrivals=false whose explicit requests
// and events replay the run bit-identically: the runner schedules the
// recorded stream instead of re-drawing arrivals, and every epoch
// decision follows deterministically.

#include <cstdint>
#include <string>

#include "common/result.hpp"
#include "common/units.hpp"
#include "core/slice.hpp"
#include "scenario/scenario.hpp"
#include "store/journal.hpp"

namespace slices::scenario {

/// Writing side, one per run: both drivers hold one and feed it the
/// same way whether or not the run records. Records must be appended in
/// simulation order (the runner's event callbacks guarantee it).
class ScenarioRecorder {
 public:
  ScenarioRecorder() = default;
  ~ScenarioRecorder() { close(); }
  ScenarioRecorder(const ScenarioRecorder&) = delete;
  ScenarioRecorder& operator=(const ScenarioRecorder&) = delete;

  /// Create/truncate the journal at `path` and write the scenario
  /// header (the scenario stripped of its generated stream: requests
  /// and events cleared, generate_arrivals forced off). An empty path
  /// records nothing: the record calls and finish() are then no-ops.
  [[nodiscard]] Result<void> open(const std::string& path, const Scenario& scenario);

  /// Append one submitted request at its submission time. `region` is
  /// the tenant's home region on metro runs ("" on fig2) — replays
  /// carry it explicitly so the broker never re-draws a home.
  [[nodiscard]] Result<void> record_request(SimTime at, const core::SliceSpec& spec,
                                            std::uint64_t workload_seed,
                                            const std::string& region = {});

  /// Append one concrete injected action (flaps and auto-restores are
  /// recorded as the individual down/up actions they expand to).
  [[nodiscard]] Result<void> record_event(const ScenarioEvent& event);

  /// Write the end-of-run marker and close the journal.
  [[nodiscard]] Result<void> finish(SimTime end);

  void close() { journal_.close(); }

 private:
  [[nodiscard]] Result<void> append(json::Object record);

  store::Journal journal_;
};

/// Load a recording back into a replayable Scenario. Errors:
/// unavailable (I/O), protocol_error (not a scenario recording),
/// invalid_argument (corrupt entries).
[[nodiscard]] Result<Scenario> load_recording(const std::string& path);

}  // namespace slices::scenario
