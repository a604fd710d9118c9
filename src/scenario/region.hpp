#pragma once
// The shared region layer (docs/scenarios.md, docs/federation.md).
//
// The paper's orchestrator is one control loop over one RAN/transport/
// cloud domain, and both scenario drivers run that loop per region:
// ScenarioRunner over the Fig. 2 testbed, FederatedRunner once per metro
// EdgeNode. What concerns one region lives here, once: the demand-surge
// envelope, faults by layout name (with dc-down slice teardown and
// restart suspend/resume), the mobility field and its step, and the
// end-of-run tally the shared score layer (scenario/scorecard.hpp)
// reads. Region applies work but never schedules it: each driver keeps
// its own timeline (see the runner headers for why the two stay apart).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "core/request_generator.hpp"
#include "core/testbed.hpp"
#include "json/value.hpp"
#include "mobility/field.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scorecard.hpp"
#include "traffic/model.hpp"

namespace slices::scenario {

/// Where a region sits in its scenario; fig2 is the one unnamed region.
struct RegionIdentity {
  std::string name;         ///< "r<i>" on a metro; empty on fig2
  std::size_t index = 0;    ///< position on the metro's west-east axis
  std::size_t count = 1;    ///< regions in the city
  std::uint64_t seed = 0;   ///< region-local stochastic streams (mobility)
};

/// One region's stack plus the operations both drivers apply to it.
class Region {
 public:
  /// Takes a started testbed; builds the demand envelope and, when the
  /// scenario enables mobility, the field with this region's storms.
  Region(std::unique_ptr<core::Testbed> testbed, const Scenario& scenario,
         RegionIdentity identity);

  [[nodiscard]] core::Testbed& testbed() noexcept { return *testbed_; }
  [[nodiscard]] core::Orchestrator& orchestrator() noexcept { return *testbed_->orchestrator; }
  [[nodiscard]] const core::Orchestrator& orchestrator() const noexcept {
    return *testbed_->orchestrator;
  }
  /// Mobility engine; null unless the scenario enables mobility.
  [[nodiscard]] mobility::Field* field() noexcept { return field_.get(); }

  /// Traffic model of a submitted slice: the vertical's model seeded
  /// with `workload_seed`, modulated by the scenario's demand surges.
  [[nodiscard]] std::unique_ptr<traffic::TrafficModel> make_workload(
      traffic::Vertical vertical, std::uint64_t workload_seed) const;

  // Faults by layout name (invalid_argument, no effect, when unknown),
  // each noted as an orchestrator fault tagged with the region.
  [[nodiscard]] Result<void> set_link_up(const std::string& name, bool up);
  [[nodiscard]] Result<void> set_cell_up(const std::string& name, bool up);
  /// A failed site loses its VNFs: every live slice embedded there is
  /// torn down (tenants must re-request; revenue already accrued stays).
  [[nodiscard]] Result<void> set_dc_up(const std::string& name, bool up);

  /// Controller restart: suspend the orchestration loop now; after
  /// `duration` resume it, then run `on_resume`.
  void restart(Duration duration, std::function<void()> on_resume = {});

  /// One mobility epoch: sync the field to the live slices (speed class
  /// by vertical), move, and apply handovers. Requires field().
  void step_mobility(SimTime now);

  /// The region's end-of-run numbers (fig2 scorecard, metro
  /// /federation/summary).
  [[nodiscard]] RegionTally tally() const;

 private:
  [[nodiscard]] Error unknown(std::string_view what, const std::string& name) const;
  void note_fault(const std::string& component, bool active, std::string detail,
                  std::string_view key, const std::string& name);

  std::unique_ptr<core::Testbed> testbed_;
  std::string name_;
  std::shared_ptr<const traffic::PiecewiseEnvelope> envelope_;
  std::vector<std::pair<traffic::Vertical, double>> speed_classes_;
  /// step_mobility's per-epoch live set and speeds (capacity reused).
  std::vector<PlmnId> live_plmns_;
  std::vector<double> live_speeds_;
  /// Declared after testbed_ so it is destroyed first (it holds &ran).
  std::unique_ptr<mobility::Field> field_;
};

/// Salt that decouples the request-generator stream from the testbed's
/// fading stream (both derive from the scenario seed).
inline constexpr std::uint64_t kWorkloadSalt = 0x9e3779b97f4a7c15ull;

/// Compile the scenario's rated phases into the generator's piecewise
/// rate schedule (back to the base rate at each phase end unless the
/// next rated phase begins right there).
[[nodiscard]] std::vector<core::RatePoint> build_rate_schedule(const Scenario& scenario);

/// The scenario's stochastic request stream, or null when it draws no
/// arrivals (replays, or no rate anywhere). Seeded apart from the
/// testbed's fading stream, identically on fig2 and metro.
[[nodiscard]] std::unique_ptr<core::RequestGenerator> make_request_generator(
    const Scenario& scenario);

}  // namespace slices::scenario
