// Quickstart: bring up the Fig. 2 testbed, request one end-to-end slice
// the way the demo dashboard does, let it run for a (simulated) day and
// print the dashboard.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <iostream>

#include "core/testbed.hpp"
#include "dashboard/dashboard.hpp"
#include "traffic/verticals.hpp"

using namespace slices;

int main() {
  // 1. The whole testbed (RAN + transport + cloud + EPC + orchestrator)
  //    from one call. The seed makes the run reproducible.
  std::unique_ptr<core::Testbed> tb = core::make_testbed(/*seed=*/42);

  // 2. Build a slice request the way the dashboard form would: an eMBB
  //    video vertical, 24 hours, with the vertical's default SLA terms.
  const traffic::VerticalProfile profile = traffic::profile_for(traffic::Vertical::embb_video);
  core::SliceSpec spec = core::SliceSpec::from_profile(profile, Duration::hours(24.0));

  // 3. Submit it together with a demand workload (what the tenant's
  //    users will actually offer once the slice is live).
  const core::SubmitVerdict verdict = tb->orchestrator->submit(
      spec, traffic::make_traffic(traffic::Vertical::embb_video, Rng(7)));
  std::cout << "request " << verdict.request.value() << " -> slice " << verdict.slice.value()
            << " state=" << core::to_string(verdict.state) << "\n";
  std::cout << "install timeline: "
            << tb->orchestrator->last_install_timeline().total().as_seconds()
            << " s (EPC deploy "
            << tb->orchestrator->last_install_timeline().epc_deploy.as_seconds() << " s)\n\n";

  // 4. Let the simulated day play out: the orchestrator monitors,
  //    forecasts and reconfigures every 15 minutes.
  tb->simulator.run_for(Duration::hours(25.0));

  // 5. Render what the demo's control dashboard would show.
  dashboard::Dashboard dash(tb.get());
  std::cout << dash.render_all() << "\n";
  return 0;
}
