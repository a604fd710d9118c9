// Automotive vertical scenario — one of the verticals the paper's
// introduction motivates ("vertical industries — such as automotive,
// e-health — are considering network slicing").
//
// A V2X assistance slice needs a 10 ms end-to-end latency bound, which
// forces edge-datacenter placement and a short transport path. This
// example shows:
//   * how the latency SLA steers the embedding (edge DC, mmWave path),
//   * UE attach through the slice's dedicated PLMN + its own EPC,
//   * what happens when the edge is full (a second automotive tenant is
//     bounced with a precise error).

#include <iostream>

#include "core/testbed.hpp"
#include "traffic/verticals.hpp"

using namespace slices;

int main() {
  auto tb = core::make_testbed(/*seed=*/1234);

  // --- Tenant 1: a car maker requests a V2X slice ------------------------
  const traffic::VerticalProfile profile = traffic::profile_for(traffic::Vertical::automotive);
  core::SliceSpec spec = core::SliceSpec::from_profile(profile, Duration::hours(24.0));
  std::cout << "requesting automotive slice: " << spec.expected_throughput.as_mbps()
            << " Mb/s, max latency " << spec.max_latency.as_millis() << " ms, edge required\n";

  const core::SubmitVerdict verdict = tb->orchestrator->submit(
      spec, traffic::make_traffic(traffic::Vertical::automotive, Rng(5)));
  std::cout << "verdict: " << core::to_string(verdict.state) << "\n";
  const core::SliceRecord* record = tb->orchestrator->find_slice(verdict.slice);

  // Where did it land?
  const cloud::Datacenter* dc = tb->cloud.find_datacenter(record->embedding.datacenter);
  const transport::PathReservation* path =
      tb->transport->find_path(record->embedding.paths.front());
  std::cout << "placed in " << dc->name() << " (" << cloud::to_string(dc->kind())
            << "), path delay " << path->route.total_delay.as_millis() << " ms over "
            << path->route.hops() << " hops\n";

  // --- Wait for the install timeline, then attach vehicles ----------------
  tb->simulator.run_for(Duration::seconds(30.0));
  std::cout << "slice state after install: " << core::to_string(record->state) << "\n";

  for (int vehicle = 0; vehicle < 5; ++vehicle) {
    const Result<UeId> ue = tb->ran.attach_ue(record->embedding.plmn, ran::Cqi{11});
    const Result<Duration> attach = tb->epc->attach_ue(record->id);
    if (ue.ok() && attach.ok()) {
      std::cout << "vehicle " << vehicle << " attached as UE " << ue.value().value()
                << " (control-plane latency " << attach.value().as_millis() << " ms)\n";
    }
  }
  std::cout << "UEs on the slice PLMN: " << tb->ran.attached_ues(record->embedding.plmn)
            << ", active bearers: " << tb->epc->find(record->id)->active_bearers << "\n";

  // --- Serve a commuting day ------------------------------------------------
  tb->simulator.run_for(Duration::hours(12.0));
  const core::OrchestratorSummary mid = tb->orchestrator->summary();
  std::cout << "\nafter 12 h: reserved " << record->reserved.as_mbps() << " / "
            << record->spec.expected_throughput.as_mbps()
            << " Mb/s contracted (overbooking reclaimed the rest), gain "
            << mid.multiplexing_gain << ", violations " << mid.violation_epochs << "\n";

  // --- Tenant 2: another automotive tenant wants the edge too --------------
  // Fill the edge first so the request cannot fit.
  // The first slice already uses one host; these two VMs soak up what
  // remains on both hosts, so no host can fit another 13-vCPU footprint.
  cloud::StackTemplate filler;
  filler.name = "edge-filler";
  filler.resources = {{"a", cloud::Flavor{"f", ComputeCapacity{18.0, 1024.0, 10.0}}},
                      {"b", cloud::Flavor{"f", ComputeCapacity{30.0, 1024.0, 10.0}}}};
  const Result<StackId> soaked = tb->cloud.create_stack(tb->edge_dc, filler);
  std::cout << "\nfilling the edge with other workloads: "
            << (soaked.ok() ? "done" : soaked.error().message) << "\n";

  const core::SubmitVerdict second =
      tb->orchestrator->submit(core::SliceSpec::from_profile(profile, Duration::hours(4.0)));
  std::cout << "\nsecond automotive tenant (edge now full): " << core::to_string(second.state)
            << "\n";
  return 0;
}
