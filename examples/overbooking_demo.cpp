// The full demonstration of the paper, end to end: slices requested
// on-demand through the orchestrator's REST dashboard API, monitored
// once deployed, dynamically reconfigured (overbooked) to admit more
// tenants, with the control dashboard rendered at each act.
//
// This mirrors the demo script of §3: request slices with duration /
// latency / throughput / price / penalty, watch acceptance and
// rejection, watch UEs attach "after few seconds", and watch the
// gains-vs-penalties panel as the multiplexing gain builds up.

#include <iostream>
#include <vector>

#include "core/testbed.hpp"
#include "core/ue_population.hpp"
#include "dashboard/dashboard.hpp"
#include "traffic/verticals.hpp"

using namespace slices;

namespace {

/// Submit a slice the way the dashboard form does: a JSON POST to the
/// orchestrator's REST API.
SliceId submit_via_rest(core::Testbed& tb, const char* vertical, double hours,
                          double throughput_mbps, double price, double penalty) {
  json::Value body;
  body["vertical"] = vertical;
  body["duration_hours"] = hours;
  body["throughput_mbps"] = throughput_mbps;
  body["price_per_hour"] = price;
  body["penalty_per_violation"] = penalty;
  const Result<json::Value> resp =
      tb.bus.call_json("orchestrator", net::Method::post, "/slices", body);
  if (!resp.ok()) {
    std::cout << "  -> REJECTED: " << resp.error().message << "\n";
    return SliceId::invalid();
  }
  const auto slice = static_cast<std::uint64_t>(resp.value().find("slice")->as_number());
  std::cout << "  -> " << resp.value().find("state")->as_string() << " (slice " << slice
            << ")\n";
  return SliceId{slice};
}

std::unique_ptr<core::UePopulation> bring_users_online(core::Testbed& tb, SliceId slice,
                                                       traffic::Vertical v,
                                                       std::uint64_t seed) {
  // REST submissions carry SLA terms only; the tenant's user population
  // (session churn of UEs on the slice PLMN) and its demand process
  // come online here.
  const core::SliceRecord* record = tb.orchestrator->find_slice(slice);
  if (record == nullptr || !record->is_live()) return nullptr;
  (void)tb.orchestrator->attach_workload(record->id, traffic::make_traffic(v, Rng(seed)));

  core::UePopulationConfig sessions;
  sessions.arrivals_per_hour = 40.0;
  sessions.mean_holding = Duration::minutes(15.0);
  auto population = std::make_unique<core::UePopulation>(
      &tb.simulator, &tb.ran, tb.epc.get(), record->id, record->embedding.plmn, sessions,
      Rng(seed * 131));
  population->start();
  return population;
}

void act(const char* title) { std::cout << "\n=== " << title << " ===\n"; }

}  // namespace

int main() {
  core::OrchestratorConfig config;
  config.overbooking.warmup_observations = 8;
  auto tb = core::make_testbed(/*seed=*/2018, config);
  dashboard::Dashboard dash(tb.get());

  act("Act 1 — the operator requests three slices through the dashboard");
  std::cout << "video CDN, 48 h, 30 Mb/s, 30/h, penalty 2:\n";
  const SliceId video = submit_via_rest(*tb, "embb_video", 48.0, 30.0, 30.0, 2.0);
  std::cout << "automotive V2X, 48 h, 15 Mb/s, 45/h, penalty 8:\n";
  const SliceId v2x = submit_via_rest(*tb, "automotive", 48.0, 15.0, 45.0, 8.0);
  std::cout << "e-health, 48 h, 8 Mb/s, 25/h, penalty 15:\n";
  (void)submit_via_rest(*tb, "ehealth", 48.0, 8.0, 25.0, 15.0);

  act("Act 2 — a few seconds later, the slices are on the air; users arrive");
  tb->simulator.run_for(Duration::seconds(30.0));
  std::vector<std::unique_ptr<core::UePopulation>> populations;
  populations.push_back(bring_users_online(*tb, video, traffic::Vertical::embb_video, 1));
  populations.push_back(bring_users_online(*tb, v2x, traffic::Vertical::automotive, 2));
  tb->simulator.run_for(Duration::minutes(30.0));
  for (const auto& population : populations) {
    if (population != nullptr) {
      std::cout << "  population: " << population->active_ues() << " UEs online ("
                << population->total_arrivals() << " arrivals so far)\n";
    }
  }
  std::cout << dash.render_slices();

  act("Act 3 — half a day of monitoring: forecasts learned, reservations shrunk");
  tb->simulator.run_for(Duration::hours(12.0));
  std::cout << dash.render_headline();

  act("Act 4 — overbooking in action: a fourth slice fits in reclaimed capacity");
  std::cout << "cloud gaming, 24 h, 20 Mb/s, 50/h, penalty 6:\n";
  (void)submit_via_rest(*tb, "cloud_gaming", 24.0, 20.0, 50.0, 6.0);
  tb->simulator.run_for(Duration::hours(1.0));
  std::cout << dash.render_slices();

  act("Act 5 — and one that must bounce: more than the whole RAN");
  std::cout << "greedy tenant, 24 h, 500 Mb/s:\n";
  (void)submit_via_rest(*tb, "embb_video", 24.0, 500.0, 500.0, 1.0);

  act("Act 6 — the closing dashboard");
  tb->simulator.run_for(Duration::hours(12.0));
  std::cout << dash.render_all();

  std::cout << "\nfinal multiplexing gain "
            << tb->orchestrator->summary().multiplexing_gain << " with "
            << tb->orchestrator->summary().violation_epochs << " violation epochs\n";
  return 0;
}
