#include "scenario/runner.hpp"

#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "telemetry/trace.hpp"

namespace slices::scenario {
namespace {

constexpr std::uint64_t kStormSalt = 0xbf58476d1ce4e5b9ull;

/// The restoring counterpart of a down event.
EventKind up_kind(EventKind down) {
  switch (down) {
    case EventKind::link_down: return EventKind::link_up;
    case EventKind::cell_down: return EventKind::cell_up;
    case EventKind::dc_down: return EventKind::dc_up;
    default: return down;
  }
}

}  // namespace

ScenarioRunner::ScenarioRunner(Scenario scenario, RunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {}

Result<Scorecard> ScenarioRunner::run() {
  if (ran_) return make_error(Errc::conflict, "scenario runner is single-use");
  if (scenario_.topology != "fig2") {
    return make_error(Errc::invalid_argument,
                      "topology '" + scenario_.topology +
                          "' is federated — drive it with federation::FederatedRunner");
  }
  ran_ = true;

  core::OrchestratorConfig config = scenario_.orchestrator;
  config.epoch_threads = options_.epoch_threads == 0 ? 1 : options_.epoch_threads;
  const bool previous_wall = telemetry::trace::wall_clock();
  if (options_.wall_profile) telemetry::trace::set_wall_clock(true);

  RegionIdentity fig2;  // the one unnamed region of a one-region city
  fig2.seed = scenario_.seed;
  region_ = std::make_unique<Region>(core::make_testbed(scenario_.seed, config), scenario_, fig2);
  sim::Simulator& simulator = region_->testbed().simulator;
  end_ = SimTime::origin() + scenario_.duration;

  if (Result<void> r = recorder_.open(options_.record_path, scenario_); !r.ok()) return r.error();

  generator_ = make_request_generator(scenario_);
  if (generator_) schedule_arrival();

  // Events before requests: in a live run every arrival is scheduled
  // dynamically (after the pre-scheduled injections), so a replayed
  // request that shares a timestamp with an injection must also fire
  // after it to reproduce the original execution order.
  for (const ScenarioEvent& event : scenario_.events) schedule_event(event);

  for (const ScenarioRequest& request : scenario_.requests) {
    simulator.schedule_at(SimTime::origin() + request.at, [this, &request] {
      submit_request(request.spec, request.workload_seed);
    });
  }

  // Registered after make_testbed() started the orchestrator's epoch
  // periodic with the same period and offset, so at every shared
  // timestamp the epoch runs first and this sampler observes its
  // result (FIFO tiebreak among same-time events).
  simulator.add_periodic(
      config.monitoring_period, [this](SimTime now) { sample(now); },
      config.monitoring_period);

  simulator.run_until(end_);

  stop_storms();
  Scorecard card = finalize();
  evaluate_targets(scenario_.targets, card);

  if (options_.wall_profile) {
    if (const telemetry::Histogram* wall =
            region_->testbed().registry.find_histogram("orchestrator.epoch_us");
        wall != nullptr && !wall->empty()) {
      card.epoch_wall_us = Percentiles::of(*wall);
    }
  }
  telemetry::trace::set_wall_clock(previous_wall);

  if (Result<void> r = recorder_.finish(end_); !r.ok()) return r.error();
  return card;
}

void ScenarioRunner::schedule_arrival() {
  sim::Simulator& simulator = region_->testbed().simulator;
  const SimTime now = simulator.now();
  const Duration gap = generator_->next_interarrival(now);
  const SimTime at = now + gap;
  if (at > end_) return;
  simulator.schedule_at(at, [this] {
    core::GeneratedRequest request = generator_->next_request();
    submit_request(request.spec, request.workload_seed);
    schedule_arrival();
  });
}

void ScenarioRunner::submit_request(const core::SliceSpec& spec, std::uint64_t workload_seed) {
  core::Orchestrator& orchestrator = region_->orchestrator();
  if (orchestrator.suspended()) {
    // Control plane down: the request queues at the northbound API and
    // lands the moment the loop resumes.
    deferred_.push_back({spec, workload_seed});
    return;
  }
  (void)recorder_.record_request(region_->testbed().simulator.now(), spec, workload_seed);
  ++submitted_;
  orchestrator.submit(spec, region_->make_workload(spec.vertical, workload_seed));
}

void ScenarioRunner::flush_deferred() {
  std::vector<Deferred> pending;
  pending.swap(deferred_);
  for (const Deferred& d : pending) submit_request(d.spec, d.workload_seed);
}

void ScenarioRunner::record_action(const ScenarioEvent& event) {
  ++events_injected_;
  (void)recorder_.record_event(event);
}

void ScenarioRunner::schedule_event(const ScenarioEvent& event) {
  sim::Simulator& sim = region_->testbed().simulator;
  const SimTime base = SimTime::origin() + event.at;
  const auto toggle_at = [&](SimTime at, EventKind kind) {
    sim.schedule_at(at, [this, kind, target = event.target] { apply_toggle(kind, target); });
  };
  switch (event.kind) {
    case EventKind::link_down:
    case EventKind::cell_down:
    case EventKind::dc_down:
      toggle_at(base, event.kind);
      if (event.duration > Duration::zero()) toggle_at(base + event.duration, up_kind(event.kind));
      break;
    case EventKind::link_up:
    case EventKind::cell_up:
    case EventKind::dc_up:
      toggle_at(base, event.kind);
      break;
    case EventKind::link_flap:
      for (int k = 0; k < event.flap_count; ++k) {
        const SimTime down_at = base + event.flap_period * static_cast<double>(k);
        toggle_at(down_at, EventKind::link_down);
        toggle_at(down_at + event.flap_down, EventKind::link_up);
      }
      break;
    case EventKind::controller_restart:
      sim.schedule_at(base, [this, duration = event.duration] { apply_restart(duration); });
      break;
    case EventKind::churn_storm:
      sim.schedule_at(base, [this, event] { start_storm(event); });
      sim.schedule_at(base + event.duration, [this] { stop_storms(); });
      break;
  }
}

void ScenarioRunner::apply_toggle(EventKind kind, const std::string& target) {
  // Targets were validated against the fig2 names at parse time.
  switch (kind) {
    case EventKind::link_down:
    case EventKind::link_up: (void)region_->set_link_up(target, kind == EventKind::link_up); break;
    case EventKind::cell_down:
    case EventKind::cell_up: (void)region_->set_cell_up(target, kind == EventKind::cell_up); break;
    case EventKind::dc_down:
    case EventKind::dc_up: (void)region_->set_dc_up(target, kind == EventKind::dc_up); break;
    default: return;
  }
  ScenarioEvent action;
  action.at = region_->testbed().simulator.now() - SimTime::origin();
  action.kind = kind;
  action.target = target;
  record_action(action);
}

void ScenarioRunner::apply_restart(Duration duration) {
  region_->restart(duration, [this] { flush_deferred(); });
  ScenarioEvent action;
  action.at = region_->testbed().simulator.now() - SimTime::origin();
  action.kind = EventKind::controller_restart;
  action.duration = duration;
  record_action(action);
}

void ScenarioRunner::start_storm(const ScenarioEvent& event) {
  core::Testbed& testbed = region_->testbed();
  core::UePopulationConfig config;
  config.arrivals_per_hour = event.storm_ues_per_hour;
  config.mean_holding = event.storm_mean_holding;
  ++storm_seq_;
  for (const auto& [slice, record] : testbed.orchestrator->slices()) {
    if (record.state != core::SliceState::active) continue;
    const std::uint64_t seed =
        scenario_.seed ^ (kWorkloadSalt * storm_seq_) ^ (kStormSalt * slice.value());
    auto population = std::make_unique<core::UePopulation>(
        &testbed.simulator, &testbed.ran, testbed.epc.get(), slice, record.embedding.plmn,
        config, Rng(seed));
    population->start();
    storm_populations_.push_back(std::move(population));
  }
  testbed.orchestrator->note_fault(
      "churn", true,
      "UE churn storm (" + format_rate(event.storm_ues_per_hour) + " UEs/h per slice)");
  ScenarioEvent action = event;
  action.at = testbed.simulator.now() - SimTime::origin();
  record_action(action);
}

void ScenarioRunner::stop_storms() {
  if (storm_populations_.empty()) return;
  for (const std::unique_ptr<core::UePopulation>& population : storm_populations_) {
    population->stop();
    ue_arrivals_ += population->total_arrivals();
    ue_blocked_ += population->total_blocked();
  }
  storm_populations_.clear();
  region_->orchestrator().note_fault("churn", false, "storm over");
}

void ScenarioRunner::sample(SimTime now) {
  // UEs keep moving (and handing over, RAN-side) even while the
  // orchestration loop is restarting — mobility precedes the early-out.
  if (region_->field() != nullptr) region_->step_mobility(now);
  const core::Orchestrator& orchestrator = region_->orchestrator();
  for (const core::Event& event : orchestrator.events().after(last_event_seq_)) {
    last_event_seq_ = event.sequence;
    if (const auto* admitted = std::get_if<core::EventAdmitted>(&event.values)) {
      install_hist_.record(static_cast<std::uint64_t>(std::llround(admitted->install_s * 1e6)));
    }
  }
  if (orchestrator.suspended()) return;  // no epoch ran at this tick
  ++epochs_;
  const core::OrchestratorSummary summary = orchestrator.summary();
  active_hist_.record(summary.active_slices);
  const double reserved = summary.reserved_total.as_mbps();
  reserved_hist_.record(
      static_cast<std::uint64_t>(std::llround(reserved < 0.0 ? 0.0 : reserved)));
  gain_.record(summary.multiplexing_gain);
}

Scorecard ScenarioRunner::finalize() {
  Scorecard card;
  card.scenario = scenario_.name;
  card.seed = scenario_.seed;
  card.duration_hours = scenario_.duration.as_hours();
  card.submitted = submitted_;

  const RegionTally tally = region_->tally();
  card.add_region(tally);
  card.rejected = tally.rejected;
  card.active_at_end = tally.active_at_end;
  card.expired = tally.expired;
  card.terminated = tally.terminated;

  card.epochs = epochs_;
  card.events_injected = events_injected_;
  card.ue_arrivals = ue_arrivals_;
  card.ue_blocked = ue_blocked_;

  card.install_ms = Percentiles::of(install_hist_, 1e-3);
  card.active_slices = Percentiles::of(active_hist_);
  card.reserved_mbps = Percentiles::of(reserved_hist_);

  if (const mobility::Field* field = region_->field(); field != nullptr) {
    card.mobility_enabled = true;
    const ran::HandoverStats& handovers = region_->testbed().ran.handover_totals();
    card.handover_attempts = handovers.attempts;
    card.handover_successes = handovers.successes;
    card.handover_drops = handovers.drops;
    card.mobile_population = field->population();
    card.mobility_exits = field->exits_total();
    card.roamers_admitted = field->roamers_admitted();
    card.roamers_dropped = field->roamers_dropped();
  }
  card.derive(gain_);
  return card;
}

}  // namespace slices::scenario
