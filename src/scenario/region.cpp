#include "scenario/region.hpp"

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "traffic/verticals.hpp"

namespace slices::scenario {

Region::Region(std::unique_ptr<core::Testbed> testbed, const Scenario& scenario,
               RegionIdentity identity)
    : testbed_(std::move(testbed)), name_(std::move(identity.name)) {
  std::vector<traffic::PiecewiseEnvelope::Segment> segments;
  for (const Phase& phase : scenario.phases) {
    if (phase.demand_scale != 1.0) {
      segments.push_back({SimTime::origin() + phase.start, SimTime::origin() + phase.end,
                          phase.demand_scale});
    }
  }
  if (!segments.empty()) {
    envelope_ = std::make_shared<const traffic::PiecewiseEnvelope>(std::move(segments));
  }

  if (!scenario.mobility.enabled) return;
  const MobilitySpec& mob = scenario.mobility;
  speed_classes_ = mob.speed_classes;
  mobility::FieldConfig config;
  config.cell_spacing_m = mob.cell_spacing_m;
  config.default_speed_mps = mob.default_speed_mps;
  config.ues_per_slice = mob.ues_per_slice;
  config.cqi_min = mob.cqi_min;
  config.cqi_max = mob.cqi_max;
  config.seed = identity.seed;
  config.region_index = static_cast<std::uint32_t>(identity.index);
  config.region_count = static_cast<std::uint32_t>(identity.count);
  config.region = name_;
  field_ = std::make_unique<mobility::Field>(config, &testbed_->ran, testbed_->pool.get());
  for (const MobilityStorm& storm : mob.storms) {
    if (!storm.region.empty() && storm.region != name_) continue;
    // The focus cell by layout name; an empty name is the first cell.
    const std::size_t cell = core::find_name(testbed_->cell_names, storm.cell).value_or(0);
    field_->add_storm(storm.kind, SimTime::origin() + storm.at,
                      SimTime::origin() + storm.at + storm.duration, storm.fraction, cell);
  }
}

std::unique_ptr<traffic::TrafficModel> Region::make_workload(traffic::Vertical vertical,
                                                             std::uint64_t workload_seed) const {
  std::unique_ptr<traffic::TrafficModel> workload =
      traffic::make_traffic(vertical, Rng(workload_seed));
  if (envelope_) {
    workload = std::make_unique<traffic::ModulatedTraffic>(std::move(workload), envelope_);
  }
  return workload;
}

Error Region::unknown(std::string_view what, const std::string& name) const {
  std::string why = "unknown " + std::string(what) + " '" + name + "'";
  if (!name_.empty()) why += " in region " + name_;
  return make_error(Errc::invalid_argument, std::move(why));
}

void Region::note_fault(const std::string& component, bool active, std::string detail,
                        std::string_view key, const std::string& name) {
  json::Object fields;
  fields.emplace(std::string(key), json::Value(name));
  if (!name_.empty()) fields.emplace("region", json::Value(name_));
  orchestrator().note_fault(component, active, std::move(detail), std::move(fields));
}

Result<void> Region::set_link_up(const std::string& name, bool up) {
  const std::optional<std::size_t> i = core::find_name(testbed_->link_names, name);
  if (!i) return unknown("link", name);
  (void)testbed_->transport->set_link_up(testbed_->link_names[*i].second, up);
  note_fault("link." + name, !up, up ? "link restored" : "link down", "link", name);
  return {};
}

Result<void> Region::set_cell_up(const std::string& name, bool up) {
  const std::optional<std::size_t> i = core::find_name(testbed_->cell_names, name);
  if (!i) return unknown("cell", name);
  (void)testbed_->ran.set_cell_active(testbed_->cell_names[*i].second, up);
  note_fault("cell." + name, !up, up ? "cell reactivated" : "cell outage", "cell", name);
  return {};
}

Result<void> Region::set_dc_up(const std::string& name, bool up) {
  const std::optional<std::size_t> i = core::find_name(testbed_->dc_names, name);
  if (!i) return unknown("dc", name);
  const DatacenterId dc = testbed_->dc_names[*i].second;
  (void)testbed_->cloud.set_datacenter_available(dc, up);
  if (!up) {
    // terminate() erases the record: collect the ids first.
    std::vector<SliceId> placed;
    for (const auto& [slice, record] : orchestrator().slices()) {
      if (record.is_live() && record.embedding.datacenter == dc) placed.push_back(slice);
    }
    for (const SliceId slice : placed) (void)orchestrator().terminate(slice);
  }
  note_fault("dc." + name, !up, up ? "datacenter recovered" : "datacenter failed", "dc", name);
  return {};
}

void Region::restart(Duration duration, std::function<void()> on_resume) {
  orchestrator().set_suspended(true);
  orchestrator().note_fault("controller", true, "control plane restarting");
  testbed_->simulator.schedule_after(duration, [this, on_resume = std::move(on_resume)] {
    orchestrator().set_suspended(false);
    orchestrator().note_fault("controller", false, "control plane back");
    if (on_resume) on_resume();
  });
}

void Region::step_mobility(SimTime now) {
  // One span per region epoch: population sync, move and handover apply
  // (ran.handover.apply is its child span).
  TRACE_SCOPE("mobility.step");
  live_plmns_.clear();
  live_speeds_.clear();
  for (const auto& [slice, record] : orchestrator().slices()) {
    if (record.state != core::SliceState::active) continue;
    double speed = 0.0;  // take the configured default
    for (const auto& [vertical, mps] : speed_classes_) {
      if (vertical == record.spec.vertical) {
        speed = mps;
        break;
      }
    }
    live_plmns_.push_back(record.embedding.plmn);
    live_speeds_.push_back(speed);
  }
  field_->sync_population(live_plmns_, live_speeds_);
  field_->step(now);
  (void)field_->apply(now);
}

RegionTally Region::tally() const {
  const core::OrchestratorSummary summary = orchestrator().summary();
  RegionTally tally;
  tally.admitted = summary.admitted_total;
  tally.rejected = summary.rejected_total;
  tally.active_at_end = summary.active_slices + summary.installing_slices;
  tally.expired = summary.expired_total;
  tally.terminated = summary.terminated_total;
  tally.served_epochs = summary.served_epochs;
  tally.violation_epochs = summary.violation_epochs;
  tally.earned_cents = summary.earned.as_cents();
  tally.penalty_cents = summary.penalties.as_cents();
  tally.net_cents = summary.net.as_cents();
  tally.reconfigurations = summary.reconfigurations;
  tally.contracted_mbps = summary.contracted_total.as_mbps();
  tally.reserved_mbps = summary.reserved_total.as_mbps();
  tally.multiplexing_gain = summary.multiplexing_gain;
  return tally;
}

std::vector<core::RatePoint> build_rate_schedule(const Scenario& scenario) {
  const double base = scenario.workload.arrivals_per_hour;
  std::vector<const Phase*> rated;
  for (const Phase& phase : scenario.phases) {
    if (phase.arrivals_per_hour) rated.push_back(&phase);
  }
  std::vector<core::RatePoint> schedule;
  for (std::size_t i = 0; i < rated.size(); ++i) {
    schedule.push_back({rated[i]->start, *rated[i]->arrivals_per_hour});
    // Phases are sorted and disjoint.
    if (i + 1 == rated.size() || rated[i + 1]->start > rated[i]->end) {
      schedule.push_back({rated[i]->end, base});
    }
  }
  return schedule;
}

std::unique_ptr<core::RequestGenerator> make_request_generator(const Scenario& scenario) {
  if (!scenario.generate_arrivals) return nullptr;
  core::RequestGeneratorConfig workload = scenario.workload;
  workload.rate_schedule = build_rate_schedule(scenario);
  if (workload.arrivals_per_hour <= 0.0 && workload.rate_schedule.empty()) return nullptr;
  return std::make_unique<core::RequestGenerator>(std::move(workload),
                                                  Rng(scenario.seed ^ kWorkloadSalt));
}

}  // namespace slices::scenario
