#include "scenario/scorecard.hpp"

#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

namespace slices::scenario {
namespace {

/// The one field list of a RegionTally, behind write() and read().
template <typename Tally, typename Visit>
void for_each_field(Tally& t, Visit&& visit) {
  visit("admitted", t.admitted);
  visit("rejected", t.rejected);
  visit("active_at_end", t.active_at_end);
  visit("expired", t.expired);
  visit("terminated", t.terminated);
  visit("served_epochs", t.served_epochs);
  visit("violation_epochs", t.violation_epochs);
  visit("earned_cents", t.earned_cents);
  visit("penalty_cents", t.penalty_cents);
  visit("net_cents", t.net_cents);
  visit("reconfigurations", t.reconfigurations);
  visit("contracted_mbps", t.contracted_mbps);
  visit("reserved_mbps", t.reserved_mbps);
  visit("multiplexing_gain", t.multiplexing_gain);
}

/// `sum += add`, pinned at the type's limits instead of overflowing: a
/// remote region's tally is wire data, and two in-range ones near the
/// limit must not push the city sum past it.
template <typename T>
void add_saturating(T& sum, T add) {
  if (add > 0 && sum > std::numeric_limits<T>::max() - add) {
    sum = std::numeric_limits<T>::max();
    return;
  }
  if constexpr (std::is_signed_v<T>) {
    if (add < 0 && sum < std::numeric_limits<T>::min() - add) {
      sum = std::numeric_limits<T>::min();
      return;
    }
  }
  sum += add;
}

}  // namespace

Percentiles Percentiles::of(const telemetry::Histogram& hist, double scale) {
  Percentiles out;
  out.count = hist.count();
  if (hist.empty()) return out;
  out.mean = static_cast<double>(hist.sum()) / static_cast<double>(hist.count()) * scale;
  out.p50 = hist.value_at_quantile(0.50) * scale;
  out.p90 = hist.value_at_quantile(0.90) * scale;
  out.p99 = hist.value_at_quantile(0.99) * scale;
  out.min = static_cast<double>(hist.minimum()) * scale;
  out.max = static_cast<double>(hist.maximum()) * scale;
  return out;
}

json::Value Percentiles::to_json() const {
  json::Object out;
  out.emplace("count", static_cast<double>(count));
  out.emplace("mean", mean);
  out.emplace("p50", p50);
  out.emplace("p90", p90);
  out.emplace("p99", p99);
  out.emplace("min", min);
  out.emplace("max", max);
  return json::Value(std::move(out));
}

void RegionTally::write(json::Object& out) const {
  for_each_field(*this, [&out](const char* key, const auto& value) {
    out.emplace(key, static_cast<double>(value));
  });
}

void RegionTally::read(const json::Value& doc) {
  for_each_field(*this, [&doc](const char* key, auto& value) {
    using Field = std::remove_reference_t<decltype(value)>;
    if constexpr (std::is_floating_point_v<Field>) {
      if (const json::Value* v = doc.find(key); v != nullptr && v->is_number()) {
        value = v->as_number();
      }
    } else {
      value = json::to_integer<Field>(doc.find(key)).value_or(0);
    }
  });
}

void ScorecardCore::add_region(const RegionTally& region) {
  add_saturating(admitted, region.admitted);
  add_saturating(served_epochs, region.served_epochs);
  add_saturating(violation_epochs, region.violation_epochs);
  add_saturating(earned_cents, region.earned_cents);
  add_saturating(penalty_cents, region.penalty_cents);
  add_saturating(net_cents, region.net_cents);
  add_saturating(reconfigurations, region.reconfigurations);
}

void ScorecardCore::derive(const GainAccumulator& gain) {
  const std::uint64_t decided = admitted + rejected;
  admission_rate =
      decided == 0 ? 0.0 : static_cast<double>(admitted) / static_cast<double>(decided);
  violation_rate = served_epochs == 0 ? 0.0
                                      : static_cast<double>(violation_epochs) /
                                            static_cast<double>(served_epochs);
  multiplexing_gain_mean = gain.mean();
  multiplexing_gain_peak = gain.peak;
}

json::Object ScorecardCore::shared_json() const {
  json::Object admission;
  admission.emplace("submitted", static_cast<double>(submitted));
  admission.emplace("admitted", static_cast<double>(admitted));
  admission.emplace("rejected", static_cast<double>(rejected));
  admission.emplace("rate", admission_rate);

  json::Object sla;
  sla.emplace("served_epochs", static_cast<double>(served_epochs));
  sla.emplace("violation_epochs", static_cast<double>(violation_epochs));
  sla.emplace("violation_rate", violation_rate);

  json::Object revenue;
  revenue.emplace("earned_cents", static_cast<double>(earned_cents));
  revenue.emplace("penalty_cents", static_cast<double>(penalty_cents));
  revenue.emplace("net_cents", static_cast<double>(net_cents));

  json::Object overbooking;
  overbooking.emplace("multiplexing_gain_mean", multiplexing_gain_mean);
  overbooking.emplace("multiplexing_gain_peak", multiplexing_gain_peak);
  overbooking.emplace("reconfigurations", static_cast<double>(reconfigurations));

  json::Object ops;
  ops.emplace("epochs", static_cast<double>(epochs));
  ops.emplace("events_injected", static_cast<double>(events_injected));

  json::Object targets;
  targets.emplace("met", targets_met);
  json::Array failures;
  for (const std::string& f : target_failures) failures.push_back(json::Value(f));
  targets.emplace("failures", std::move(failures));

  json::Object out;
  out.emplace("scenario", scenario);
  out.emplace("seed", static_cast<double>(seed));
  out.emplace("duration_hours", duration_hours);
  out.emplace("admission", std::move(admission));
  out.emplace("sla", std::move(sla));
  out.emplace("revenue", std::move(revenue));
  out.emplace("overbooking", std::move(overbooking));
  out.emplace("ops", std::move(ops));
  if (mobility_enabled) {
    json::Object mobility;
    mobility.emplace("handover_attempts", static_cast<double>(handover_attempts));
    mobility.emplace("handover_successes", static_cast<double>(handover_successes));
    mobility.emplace("handover_drops", static_cast<double>(handover_drops));
    mobility.emplace("population_at_end", static_cast<double>(mobile_population));
    out.emplace("mobility", std::move(mobility));
  }
  out.emplace("targets", std::move(targets));
  return out;
}

std::string format_rate(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.4f", v);
  return buffer;
}

void evaluate_targets(const ScenarioTargets& targets, ScorecardCore& card) {
  const auto fail = [&card](std::string why) {
    card.targets_met = false;
    card.target_failures.push_back(std::move(why));
  };
  if (targets.min_admission_rate && card.admission_rate < *targets.min_admission_rate) {
    fail("admission rate " + format_rate(card.admission_rate) + " < target " +
         format_rate(*targets.min_admission_rate));
  }
  if (targets.max_violation_rate && card.violation_rate > *targets.max_violation_rate) {
    fail("violation rate " + format_rate(card.violation_rate) + " > target " +
         format_rate(*targets.max_violation_rate));
  }
  const double net = static_cast<double>(card.net_cents) / 100.0;
  if (targets.min_net_revenue && net < *targets.min_net_revenue) {
    fail("net revenue " + format_rate(net) + " < target " + format_rate(*targets.min_net_revenue));
  }
  if (targets.min_multiplexing_gain &&
      card.multiplexing_gain_mean < *targets.min_multiplexing_gain) {
    fail("multiplexing gain " + format_rate(card.multiplexing_gain_mean) + " < target " +
         format_rate(*targets.min_multiplexing_gain));
  }
}

json::Value Scorecard::to_json() const {
  json::Object out = shared_json();

  json::Object lifecycle;
  lifecycle.emplace("active_at_end", static_cast<double>(active_at_end));
  lifecycle.emplace("expired", static_cast<double>(expired));
  lifecycle.emplace("terminated", static_cast<double>(terminated));
  out.emplace("lifecycle", std::move(lifecycle));

  json::Object& ops = out.at("ops").as_object();
  ops.emplace("ue_arrivals", static_cast<double>(ue_arrivals));
  ops.emplace("ue_blocked", static_cast<double>(ue_blocked));

  json::Object distributions;
  distributions.emplace("install_ms", install_ms.to_json());
  distributions.emplace("active_slices", active_slices.to_json());
  distributions.emplace("reserved_mbps", reserved_mbps.to_json());
  out.emplace("distributions", std::move(distributions));

  if (mobility_enabled) {
    json::Object& mobility = out.at("mobility").as_object();
    mobility.emplace("exits", static_cast<double>(mobility_exits));
    mobility.emplace("roamers_admitted", static_cast<double>(roamers_admitted));
    mobility.emplace("roamers_dropped", static_cast<double>(roamers_dropped));
  }
  if (epoch_wall_us) out.emplace("wall_profile", json::Object{{"epoch_us", epoch_wall_us->to_json()}});
  return json::Value(std::move(out));
}

std::string Scorecard::serialize() const {
  return json::serialize_pretty(to_json()) + "\n";
}

}  // namespace slices::scenario
