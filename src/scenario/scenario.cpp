#include "scenario/scenario.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "core/config_io.hpp"
#include "traffic/verticals.hpp"

namespace slices::scenario {
namespace {

using json::Object;
using json::Value;

// Sanity bounds: generous enough for any plausible experiment, tight
// enough that a mistyped exponent fails loudly instead of hanging the
// simulator in a billion-arrival loop.
constexpr double kMaxArrivalRate = 1.0e5;     // per hour
constexpr double kMaxDurationHours = 8784.0;  // one leap year
constexpr double kMaxDemandScale = 1.0e3;

Error bad(std::string why) { return make_error(Errc::invalid_argument, std::move(why)); }

std::string path_key(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

Result<void> check_keys(const Object& obj, const std::string& path,
                        std::set<std::string_view> allowed) {
  for (const auto& [key, value] : obj) {
    if (!allowed.contains(key)) return bad(path_key(path, key) + ": unknown key");
  }
  return {};
}

// Duration fields are authored as human-friendly doubles. llround (not
// truncation) makes serialize -> parse recover the exact microsecond
// count, which the canonical round-trip contract needs.
Duration hours_dur(double v) { return Duration::micros(std::llround(v * 3.6e9)); }
Duration minutes_dur(double v) { return Duration::micros(std::llround(v * 6.0e7)); }
Duration millis_dur(double v) { return Duration::micros(std::llround(v * 1.0e3)); }

/// Optional finite number in [lo, hi]; `fallback` when the key is absent.
Result<double> number_in(const Object& obj, const std::string& path, std::string_view key,
                         double fallback, double lo, double hi, const char* domain) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_number()) return bad(path_key(path, key) + ": must be a number");
  const double v = it->second.as_number();
  if (!std::isfinite(v) || v < lo || v > hi)
    return bad(path_key(path, key) + ": must be " + domain);
  return v;
}

Result<double> require_number(const Object& obj, const std::string& path, std::string_view key,
                              double lo, double hi, const char* domain) {
  if (!obj.contains(key)) return bad(path_key(path, key) + ": required");
  return number_in(obj, path, key, 0.0, lo, hi, domain);
}

Result<std::string> string_in(const Object& obj, const std::string& path, std::string_view key,
                              std::string fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_string()) return bad(path_key(path, key) + ": must be a string");
  return it->second.as_string();
}

Result<bool> bool_in(const Object& obj, const std::string& path, std::string_view key,
                     bool fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  if (!it->second.is_bool()) return bad(path_key(path, key) + ": must be a boolean");
  return it->second.as_bool();
}

/// u64 field accepting a non-negative integer number (exact up to 2^53)
/// or a decimal string (full 64-bit range — workload seeds are raw RNG
/// words that do not fit a JSON double).
Result<std::uint64_t> u64_in(const Object& obj, const std::string& path, std::string_view key,
                             std::uint64_t fallback) {
  const auto it = obj.find(key);
  if (it == obj.end()) return fallback;
  const Value& v = it->second;
  if (v.is_number()) {
    const double d = v.as_number();
    if (!std::isfinite(d) || d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
      return bad(path_key(path, key) + ": must be a non-negative integer (use a string above 2^53)");
    return static_cast<std::uint64_t>(d);
  }
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
      return bad(path_key(path, key) + ": must be a decimal integer string");
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
      return bad(path_key(path, key) + ": out of 64-bit range");
    return static_cast<std::uint64_t>(parsed);
  }
  return bad(path_key(path, key) + ": must be an integer or decimal string");
}

/// Seeds below 2^53 serialize as plain numbers (readable); larger ones
/// as decimal strings (exact).
Value u64_to_json(std::uint64_t v) {
  if (v <= (1ull << 53)) return Value(static_cast<double>(v));
  return Value(std::to_string(v));
}

Result<traffic::Vertical> vertical_in(const Object& obj, const std::string& path,
                                      std::string_view key) {
  const Result<std::string> name = string_in(obj, path, key, "");
  if (!name.ok()) return name.error();
  if (name.value().empty()) return bad(path_key(path, key) + ": required");
  for (const traffic::Vertical v : traffic::all_verticals()) {
    if (traffic::to_string(v) == name.value()) return v;
  }
  return bad(path_key(path, key) + ": unknown vertical '" + name.value() + "'");
}

EventKind kAllKinds[] = {EventKind::link_down, EventKind::link_up,     EventKind::link_flap,
                         EventKind::cell_down, EventKind::cell_up,     EventKind::dc_down,
                         EventKind::dc_up,     EventKind::controller_restart,
                         EventKind::churn_storm};

Result<std::string> target_in(const Object& obj, const std::string& path, std::string_view key,
                              std::set<std::string_view> allowed) {
  const Result<std::string> name = string_in(obj, path, key, "");
  if (!name.ok()) return name.error();
  if (name.value().empty()) return bad(path_key(path, key) + ": required");
  if (!allowed.contains(name.value())) {
    std::string options;
    for (const std::string_view a : allowed) {
      if (!options.empty()) options += ", ";
      options += a;
    }
    return bad(path_key(path, key) + ": unknown name '" + name.value() + "' (expected one of " +
               options + ")");
  }
  return name.value();
}

/// Parses "<prefix><index>" with index < limit; returns the index.
Result<std::size_t> indexed_name(const std::string& path, std::string_view key,
                                 const std::string& name, std::string_view prefix,
                                 std::size_t limit) {
  const std::string where = path_key(path, key);
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix)
    return bad(where + ": expected \"" + std::string(prefix) + "<index>\", got '" + name + "'");
  const std::string digits = name.substr(prefix.size());
  if (digits.find_first_not_of("0123456789") != std::string::npos)
    return bad(where + ": expected \"" + std::string(prefix) + "<index>\", got '" + name + "'");
  const std::size_t index = static_cast<std::size_t>(std::strtoull(digits.c_str(), nullptr, 10));
  if (index >= limit)
    return bad(where + ": '" + name + "' out of range (" + std::string(prefix) + "0.." +
               std::string(prefix) + std::to_string(limit - 1) + ")");
  return index;
}

/// Required "region" key of a metro event/request: "r<i>", i < regions.
Result<std::string> region_in(const Object& obj, const std::string& path,
                              const FederationSpec& fed, bool required) {
  const Result<std::string> name = string_in(obj, path, "region", "");
  if (!name.ok()) return name.error();
  if (name.value().empty()) {
    if (required)
      return bad(path_key(path, "region") + ": required on a metro topology");
    return std::string();
  }
  if (Result<std::size_t> index =
          indexed_name(path, "region", name.value(), "r", fed.regions);
      !index.ok()) {
    return index.error();
  }
  return name.value();
}

/// A cell name in the topology's grammar: "a"|"b" on fig2; "c<k>" on a
/// metro, canonicalized ("c07" -> "c7") so regions resolve it exactly.
Result<std::string> cell_in(const Object& obj, const std::string& path,
                            const FederationSpec* fed) {
  if (fed == nullptr) return target_in(obj, path, "cell", {"a", "b"});
  const Result<std::string> cell = string_in(obj, path, "cell", "");
  if (!cell.ok()) return cell.error();
  const Result<std::size_t> index =
      indexed_name(path, "cell", cell.value(), "c", fed->cells_per_region);
  if (!index.ok()) return index.error();
  return "c" + std::to_string(index.value());
}

/// The target an event names: the one part of the event grammar that
/// depends on the topology. A metro has no named backbone links and no
/// churn storms, so those kinds are rejected there.
Result<void> event_target_in(const Object& obj, const std::string& path,
                             const FederationSpec* fed, ScenarioEvent& event,
                             std::set<std::string_view>& allowed) {
  switch (event.kind) {
    case EventKind::link_down:
    case EventKind::link_up:
    case EventKind::link_flap: {
      if (fed != nullptr) break;
      allowed.insert("link");
      const Result<std::string> link = target_in(obj, path, "link", {"mmwave", "uwave"});
      if (!link.ok()) return link.error();
      event.target = link.value();
      return {};
    }
    case EventKind::cell_down:
    case EventKind::cell_up: {
      allowed.insert("cell");
      const Result<std::string> cell = cell_in(obj, path, fed);
      if (!cell.ok()) return cell.error();
      event.target = cell.value();
      return {};
    }
    case EventKind::dc_down:
    case EventKind::dc_up: {
      allowed.insert("dc");
      if (fed == nullptr) {
        const Result<std::string> dc = target_in(obj, path, "dc", {"edge", "core"});
        if (!dc.ok()) return dc.error();
        event.target = dc.value();
        return {};
      }
      const Result<std::string> dc = string_in(obj, path, "dc", "");
      if (!dc.ok()) return dc.error();
      event.target = dc.value();
      if (dc.value() == "core") return {};
      const Result<std::size_t> index =
          indexed_name(path, "dc", dc.value(), "edge", fed->edge_dcs_per_region);
      if (!index.ok()) {
        return bad(path_key(path, "dc") + ": expected \"core\" or \"edge<k>\", got '" +
                   dc.value() + "'");
      }
      event.target = "edge" + std::to_string(index.value());
      return {};
    }
    case EventKind::controller_restart:
      return {};
    case EventKind::churn_storm:
      if (fed == nullptr) return {};
      break;
  }
  return bad(path_key(path, "kind") + ": '" + std::string(to_string(event.kind)) +
             "' is not supported on the metro topology (cell_*, dc_* and "
             "controller_restart only)");
}

Result<void> parse_federation(const Object& obj, FederationSpec& fed) {
  const std::string path = "federation";
  if (Result<void> r = check_keys(obj, path,
                                  {"regions", "cells_per_region", "edge_dcs_per_region",
                                   "hosts_per_dc", "backbone", "backbone_gbps"});
      !r.ok()) {
    return r.error();
  }
  const auto integer_in = [&](std::string_view key, std::size_t fallback, double lo, double hi,
                              const char* domain, std::size_t& out) -> Result<void> {
    const Result<double> v = number_in(obj, path, key, static_cast<double>(fallback), lo, hi,
                                       domain);
    if (!v.ok()) return v.error();
    if (v.value() != std::floor(v.value()))
      return bad(path_key(path, key) + ": must be an integer");
    out = static_cast<std::size_t>(v.value());
    return {};
  };
  if (Result<void> r = integer_in("regions", fed.regions, 1.0, 64.0, "an integer in [1, 64]",
                                  fed.regions);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = integer_in("cells_per_region", fed.cells_per_region, 1.0, 4096.0,
                                  "an integer in [1, 4096]", fed.cells_per_region);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = integer_in("edge_dcs_per_region", fed.edge_dcs_per_region, 0.0, 16.0,
                                  "an integer in [0, 16]", fed.edge_dcs_per_region);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = integer_in("hosts_per_dc", fed.hosts_per_dc, 1.0, 64.0,
                                  "an integer in [1, 64]", fed.hosts_per_dc);
      !r.ok()) {
    return r;
  }
  const Result<std::string> backbone = string_in(obj, path, "backbone", fed.backbone);
  if (!backbone.ok()) return backbone.error();
  if (backbone.value() != "ring" && backbone.value() != "mesh")
    return bad("federation.backbone: must be \"ring\" or \"mesh\"");
  fed.backbone = backbone.value();
  const Result<double> gbps = number_in(obj, path, "backbone_gbps", fed.backbone_gbps, 1.0e-3,
                                        1.0e4, "in (0, 1e4] Gb/s");
  if (!gbps.ok()) return gbps.error();
  fed.backbone_gbps = gbps.value();
  return {};
}

/// One grammar for both topologies: `fed` != nullptr parses with metro
/// semantics (a required region, region-scoped targets); only the
/// target check differs.
Result<ScenarioEvent> event_from_json_at(const Value& doc, const std::string& path,
                                         const FederationSpec* fed) {
  if (!doc.is_object()) return bad(path + ": must be an object");
  const Object& obj = doc.as_object();

  ScenarioEvent event;
  const Result<std::string> kind_name = string_in(obj, path, "kind", "");
  if (!kind_name.ok()) return kind_name.error();
  bool matched = false;
  for (const EventKind k : kAllKinds) {
    if (to_string(k) == kind_name.value()) {
      event.kind = k;
      matched = true;
    }
  }
  if (!matched) return bad(path_key(path, "kind") + ": unknown event kind '" + kind_name.value() + "'");

  const Result<double> at = require_number(obj, path, "at_hours", 0.0, kMaxDurationHours,
                                           "in [0, 8784] hours");
  if (!at.ok()) return at.error();
  event.at = hours_dur(at.value());

  std::set<std::string_view> allowed = {"kind", "at_hours"};
  if (fed != nullptr) {
    allowed.insert("region");
    const Result<std::string> region = region_in(obj, path, *fed, /*required=*/true);
    if (!region.ok()) return region.error();
    event.region = region.value();
  }
  if (Result<void> r = event_target_in(obj, path, fed, event, allowed); !r.ok()) {
    return r.error();
  }

  switch (event.kind) {
    case EventKind::link_down:
    case EventKind::cell_down:
    case EventKind::dc_down: {
      allowed.insert("duration_hours");
      const Result<double> d = number_in(obj, path, "duration_hours", 0.0, 0.0,
                                         kMaxDurationHours, "in [0, 8784] hours");
      if (!d.ok()) return d.error();
      event.duration = hours_dur(d.value());
      break;
    }
    case EventKind::link_flap: {
      allowed.insert("count");
      allowed.insert("period_minutes");
      allowed.insert("down_minutes");
      const Result<double> count = require_number(obj, path, "count", 1.0, 1.0e4,
                                                  "an integer in [1, 10000]");
      if (!count.ok()) return count.error();
      if (count.value() != std::floor(count.value()))
        return bad(path_key(path, "count") + ": must be an integer");
      event.flap_count = static_cast<int>(count.value());
      const Result<double> period = require_number(obj, path, "period_minutes", 1.0e-3, 1.0e6,
                                                   "> 0 minutes");
      if (!period.ok()) return period.error();
      event.flap_period = minutes_dur(period.value());
      const Result<double> down = require_number(obj, path, "down_minutes", 1.0e-3, 1.0e6,
                                                 "> 0 minutes");
      if (!down.ok()) return down.error();
      event.flap_down = minutes_dur(down.value());
      if (event.flap_down >= event.flap_period)
        return bad(path_key(path, "down_minutes") + ": must be smaller than period_minutes");
      break;
    }
    case EventKind::controller_restart: {
      allowed.insert("duration_minutes");
      const Result<double> d = require_number(obj, path, "duration_minutes", 1.0e-3, 1.0e6,
                                              "> 0 minutes");
      if (!d.ok()) return d.error();
      event.duration = minutes_dur(d.value());
      break;
    }
    case EventKind::churn_storm: {
      allowed.insert("duration_minutes");
      allowed.insert("ues_per_hour");
      allowed.insert("mean_holding_minutes");
      const Result<double> d = require_number(obj, path, "duration_minutes", 1.0e-3, 1.0e6,
                                              "> 0 minutes");
      if (!d.ok()) return d.error();
      event.duration = minutes_dur(d.value());
      const Result<double> rate = require_number(obj, path, "ues_per_hour", 1.0e-3, 1.0e6,
                                                 "in (0, 1e6] per hour");
      if (!rate.ok()) return rate.error();
      event.storm_ues_per_hour = rate.value();
      const Result<double> hold = require_number(obj, path, "mean_holding_minutes", 1.0e-3,
                                                 1.0e6, "> 0 minutes");
      if (!hold.ok()) return hold.error();
      event.storm_mean_holding = minutes_dur(hold.value());
      break;
    }
    case EventKind::link_up:
    case EventKind::cell_up:
    case EventKind::dc_up:
      break;
  }

  if (Result<void> r = check_keys(obj, path, allowed); !r.ok()) return r.error();
  return event;
}

/// `fed` != nullptr additionally accepts an optional "region" home
/// assignment (metro); on fig2 the key stays unknown and is rejected.
Result<ScenarioRequest> request_from_json_at(const Value& doc, const std::string& path,
                                             const FederationSpec* fed) {
  if (!doc.is_object()) return bad(path + ": must be an object");
  const Object& obj = doc.as_object();
  std::set<std::string_view> allowed = {
      "at_hours", "vertical", "tenant", "duration_hours", "max_latency_ms",
      "throughput_mbps", "vcpus", "memory_mb", "disk_gb", "price_per_hour",
      "penalty_per_violation", "needs_edge", "workload_seed"};
  if (fed != nullptr) allowed.insert("region");
  if (Result<void> r = check_keys(obj, path, allowed); !r.ok()) {
    return r.error();
  }

  const Result<double> at = require_number(obj, path, "at_hours", 0.0, kMaxDurationHours,
                                           "in [0, 8784] hours");
  if (!at.ok()) return at.error();
  const Result<traffic::Vertical> vertical = vertical_in(obj, path, "vertical");
  if (!vertical.ok()) return vertical.error();
  const Result<double> duration = require_number(obj, path, "duration_hours", 1.0e-6,
                                                 kMaxDurationHours, "in (0, 8784] hours");
  if (!duration.ok()) return duration.error();

  ScenarioRequest request;
  request.at = hours_dur(at.value());
  const traffic::VerticalProfile profile = traffic::profile_for(vertical.value());
  request.spec = core::SliceSpec::from_profile(profile, hours_dur(duration.value()));

  const Result<std::string> tenant = string_in(obj, path, "tenant", request.spec.tenant_name);
  if (!tenant.ok()) return tenant.error();
  request.spec.tenant_name = tenant.value();

  const Result<double> latency = number_in(obj, path, "max_latency_ms",
                                           request.spec.max_latency.as_millis(), 1.0e-3, 1.0e6,
                                           "> 0 ms");
  if (!latency.ok()) return latency.error();
  request.spec.max_latency = millis_dur(latency.value());

  const Result<double> throughput = number_in(obj, path, "throughput_mbps",
                                              request.spec.expected_throughput.as_mbps(), 0.0,
                                              1.0e5, "in [0, 1e5] Mb/s");
  if (!throughput.ok()) return throughput.error();
  request.spec.expected_throughput = DataRate::mbps(throughput.value());

  const Result<double> vcpus = number_in(obj, path, "vcpus", request.spec.edge_compute.vcpus,
                                         0.0, 1.0e4, "in [0, 1e4]");
  if (!vcpus.ok()) return vcpus.error();
  request.spec.edge_compute.vcpus = vcpus.value();
  const Result<double> memory = number_in(obj, path, "memory_mb",
                                          request.spec.edge_compute.memory_mb, 0.0, 1.0e8,
                                          "in [0, 1e8] MB");
  if (!memory.ok()) return memory.error();
  request.spec.edge_compute.memory_mb = memory.value();
  const Result<double> disk = number_in(obj, path, "disk_gb", request.spec.edge_compute.disk_gb,
                                        0.0, 1.0e6, "in [0, 1e6] GB");
  if (!disk.ok()) return disk.error();
  request.spec.edge_compute.disk_gb = disk.value();

  const Result<double> price = number_in(obj, path, "price_per_hour",
                                         request.spec.price_per_hour.as_units(), 0.0, 1.0e9,
                                         "in [0, 1e9]");
  if (!price.ok()) return price.error();
  request.spec.price_per_hour = Money::units(price.value());
  const Result<double> penalty = number_in(obj, path, "penalty_per_violation",
                                           request.spec.penalty_per_violation.as_units(), 0.0,
                                           1.0e9, "in [0, 1e9]");
  if (!penalty.ok()) return penalty.error();
  request.spec.penalty_per_violation = Money::units(penalty.value());

  const Result<bool> needs_edge = bool_in(obj, path, "needs_edge", request.spec.needs_edge);
  if (!needs_edge.ok()) return needs_edge.error();
  request.spec.needs_edge = needs_edge.value();

  const Result<std::uint64_t> seed = u64_in(obj, path, "workload_seed", 0);
  if (!seed.ok()) return seed.error();
  request.workload_seed = seed.value();

  if (fed != nullptr) {
    const Result<std::string> region = region_in(obj, path, *fed, /*required=*/false);
    if (!region.ok()) return region.error();
    request.region = region.value();
  }
  return request;
}

mobility::StormKind kAllStormKinds[] = {mobility::StormKind::stadium_ingress,
                                        mobility::StormKind::stadium_egress,
                                        mobility::StormKind::commuter_wave};

/// The "mobility" block. `metro` selects the storm-cell grammar
/// ("c<k>" vs fig2's "a"/"b") and whether region filters are accepted.
Result<void> parse_mobility(const Object& obj, const Scenario& scenario, bool metro,
                            MobilitySpec& mobility) {
  const std::string path = "mobility";
  if (Result<void> r = check_keys(obj, path,
                                  {"enabled", "cell_spacing_m", "default_speed_mps",
                                   "ues_per_slice", "cqi_min", "cqi_max", "speed_classes",
                                   "storms"});
      !r.ok()) {
    return r.error();
  }

  // The block's presence opts in; "enabled": false keeps a block
  // authored for later without activating it.
  const Result<bool> enabled = bool_in(obj, path, "enabled", true);
  if (!enabled.ok()) return enabled.error();
  mobility.enabled = enabled.value();

  const Result<double> spacing = number_in(obj, path, "cell_spacing_m",
                                           mobility.cell_spacing_m, 10.0, 1.0e4,
                                           "in [10, 1e4] metres");
  if (!spacing.ok()) return spacing.error();
  mobility.cell_spacing_m = spacing.value();

  const Result<double> speed = number_in(obj, path, "default_speed_mps",
                                         mobility.default_speed_mps, 1.0e-3, 1.0e3,
                                         "in (0, 1e3] m/s");
  if (!speed.ok()) return speed.error();
  mobility.default_speed_mps = speed.value();

  const Result<double> ues = number_in(obj, path, "ues_per_slice",
                                       static_cast<double>(mobility.ues_per_slice), 0.0, 1.0e5,
                                       "an integer in [0, 1e5]");
  if (!ues.ok()) return ues.error();
  if (ues.value() != std::floor(ues.value()))
    return bad("mobility.ues_per_slice: must be an integer");
  mobility.ues_per_slice = static_cast<std::size_t>(ues.value());

  const auto cqi_in = [&](std::string_view key, int fallback, int& out) -> Result<void> {
    const Result<double> v = number_in(obj, path, key, static_cast<double>(fallback), 1.0, 15.0,
                                       "an integer in [1, 15]");
    if (!v.ok()) return v.error();
    if (v.value() != std::floor(v.value()))
      return bad(path_key(path, key) + ": must be an integer");
    out = static_cast<int>(v.value());
    return {};
  };
  if (Result<void> r = cqi_in("cqi_min", mobility.cqi_min, mobility.cqi_min); !r.ok()) return r;
  if (Result<void> r = cqi_in("cqi_max", mobility.cqi_max, mobility.cqi_max); !r.ok()) return r;
  if (mobility.cqi_max < mobility.cqi_min)
    return bad("mobility.cqi_max: must be >= cqi_min");

  if (const auto it = obj.find("speed_classes"); it != obj.end()) {
    if (!it->second.is_object()) return bad("mobility.speed_classes: must be an object");
    const Object& classes = it->second.as_object();
    // Canonical order: all_verticals(), so serialize -> parse is stable
    // regardless of authoring order.
    std::size_t matched = 0;
    for (const traffic::Vertical v : traffic::all_verticals()) {
      const auto entry = classes.find(std::string(traffic::to_string(v)));
      if (entry == classes.end()) continue;
      ++matched;
      const std::string entry_path = "mobility.speed_classes." +
                                     std::string(traffic::to_string(v));
      if (!entry->second.is_number() || !std::isfinite(entry->second.as_number()) ||
          entry->second.as_number() <= 0.0 || entry->second.as_number() > 1.0e3) {
        return bad(entry_path + ": must be in (0, 1e3] m/s");
      }
      mobility.speed_classes.emplace_back(v, entry->second.as_number());
    }
    if (matched != classes.size()) {
      for (const auto& [key, unused] : classes) {
        bool known = false;
        for (const traffic::Vertical v : traffic::all_verticals()) {
          if (traffic::to_string(v) == key) known = true;
        }
        if (!known)
          return bad("mobility.speed_classes." + key + ": unknown vertical");
      }
    }
  }

  if (const auto it = obj.find("storms"); it != obj.end()) {
    if (!it->second.is_array()) return bad("mobility.storms: must be an array");
    std::size_t index = 0;
    for (const Value& entry : it->second.as_array()) {
      const std::string storm_path = "mobility.storms[" + std::to_string(index++) + "]";
      if (!entry.is_object()) return bad(storm_path + ": must be an object");
      const Object& storm_obj = entry.as_object();

      MobilityStorm storm;
      const Result<std::string> kind_name = string_in(storm_obj, storm_path, "kind", "");
      if (!kind_name.ok()) return kind_name.error();
      bool matched_kind = false;
      for (const mobility::StormKind k : kAllStormKinds) {
        if (mobility::to_string(k) == kind_name.value()) {
          storm.kind = k;
          matched_kind = true;
        }
      }
      if (!matched_kind)
        return bad(path_key(storm_path, "kind") + ": unknown storm kind '" +
                   kind_name.value() + "'");

      std::set<std::string_view> allowed = {"kind", "at_hours", "duration_minutes",
                                            "fraction"};
      const bool stadium = storm.kind != mobility::StormKind::commuter_wave;
      if (stadium) allowed.insert("cell");
      if (metro) allowed.insert("region");
      if (Result<void> r = check_keys(storm_obj, storm_path, allowed); !r.ok())
        return r.error();

      const Result<double> at = require_number(storm_obj, storm_path, "at_hours", 0.0,
                                               kMaxDurationHours, "in [0, 8784] hours");
      if (!at.ok()) return at.error();
      storm.at = hours_dur(at.value());
      if (storm.at > scenario.duration)
        return bad(storm_path + ".at_hours: past the scenario duration");

      const Result<double> dur = require_number(storm_obj, storm_path, "duration_minutes",
                                                1.0e-3, 1.0e6, "> 0 minutes");
      if (!dur.ok()) return dur.error();
      storm.duration = minutes_dur(dur.value());

      const Result<double> fraction = number_in(storm_obj, storm_path, "fraction",
                                                storm.fraction, 1.0e-6, 1.0, "in (0, 1]");
      if (!fraction.ok()) return fraction.error();
      storm.fraction = fraction.value();

      if (stadium) {
        const Result<std::string> cell = string_in(storm_obj, storm_path, "cell", "");
        if (!cell.ok()) return cell.error();
        if (!cell.value().empty()) {  // empty: the region's first cell
          const Result<std::string> named =
              cell_in(storm_obj, storm_path, metro ? &scenario.federation : nullptr);
          if (!named.ok()) return named.error();
          storm.cell = named.value();
        }
      }

      if (metro) {
        const Result<std::string> region =
            region_in(storm_obj, storm_path, scenario.federation, /*required=*/false);
        if (!region.ok()) return region.error();
        storm.region = region.value();
      }
      mobility.storms.push_back(std::move(storm));
    }
  }
  return {};
}

Result<void> parse_workload(const Object& obj, core::RequestGeneratorConfig& workload) {
  const std::string path = "workload";
  if (Result<void> r = check_keys(obj, path,
                                  {"arrivals_per_hour", "diurnal_depth", "diurnal_period_hours",
                                   "min_duration_hours", "max_duration_hours",
                                   "price_dispersion", "verticals"});
      !r.ok()) {
    return r.error();
  }

  const Result<double> rate = number_in(obj, path, "arrivals_per_hour",
                                        workload.arrivals_per_hour, 0.0, kMaxArrivalRate,
                                        "in [0, 1e5] per hour");
  if (!rate.ok()) return rate.error();
  workload.arrivals_per_hour = rate.value();

  const Result<double> depth = number_in(obj, path, "diurnal_depth", workload.diurnal_depth,
                                         0.0, 0.999, "in [0, 1)");
  if (!depth.ok()) return depth.error();
  workload.diurnal_depth = depth.value();

  const Result<double> period = number_in(obj, path, "diurnal_period_hours",
                                          workload.diurnal_period.as_hours(), 1.0e-3, 1.0e4,
                                          "in (0, 1e4] hours");
  if (!period.ok()) return period.error();
  workload.diurnal_period = hours_dur(period.value());

  const Result<double> min_d = number_in(obj, path, "min_duration_hours",
                                         workload.min_duration.as_hours(), 1.0e-6, 1.0e4,
                                         "in (0, 1e4] hours");
  if (!min_d.ok()) return min_d.error();
  workload.min_duration = hours_dur(min_d.value());
  const Result<double> max_d = number_in(obj, path, "max_duration_hours",
                                         workload.max_duration.as_hours(), 1.0e-6, 1.0e4,
                                         "in (0, 1e4] hours");
  if (!max_d.ok()) return max_d.error();
  workload.max_duration = hours_dur(max_d.value());
  if (workload.max_duration < workload.min_duration)
    return bad("workload.max_duration_hours: must be >= min_duration_hours");

  const Result<double> dispersion = number_in(obj, path, "price_dispersion",
                                              workload.price_dispersion, 0.0, 0.999,
                                              "in [0, 1)");
  if (!dispersion.ok()) return dispersion.error();
  workload.price_dispersion = dispersion.value();

  if (const Value* verticals = obj.contains("verticals") ? &obj.at("verticals") : nullptr;
      verticals != nullptr) {
    if (!verticals->is_array()) return bad("workload.verticals: must be an array");
    workload.verticals.clear();
    std::size_t index = 0;
    for (const Value& entry : verticals->as_array()) {
      const std::string entry_path = "workload.verticals[" + std::to_string(index++) + "]";
      if (!entry.is_string()) return bad(entry_path + ": must be a string");
      Object probe;
      probe.emplace("vertical", entry);
      const Result<traffic::Vertical> v = vertical_in(probe, entry_path, "vertical");
      if (!v.ok()) return bad(entry_path + ": unknown vertical '" + entry.as_string() + "'");
      workload.verticals.push_back(v.value());
    }
  }
  return {};
}

Result<void> parse_targets(const Object& obj, ScenarioTargets& targets) {
  const std::string path = "targets";
  if (Result<void> r = check_keys(obj, path,
                                  {"min_admission_rate", "max_violation_rate",
                                   "min_net_revenue", "min_multiplexing_gain"});
      !r.ok()) {
    return r.error();
  }
  const auto optional_number = [&](std::string_view key, double lo, double hi,
                                   const char* domain,
                                   std::optional<double>& out) -> Result<void> {
    if (!obj.contains(key)) return {};
    const Result<double> v = number_in(obj, path, key, 0.0, lo, hi, domain);
    if (!v.ok()) return v.error();
    out = v.value();
    return {};
  };
  if (Result<void> r = optional_number("min_admission_rate", 0.0, 1.0, "in [0, 1]",
                                       targets.min_admission_rate);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = optional_number("max_violation_rate", 0.0, 1.0, "in [0, 1]",
                                       targets.max_violation_rate);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = optional_number("min_net_revenue", -1.0e12, 1.0e12,
                                       "in [-1e12, 1e12]", targets.min_net_revenue);
      !r.ok()) {
    return r;
  }
  if (Result<void> r = optional_number("min_multiplexing_gain", 0.0, 1.0e3, "in [0, 1e3]",
                                       targets.min_multiplexing_gain);
      !r.ok()) {
    return r;
  }
  return {};
}

json::Value orchestrator_config_to_json(const core::OrchestratorConfig& config) {
  Object overbooking;
  overbooking.emplace("enabled", config.overbooking.enabled);
  overbooking.emplace("risk_quantile", config.overbooking.risk_quantile);
  overbooking.emplace("horizon", static_cast<double>(config.overbooking.horizon));
  overbooking.emplace("floor_fraction", config.overbooking.floor_fraction);
  overbooking.emplace("headroom", config.overbooking.headroom);
  overbooking.emplace("warmup_observations",
                      static_cast<double>(config.overbooking.warmup_observations));
  overbooking.emplace("season_length", static_cast<double>(config.overbooking.season_length));
  overbooking.emplace("estimator", std::string(core::to_string(config.overbooking.estimator)));

  Object out;
  out.emplace("monitoring_period_minutes", config.monitoring_period.as_seconds() / 60.0);
  out.emplace("admission_policy", config.admission_policy);
  out.emplace("admission_window_hours", config.admission_window.as_hours());
  out.emplace("admission_patience_hours", config.admission_patience.as_hours());
  out.emplace("sla_tolerance", config.sla_tolerance);
  out.emplace("reconfigure_threshold", config.reconfigure_threshold);
  out.emplace("edge_breakout_fraction", config.edge_breakout_fraction);
  out.emplace("overbooking", std::move(overbooking));
  return Value(std::move(out));
}

std::string line_col(std::string_view text, std::size_t offset) {
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return "line " + std::to_string(line) + ", column " + std::to_string(column);
}

}  // namespace

std::string_view to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::link_down: return "link_down";
    case EventKind::link_up: return "link_up";
    case EventKind::link_flap: return "link_flap";
    case EventKind::cell_down: return "cell_down";
    case EventKind::cell_up: return "cell_up";
    case EventKind::dc_down: return "dc_down";
    case EventKind::dc_up: return "dc_up";
    case EventKind::controller_restart: return "controller_restart";
    case EventKind::churn_storm: return "churn_storm";
  }
  return "?";
}

Result<ScenarioEvent> event_from_json(const json::Value& doc) {
  return event_from_json_at(doc, "event", nullptr);
}

Result<ScenarioRequest> request_from_json(const json::Value& doc) {
  return request_from_json_at(doc, "request", nullptr);
}

Result<ScenarioEvent> event_from_json(const json::Value& doc, const FederationSpec* fed) {
  return event_from_json_at(doc, "event", fed);
}

Result<ScenarioRequest> request_from_json(const json::Value& doc, const FederationSpec* fed) {
  return request_from_json_at(doc, "request", fed);
}

json::Value event_to_json(const ScenarioEvent& event) {
  Object out;
  out.emplace("kind", std::string(to_string(event.kind)));
  out.emplace("at_hours", event.at.as_hours());
  // Only metro events carry a region; fig2 documents keep their exact
  // pre-federation byte layout.
  if (!event.region.empty()) out.emplace("region", event.region);
  switch (event.kind) {
    case EventKind::link_down:
      out.emplace("link", event.target);
      out.emplace("duration_hours", event.duration.as_hours());
      break;
    case EventKind::link_up:
      out.emplace("link", event.target);
      break;
    case EventKind::link_flap:
      out.emplace("link", event.target);
      out.emplace("count", static_cast<double>(event.flap_count));
      out.emplace("period_minutes", event.flap_period.as_seconds() / 60.0);
      out.emplace("down_minutes", event.flap_down.as_seconds() / 60.0);
      break;
    case EventKind::cell_down:
      out.emplace("cell", event.target);
      out.emplace("duration_hours", event.duration.as_hours());
      break;
    case EventKind::cell_up:
      out.emplace("cell", event.target);
      break;
    case EventKind::dc_down:
      out.emplace("dc", event.target);
      out.emplace("duration_hours", event.duration.as_hours());
      break;
    case EventKind::dc_up:
      out.emplace("dc", event.target);
      break;
    case EventKind::controller_restart:
      out.emplace("duration_minutes", event.duration.as_seconds() / 60.0);
      break;
    case EventKind::churn_storm:
      out.emplace("duration_minutes", event.duration.as_seconds() / 60.0);
      out.emplace("ues_per_hour", event.storm_ues_per_hour);
      out.emplace("mean_holding_minutes", event.storm_mean_holding.as_seconds() / 60.0);
      break;
  }
  return Value(std::move(out));
}

json::Value request_to_json(const ScenarioRequest& request) {
  Object out;
  out.emplace("at_hours", request.at.as_hours());
  out.emplace("vertical", std::string(traffic::to_string(request.spec.vertical)));
  out.emplace("tenant", request.spec.tenant_name);
  out.emplace("duration_hours", request.spec.duration.as_hours());
  out.emplace("max_latency_ms", request.spec.max_latency.as_millis());
  out.emplace("throughput_mbps", request.spec.expected_throughput.as_mbps());
  out.emplace("vcpus", request.spec.edge_compute.vcpus);
  out.emplace("memory_mb", request.spec.edge_compute.memory_mb);
  out.emplace("disk_gb", request.spec.edge_compute.disk_gb);
  out.emplace("price_per_hour", request.spec.price_per_hour.as_units());
  out.emplace("penalty_per_violation", request.spec.penalty_per_violation.as_units());
  out.emplace("needs_edge", request.spec.needs_edge);
  out.emplace("workload_seed", Value(std::to_string(request.workload_seed)));
  if (!request.region.empty()) out.emplace("region", request.region);
  return Value(std::move(out));
}

Result<Scenario> scenario_from_json(const json::Value& doc) {
  if (!doc.is_object()) return bad("scenario must be an object");
  const Object& root = doc.as_object();
  if (Result<void> r = check_keys(root, "",
                                  {"name", "description", "seed", "duration_hours", "topology",
                                   "federation", "mobility", "orchestrator", "workload",
                                   "generate_arrivals", "phases", "events", "requests",
                                   "targets"});
      !r.ok()) {
    return r.error();
  }

  Scenario scenario;
  const Result<std::string> name = string_in(root, "", "name", "");
  if (!name.ok()) return name.error();
  if (name.value().empty()) return bad("name: required (non-empty string)");
  scenario.name = name.value();

  const Result<std::string> description = string_in(root, "", "description", "");
  if (!description.ok()) return description.error();
  scenario.description = description.value();

  const Result<std::uint64_t> seed = u64_in(root, "", "seed", scenario.seed);
  if (!seed.ok()) return seed.error();
  scenario.seed = seed.value();

  const Result<double> duration = number_in(root, "", "duration_hours",
                                            scenario.duration.as_hours(), 1.0e-3,
                                            kMaxDurationHours, "in (0, 8784] hours");
  if (!duration.ok()) return duration.error();
  scenario.duration = hours_dur(duration.value());

  const Result<std::string> topology = string_in(root, "", "topology", scenario.topology);
  if (!topology.ok()) return topology.error();
  if (topology.value() != "fig2" && topology.value() != "metro")
    return bad("topology: unknown preset '" + topology.value() +
               "' (\"fig2\" or \"metro\")");
  scenario.topology = topology.value();
  const bool metro = scenario.topology == "metro";

  if (const Value* fed = root.contains("federation") ? &root.at("federation") : nullptr;
      fed != nullptr) {
    if (!metro) return bad("federation: only valid with topology \"metro\"");
    if (!fed->is_object()) return bad("federation: must be an object");
    if (Result<void> r = parse_federation(fed->as_object(), scenario.federation); !r.ok())
      return r.error();
  }

  if (const Value* mob = root.contains("mobility") ? &root.at("mobility") : nullptr;
      mob != nullptr) {
    if (!mob->is_object()) return bad("mobility: must be an object");
    if (Result<void> r = parse_mobility(mob->as_object(), scenario, metro, scenario.mobility);
        !r.ok()) {
      return r.error();
    }
  }

  if (const Value* orch = root.contains("orchestrator") ? &root.at("orchestrator") : nullptr;
      orch != nullptr) {
    if (!orch->is_object()) return bad("orchestrator: must be an object");
    Result<core::OrchestratorConfig> config = core::config_from_json(json::serialize(*orch));
    if (!config.ok())
      return bad("orchestrator: " + std::string(config.error().message));
    scenario.orchestrator = config.value();
  }

  if (const Value* workload = root.contains("workload") ? &root.at("workload") : nullptr;
      workload != nullptr) {
    if (!workload->is_object()) return bad("workload: must be an object");
    if (Result<void> r = parse_workload(workload->as_object(), scenario.workload); !r.ok())
      return r.error();
  }

  const Result<bool> generate = bool_in(root, "", "generate_arrivals", true);
  if (!generate.ok()) return generate.error();
  scenario.generate_arrivals = generate.value();

  if (const Value* phases = root.contains("phases") ? &root.at("phases") : nullptr;
      phases != nullptr) {
    if (!phases->is_array()) return bad("phases: must be an array");
    std::size_t index = 0;
    for (const Value& entry : phases->as_array()) {
      const std::string path = "phases[" + std::to_string(index) + "]";
      if (!entry.is_object()) return bad(path + ": must be an object");
      const Object& obj = entry.as_object();
      if (Result<void> r = check_keys(obj, path,
                                      {"name", "start_hours", "end_hours", "arrivals_per_hour",
                                       "demand_scale"});
          !r.ok()) {
        return r.error();
      }
      Phase phase;
      const Result<std::string> phase_name = string_in(obj, path, "name",
                                                       "phase-" + std::to_string(index));
      if (!phase_name.ok()) return phase_name.error();
      phase.name = phase_name.value();
      const Result<double> start = require_number(obj, path, "start_hours", 0.0,
                                                  kMaxDurationHours, "in [0, 8784] hours");
      if (!start.ok()) return start.error();
      phase.start = hours_dur(start.value());
      const Result<double> end = require_number(obj, path, "end_hours", 0.0, kMaxDurationHours,
                                                "in [0, 8784] hours");
      if (!end.ok()) return end.error();
      phase.end = hours_dur(end.value());
      if (phase.end <= phase.start)
        return bad(path + ".end_hours: must be after start_hours");
      if (phase.end > scenario.duration)
        return bad(path + ".end_hours: extends past the scenario duration");
      const Result<double> rate = number_in(obj, path, "arrivals_per_hour", -1.0, 0.0,
                                            kMaxArrivalRate, "in [0, 1e5] per hour");
      if (!rate.ok()) return rate.error();
      phase.arrivals_per_hour = rate.value();
      const Result<double> scale = number_in(obj, path, "demand_scale", 1.0, 1.0e-3,
                                             kMaxDemandScale, "in (0, 1e3]");
      if (!scale.ok()) return scale.error();
      phase.demand_scale = scale.value();
      if (!scenario.phases.empty() && phase.start < scenario.phases.back().end)
        return bad(path + ": overlaps phases[" + std::to_string(index - 1) +
                   "] (phases must be sorted and disjoint)");
      scenario.phases.push_back(std::move(phase));
      ++index;
    }
  }

  if (const Value* events = root.contains("events") ? &root.at("events") : nullptr;
      events != nullptr) {
    if (!events->is_array()) return bad("events: must be an array");
    std::size_t index = 0;
    for (const Value& entry : events->as_array()) {
      const std::string path = "events[" + std::to_string(index++) + "]";
      Result<ScenarioEvent> event =
          event_from_json_at(entry, path, metro ? &scenario.federation : nullptr);
      if (!event.ok()) return event.error();
      if (event.value().at > scenario.duration)
        return bad(path + ".at_hours: past the scenario duration");
      scenario.events.push_back(std::move(event.value()));
    }
  }

  if (const Value* requests = root.contains("requests") ? &root.at("requests") : nullptr;
      requests != nullptr) {
    if (!requests->is_array()) return bad("requests: must be an array");
    std::size_t index = 0;
    for (const Value& entry : requests->as_array()) {
      const std::string path = "requests[" + std::to_string(index++) + "]";
      Result<ScenarioRequest> request =
          request_from_json_at(entry, path, metro ? &scenario.federation : nullptr);
      if (!request.ok()) return request.error();
      if (request.value().at > scenario.duration)
        return bad(path + ".at_hours: past the scenario duration");
      scenario.requests.push_back(std::move(request.value()));
    }
  }

  if (const Value* targets = root.contains("targets") ? &root.at("targets") : nullptr;
      targets != nullptr) {
    if (!targets->is_object()) return bad("targets: must be an object");
    if (Result<void> r = parse_targets(targets->as_object(), scenario.targets); !r.ok())
      return r.error();
  }

  return scenario;
}

Result<Scenario> parse_scenario(std::string_view text) {
  std::size_t offset = 0;
  json::ParseOptions options;
  options.reject_duplicate_keys = true;
  options.error_offset = &offset;
  Result<json::Value> doc = json::parse(text, options);
  if (!doc.ok()) {
    return make_error(doc.error().code, line_col(text, offset) + ": " +
                                            std::string(doc.error().message));
  }
  return scenario_from_json(doc.value());
}

json::Value scenario_to_json(const Scenario& scenario) {
  Object workload;
  workload.emplace("arrivals_per_hour", scenario.workload.arrivals_per_hour);
  workload.emplace("diurnal_depth", scenario.workload.diurnal_depth);
  workload.emplace("diurnal_period_hours", scenario.workload.diurnal_period.as_hours());
  workload.emplace("min_duration_hours", scenario.workload.min_duration.as_hours());
  workload.emplace("max_duration_hours", scenario.workload.max_duration.as_hours());
  workload.emplace("price_dispersion", scenario.workload.price_dispersion);
  json::Array verticals;
  for (const traffic::Vertical v : scenario.workload.verticals) {
    verticals.push_back(Value(std::string(traffic::to_string(v))));
  }
  workload.emplace("verticals", std::move(verticals));

  json::Array phases;
  for (const Phase& phase : scenario.phases) {
    Object entry;
    entry.emplace("name", phase.name);
    entry.emplace("start_hours", phase.start.as_hours());
    entry.emplace("end_hours", phase.end.as_hours());
    if (phase.arrivals_per_hour >= 0.0)
      entry.emplace("arrivals_per_hour", phase.arrivals_per_hour);
    entry.emplace("demand_scale", phase.demand_scale);
    phases.push_back(Value(std::move(entry)));
  }

  json::Array events;
  for (const ScenarioEvent& event : scenario.events) events.push_back(event_to_json(event));
  json::Array requests;
  for (const ScenarioRequest& request : scenario.requests)
    requests.push_back(request_to_json(request));

  Object targets;
  if (scenario.targets.min_admission_rate)
    targets.emplace("min_admission_rate", *scenario.targets.min_admission_rate);
  if (scenario.targets.max_violation_rate)
    targets.emplace("max_violation_rate", *scenario.targets.max_violation_rate);
  if (scenario.targets.min_net_revenue)
    targets.emplace("min_net_revenue", *scenario.targets.min_net_revenue);
  if (scenario.targets.min_multiplexing_gain)
    targets.emplace("min_multiplexing_gain", *scenario.targets.min_multiplexing_gain);

  Object out;
  out.emplace("name", scenario.name);
  out.emplace("description", scenario.description);
  out.emplace("seed", u64_to_json(scenario.seed));
  out.emplace("duration_hours", scenario.duration.as_hours());
  out.emplace("topology", scenario.topology);
  if (scenario.topology == "metro") {
    Object fed;
    fed.emplace("regions", static_cast<double>(scenario.federation.regions));
    fed.emplace("cells_per_region", static_cast<double>(scenario.federation.cells_per_region));
    fed.emplace("edge_dcs_per_region",
                static_cast<double>(scenario.federation.edge_dcs_per_region));
    fed.emplace("hosts_per_dc", static_cast<double>(scenario.federation.hosts_per_dc));
    fed.emplace("backbone", scenario.federation.backbone);
    fed.emplace("backbone_gbps", scenario.federation.backbone_gbps);
    out.emplace("federation", std::move(fed));
  }
  if (scenario.mobility.enabled) {
    // Documents without moving UEs keep their exact pre-mobility byte
    // layout: the block is only emitted when enabled.
    Object mob;
    mob.emplace("enabled", true);
    mob.emplace("cell_spacing_m", scenario.mobility.cell_spacing_m);
    mob.emplace("default_speed_mps", scenario.mobility.default_speed_mps);
    mob.emplace("ues_per_slice", static_cast<double>(scenario.mobility.ues_per_slice));
    mob.emplace("cqi_min", static_cast<double>(scenario.mobility.cqi_min));
    mob.emplace("cqi_max", static_cast<double>(scenario.mobility.cqi_max));
    Object classes;
    for (const auto& [vertical, mps] : scenario.mobility.speed_classes) {
      classes.emplace(std::string(traffic::to_string(vertical)), mps);
    }
    mob.emplace("speed_classes", std::move(classes));
    json::Array storms;
    for (const MobilityStorm& storm : scenario.mobility.storms) {
      Object entry;
      entry.emplace("kind", std::string(mobility::to_string(storm.kind)));
      entry.emplace("at_hours", storm.at.as_hours());
      entry.emplace("duration_minutes", storm.duration.as_seconds() / 60.0);
      entry.emplace("fraction", storm.fraction);
      if (!storm.cell.empty()) entry.emplace("cell", storm.cell);
      if (!storm.region.empty()) entry.emplace("region", storm.region);
      storms.push_back(Value(std::move(entry)));
    }
    mob.emplace("storms", std::move(storms));
    out.emplace("mobility", std::move(mob));
  }
  out.emplace("orchestrator", orchestrator_config_to_json(scenario.orchestrator));
  out.emplace("workload", std::move(workload));
  out.emplace("generate_arrivals", scenario.generate_arrivals);
  out.emplace("phases", std::move(phases));
  out.emplace("events", std::move(events));
  out.emplace("requests", std::move(requests));
  out.emplace("targets", std::move(targets));
  return Value(std::move(out));
}

std::string serialize_scenario(const Scenario& scenario) {
  return json::serialize_pretty(scenario_to_json(scenario)) + "\n";
}

Result<Scenario> load_scenario_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error(Errc::unavailable, "cannot open scenario file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return make_error(Errc::unavailable, "failed reading '" + path + "'");
  Result<Scenario> scenario = parse_scenario(buffer.str());
  if (!scenario.ok())
    return make_error(scenario.error().code,
                      path + ": " + std::string(scenario.error().message));
  return scenario;
}

}  // namespace slices::scenario
