#include "scenario/scenario.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/admission.hpp"
#include "traffic/verticals.hpp"

namespace slices::scenario {
namespace {

using json::Object;
using json::Value;

// Each block of a scenario document is one field list: a function
// template `<block>_fields(v, value)` that names every key once, with
// its unit and domain. The same list runs with a Reader (parse and
// per-field checks) and a Writer (canonical form), so the accepted keys,
// the unknown-key check and the serializer cannot drift apart. Checks
// that span fields are `v.check(...)` lines in the list; the Writer
// skips them.

/// Inclusive bounds on an authored number, and the text an error quotes.
struct Domain {
  double lo;
  double hi;
  const char* text;
};

/// How a key may appear.
enum class Need {
  optional,    ///< absent keeps the current value; always written
  required,    ///< absent is an error
  sparse,      ///< optional, and written only while set
  metro_only,  ///< refused on fig2; a name is written while set, a block never
};

/// Authored unit of a Duration field.
enum class Unit { hours, minutes, ms };

/// Names of a topology element: a fixed set and/or "<prefix><index>"
/// with index < limit, canonicalized ("c07" reads as "c7").
struct NameRule {
  std::span<const std::string_view> fixed = {};
  std::string_view prefix = {};
  std::size_t limit = 0;
};

// Sanity bounds: generous enough for any plausible experiment, tight
// enough that a mistyped exponent fails loudly instead of hanging the
// simulator in a billion-arrival loop or overflowing an integer cast.
constexpr Domain kTimeline{0.0, 8784.0, "in [0, 8784] hours"};  // one leap year
constexpr Domain kMinutes{1.0e-3, 1.0e6, "> 0 minutes"};
constexpr Domain kRate{0.0, 1.0e5, "in [0, 1e5] per hour"};
constexpr Domain kHolding{1.0e-6, 1.0e4, "in (0, 1e4] hours"};
constexpr Domain kFraction{0.0, 1.0, "in [0, 1]"};
constexpr Domain kBelowOne{0.0, 1.0 - std::numeric_limits<double>::epsilon() / 2, "in [0, 1)"};
constexpr Domain kMoney{0.0, 1.0e9, "in [0, 1e9]"};
constexpr Domain kCqi{1.0, 15.0, "an integer in [1, 15]"};

constexpr std::string_view kTopologies[] = {"fig2", "metro"};
constexpr std::string_view kBackbones[] = {"ring", "mesh"};
constexpr std::string_view kLinks[] = {"mmwave", "uwave"};
constexpr std::string_view kFig2Cells[] = {"a", "b"};
constexpr std::string_view kFig2Dcs[] = {"edge", "core"};
constexpr std::string_view kCoreDc[] = {"core"};
constexpr EventKind kEventKinds[] = {
    EventKind::link_down, EventKind::link_up, EventKind::link_flap,
    EventKind::cell_down, EventKind::cell_up, EventKind::dc_down,
    EventKind::dc_up,     EventKind::controller_restart, EventKind::churn_storm};
constexpr mobility::StormKind kStormKinds[] = {mobility::StormKind::stadium_ingress,
                                               mobility::StormKind::stadium_egress,
                                               mobility::StormKind::commuter_wave};
constexpr core::EstimatorKind kEstimators[] = {
    core::EstimatorKind::adaptive, core::EstimatorKind::naive, core::EstimatorKind::ewma,
    core::EstimatorKind::holt_winters};

const std::vector<traffic::Vertical>& verticals() {
  static const std::vector<traffic::Vertical> all = traffic::all_verticals();
  return all;
}

NameRule cell_rule(const FederationSpec* fed) {
  return fed == nullptr ? NameRule{kFig2Cells} : NameRule{{}, "c", fed->cells_per_region};
}
NameRule dc_rule(const FederationSpec* fed) {
  return fed == nullptr ? NameRule{kFig2Dcs} : NameRule{kCoreDc, "edge", fed->edge_dcs_per_region};
}
NameRule region_rule(const FederationSpec* fed) {
  return NameRule{{}, "r", fed == nullptr ? 0 : fed->regions};
}

std::string_view name_of(std::string_view name) { return name; }
template <class E>
  requires std::is_enum_v<E>
std::string_view name_of(E value) {
  return to_string(value);
}

template <class Options>
std::string unknown_name(std::string_view name, const Options& options,
                         std::string_view prefix = {}) {
  std::string alternatives;
  const auto add = [&](std::string_view option, std::string_view suffix) {
    if (!alternatives.empty()) alternatives += " or ";
    alternatives.append("\"").append(option).append(suffix).append("\"");
  };
  for (const auto& option : options) add(name_of(option), "");
  if (!prefix.empty()) add(prefix, "<index>");
  return "unknown name '" + std::string(name) + "' (expected " + alternatives + ")";
}

/// The option named `name`, or nullptr.
template <class Options>
auto find_option(const Options& options, std::string_view name) {
  const auto it = std::find_if(std::begin(options), std::end(options),
                               [&](const auto& option) { return name_of(option) == name; });
  return it == std::end(options) ? nullptr : &*it;
}

/// Whether a sparse value carries anything worth writing.
bool is_set(const std::string& value) { return !value.empty(); }
bool is_set(const MobilitySpec& value) { return value.enabled; }
template <class T>
bool is_set(const T&) {
  return true;
}

std::string indexed(std::string_view key, std::size_t index) {
  return std::string(key) + "[" + std::to_string(index) + "]";
}

/// Reads one JSON object against a field list. The first error sticks
/// and later fields are skipped; the "<path>.<key>" message is built only
/// on the error path, from the chain of parent readers.
class Reader {
 public:
  static constexpr bool reads = true;
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  Reader(const Object& obj, const Reader* parent, std::string_view key,
         std::size_t index = kNoIndex)
      : obj_(obj), parent_(parent), key_(key), index_(index) {}

  [[nodiscard]] bool ok() const noexcept { return !error_; }

  void plain(std::string_view key, double& out, Domain domain, Need need = Need::optional) {
    if (const std::optional<double> v = number(key, domain, need)) out = *v;
  }
  void plain(std::string_view key, std::optional<double>& out, Domain domain,
             Need need = Need::optional) {
    if (const std::optional<double> v = number(key, domain, need)) out = *v;
  }
  void plain(std::string_view key, DataRate& out, Domain domain, Need need = Need::optional) {
    if (const std::optional<double> v = number(key, domain, need)) out = DataRate::mbps(*v);
  }
  void plain(std::string_view key, Money& out, Domain domain, Need need = Need::optional) {
    if (const std::optional<double> v = number(key, domain, need)) out = Money::units(*v);
  }

  /// llround, not truncation: serialize -> parse must recover the exact
  /// microsecond count for the canonical round trip and for replay.
  void duration(std::string_view key, Duration& out, Unit unit, Domain domain,
                Need need = Need::optional) {
    static constexpr double kMicrosPer[] = {3.6e9, 6.0e7, 1.0e3};
    if (const std::optional<double> v = number(key, domain, need))
      out = Duration::micros(std::llround(*v * kMicrosPer[static_cast<int>(unit)]));
  }

  template <class Int>
  void integer(std::string_view key, Int& out, Domain domain, Need need = Need::optional) {
    const std::optional<double> v = number(key, domain, need);
    if (!v) return;
    if (*v != std::floor(*v)) return fail(key, "must be an integer");
    out = static_cast<Int>(*v);
  }

  void flag(std::string_view key, bool& out) {
    const Value* v = take(key, Need::optional);
    if (v == nullptr) return;
    if (!v->is_bool()) return fail(key, "must be a boolean");
    out = v->as_bool();
  }

  void text(std::string_view key, std::string& out, Need need = Need::optional) {
    const std::string* s = string_at(key, need);
    if (s == nullptr) return;
    if (s->empty() && need == Need::required) return fail(key, "required (non-empty string)");
    out = *s;
  }

  /// A non-negative integer number (exact up to 2^53) or a decimal
  /// string (the full 64-bit range: seeds are raw RNG words).
  void u64(std::string_view key, std::uint64_t& out, bool /*as_string*/ = false) {
    const Value* v = take(key, Need::optional);
    if (v == nullptr) return;
    if (v->is_number()) {
      const double d = v->as_number();
      if (!std::isfinite(d) || d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
        return fail(key, "must be a non-negative integer (use a string above 2^53)");
      out = static_cast<std::uint64_t>(d);
      return;
    }
    if (!v->is_string()) return fail(key, "must be an integer or decimal string");
    const std::string& s = v->as_string();
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
      return fail(key, "must be a decimal integer string");
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size()) return fail(key, "out of 64-bit range");
    out = static_cast<std::uint64_t>(parsed);
  }

  template <class T, class Options>
  void choice(std::string_view key, T& out, const Options& options, Need need = Need::optional) {
    const std::string* s = string_at(key, need);
    if (s == nullptr) return;
    const auto* option = find_option(options, *s);
    if (option == nullptr) return fail(key, unknown_name(*s, options));
    if constexpr (std::is_enum_v<T>) {
      out = *option;
    } else {
      out = *s;
    }
  }

  void name(std::string_view key, std::string& out, const NameRule& rule, Need need) {
    const std::string* s = string_at(key, need);
    if (s == nullptr) return;
    if (s->empty() && need != Need::required) {
      out.clear();
      return;
    }
    if (find_option(rule.fixed, *s) != nullptr) {
      out = *s;
      return;
    }
    const std::string_view digits =
        std::string_view(*s).substr(std::min(s->size(), rule.prefix.size()));
    if (rule.prefix.empty() || !s->starts_with(rule.prefix) || digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string_view::npos) {
      return fail(key, unknown_name(*s, rule.fixed, rule.prefix));
    }
    std::size_t index = 0;
    for (const char c : digits) {
      index = index * 10 + static_cast<std::size_t>(c - '0');
      if (index >= rule.limit) {
        const std::string range =
            rule.limit == 0 ? "none defined"
                            : std::string(rule.prefix) + "0.." + std::string(rule.prefix) +
                                  std::to_string(rule.limit - 1);
        return fail(key, "'" + *s + "' out of range (" + range + ")");
      }
    }
    out = std::string(rule.prefix) + std::to_string(index);
  }

  template <class T, class Fields>
  void block(std::string_view key, T& out, Fields fields, Need need = Need::optional) {
    const Value* v = take(key, need);
    if (v == nullptr) return;
    if (!v->is_object()) return fail(key, "must be an object");
    Reader child(v->as_object(), this, key);
    fields(child, out);
    adopt(child);
  }

  template <class T, class Fields>
  void entries(std::string_view key, std::vector<T>& out, Fields fields) {
    const Value* v = take(key, Need::optional);
    if (v == nullptr) return;
    if (!v->is_array()) return fail(key, "must be an array");
    const json::Array& items = v->as_array();
    for (std::size_t i = 0; i < items.size() && ok(); ++i) {
      if (!items[i].is_object()) return fail(indexed(key, i), "must be an object");
      Reader child(items[i].as_object(), this, key, i);
      T item{};
      fields(child, item);
      adopt(child);
      if (ok()) out.push_back(std::move(item));
    }
  }

  template <class T, class Options>
  void choices(std::string_view key, std::vector<T>& out, const Options& options) {
    const Value* v = take(key, Need::optional);
    if (v == nullptr) return;
    if (!v->is_array()) return fail(key, "must be an array");
    const json::Array& items = v->as_array();
    out.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!items[i].is_string()) return fail(indexed(key, i), "must be a string");
      const auto* option = find_option(options, items[i].as_string());
      if (option == nullptr)
        return fail(indexed(key, i), unknown_name(items[i].as_string(), options));
      out.push_back(*option);
    }
  }

  /// An object keyed by vertical name, kept in all_verticals() order so
  /// serialize -> parse is stable whatever the authoring order.
  void per_vertical(std::string_view key, std::vector<std::pair<traffic::Vertical, double>>& out,
                    Domain domain) {
    const Value* v = take(key, Need::optional);
    if (v == nullptr) return;
    if (!v->is_object()) return fail(key, "must be an object");
    Reader child(v->as_object(), this, key);
    for (const traffic::Vertical vertical : verticals()) {
      std::optional<double> value;
      child.plain(name_of(vertical), value, domain);
      if (value) out.emplace_back(vertical, *value);
    }
    adopt(child);
  }

  void check(bool holds, std::string_view key, const char* why) {
    if (!holds && ok()) fail(key, why);
  }

  /// The first error, or an unknown key.
  [[nodiscard]] Result<void> finish() {
    reject_unknown_keys();
    if (error_) return *error_;
    return {};
  }

 private:
  const Value* take(std::string_view key, Need need) {
    if (!ok()) return nullptr;
    const auto it = obj_.find(key);
    if (it == obj_.end()) {
      if (need == Need::required) fail(key, "required");
      return nullptr;
    }
    assert(seen_count_ < seen_.size());
    seen_[seen_count_++] = key;
    if (need == Need::metro_only) {
      fail(key, "only valid with topology \"metro\"");
      return nullptr;
    }
    return &it->second;
  }

  std::optional<double> number(std::string_view key, Domain domain, Need need) {
    const Value* v = take(key, need);
    if (v == nullptr) return std::nullopt;
    if (!v->is_number()) {
      fail(key, "must be a number");
      return std::nullopt;
    }
    const double x = v->as_number();
    if (!std::isfinite(x) || x < domain.lo || x > domain.hi) {
      fail(key, std::string("must be ") + domain.text);
      return std::nullopt;
    }
    return x;
  }

  const std::string* string_at(std::string_view key, Need need) {
    const Value* v = take(key, need);
    if (v == nullptr) return nullptr;
    if (!v->is_string()) {
      fail(key, "must be a string");
      return nullptr;
    }
    return &v->as_string();
  }

  void reject_unknown_keys() {
    if (!ok() || seen_count_ == obj_.size()) return;
    const auto seen_end = seen_.begin() + static_cast<std::ptrdiff_t>(seen_count_);
    for (const auto& [key, unused] : obj_) {
      if (std::find(seen_.begin(), seen_end, key) == seen_end) return fail(key, "unknown key");
    }
  }

  void adopt(Reader& child) {
    child.reject_unknown_keys();
    if (child.error_) error_ = std::move(child.error_);
  }

  std::string path() const {
    std::string out = parent_ != nullptr ? parent_->path() : std::string();
    if (!key_.empty()) {
      if (!out.empty()) out += '.';
      out += key_;
    }
    if (index_ != kNoIndex) out += "[" + std::to_string(index_) + "]";
    return out;
  }

  void fail(std::string_view key, std::string_view why) {
    std::string where = path();
    if (!key.empty() && !where.empty()) where += '.';
    where += key;
    error_ = make_error(Errc::invalid_argument, where + ": " + std::string(why));
  }

  const Object& obj_;
  const Reader* parent_;
  std::string_view key_;
  std::size_t index_;
  std::array<std::string_view, 16> seen_{};  // more than any block's key count
  std::size_t seen_count_ = 0;
  std::optional<Error> error_;
};

/// Writes the canonical form of a field list: every key explicit, except
/// sparse values while unset.
class Writer {
 public:
  static constexpr bool reads = false;

  [[nodiscard]] static constexpr bool ok() noexcept { return true; }

  void plain(std::string_view key, double v, Domain, Need = Need::optional) { put(key, Value(v)); }
  void plain(std::string_view key, const std::optional<double>& v, Domain,
             Need = Need::optional) {
    if (v) put(key, Value(*v));
  }
  void plain(std::string_view key, DataRate v, Domain, Need = Need::optional) {
    put(key, Value(v.as_mbps()));
  }
  void plain(std::string_view key, Money v, Domain, Need = Need::optional) {
    put(key, Value(v.as_units()));
  }

  void duration(std::string_view key, Duration d, Unit unit, Domain, Need = Need::optional) {
    switch (unit) {
      case Unit::hours: return put(key, Value(d.as_hours()));
      case Unit::minutes: return put(key, Value(d.as_seconds() / 60.0));
      case Unit::ms: return put(key, Value(d.as_millis()));
    }
  }

  template <class Int>
  void integer(std::string_view key, Int n, Domain, Need = Need::optional) {
    put(key, Value(static_cast<double>(n)));
  }

  void flag(std::string_view key, bool b) { put(key, Value(b)); }

  void text(std::string_view key, const std::string& s, Need need = Need::optional) {
    if (wanted(need, s)) put(key, Value(s));
  }

  /// Numbers up to 2^53 (readable), decimal strings above (exact), or
  /// always a string when `as_string`.
  void u64(std::string_view key, std::uint64_t n, bool as_string = false) {
    if (as_string || n > (1ull << 53)) return put(key, Value(std::to_string(n)));
    put(key, Value(static_cast<double>(n)));
  }

  template <class T, class Options>
  void choice(std::string_view key, const T& v, const Options&, Need = Need::optional) {
    put(key, Value(std::string(name_of(v))));
  }

  void name(std::string_view key, const std::string& s, const NameRule&, Need need) {
    if (wanted(need, s)) put(key, Value(s));
  }

  template <class T, class Fields>
  void block(std::string_view key, const T& v, Fields fields, Need need = Need::optional) {
    if (need == Need::metro_only || !wanted(need, v)) return;
    Writer child;
    fields(child, v);
    put(key, std::move(child).finish());
  }

  template <class T, class Fields>
  void entries(std::string_view key, const std::vector<T>& items, Fields fields) {
    json::Array out;
    out.reserve(items.size());
    for (const T& item : items) {
      Writer child;
      fields(child, item);
      out.push_back(std::move(child).finish());
    }
    put(key, Value(std::move(out)));
  }

  template <class T, class Options>
  void choices(std::string_view key, const std::vector<T>& items, const Options&) {
    json::Array out;
    for (const T& item : items) out.push_back(Value(std::string(name_of(item))));
    put(key, Value(std::move(out)));
  }

  void per_vertical(std::string_view key,
                    const std::vector<std::pair<traffic::Vertical, double>>& items, Domain) {
    Object out;
    for (const auto& [vertical, value] : items) out.emplace(name_of(vertical), Value(value));
    put(key, Value(std::move(out)));
  }

  void check(bool, std::string_view, const char*) {}

  [[nodiscard]] Value finish() && { return Value(std::move(out_)); }

 private:
  template <class T>
  static bool wanted(Need need, const T& v) {
    return (need != Need::sparse && need != Need::metro_only) || is_set(v);
  }

  void put(std::string_view key, Value v) { out_.emplace(std::string(key), std::move(v)); }

  Object out_;
};

template <class T, class Fields>
Result<T> read(const Value& doc, std::string_view path, Fields fields) {
  if (!doc.is_object())
    return make_error(Errc::invalid_argument,
                      std::string(path.empty() ? "scenario" : path) + ": must be an object");
  Reader reader(doc.as_object(), nullptr, path);
  T out{};
  fields(reader, out);
  if (Result<void> r = reader.finish(); !r.ok()) return r.error();
  return out;
}

template <class T, class Fields>
Value write(const T& value, Fields fields) {
  Writer writer;
  fields(writer, value);
  return std::move(writer).finish();
}

// ------------------------------------------------------------ field lists

template <class V, class T>
void federation_fields(V& v, T& fed) {
  v.integer("regions", fed.regions, {1.0, 64.0, "an integer in [1, 64]"});
  v.integer("cells_per_region", fed.cells_per_region, {1.0, 4096.0, "an integer in [1, 4096]"});
  v.integer("edge_dcs_per_region", fed.edge_dcs_per_region, {0.0, 16.0, "an integer in [0, 16]"});
  v.integer("hosts_per_dc", fed.hosts_per_dc, {1.0, 64.0, "an integer in [1, 64]"});
  v.choice("backbone", fed.backbone, kBackbones);
  v.plain("backbone_gbps", fed.backbone_gbps, {1.0e-3, 1.0e4, "in (0, 1e4] Gb/s"});
}

template <class V, class T>
void storm_fields(V& v, T& storm, const FederationSpec* fed, Duration horizon) {
  v.choice("kind", storm.kind, kStormKinds, Need::required);
  v.duration("at_hours", storm.at, Unit::hours, kTimeline, Need::required);
  v.check(storm.at <= horizon, "at_hours", "past the scenario duration");
  v.duration("duration_minutes", storm.duration, Unit::minutes, kMinutes, Need::required);
  v.plain("fraction", storm.fraction, {1.0e-6, 1.0, "in (0, 1]"});
  // Stadium storms focus on a cell (empty: the region's first cell);
  // commuter waves target a border instead.
  if (storm.kind != mobility::StormKind::commuter_wave)
    v.name("cell", storm.cell, cell_rule(fed), Need::sparse);
  v.name("region", storm.region, region_rule(fed), fed ? Need::sparse : Need::metro_only);
}

template <class V, class T>
void mobility_fields(V& v, T& mob, const FederationSpec* fed, Duration horizon) {
  // The block's presence opts in; "enabled": false keeps a block
  // authored for later without activating it.
  if constexpr (V::reads) mob.enabled = true;
  v.flag("enabled", mob.enabled);
  v.plain("cell_spacing_m", mob.cell_spacing_m, {10.0, 1.0e4, "in [10, 1e4] metres"});
  v.plain("default_speed_mps", mob.default_speed_mps, {1.0e-3, 1.0e3, "in (0, 1e3] m/s"});
  v.integer("ues_per_slice", mob.ues_per_slice, {0.0, 1.0e5, "an integer in [0, 1e5]"});
  v.integer("cqi_min", mob.cqi_min, kCqi);
  v.integer("cqi_max", mob.cqi_max, kCqi);
  v.check(mob.cqi_max >= mob.cqi_min, "cqi_max", "must be >= cqi_min");
  v.per_vertical("speed_classes", mob.speed_classes,
                 {std::numeric_limits<double>::denorm_min(), 1.0e3, "in (0, 1e3] m/s"});
  v.entries("storms", mob.storms,
            [&](auto& e, auto& storm) { storm_fields(e, storm, fed, horizon); });
}

template <class V, class T>
void overbooking_fields(V& v, T& ob) {
  v.flag("enabled", ob.enabled);
  v.plain("risk_quantile", ob.risk_quantile, kFraction);
  v.integer("horizon", ob.horizon, {1.0, 1.0e4, "an integer in [1, 1e4] periods"});
  v.plain("floor_fraction", ob.floor_fraction, kFraction);
  v.plain("headroom", ob.headroom, {1.0e-3, 1.0e3, "in (0, 1e3]"});
  v.integer("warmup_observations", ob.warmup_observations, {0.0, 1.0e6, "an integer in [0, 1e6]"});
  v.integer("season_length", ob.season_length, {2.0, 1.0e6, "an integer in [2, 1e6] periods"});
  v.choice("estimator", ob.estimator, kEstimators);
}

template <class V, class T>
void orchestrator_fields(V& v, T& config) {
  v.duration("monitoring_period_minutes", config.monitoring_period, Unit::minutes, kMinutes);
  v.choice("admission_policy", config.admission_policy, core::kPolicyNames);
  v.duration("admission_window_hours", config.admission_window, Unit::hours, kTimeline);
  v.duration("admission_patience_hours", config.admission_patience, Unit::hours, kTimeline);
  v.plain("sla_tolerance", config.sla_tolerance, kBelowOne);
  v.plain("reconfigure_threshold", config.reconfigure_threshold, {0.0, 1.0e3, "in [0, 1e3]"});
  v.plain("edge_breakout_fraction", config.edge_breakout_fraction, kFraction);
  v.block("overbooking", config.overbooking, [](auto& b, auto& ob) { overbooking_fields(b, ob); });
}

template <class V, class T>
void workload_fields(V& v, T& workload) {
  v.plain("arrivals_per_hour", workload.arrivals_per_hour, kRate);
  v.plain("diurnal_depth", workload.diurnal_depth, kBelowOne);
  v.duration("diurnal_period_hours", workload.diurnal_period, Unit::hours,
             {1.0e-3, 1.0e4, "in (0, 1e4] hours"});
  v.duration("min_duration_hours", workload.min_duration, Unit::hours, kHolding);
  v.duration("max_duration_hours", workload.max_duration, Unit::hours, kHolding);
  v.check(workload.max_duration >= workload.min_duration, "max_duration_hours",
          "must be >= min_duration_hours");
  v.plain("price_dispersion", workload.price_dispersion, kBelowOne);
  v.choices("verticals", workload.verticals, verticals());
}

template <class V, class T>
void phase_fields(V& v, T& phase, const std::vector<Phase>& earlier, Duration horizon) {
  if constexpr (V::reads) phase.name = "phase-" + std::to_string(earlier.size());
  v.text("name", phase.name);
  v.duration("start_hours", phase.start, Unit::hours, kTimeline, Need::required);
  v.duration("end_hours", phase.end, Unit::hours, kTimeline, Need::required);
  v.check(phase.end > phase.start, "end_hours", "must be after start_hours");
  v.check(phase.end <= horizon, "end_hours", "extends past the scenario duration");
  v.plain("arrivals_per_hour", phase.arrivals_per_hour, kRate);
  v.plain("demand_scale", phase.demand_scale, {1.0e-3, 1.0e3, "in (0, 1e3]"});
  v.check(earlier.empty() || phase.start >= earlier.back().end, "",
          "overlaps the previous phase (phases must be sorted and disjoint)");
}

/// One grammar for both topologies: `fed` != nullptr reads with metro
/// semantics (a required region, region-scoped targets). A metro has no
/// named backbone links and no churn storms.
template <class V, class T>
void event_fields(V& v, T& event, const FederationSpec* fed) {
  constexpr const char* kFig2Only =
      "not supported on the metro topology (cell_*, dc_* and controller_restart only)";
  v.choice("kind", event.kind, kEventKinds, Need::required);
  v.duration("at_hours", event.at, Unit::hours, kTimeline, Need::required);
  v.name("region", event.region, region_rule(fed), fed ? Need::required : Need::metro_only);
  switch (event.kind) {
    case EventKind::link_down:
    case EventKind::link_up:
    case EventKind::link_flap:
      v.check(fed == nullptr, "kind", kFig2Only);
      v.name("link", event.target, NameRule{kLinks}, Need::required);
      break;
    case EventKind::cell_down:
    case EventKind::cell_up:
      v.name("cell", event.target, cell_rule(fed), Need::required);
      break;
    case EventKind::dc_down:
    case EventKind::dc_up:
      v.name("dc", event.target, dc_rule(fed), Need::required);
      break;
    case EventKind::churn_storm:
      v.check(fed == nullptr, "kind", kFig2Only);
      break;
    case EventKind::controller_restart:
      break;
  }
  switch (event.kind) {
    case EventKind::link_down:
    case EventKind::cell_down:
    case EventKind::dc_down:
      v.duration("duration_hours", event.duration, Unit::hours, kTimeline);
      break;
    case EventKind::link_flap:
      v.integer("count", event.flap_count, {1.0, 1.0e4, "an integer in [1, 10000]"},
                Need::required);
      v.duration("period_minutes", event.flap_period, Unit::minutes, kMinutes, Need::required);
      v.duration("down_minutes", event.flap_down, Unit::minutes, kMinutes, Need::required);
      v.check(event.flap_down < event.flap_period, "down_minutes",
              "must be smaller than period_minutes");
      break;
    case EventKind::churn_storm:
      v.plain("ues_per_hour", event.storm_ues_per_hour, {1.0e-3, 1.0e6, "in (0, 1e6] per hour"},
              Need::required);
      v.duration("mean_holding_minutes", event.storm_mean_holding, Unit::minutes, kMinutes,
                 Need::required);
      [[fallthrough]];
    case EventKind::controller_restart:
      v.duration("duration_minutes", event.duration, Unit::minutes, kMinutes, Need::required);
      break;
    case EventKind::link_up:
    case EventKind::cell_up:
    case EventKind::dc_up:
      break;
  }
}

/// `fed` != nullptr additionally accepts an optional "region" home
/// assignment (metro); fig2 refuses the key.
template <class V, class T>
void request_fields(V& v, T& request, const FederationSpec* fed) {
  auto& spec = request.spec;
  v.duration("at_hours", request.at, Unit::hours, kTimeline, Need::required);
  v.choice("vertical", spec.vertical, verticals(), Need::required);
  v.duration("duration_hours", spec.duration, Unit::hours, {1.0e-6, 8784.0, "in (0, 8784] hours"},
             Need::required);
  // The vertical's profile supplies the default of every field below.
  if constexpr (V::reads) {
    if (v.ok())
      spec = core::SliceSpec::from_profile(traffic::profile_for(spec.vertical), spec.duration);
  }
  v.text("tenant", spec.tenant_name);
  v.duration("max_latency_ms", spec.max_latency, Unit::ms, {1.0e-3, 1.0e6, "> 0 ms"});
  v.plain("throughput_mbps", spec.expected_throughput, {0.0, 1.0e5, "in [0, 1e5] Mb/s"});
  v.plain("vcpus", spec.edge_compute.vcpus, {0.0, 1.0e4, "in [0, 1e4]"});
  v.plain("memory_mb", spec.edge_compute.memory_mb, {0.0, 1.0e8, "in [0, 1e8] MB"});
  v.plain("disk_gb", spec.edge_compute.disk_gb, {0.0, 1.0e6, "in [0, 1e6] GB"});
  v.plain("price_per_hour", spec.price_per_hour, kMoney);
  v.plain("penalty_per_violation", spec.penalty_per_violation, kMoney);
  v.flag("needs_edge", spec.needs_edge);
  v.u64("workload_seed", request.workload_seed, /*as_string=*/true);
  v.name("region", request.region, region_rule(fed), fed ? Need::sparse : Need::metro_only);
}

template <class V, class T>
void targets_fields(V& v, T& targets) {
  v.plain("min_admission_rate", targets.min_admission_rate, kFraction);
  v.plain("max_violation_rate", targets.max_violation_rate, kFraction);
  v.plain("min_net_revenue", targets.min_net_revenue, {-1.0e12, 1.0e12, "in [-1e12, 1e12]"});
  v.plain("min_multiplexing_gain", targets.min_multiplexing_gain, {0.0, 1.0e3, "in [0, 1e3]"});
}

template <class V, class T>
void scenario_fields(V& v, T& s) {
  constexpr const char* kPastEnd = "past the scenario duration";
  v.text("name", s.name, Need::required);
  v.text("description", s.description);
  v.u64("seed", s.seed);
  v.duration("duration_hours", s.duration, Unit::hours, {1.0e-3, 8784.0, "in (0, 8784] hours"});
  v.choice("topology", s.topology, kTopologies);
  const FederationSpec* fed = s.topology == "metro" ? &s.federation : nullptr;
  v.block("federation", s.federation, [](auto& b, auto& f) { federation_fields(b, f); },
          fed ? Need::optional : Need::metro_only);
  v.block("mobility", s.mobility,
          [&](auto& b, auto& m) { mobility_fields(b, m, fed, s.duration); }, Need::sparse);
  v.block("orchestrator", s.orchestrator, [](auto& b, auto& o) { orchestrator_fields(b, o); });
  v.block("workload", s.workload, [](auto& b, auto& w) { workload_fields(b, w); });
  v.flag("generate_arrivals", s.generate_arrivals);
  v.entries("phases", s.phases,
            [&](auto& e, auto& phase) { phase_fields(e, phase, s.phases, s.duration); });
  v.entries("events", s.events, [&](auto& e, auto& event) {
    event_fields(e, event, fed);
    e.check(event.at <= s.duration, "at_hours", kPastEnd);
  });
  v.entries("requests", s.requests, [&](auto& e, auto& request) {
    request_fields(e, request, fed);
    e.check(request.at <= s.duration, "at_hours", kPastEnd);
  });
  v.block("targets", s.targets, [](auto& b, auto& t) { targets_fields(b, t); });
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
  return event_from_json(doc, nullptr);
}

Result<ScenarioRequest> request_from_json(const json::Value& doc) {
  return request_from_json(doc, nullptr);
}

Result<ScenarioEvent> event_from_json(const json::Value& doc, const FederationSpec* fed) {
  return read<ScenarioEvent>(doc, "event", [&](Reader& r, ScenarioEvent& event) {
    event_fields(r, event, fed);
  });
}

Result<ScenarioRequest> request_from_json(const json::Value& doc, const FederationSpec* fed) {
  return read<ScenarioRequest>(doc, "request", [&](Reader& r, ScenarioRequest& request) {
    request_fields(r, request, fed);
  });
}

json::Value event_to_json(const ScenarioEvent& event) {
  // Only metro events carry a region; fig2 documents keep their exact
  // pre-federation byte layout.
  return write(event, [](Writer& w, const ScenarioEvent& e) { event_fields(w, e, nullptr); });
}

json::Value request_to_json(const ScenarioRequest& request) {
  return write(request,
               [](Writer& w, const ScenarioRequest& r) { request_fields(w, r, nullptr); });
}

Result<Scenario> scenario_from_json(const json::Value& doc) {
  return read<Scenario>(doc, "", [](Reader& r, Scenario& s) { scenario_fields(r, s); });
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
  return write(scenario, [](Writer& w, const Scenario& s) { scenario_fields(w, s); });
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
