#include "telemetry/registry.hpp"

namespace slices::telemetry {

namespace {

/// First element of a sorted string-keyed map whose key starts with
/// `prefix`; iteration stays inside the prefix range.
template <typename Map>
typename Map::const_iterator prefix_begin(const Map& map, std::string_view prefix) {
  return prefix.empty() ? map.begin() : map.lower_bound(std::string(prefix));
}

bool in_prefix(std::string_view name, std::string_view prefix) {
  return prefix.empty() || name.starts_with(prefix);
}

template <typename Map>
std::size_t erase_range(Map& map, std::string_view prefix) {
  const auto first = prefix_begin(map, prefix);
  auto last = first;
  std::size_t n = 0;
  for (; last != map.end() && in_prefix(last->first, prefix); ++last) ++n;
  map.erase(first, last);
  return n;
}

}  // namespace

std::size_t MonitorRegistry::erase_prefix(std::string_view prefix) {
  return erase_range(counters_, prefix) + erase_range(gauges_, prefix) +
         erase_range(histograms_, prefix) + erase_range(series_, prefix);
}

json::Value MonitorRegistry::snapshot(std::string_view prefix) const {
  json::Object counters;
  for (auto it = prefix_begin(counters_, prefix);
       it != counters_.end() && in_prefix(it->first, prefix); ++it) {
    counters.emplace(it->first, static_cast<double>(it->second.value()));
  }

  json::Object gauges;
  for (auto it = prefix_begin(gauges_, prefix);
       it != gauges_.end() && in_prefix(it->first, prefix); ++it) {
    gauges.emplace(it->first, it->second.value());
  }

  json::Object histograms;
  for (auto it = prefix_begin(histograms_, prefix);
       it != histograms_.end() && in_prefix(it->first, prefix); ++it) {
    const Histogram& h = it->second;
    json::Object entry;
    entry.emplace("count", static_cast<double>(h.count()));
    if (!h.empty()) {
      entry.emplace("max", static_cast<double>(h.maximum()));
      entry.emplace("min", static_cast<double>(h.minimum()));
      entry.emplace("p50", h.value_at_quantile(0.50));
      entry.emplace("p90", h.value_at_quantile(0.90));
      entry.emplace("p99", h.value_at_quantile(0.99));
      entry.emplace("p999", h.value_at_quantile(0.999));
      entry.emplace("sum", static_cast<double>(h.sum()));
    }
    histograms.emplace(it->first, std::move(entry));
  }

  json::Object series;
  for (auto it = prefix_begin(series_, prefix);
       it != series_.end() && in_prefix(it->first, prefix); ++it) {
    const TimeSeries& s = *it->second;
    json::Object entry;
    entry.emplace("n", static_cast<double>(s.size()));
    if (!s.empty()) {
      entry.emplace("latest", s.back().value);
      entry.emplace("latest_t", s.back().time.as_seconds());
      if (const auto m = s.mean_last(16)) entry.emplace("mean_16", *m);
      if (const auto m = s.max_last(16)) entry.emplace("max_16", *m);
    }
    series.emplace(it->first, std::move(entry));
  }

  json::Object root;
  root.emplace("counters", std::move(counters));
  root.emplace("gauges", std::move(gauges));
  root.emplace("histograms", std::move(histograms));
  root.emplace("series", std::move(series));
  return root;
}

void MonitorRegistry::metrics_body(std::string& out, std::string_view prefix) const {
  // Emits exactly the bytes json::serialize(snapshot(prefix)) would:
  // maps iterate in sorted key order, and json::Object sorts its keys
  // the same way. Within a series entry the keys emit in their sorted
  // order: latest, latest_t, max_16, mean_16, n.
  out.clear();
  out += "{\"counters\":{";
  bool first = true;
  for (auto it = prefix_begin(counters_, prefix);
       it != counters_.end() && in_prefix(it->first, prefix); ++it) {
    if (!first) out.push_back(',');
    first = false;
    json::append_escaped(out, it->first);
    out.push_back(':');
    json::append_number(out, static_cast<double>(it->second.value()));
  }
  out += "},\"gauges\":{";
  first = true;
  for (auto it = prefix_begin(gauges_, prefix);
       it != gauges_.end() && in_prefix(it->first, prefix); ++it) {
    if (!first) out.push_back(',');
    first = false;
    json::append_escaped(out, it->first);
    out.push_back(':');
    json::append_number(out, it->second.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (auto it = prefix_begin(histograms_, prefix);
       it != histograms_.end() && in_prefix(it->first, prefix); ++it) {
    const Histogram& h = it->second;
    if (!first) out.push_back(',');
    first = false;
    json::append_escaped(out, it->first);
    out.push_back(':');
    out += "{\"count\":";
    json::append_number(out, static_cast<double>(h.count()));
    if (!h.empty()) {
      out += ",\"max\":";
      json::append_number(out, static_cast<double>(h.maximum()));
      out += ",\"min\":";
      json::append_number(out, static_cast<double>(h.minimum()));
      out += ",\"p50\":";
      json::append_number(out, h.value_at_quantile(0.50));
      out += ",\"p90\":";
      json::append_number(out, h.value_at_quantile(0.90));
      out += ",\"p99\":";
      json::append_number(out, h.value_at_quantile(0.99));
      out += ",\"p999\":";
      json::append_number(out, h.value_at_quantile(0.999));
      out += ",\"sum\":";
      json::append_number(out, static_cast<double>(h.sum()));
    }
    out.push_back('}');
  }
  out += "},\"series\":{";
  first = true;
  for (auto it = prefix_begin(series_, prefix);
       it != series_.end() && in_prefix(it->first, prefix); ++it) {
    const TimeSeries& s = *it->second;
    if (!first) out.push_back(',');
    first = false;
    json::append_escaped(out, it->first);
    out.push_back(':');
    if (s.empty()) {
      out += "{\"n\":";
      json::append_number(out, static_cast<double>(s.size()));
      out.push_back('}');
      continue;
    }
    out += "{\"latest\":";
    json::append_number(out, s.back().value);
    out += ",\"latest_t\":";
    json::append_number(out, s.back().time.as_seconds());
    if (const auto m = s.max_last(16)) {
      out += ",\"max_16\":";
      json::append_number(out, *m);
    }
    if (const auto m = s.mean_last(16)) {
      out += ",\"mean_16\":";
      json::append_number(out, *m);
    }
    out += ",\"n\":";
    json::append_number(out, static_cast<double>(s.size()));
    out.push_back('}');
  }
  out += "}}";
}

json::Value MonitorRegistry::export_json(std::string_view prefix) const {
  json::Object counters;
  for (auto it = prefix_begin(counters_, prefix);
       it != counters_.end() && in_prefix(it->first, prefix); ++it) {
    counters.emplace(it->first, static_cast<double>(it->second.value()));
  }

  json::Object gauges;
  for (auto it = prefix_begin(gauges_, prefix);
       it != gauges_.end() && in_prefix(it->first, prefix); ++it) {
    gauges.emplace(it->first, it->second.value());
  }

  json::Object histograms;
  for (auto it = prefix_begin(histograms_, prefix);
       it != histograms_.end() && in_prefix(it->first, prefix); ++it) {
    histograms.emplace(it->first, it->second.to_json());
  }

  json::Object root;
  root.emplace("counters", std::move(counters));
  root.emplace("gauges", std::move(gauges));
  root.emplace("histograms", std::move(histograms));
  return root;
}

void MonitorRegistry::merge_from(const json::Value& doc) {
  if (const json::Value* counters = doc.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->as_object()) {
      // Wire data: an out-of-range count is skipped, not cast.
      if (const auto n = json::to_integer<std::uint64_t>(&value)) counter(name).increment(*n);
    }
  }
  if (const json::Value* gauges = doc.find("gauges"); gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->as_object()) {
      if (!value.is_number()) continue;
      gauge(name).add(value.as_number());
    }
  }
  if (const json::Value* histograms = doc.find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, value] : histograms->as_object()) {
      histogram(name).merge_json(value);
    }
  }
}

json::Value MonitorRegistry::series_window(std::string_view name, std::size_t n) const {
  json::Array out;
  const TimeSeries* s = find_series(name);
  if (s == nullptr) return out;
  const std::size_t count = n < s->size() ? n : s->size();
  for (std::size_t i = s->size() - count; i < s->size(); ++i) {
    json::Object point;
    point.emplace("t", s->at(i).time.as_seconds());
    point.emplace("v", s->at(i).value);
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace slices::telemetry
