#include "scenario/recorder.hpp"

#include <utility>

namespace slices::scenario {
namespace {

// Journal record kinds. "scenario" must come first; "request"/"event"
// entries follow in simulation order; "end" closes a complete run (its
// absence means the recording process died mid-run — still loadable,
// the valid prefix replays as far as it got).
constexpr const char* kScenarioRecord = "scenario";
constexpr const char* kRequestRecord = "request";
constexpr const char* kEventRecord = "event";
constexpr const char* kEndRecord = "end";

}  // namespace

Result<void> ScenarioRecorder::open(const std::string& path, const Scenario& scenario) {
  if (path.empty()) return {};
  if (Result<void> r = journal_.open(path, 0); !r.ok()) return r;

  Scenario header = scenario;
  header.generate_arrivals = false;
  header.requests.clear();
  header.events.clear();
  json::Object record;
  record.emplace("kind", kScenarioRecord);
  record.emplace("doc", scenario_to_json(header));
  return append(std::move(record));
}

Result<void> ScenarioRecorder::append(json::Object record) {
  const std::string payload = json::serialize(json::Value(std::move(record)));
  // No fsync: a recording is an experiment artifact, not durable state.
  Result<std::uint64_t> written = journal_.append(payload, /*fsync=*/false);
  if (!written.ok()) return written.error();
  return {};
}

Result<void> ScenarioRecorder::record_request(SimTime at, const core::SliceSpec& spec,
                                              std::uint64_t workload_seed,
                                              const std::string& region) {
  if (!journal_.is_open()) return {};
  ScenarioRequest request;
  request.at = at - SimTime::origin();
  request.spec = spec;
  request.workload_seed = workload_seed;
  request.region = region;
  json::Object record;
  record.emplace("kind", kRequestRecord);
  record.emplace("doc", request_to_json(request));
  return append(std::move(record));
}

Result<void> ScenarioRecorder::record_event(const ScenarioEvent& event) {
  if (!journal_.is_open()) return {};
  json::Object record;
  record.emplace("kind", kEventRecord);
  record.emplace("doc", event_to_json(event));
  return append(std::move(record));
}

Result<void> ScenarioRecorder::finish(SimTime end) {
  if (!journal_.is_open()) return {};
  json::Object record;
  record.emplace("kind", kEndRecord);
  record.emplace("t_us", static_cast<double>(end.as_micros()));
  Result<void> r = append(std::move(record));
  close();
  return r;
}

Result<Scenario> load_recording(const std::string& path) {
  Result<store::JournalScan> scan = store::scan_journal(path);
  if (!scan.ok()) return scan.error();
  if (scan.value().records.empty())
    return make_error(Errc::protocol_error, path + ": not a scenario recording (empty)");

  Scenario scenario;
  bool have_header = false;
  std::size_t index = 0;
  for (const json::Value& record : scan.value().records) {
    const std::string prefix = path + ": record " + std::to_string(index++);
    const Result<std::string> kind = record.get_string("kind");
    if (!kind.ok()) return make_error(Errc::protocol_error, prefix + ": missing kind");
    if (kind.value() == kScenarioRecord) {
      if (have_header)
        return make_error(Errc::protocol_error, prefix + ": duplicate scenario header");
      const json::Value* doc = record.find("doc");
      if (doc == nullptr)
        return make_error(Errc::protocol_error, prefix + ": missing doc");
      Result<Scenario> parsed = scenario_from_json(*doc);
      if (!parsed.ok())
        return make_error(parsed.error().code, prefix + ": " + parsed.error().message);
      scenario = std::move(parsed.value());
      scenario.generate_arrivals = false;
      have_header = true;
      continue;
    }
    if (!have_header)
      return make_error(Errc::protocol_error,
                        path + ": not a scenario recording (no header record)");
    // Metro journals carry region-scoped entries; parse them with the
    // header's federation grammar.
    const FederationSpec* fed =
        scenario.topology == "metro" ? &scenario.federation : nullptr;
    if (kind.value() == kRequestRecord) {
      const json::Value* doc = record.find("doc");
      if (doc == nullptr)
        return make_error(Errc::protocol_error, prefix + ": missing doc");
      Result<ScenarioRequest> request = request_from_json(*doc, fed);
      if (!request.ok())
        return make_error(request.error().code, prefix + ": " + request.error().message);
      scenario.requests.push_back(std::move(request.value()));
    } else if (kind.value() == kEventRecord) {
      const json::Value* doc = record.find("doc");
      if (doc == nullptr)
        return make_error(Errc::protocol_error, prefix + ": missing doc");
      Result<ScenarioEvent> event = event_from_json(*doc, fed);
      if (!event.ok())
        return make_error(event.error().code, prefix + ": " + event.error().message);
      scenario.events.push_back(std::move(event.value()));
    } else if (kind.value() == kEndRecord) {
      // Informational; the scenario's own duration bounds the replay.
    } else {
      return make_error(Errc::protocol_error,
                        prefix + ": unknown record kind '" + kind.value() + "'");
    }
  }
  return scenario;
}

}  // namespace slices::scenario
