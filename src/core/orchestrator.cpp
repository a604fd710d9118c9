#include "core/orchestrator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <set>

#include "json/value.hpp"

namespace slices::core {

// --- Durable-state serialization (docs/persistence.md) ----------------------
//
// Journal operations and snapshots are written by this process and read
// back only by it, but disk contents can be damaged, so every reader is
// tolerant: missing/odd fields fall back to safe defaults instead of
// asserting. Rates are stored in exact bits-per-second and money in
// exact cents so a dump -> load round trip is bit-identical.

namespace {

double field_num(const json::Value& v, std::string_view key, double fallback = 0.0) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->as_number() : fallback;
}

std::string field_str(const json::Value& v, std::string_view key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_string() ? f->as_string() : std::string{};
}

bool field_bool(const json::Value& v, std::string_view key, bool fallback = false) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_bool() ? f->as_bool() : fallback;
}

std::int64_t field_i64(const json::Value& v, std::string_view key) {
  return static_cast<std::int64_t>(field_num(v, key));
}

std::uint64_t field_u64(const json::Value& v, std::string_view key, double fallback = 0.0) {
  const double n = field_num(v, key, fallback);
  return n <= 0.0 ? 0 : static_cast<std::uint64_t>(n);
}

template <typename Tag>
Id<Tag> field_id(const json::Value& v, std::string_view key) {
  const double n = field_num(v, key, -1.0);
  return n < 0.0 ? Id<Tag>::invalid() : Id<Tag>{static_cast<std::uint64_t>(n)};
}

/// Ids are serialized as -1 when invalid (JSON has no uint64).
double id_num(std::uint64_t value, bool valid) {
  return valid ? static_cast<double>(value) : -1.0;
}

/// "slice.<id>." — the dot keeps slice 1's prefix off slice 10.
std::string slice_prefix(SliceId slice) { return "slice." + std::to_string(slice.value()) + "."; }

json::Value spec_to_json(const SliceSpec& spec) {
  json::Object out;
  out.emplace("tenant", spec.tenant_name);
  out.emplace("vertical", std::string(traffic::to_string(spec.vertical)));
  out.emplace("duration_us", static_cast<double>(spec.duration.as_micros()));
  out.emplace("max_latency_us", static_cast<double>(spec.max_latency.as_micros()));
  out.emplace("throughput_bps", spec.expected_throughput.bits_per_second());
  out.emplace("vcpus", spec.edge_compute.vcpus);
  out.emplace("memory_mb", spec.edge_compute.memory_mb);
  out.emplace("disk_gb", spec.edge_compute.disk_gb);
  out.emplace("price_cents_per_hour", static_cast<double>(spec.price_per_hour.as_cents()));
  out.emplace("penalty_cents", static_cast<double>(spec.penalty_per_violation.as_cents()));
  out.emplace("needs_edge", spec.needs_edge);
  return json::Value{std::move(out)};
}

SliceSpec spec_from_json(const json::Value& v) {
  SliceSpec spec;
  spec.tenant_name = field_str(v, "tenant");
  const std::string vertical = field_str(v, "vertical");
  for (const traffic::Vertical candidate : traffic::all_verticals()) {
    if (traffic::to_string(candidate) == vertical) spec.vertical = candidate;
  }
  spec.duration = Duration::micros(field_i64(v, "duration_us"));
  spec.max_latency = Duration::micros(field_i64(v, "max_latency_us"));
  spec.expected_throughput = DataRate::bps(field_num(v, "throughput_bps"));
  spec.edge_compute.vcpus = field_num(v, "vcpus");
  spec.edge_compute.memory_mb = field_num(v, "memory_mb");
  spec.edge_compute.disk_gb = field_num(v, "disk_gb");
  spec.price_per_hour = Money::cents(field_i64(v, "price_cents_per_hour"));
  spec.penalty_per_violation = Money::cents(field_i64(v, "penalty_cents"));
  spec.needs_edge = field_bool(v, "needs_edge");
  return spec;
}

SliceState state_from_string(std::string_view s) noexcept {
  for (const SliceState candidate :
       {SliceState::pending, SliceState::rejected, SliceState::installing, SliceState::active,
        SliceState::expired, SliceState::terminated}) {
    if (to_string(candidate) == s) return candidate;
  }
  return SliceState::terminated;  // unknown state: safest terminal
}

json::Value embedding_to_json(const Embedding& e) {
  json::Object out;
  out.emplace("plmn", id_num(e.plmn.value(), e.plmn.valid()));
  out.emplace("datacenter", id_num(e.datacenter.value(), e.datacenter.valid()));
  json::Array paths;
  for (const PathId p : e.paths) paths.push_back(static_cast<double>(p.value()));
  out.emplace("paths", std::move(paths));
  // The Heat engine allocates fresh StackIds, so only *presence* of the
  // edge service stack is durable; the id is re-created on reinstall.
  out.emplace("edge_stack", e.edge_stack.has_value());
  return json::Value{std::move(out)};
}

Embedding embedding_from_json(const json::Value& v) {
  Embedding e;
  e.plmn = field_id<PlmnTag>(v, "plmn");
  e.datacenter = field_id<DatacenterTag>(v, "datacenter");
  if (const json::Value* paths = v.find("paths"); paths != nullptr && paths->is_array()) {
    for (const json::Value& p : paths->as_array()) {
      if (p.is_number() && p.as_number() >= 0.0) {
        e.paths.push_back(PathId{static_cast<std::uint64_t>(p.as_number())});
      }
    }
  }
  // Placeholder until reinstall re-creates the stack (has_value is what
  // the durable representation preserves).
  if (field_bool(v, "edge_stack")) e.edge_stack = StackId::invalid();
  return e;
}

json::Value record_to_json(const SliceRecord& r) {
  json::Object out;
  out.emplace("slice", static_cast<double>(r.id.value()));
  out.emplace("request", static_cast<double>(r.request.value()));
  out.emplace("spec", spec_to_json(r.spec));
  out.emplace("state", std::string(to_string(r.state)));
  out.emplace("submitted_at_us", static_cast<double>(r.submitted_at.as_micros()));
  out.emplace("activates_at_us", static_cast<double>(r.activates_at.as_micros()));
  out.emplace("active_at_us", static_cast<double>(r.active_at.as_micros()));
  out.emplace("ends_at_us", static_cast<double>(r.ends_at.as_micros()));
  out.emplace("embedding", embedding_to_json(r.embedding));
  out.emplace("reserved_bps", r.reserved.bits_per_second());
  out.emplace("violation_epochs", static_cast<double>(r.violation_epochs));
  out.emplace("served_epochs", static_cast<double>(r.served_epochs));
  return json::Value{std::move(out)};
}

SliceRecord record_from_json(const json::Value& v) {
  SliceRecord r;
  r.id = field_id<SliceTag>(v, "slice");
  r.request = field_id<RequestTag>(v, "request");
  if (const json::Value* spec = v.find("spec")) r.spec = spec_from_json(*spec);
  r.state = state_from_string(field_str(v, "state"));
  r.submitted_at = SimTime::from_micros(field_i64(v, "submitted_at_us"));
  r.activates_at = SimTime::from_micros(field_i64(v, "activates_at_us"));
  r.active_at = SimTime::from_micros(field_i64(v, "active_at_us"));
  r.ends_at = SimTime::from_micros(field_i64(v, "ends_at_us"));
  if (const json::Value* e = v.find("embedding")) r.embedding = embedding_from_json(*e);
  r.reserved = DataRate::bps(field_num(v, "reserved_bps"));
  r.violation_epochs = field_u64(v, "violation_epochs");
  r.served_epochs = field_u64(v, "served_epochs");
  return r;
}

}  // namespace

Orchestrator::Orchestrator(sim::Simulator* simulator, ran::RanController* ran,
                           transport::TransportController* transport,
                           cloud::CloudController* cloud, epc::EpcManager* epc,
                           net::RestBus* bus, telemetry::MonitorRegistry* registry,
                           OrchestratorConfig config)
    : simulator_(simulator),
      ran_(ran),
      transport_(transport),
      cloud_(cloud),
      epc_(epc),
      bus_(bus),
      registry_(registry),
      config_(std::move(config)),
      install_jitter_rng_(config_.install_jitter_seed),
      engine_(config_.overbooking) {
  assert(simulator_ != nullptr && ran_ != nullptr && transport_ != nullptr &&
         cloud_ != nullptr && epc_ != nullptr);
  policy_ = make_policy(config_.admission_policy);
  assert(policy_ != nullptr && "unknown admission policy name");
  if (registry_ != nullptr) {
    hist_.epoch_us = &registry_->histogram("orchestrator.epoch_us");
    hist_.ran_us = &registry_->histogram("orchestrator.epoch.ran_us");
    hist_.transport_us = &registry_->histogram("orchestrator.epoch.transport_us");
    hist_.reduce_us = &registry_->histogram("orchestrator.epoch.reduce_us");
    hist_.admission_us = &registry_->histogram("orchestrator.admission_us");
    slo_.admission_headroom = &registry_->histogram("orchestrator.slo.admission_headroom_mbps");
    slo_.violation_epochs = &registry_->counter("orchestrator.slo.violation_epochs");
    slo_.penalty_cents = &registry_->counter("orchestrator.slo.penalty_cents");
    slo_.headroom_mbps = registry_->handle("orchestrator.slo.headroom_mbps");
    slo_.demand_mbps = registry_->handle("orchestrator.slo.demand_mbps");
    slo_.forecast_error_mbps = registry_->handle("orchestrator.slo.forecast_error_mbps");
  }
}

namespace {

/// Wall-clock phase timer for the latency histograms. Inert (no clock
/// reads, no records) unless wall-clock profiling is enabled, so the
/// default configuration stays deterministic.
class WallPhaseTimer {
 public:
  explicit WallPhaseTimer(telemetry::Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr && telemetry::trace::wall_clock()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  WallPhaseTimer(const WallPhaseTimer&) = delete;
  WallPhaseTimer& operator=(const WallPhaseTimer&) = delete;
  ~WallPhaseTimer() { stop(); }

  /// Record now instead of at destruction; returns the elapsed µs
  /// (-1 when not armed). Idempotent.
  std::int64_t stop() {
    if (!armed_) return -1;
    armed_ = false;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
    hist_->record(static_cast<std::uint64_t>(us < 0 ? 0 : us));
    return us;
  }

 private:
  telemetry::Histogram* hist_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void Orchestrator::set_attachment_points(NodeId ran_gateway,
                                         std::map<DatacenterId, NodeId> datacenter_gateways) {
  ran_gateway_ = ran_gateway;
  dc_gateways_ = std::move(datacenter_gateways);
}

void Orchestrator::start() {
  if (started_) return;
  started_ = true;
  simulator_->add_periodic(
      config_.monitoring_period, [this](SimTime now) { run_epoch(now); },
      config_.monitoring_period);
  if (config_.admission_window > Duration::zero()) {
    simulator_->add_periodic(
        config_.admission_window, [this](SimTime) { decide_pending_batch(); },
        config_.admission_window);
  }
}

SubmitVerdict Orchestrator::submit(const SliceSpec& spec,
                                   std::unique_ptr<traffic::TrafficModel> workload) {
  // Keep the trace sim-clock current for admission spans that fire
  // between epochs (run_epoch refreshes it on its own cadence).
  telemetry::trace::set_sim_now(simulator_->now().as_micros());
  const RequestId request = request_ids_.next();
  const SliceId slice = slice_ids_.next();

  SliceRecord record;
  record.id = slice;
  record.request = request;
  record.spec = spec;
  record.submitted_at = simulator_->now();

  if (workload != nullptr) {
    workloads_.emplace(slice, Workload{std::move(workload)});
  }
  auto [it, inserted] = records_.emplace(slice, std::move(record));
  assert(inserted);
  events_.record(simulator_->now(), EventKind::request_submitted, slice,
                 EventSubmitted{spec.tenant_name, spec.expected_throughput.as_mbps(),
                                spec.duration.as_hours()});
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    op.emplace("request", static_cast<double>(request.value()));
    op.emplace("spec", spec_to_json(spec));
    journal_op("submit", std::move(op));
  }
  // Batched mode decides at the next auction.
  if (config_.admission_window > Duration::zero()) return {request, slice, SliceState::pending};
  return {request, slice, decide(it->second) ? SliceState::installing : SliceState::rejected};
}

void Orchestrator::set_suspended(bool suspended) {
  if (suspended_ == suspended) return;
  suspended_ = suspended;
  note_fault("orchestrator", suspended,
             suspended ? "control plane suspended (restart in progress)"
                       : "control plane resumed");
}

void Orchestrator::note_fault(const std::string& component, bool active, std::string detail,
                              json::Object fields) {
  if (active) {
    active_faults_[component] = detail;
  } else if (active_faults_.erase(component) == 0) {
    return;  // clearing a fault that was never injected: no-op
  }
  fields.emplace("component", component);
  events_.record(simulator_->now(),
                 active ? EventKind::fault_injected : EventKind::fault_cleared, SliceId{},
                 EventText{component + ": " + detail, std::move(fields)});
}

DataRate Orchestrator::sellable_capacity() const {
  DataRate capacity = ran_->available_capacity(config_.planning_cqi);
  for (const auto& [slice, other] : records_) {
    if (other.state == SliceState::active) {
      capacity += engine_.reclaimable(slice, other.spec.expected_throughput);
    }
  }
  return capacity;
}

bool Orchestrator::try_admit(SliceRecord& record) {
  TRACE_SCOPE("orch.admit.try");
  // Materialize the reclaim the capacity estimate assumed, then embed.
  apply_overbooking(simulator_->now());
  EmbedStage failed = EmbedStage::plmn_install;
  Result<InstallTimeline> timeline = embed(record, failed);
  if (timeline.ok()) {
    record.state = SliceState::installing;
    last_timeline_ = timeline.value();
    ++admitted_total_;
    const SliceId slice = record.id;
    record.activates_at = simulator_->now() + timeline.value().total();
    simulator_->schedule_at(record.activates_at, [this, slice] { activate(slice); });
    events_.record(
        simulator_->now(), EventKind::slice_admitted, slice,
        EventAdmitted{record.reserved.as_mbps(), record.spec.price_per_hour.as_units(),
                      (record.spec.price_per_hour * record.spec.duration.as_hours()).as_units(),
                      record.spec.penalty_per_violation.as_units(),
                      timeline.value().total().as_seconds()});
    if (log_.enabled(LogLevel::info)) {
      log_.info("admitted slice " + std::to_string(slice.value()) + " (" +
                record.spec.tenant_name + ")");
    }
    if (journaling()) {
      json::Object op;
      op.emplace("slice", static_cast<double>(slice.value()));
      op.emplace("reserved_bps", record.reserved.bits_per_second());
      op.emplace("activates_at_us", static_cast<double>(record.activates_at.as_micros()));
      op.emplace("embedding", embedding_to_json(record.embedding));
      // embed() consumes a PLMN code even on failure, so admits and
      // rejects both carry the watermark for replay.
      op.emplace("next_plmn", static_cast<double>(next_plmn_));
      journal_op("admit", std::move(op));
    }
    return true;
  }
  events_.record(simulator_->now(), EventKind::slice_rejected, record.id,
                 EventEmbedFailed{timeline.error().message, to_string(failed)});
  if (log_.enabled(LogLevel::info)) log_.info("embedding failed: " + timeline.error().message);
  reject(record);
  return false;
}

void Orchestrator::reject(SliceRecord& record) {
  const SliceId slice = record.id;
  close(record, SliceState::rejected);
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    op.emplace("next_plmn", static_cast<double>(next_plmn_));
    journal_op("reject", std::move(op));
  }
}

void Orchestrator::close(SliceRecord& record, SliceState state) {
  switch (state) {
    case SliceState::rejected: ++rejected_total_; break;
    case SliceState::expired: ++expired_total_; break;
    case SliceState::terminated: ++terminated_total_; break;
    case SliceState::pending:
    case SliceState::installing:
    case SliceState::active: assert(false && "close() takes a closed state"); return;
  }
  const SliceId slice = record.id;
  if (state != SliceState::rejected) {
    // Nothing reads an ended slice's instruments: its totals live on in
    // the orchestrator.slo.* counters and the orchestrator.* series.
    engine_.untrack(slice);
    slice_handles_.erase(slice);
    if (registry_ != nullptr) registry_->erase_prefix(slice_prefix(slice));
  }
  workloads_.erase(slice);
  ledger_.erase(slice);
  records_.erase(slice);
}

void Orchestrator::record_admission_headroom(DataRate sellable) {
  if (registry_ == nullptr) return;
  const double mbps = sellable.as_mbps();
  slo_.admission_headroom->record(static_cast<std::uint64_t>(mbps < 0.0 ? 0.0 : mbps + 0.5));
  slo_.headroom_mbps.observe(simulator_->now(), mbps);
}

bool Orchestrator::decide(SliceRecord& record) {
  assert(record.state == SliceState::pending);
  TRACE_SCOPE("orch.admit.decide");
  WallPhaseTimer timer(hist_.admission_us);
  const DataRate sellable = sellable_capacity();
  record_admission_headroom(sellable);
  const CandidateRequest candidate{record.request, record.spec};
  const std::vector<RequestId> selected = policy_->select({&candidate, 1}, sellable);
  if (!selected.empty() && selected.front() == record.request) return try_admit(record);
  events_.record(simulator_->now(), EventKind::slice_rejected, record.id,
                 EventDeclined{policy_->name(), false});
  reject(record);
  return false;
}

void Orchestrator::decide_pending_batch() {
  TRACE_SCOPE("orch.admit.batch");
  WallPhaseTimer timer(hist_.admission_us);
  std::vector<CandidateRequest> candidates;
  for (const auto& [slice, record] : records_) {
    if (record.state == SliceState::pending) {
      candidates.push_back(CandidateRequest{record.request, record.spec});
    }
  }
  if (candidates.empty()) return;

  const DataRate sellable = sellable_capacity();
  record_admission_headroom(sellable);
  const std::vector<RequestId> selected = policy_->select(candidates, sellable);
  const std::set<RequestId> chosen(selected.begin(), selected.end());

  // Deciding erases rejected records: step past each one before
  // deciding it.
  for (auto it = records_.begin(); it != records_.end();) {
    SliceRecord& record = (it++)->second;
    if (record.state != SliceState::pending) continue;
    if (chosen.contains(record.request)) {
      try_admit(record);
    } else {
      // Patient requests stay queued for later auctions until their
      // deadline; impatient ones (the default) are rejected now.
      const bool patient =
          config_.admission_patience > Duration::zero() &&
          simulator_->now() - record.submitted_at < config_.admission_patience;
      if (patient) continue;
      events_.record(simulator_->now(), EventKind::slice_rejected, record.id,
                     EventDeclined{policy_->name(), true});
      reject(record);
    }
  }
}

std::optional<NodeId> Orchestrator::core_gateway() const {
  for (const auto& [dc_id, node] : dc_gateways_) {
    const cloud::Datacenter* candidate = cloud_->find_datacenter(dc_id);
    if (candidate != nullptr && candidate->kind() == cloud::DatacenterKind::core) return node;
  }
  return std::nullopt;
}

Result<void> Orchestrator::install_leg(std::size_t leg, SliceId slice, NodeId src, NodeId dst,
                                       DataRate rate, Duration bound, Embedding& e) {
  if (leg < e.paths.size()) {
    return transport_->restore_path(e.paths[leg], slice, src, dst, leg_rate(leg, rate), bound);
  }
  Result<PathId> path = transport_->allocate_path(slice, src, dst, leg_rate(leg, rate), bound);
  if (!path.ok()) return path.error();
  e.paths.push_back(path.value());
  return {};
}

Result<void> Orchestrator::install_stage(EmbedStage stage, SliceId slice, const SliceSpec& spec,
                                         DataRate rate, Embedding& e, Duration& epc_time) {
  switch (stage) {
    case EmbedStage::plmn_install:
      // A fresh slice draws the next PLMN code (consumed even if the
      // embedding fails); a recovered one keeps its own.
      if (!e.plmn.valid()) e.plmn = PlmnId{next_plmn_++};
      return ran_->install_plmn(e.plmn);
    case EmbedStage::prb_allocation: {
      const Result<ran::RanAllocation> r = ran_->set_allocation(e.plmn, rate, config_.planning_cqi);
      if (!r.ok()) return r.error();
      return {};
    }
    case EmbedStage::placement:
      if (!e.datacenter.valid()) {
        const ComputeCapacity footprint =
            epc::epc_stack_template(slice, spec.expected_throughput).footprint() +
            spec.edge_compute;
        const std::optional<DatacenterId> dc =
            cloud_->choose_datacenter(footprint, spec.needs_edge);
        if (!dc) {
          return make_error(Errc::insufficient_capacity,
                            spec.needs_edge ? "no edge datacenter fits the slice"
                                            : "no datacenter fits the slice");
        }
        e.datacenter = *dc;
      }
      if (!dc_gateways_.contains(e.datacenter)) {
        return make_error(Errc::internal, "datacenter has no transport gateway configured");
      }
      return {};
    case EmbedStage::access_leg:
      // Delay/capacity-constrained dedicated path to the datacenter.
      return install_leg(0, slice, ran_gateway_, dc_gateways_.at(e.datacenter), rate,
                         spec.max_latency, e);
    case EmbedStage::breakout_leg: {
      // Edge placements also get a breakout leg toward the core cloud
      // (centralized services / internet), at a fraction of the contract.
      const NodeId gw = dc_gateways_.at(e.datacenter);
      const std::optional<NodeId> core_gw = core_gateway();
      if (e.paths.size() < 2) {
        const cloud::Datacenter* placed = cloud_->find_datacenter(e.datacenter);
        if (config_.edge_breakout_fraction <= 0.0 || placed == nullptr ||
            placed->kind() != cloud::DatacenterKind::edge || !core_gw || *core_gw == gw) {
          return {};
        }
      }
      if (!core_gw) return make_error(Errc::internal, "no core datacenter gateway configured");
      return install_leg(1, slice, gw, *core_gw, rate, config_.breakout_delay_bound, e);
    }
    case EmbedStage::epc_deploy: {
      const Result<Duration> deployed = epc_->deploy(slice, e.datacenter, spec.expected_throughput);
      if (!deployed.ok()) return deployed.error();
      epc_time = deployed.value();
      return {};
    }
    case EmbedStage::edge_stack: {
      if (spec.edge_compute.vcpus <= 0.0) return {};
      cloud::StackTemplate svc;
      svc.name = "svc-slice-" + std::to_string(slice.value());
      svc.resources.push_back(cloud::ResourceSpec{"svc", cloud::Flavor{"svc", spec.edge_compute}});
      const Result<StackId> stack = cloud_->create_stack(e.datacenter, svc);
      if (!stack.ok()) return stack.error();
      e.edge_stack = stack.value();
      return {};
    }
  }
  return make_error(Errc::internal, "unknown embedding stage");
}

void Orchestrator::release_stages(SliceId slice, const Embedding& e, std::size_t installed) {
  while (installed > 0) {
    switch (static_cast<EmbedStage>(--installed)) {
      case EmbedStage::plmn_install: (void)ran_->remove_plmn(e.plmn); break;
      case EmbedStage::prb_allocation: ran_->release_allocation(e.plmn); break;
      case EmbedStage::placement: break;
      case EmbedStage::access_leg:
        if (!e.paths.empty()) (void)transport_->release_path(e.paths[0]);
        break;
      case EmbedStage::breakout_leg:
        if (e.paths.size() > 1) (void)transport_->release_path(e.paths[1]);
        break;
      case EmbedStage::epc_deploy: (void)epc_->remove(slice); break;
      case EmbedStage::edge_stack:
        if (e.edge_stack) (void)cloud_->delete_stack(*e.edge_stack);
        break;
    }
  }
}

Result<Duration> Orchestrator::install_stages(SliceId slice, const SliceSpec& spec, DataRate rate,
                                              Embedding& e, EmbedStage& failed) {
  Duration epc_time;
  for (std::size_t i = 0; i < kEmbedStageCount; ++i) {
    const auto stage = static_cast<EmbedStage>(i);
    if (Result<void> r = install_stage(stage, slice, spec, rate, e, epc_time); !r.ok()) {
      release_stages(slice, e, i);
      failed = stage;
      return r.error();
    }
  }
  return epc_time;
}

Result<InstallTimeline> Orchestrator::embed(SliceRecord& record, EmbedStage& failed) {
  TRACE_SCOPE("orch.admit.embed");
  const SliceSpec& spec = record.spec;
  Embedding embedding;
  const Result<Duration> epc_time =
      install_stages(record.id, spec, spec.expected_throughput, embedding, failed);
  if (!epc_time.ok()) return epc_time.error();
  record.embedding = std::move(embedding);
  record.reserved = spec.expected_throughput;

  const auto jitter = [this](Duration d) {
    if (config_.install_jitter <= 0.0) return d;
    const double factor =
        std::max(0.2, 1.0 + config_.install_jitter * install_jitter_rng_.normal());
    return d * factor;
  };
  InstallTimeline timeline;
  timeline.plmn_install = jitter(config_.plmn_install_time);
  timeline.ran_reservation = jitter(config_.ran_reserve_time);
  const transport::PathReservation* reservation =
      transport_->find_path(record.embedding.paths.front());
  timeline.path_setup =
      jitter(config_.path_setup_time_per_rule *
             static_cast<double>(reservation == nullptr ? 1 : reservation->route.hops()));
  timeline.epc_deploy = jitter(epc_time.value());
  timeline.activation_margin = config_.activation_margin;
  return timeline;
}

void Orchestrator::activate(SliceId slice) {
  const auto it = records_.find(slice);
  if (it == records_.end()) return;
  SliceRecord& record = it->second;
  if (record.state != SliceState::installing) return;  // terminated meanwhile

  const Result<void> r = epc_->activate(slice);
  assert(r.ok());
  (void)r;
  record.state = SliceState::active;
  record.active_at = simulator_->now();
  record.ends_at = record.active_at + record.spec.duration;
  engine_.track(slice);
  simulator_->schedule_at(record.ends_at, [this, slice] { expire(slice); });
  events_.record(simulator_->now(), EventKind::slice_active, slice,
                 EventActive{record.ends_at.as_hours()});
  if (log_.enabled(LogLevel::info)) {
    log_.info("slice " + std::to_string(slice.value()) + " active");
  }
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    op.emplace("at_us", static_cast<double>(record.active_at.as_micros()));
    op.emplace("ends_at_us", static_cast<double>(record.ends_at.as_micros()));
    journal_op("activate", std::move(op));
  }
}

void Orchestrator::expire(SliceId slice) {
  const auto it = records_.find(slice);
  if (it == records_.end()) return;
  SliceRecord& record = it->second;
  if (record.state != SliceState::active) return;
  release_stages(slice, record.embedding, kEmbedStageCount);
  events_.record(simulator_->now(), EventKind::slice_expired, slice,
                 EventExpired{record.violation_epochs});
  close(record, SliceState::expired);
  if (log_.enabled(LogLevel::info)) {
    log_.info("slice " + std::to_string(slice.value()) + " expired");
  }
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    journal_op("expire", std::move(op));
  }
}

Result<void> Orchestrator::resize_slice(SliceId slice, DataRate new_contract) {
  const auto it = records_.find(slice);
  if (it == records_.end()) return make_error(Errc::not_found, "unknown slice");
  SliceRecord& record = it->second;
  if (record.state != SliceState::active)
    return make_error(Errc::conflict, "slice is not active");
  if (new_contract <= DataRate::zero())
    return make_error(Errc::invalid_argument, "contract must be positive");

  const DataRate old_reserved = record.reserved;

  // Radio first (atomic in itself).
  Result<ran::RanAllocation> radio =
      ran_->set_allocation(record.embedding.plmn, new_contract, config_.planning_cqi);
  if (!radio.ok()) return radio.error();

  // Transport next; on failure restore the radio reservation.
  for (std::size_t i = 0; i < record.embedding.paths.size(); ++i) {
    Result<void> resized =
        transport_->resize_path(record.embedding.paths[i], leg_rate(i, new_contract));
    if (!resized.ok()) {
      for (std::size_t j = 0; j < i; ++j) {
        (void)transport_->resize_path(record.embedding.paths[j], leg_rate(j, old_reserved));
      }
      (void)ran_->set_allocation(record.embedding.plmn, old_reserved, config_.planning_cqi);
      return resized.error();
    }
  }

  json::Object audit;
  audit.emplace("from_mbps", record.spec.expected_throughput.as_mbps());
  audit.emplace("to_mbps", new_contract.as_mbps());
  record.spec.expected_throughput = new_contract;
  record.reserved = new_contract;  // overbooking re-targets next epoch
  events_.record(simulator_->now(), EventKind::slice_resized, slice,
                 EventText{"contract now " + std::to_string(new_contract.as_mbps()) + " Mb/s",
                           std::move(audit)});
  ++reconfigurations_;
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    op.emplace("contract_bps", new_contract.bits_per_second());
    op.emplace("reserved_bps", record.reserved.bits_per_second());
    journal_op("resize", std::move(op));
  }
  if (log_.enabled(LogLevel::info)) {
    log_.info("slice " + std::to_string(slice.value()) + " resized to " +
              std::to_string(new_contract.as_mbps()) + " Mb/s");
  }
  return {};
}

Result<void> Orchestrator::attach_workload(SliceId slice,
                                           std::unique_ptr<traffic::TrafficModel> workload) {
  if (!records_.contains(slice)) return make_error(Errc::not_found, "unknown slice");
  workloads_.insert_or_assign(slice, Workload{std::move(workload)});
  return {};
}

Result<void> Orchestrator::terminate(SliceId slice) {
  const auto it = records_.find(slice);
  if (it == records_.end()) return make_error(Errc::not_found, "unknown slice");
  SliceRecord& record = it->second;
  if (!record.is_live()) return make_error(Errc::conflict, "slice is not live");
  release_stages(slice, record.embedding, kEmbedStageCount);
  close(record, SliceState::terminated);
  events_.record(simulator_->now(), EventKind::slice_terminated, slice,
                 EventText{"operator-initiated teardown", {}});
  if (journaling()) {
    json::Object op;
    op.emplace("slice", static_cast<double>(slice.value()));
    journal_op("terminate", std::move(op));
  }
  return {};
}

const SliceRecord* Orchestrator::find_slice(SliceId slice) const noexcept {
  const auto it = records_.find(slice);
  return it == records_.end() ? nullptr : &it->second;
}

DataRate Orchestrator::apply_overbooking(SimTime now) {
  (void)now;
  DataRate reclaimed = DataRate::zero();
  if (!config_.overbooking.enabled) return reclaimed;

  for (auto& [slice, record] : records_) {
    if (record.state != SliceState::active) continue;
    const DataRate contracted = record.spec.expected_throughput;
    const DataRate target = engine_.target_reservation(slice, contracted);
    const double delta_mbps = target.as_mbps() - record.reserved.as_mbps();
    if (std::abs(delta_mbps) <
        config_.reconfigure_threshold * contracted.as_mbps()) {
      continue;  // hysteresis
    }

    // Radio first; transport follows. Growing can fail when new slices
    // took the headroom — that is the overbooking risk; keep what we
    // can get and try again next epoch.
    Result<ran::RanAllocation> radio =
        ran_->set_allocation(record.embedding.plmn, target, config_.planning_cqi);
    if (!radio.ok()) {
      if (log_.enabled(LogLevel::debug)) {
        log_.debug("grow-back failed for slice " + std::to_string(slice.value()) + ": " +
                   radio.error().message);
      }
      continue;
    }
    for (std::size_t leg = 0; leg < record.embedding.paths.size(); ++leg) {
      (void)transport_->resize_path(record.embedding.paths[leg], leg_rate(leg, target));
    }
    const DataRate freed = clamp_non_negative(record.reserved - target);
    reclaimed += freed;
    events_.record(simulator_->now(), EventKind::slice_reconfigured, slice,
                   EventReconfigured{record.reserved.as_mbps(), target.as_mbps(),
                                     freed.as_mbps(), contracted.as_mbps()});
    record.reserved = target;
    ++reconfigurations_;
    if (journaling()) {
      json::Object op;
      op.emplace("slice", static_cast<double>(slice.value()));
      op.emplace("reserved_bps", target.bits_per_second());
      journal_op("reconfigure", std::move(op));
    }
  }
  return reclaimed;
}

void Orchestrator::run_epoch(SimTime now) {
  if (suspended_) return;  // control-plane blackout: the epoch is simply missed
  telemetry::trace::set_sim_now(now.as_micros());
  TRACE_SCOPE("orch.serve_epoch");
  WallPhaseTimer epoch_timer(hist_.epoch_us);

  // 1. Sample offered demand of every active slice. The demand and
  // report vectors are members reused across epochs (capacity sticks).
  // Every loop below walks records_ in SliceId order with the same `active`
  // filter, so the i-th active slice's demand is ran_demands[i].
  std::vector<std::pair<PlmnId, DataRate>>& ran_demands = epoch_ran_demands_;
  ran_demands.clear();
  {
    TRACE_SCOPE("orch.epoch.sample_demand");
    for (const auto& [slice, record] : records_) {
      if (record.state != SliceState::active) continue;
      DataRate demand = DataRate::zero();
      const auto wl = workloads_.find(slice);
      if (wl != workloads_.end()) {
        demand = DataRate::mbps(std::max(0.0, wl->second.model->sample(now)));
      }
      ran_demands.emplace_back(record.embedding.plmn, demand);
    }
  }

  // 2. Radio serves (allocation-free epoch kernel; see ran/controller.hpp).
  // Its reports carry one entry per demanded PLMN, in ascending PLMN order.
  std::vector<ran::RanServeReport>& radio_reports = epoch_radio_reports_;
  {
    TRACE_SCOPE("orch.epoch.ran_serve");
    WallPhaseTimer timer(hist_.ran_us);
    ran_->serve_epoch(ran_demands, now, radio_reports);
  }

  // 3. Transport carries what the radio delivered (allocation-free
  // epoch kernel over reused buffers; see transport/controller.hpp).
  std::vector<std::pair<PathId, DataRate>>& path_demands = epoch_path_demands_;
  path_demands.clear();
  std::size_t active_index = 0;
  for (const auto& [slice, record] : records_) {
    if (record.state != SliceState::active) continue;
    const DataRate demand = ran_demands[active_index++].second;
    if (record.embedding.paths.empty()) continue;
    const PlmnId plmn = record.embedding.plmn;
    const auto served = std::lower_bound(
        radio_reports.begin(), radio_reports.end(), plmn,
        [](const ran::RanServeReport& r, PlmnId p) { return r.plmn < p; });
    const DataRate offered = served == radio_reports.end() || served->plmn != plmn
                                 ? DataRate::zero()
                                 : min(demand, served->served);
    path_demands.emplace_back(record.embedding.paths.front(), offered);
  }
  // Reports are the demanded paths in demand order, unknown paths
  // compacted out: phase 4 pairs them with their slices by one cursor.
  std::vector<transport::PathServeReport>& path_reports = epoch_path_reports_;
  {
    TRACE_SCOPE("orch.epoch.transport_serve");
    WallPhaseTimer timer(hist_.transport_us);
    transport_->serve_epoch(path_demands, now, path_reports);
  }

  {
    TRACE_SCOPE("orch.epoch.cloud_record");
    cloud_->record_epoch(now);
  }

  // 4. SLA check + revenue accrual + demand learning per active slice
  // (the sequential reduction over the parallel serve results). Closed
  // explicitly after the epoch journal append, before phase 5.
  std::optional<telemetry::trace::Scope> reduce_scope;
  reduce_scope.emplace("orch.epoch.reduce");
  WallPhaseTimer reduce_timer(hist_.reduce_us);
  // Journaled so replay re-applies exact accruals; built only when a
  // store is open to take them.
  const bool journaled = journaling();
  json::Array epoch_entries;
  double epoch_demand_mbps = 0.0;    // realized demand across active slices
  double epoch_reserved_mbps = 0.0;  // forecast-driven reservations held
  active_index = 0;
  std::size_t path_cursor = 0;
  for (auto& [slice, record] : records_) {
    if (record.state != SliceState::active) continue;
    const DataRate demand = ran_demands[active_index++].second;
    const transport::PathServeReport* pr = nullptr;
    if (!record.embedding.paths.empty() && path_cursor < path_reports.size() &&
        path_reports[path_cursor].path == record.embedding.paths.front()) {
      pr = &path_reports[path_cursor++];
      assert(pr->slice == slice);
    }
    const DataRate achieved = pr == nullptr ? DataRate::zero() : pr->served;
    const bool delay_violated = pr != nullptr && pr->delay_violated;

    const DataRate entitled = min(demand, record.spec.expected_throughput);
    const bool throughput_violated =
        achieved < entitled * (1.0 - config_.sla_tolerance) &&
        entitled > DataRate::zero();

    const bool violated = throughput_violated || delay_violated;
    if (journaled) {
      json::Object epoch_entry;
      epoch_entry.emplace("slice", static_cast<double>(slice.value()));
      // Same Money expression ledger_.accrue uses — replay re-applies the
      // exact cents instead of re-deriving price x hours.
      epoch_entry.emplace("accrued_cents",
                          static_cast<double>((record.spec.price_per_hour *
                                               config_.monitoring_period.as_hours())
                                                  .as_cents()));
      epoch_entry.emplace("violation", violated);
      epoch_entry.emplace("penalty_cents",
                          static_cast<double>(record.spec.penalty_per_violation.as_cents()));
      epoch_entry.emplace("demand_mbps", demand.as_mbps());
      epoch_entries.push_back(std::move(epoch_entry));
    }

    ledger_.accrue(slice, record.spec.price_per_hour, config_.monitoring_period);
    ++record.served_epochs;
    ++served_epochs_;
    if (throughput_violated || delay_violated) {
      ledger_.charge_violation(slice, record.spec.penalty_per_violation);
      ++record.violation_epochs;
      events_.record(now, EventKind::sla_violation, slice,
                     EventViolation{achieved.as_mbps(), entitled.as_mbps(), delay_violated,
                                    record.spec.penalty_per_violation.as_units()});
    }

    engine_.observe(slice, demand.as_mbps());
    epoch_demand_mbps += demand.as_mbps();
    epoch_reserved_mbps += record.reserved.as_mbps();

    if (registry_ != nullptr) {
      auto handle_it = slice_handles_.find(slice);
      if (handle_it == slice_handles_.end()) {
        const std::string prefix = slice_prefix(slice);
        handle_it = slice_handles_
                        .emplace(slice, SliceHandles{registry_->handle(prefix + "demand_mbps"),
                                                     registry_->handle(prefix + "achieved_mbps"),
                                                     registry_->handle(prefix + "reserved_mbps"),
                                                     &registry_->counter(prefix + "violations")})
                        .first;
      }
      handle_it->second.demand.observe(now, demand.as_mbps());
      handle_it->second.achieved.observe(now, achieved.as_mbps());
      handle_it->second.reserved.observe(now, record.reserved.as_mbps());
      if (violated) {
        handle_it->second.violations->increment();
        slo_.violation_epochs->increment();
        slo_.penalty_cents->increment(
            static_cast<std::uint64_t>(record.spec.penalty_per_violation.as_cents()));
      }
    }
  }
  // Forecast error is signed: positive = reserved above realized demand
  // (headroom the overbooking engine could still reclaim), negative =
  // under-reservation (the precursor of violation epochs).
  if (registry_ != nullptr) {
    slo_.demand_mbps.observe(now, epoch_demand_mbps);
    slo_.forecast_error_mbps.observe(now, epoch_reserved_mbps - epoch_demand_mbps);
  }

  if (!epoch_entries.empty()) {
    json::Object op;
    op.emplace("slices", std::move(epoch_entries));
    journal_op("epoch", std::move(op));
  }
  reduce_scope.reset();
  reduce_timer.stop();

  // 5. Reconfiguration: shrink/grow reservations toward forecast targets.
  {
    TRACE_SCOPE("orch.epoch.overbooking");
    apply_overbooking(now);
  }

  {
    TRACE_SCOPE("orch.epoch.publish");
    publish_summary(now);
  }

  epoch_ran_ = true;
  last_epoch_at_ = now;
  last_epoch_active_ = ran_demands.size();
  last_epoch_wall_us_ = epoch_timer.stop();
}

OrchestratorSummary Orchestrator::summary() const {
  OrchestratorSummary s;
  for (const auto& [slice, record] : records_) {
    if (record.state == SliceState::active) {
      ++s.active_slices;
      s.contracted_total += record.spec.expected_throughput;
      s.reserved_total += record.reserved;
    } else if (record.state == SliceState::installing) {
      ++s.installing_slices;
    }
  }
  s.admitted_total = admitted_total_;
  s.rejected_total = rejected_total_;
  s.multiplexing_gain = s.reserved_total > DataRate::zero()
                            ? s.contracted_total / s.reserved_total
                            : 1.0;
  s.earned = ledger_.total_earned();
  s.penalties = ledger_.total_penalties();
  s.net = ledger_.net_revenue();
  s.violation_epochs = ledger_.total_violation_epochs();
  s.reconfigurations = reconfigurations_;
  s.expired_total = expired_total_;
  s.terminated_total = terminated_total_;
  s.served_epochs = served_epochs_;
  return s;
}

void Orchestrator::publish_summary(SimTime now) {
  if (registry_ == nullptr) return;
  const OrchestratorSummary s = summary();
  if (!summary_handles_.active_slices.valid()) {
    summary_handles_.active_slices = registry_->handle("orchestrator.active_slices");
    summary_handles_.multiplexing_gain = registry_->handle("orchestrator.multiplexing_gain");
    summary_handles_.contracted_mbps = registry_->handle("orchestrator.contracted_mbps");
    summary_handles_.reserved_mbps = registry_->handle("orchestrator.reserved_mbps");
    summary_handles_.net_revenue = registry_->handle("orchestrator.net_revenue");
    summary_handles_.penalties = registry_->handle("orchestrator.penalties");
  }
  summary_handles_.active_slices.observe(now, static_cast<double>(s.active_slices));
  summary_handles_.multiplexing_gain.observe(now, s.multiplexing_gain);
  summary_handles_.contracted_mbps.observe(now, s.contracted_total.as_mbps());
  summary_handles_.reserved_mbps.observe(now, s.reserved_total.as_mbps());
  summary_handles_.net_revenue.observe(now, s.net.as_units());
  summary_handles_.penalties.observe(now, s.penalties.as_units());
}

// --- Durability (docs/persistence.md) ---------------------------------------

void Orchestrator::journal_op(const char* op, json::Object fields) {
  if (!journaling()) return;
  fields.emplace("op", std::string(op));
  fields.emplace("t_us", static_cast<double>(simulator_->now().as_micros()));
  if (const Result<std::uint64_t> seq = store_->append(std::move(fields)); !seq.ok()) {
    // Durability degrades, the control plane keeps running.
    log_.warn(std::string("journal append failed (") + op + "): " + seq.error().message);
    return;
  }
  if (store_->wants_snapshot()) {
    if (const Result<std::uint64_t> snap = snapshot_now(); !snap.ok()) {
      log_.warn("auto-snapshot failed: " + snap.error().message);
    }
  }
}

json::Value Orchestrator::state_json() const {
  const auto ledger_json = [](const SliceLedgerEntry& entry) {
    json::Object e;
    e.emplace("earned_cents", static_cast<double>(entry.earned.as_cents()));
    e.emplace("penalty_cents", static_cast<double>(entry.penalties.as_cents()));
    e.emplace("violation_epochs", static_cast<double>(entry.violation_epochs));
    return json::Value{std::move(e)};
  };
  json::Object out;
  json::Array records;
  for (const auto& [slice, record] : records_) records.push_back(record_to_json(record));
  out.emplace("records", std::move(records));
  json::Object ledger;
  for (const auto& [slice, entry] : ledger_.entries()) {
    ledger.emplace(std::to_string(slice.value()), ledger_json(entry));
  }
  out.emplace("ledger", std::move(ledger));
  out.emplace("ledger_totals",
              ledger_json({ledger_.total_earned(), ledger_.total_penalties(),
                           ledger_.total_violation_epochs()}));
  out.emplace("admitted_total", static_cast<double>(admitted_total_));
  out.emplace("rejected_total", static_cast<double>(rejected_total_));
  out.emplace("expired_total", static_cast<double>(expired_total_));
  out.emplace("terminated_total", static_cast<double>(terminated_total_));
  out.emplace("served_epochs", static_cast<double>(served_epochs_));
  out.emplace("reconfigurations", static_cast<double>(reconfigurations_));
  out.emplace("next_plmn", static_cast<double>(next_plmn_));
  out.emplace("next_slice", static_cast<double>(slice_ids_.peek()));
  out.emplace("next_request", static_cast<double>(request_ids_.peek()));
  return json::Value{std::move(out)};
}

Result<std::uint64_t> Orchestrator::snapshot_now() {
  if (store_ == nullptr || !store_->is_open())
    return make_error(Errc::unavailable, "no open state store attached");
  json::Object wrapped;
  wrapped.emplace("t_us", static_cast<double>(simulator_->now().as_micros()));
  wrapped.emplace("data", state_json());
  return store_->write_snapshot(json::Value{std::move(wrapped)});
}

Result<void> Orchestrator::load_state(const json::Value& state) {
  if (state.find("next_slice") == nullptr || state.find("next_request") == nullptr) {
    return make_error(Errc::invalid_argument,
                      "snapshot has no id allocators: its layout keeps closed records");
  }
  if (const json::Value* records = state.find("records");
      records != nullptr && records->is_array()) {
    for (const json::Value& v : records->as_array()) {
      SliceRecord record = record_from_json(v);
      // Only open records are dumped; anything else is damage.
      const bool open = record.state == SliceState::pending || record.is_live();
      if (!record.id.valid() || !open) continue;
      if (record.state == SliceState::active) engine_.track(record.id);
      const SliceId id = record.id;
      // Stay ahead of every restored record even if the snapshot's
      // allocators lag behind one of them.
      slice_ids_.advance_past(id);
      request_ids_.advance_past(record.request);
      records_.insert_or_assign(id, std::move(record));
    }
  }
  const auto ledger_entry = [](const json::Value& v) {
    return SliceLedgerEntry{Money::cents(field_i64(v, "earned_cents")),
                            Money::cents(field_i64(v, "penalty_cents")),
                            field_u64(v, "violation_epochs")};
  };
  std::map<SliceId, SliceLedgerEntry> entries;
  if (const json::Value* ledger = state.find("ledger");
      ledger != nullptr && ledger->is_object()) {
    for (const auto& [key, entry] : ledger->as_object()) {
      entries.insert_or_assign(SliceId{std::strtoull(key.c_str(), nullptr, 10)},
                               ledger_entry(entry));
    }
  }
  const json::Value* totals = state.find("ledger_totals");
  ledger_.restore(std::move(entries),
                  totals != nullptr ? ledger_entry(*totals) : SliceLedgerEntry{});
  admitted_total_ = field_u64(state, "admitted_total");
  rejected_total_ = field_u64(state, "rejected_total");
  expired_total_ = field_u64(state, "expired_total");
  terminated_total_ = field_u64(state, "terminated_total");
  served_epochs_ = field_u64(state, "served_epochs");
  reconfigurations_ = field_u64(state, "reconfigurations");
  next_plmn_ = std::max(next_plmn_, field_u64(state, "next_plmn"));
  // The allocators resume past every id drawn, closed slices' too.
  slice_ids_.advance_past(SliceId{field_u64(state, "next_slice", 1.0) - 1});
  request_ids_.advance_past(RequestId{field_u64(state, "next_request", 1.0) - 1});
  return {};
}

void Orchestrator::apply_journal_op(const json::Value& op) {
  const std::string kind = field_str(op, "op");

  if (kind == "epoch") {
    const json::Value* entries = op.find("slices");
    if (entries == nullptr || !entries->is_array()) return;
    for (const json::Value& entry : entries->as_array()) {
      const SliceId s = field_id<SliceTag>(entry, "slice");
      const auto it = records_.find(s);
      if (it == records_.end()) continue;
      ledger_.add_earned(s, Money::cents(field_i64(entry, "accrued_cents")));
      ++it->second.served_epochs;
      ++served_epochs_;
      if (field_bool(entry, "violation")) {
        ledger_.charge_violation(s, Money::cents(field_i64(entry, "penalty_cents")));
        ++it->second.violation_epochs;
      }
      // Warm the forecaster with the journaled offered demand so
      // overbooking targets pick up where the crashed process left off.
      if (engine_.tracks(s)) engine_.observe(s, field_num(entry, "demand_mbps"));
    }
    return;
  }

  const SliceId slice = field_id<SliceTag>(op, "slice");
  if (!slice.valid()) return;

  if (kind == "submit") {
    if (records_.contains(slice)) return;
    SliceRecord record;
    record.id = slice;
    record.request = field_id<RequestTag>(op, "request");
    if (const json::Value* spec = op.find("spec")) record.spec = spec_from_json(*spec);
    record.submitted_at = SimTime::from_micros(field_i64(op, "t_us"));
    // Both allocators pass the ids this submit drew, even when the
    // slice closes later in the tail and its record goes.
    slice_ids_.advance_past(slice);
    request_ids_.advance_past(record.request);
    records_.emplace(slice, std::move(record));
    return;
  }

  const auto it = records_.find(slice);
  if (it == records_.end()) return;
  SliceRecord& record = it->second;

  if (kind == "admit") {
    record.state = SliceState::installing;
    record.reserved = DataRate::bps(field_num(op, "reserved_bps"));
    record.activates_at = SimTime::from_micros(field_i64(op, "activates_at_us"));
    if (const json::Value* e = op.find("embedding")) record.embedding = embedding_from_json(*e);
    ++admitted_total_;
    next_plmn_ = std::max(next_plmn_, field_u64(op, "next_plmn"));
  } else if (kind == "reject") {
    next_plmn_ = std::max(next_plmn_, field_u64(op, "next_plmn"));
    close(record, SliceState::rejected);
  } else if (kind == "activate") {
    record.state = SliceState::active;
    record.active_at = SimTime::from_micros(field_i64(op, "at_us"));
    record.ends_at = SimTime::from_micros(field_i64(op, "ends_at_us"));
    engine_.track(slice);
  } else if (kind == "resize") {
    record.spec.expected_throughput = DataRate::bps(field_num(op, "contract_bps"));
    record.reserved = DataRate::bps(field_num(op, "reserved_bps"));
    ++reconfigurations_;
  } else if (kind == "reconfigure") {
    record.reserved = DataRate::bps(field_num(op, "reserved_bps"));
    ++reconfigurations_;
  } else if (kind == "expire" || kind == "terminate") {
    // Nothing is installed during replay, so there is nothing to release.
    close(record, kind == "expire" ? SliceState::expired : SliceState::terminated);
  } else {
    log_.warn("replay skipped unknown journal op '" + kind + "'");
  }
}

void Orchestrator::reinstall_recovered(RecoveryStats& stats) {
  // A record the substrate cannot re-fit closes, which erases it: step
  // past each one before reinstalling it.
  for (auto it = records_.begin(); it != records_.end();) {
    SliceRecord& record = (it++)->second;
    if (!record.is_live()) continue;
    const SliceId id = record.id;
    // The stages reuse every id the record holds (PLMN, datacenter,
    // path ids) and reserve at its current, possibly overbooked, rate.
    EmbedStage failed = EmbedStage::plmn_install;
    Result<Duration> installed =
        install_stages(id, record.spec, record.reserved, record.embedding, failed);
    if (installed.ok() && record.state == SliceState::active) {
      if (Result<void> r = epc_->activate(id); !r.ok()) {
        release_stages(id, record.embedding, kEmbedStageCount);
        failed = EmbedStage::epc_deploy;
        installed = r.error();
      }
    }
    if (installed.ok()) {
      if (record.state == SliceState::active) {
        engine_.track(id);
        simulator_->schedule_at(record.ends_at, [this, id] { expire(id); });
      } else {
        simulator_->schedule_at(record.activates_at, [this, id] { activate(id); });
      }
      ++stats.reinstalled;
      continue;
    }
    // Degrade, never crash: the substrate could not re-fit this slice
    // (capacity moved while we were down, or the record was damaged).
    // The stage loop already released what this call installed; what
    // the record names beyond that may belong to another live slice.
    ++stats.reinstall_failures;
    close(record, SliceState::terminated);
    json::Object audit;
    audit.emplace("reason", installed.error().message);
    audit.emplace("stage", std::string(to_string(failed)));
    events_.record(simulator_->now(), EventKind::slice_terminated, id,
                   EventText{"substrate could not re-fit the slice on recovery", std::move(audit)});
    log_.warn("recovery could not reinstall slice " + std::to_string(id.value()));
    if (journaling()) {
      json::Object op;
      op.emplace("slice", static_cast<double>(id.value()));
      journal_op("terminate", std::move(op));
    }
  }
}

Result<RecoveryStats> Orchestrator::recover_from_store() {
  if (store_ == nullptr || !store_->is_open())
    return make_error(Errc::unavailable, "no open state store attached");
  if (!records_.empty() || admitted_total_ != 0 || rejected_total_ != 0)
    return make_error(Errc::conflict, "orchestrator already holds slice state");

  const auto wall_start = std::chrono::steady_clock::now();
  const store::RecoveredInput& in = store_->recovered();

  RecoveryStats stats;
  stats.had_snapshot = in.has_snapshot;
  stats.snapshot_seq = in.snapshot_seq;
  stats.journal_truncated = in.journal_truncated;

  // Fast-forward the simulator to the last journaled instant *before*
  // touching state: anything pending in between (periodic epochs armed
  // by start()) fires against an empty orchestrator and is harmless,
  // and every recovered timer then lands in the future.
  std::int64_t last_us = 0;
  if (in.has_snapshot) last_us = field_i64(in.snapshot_state, "t_us");
  for (const json::Value& op : in.events) {
    last_us = std::max(last_us, field_i64(op, "t_us"));
  }
  if (SimTime::from_micros(last_us) > simulator_->now()) {
    (void)simulator_->run_until(SimTime::from_micros(last_us));
  }

  if (in.has_snapshot) {
    if (const json::Value* data = in.snapshot_state.find("data")) {
      if (Result<void> loaded = load_state(*data); !loaded.ok()) return loaded.error();
    }
  }
  for (const json::Value& op : in.events) {
    apply_journal_op(op);
    ++stats.events_replayed;
  }
  stats.records_recovered = records_.size();

  reinstall_recovered(stats);

  store_->discard_recovered();
  stats.replay_millis =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall_start)
          .count();
  last_recovery_ = stats;
  if (registry_ != nullptr) {
    registry_->observe("store.recover_ms", simulator_->now(), stats.replay_millis);
    registry_->observe("store.recovered_records", simulator_->now(),
                       static_cast<double>(stats.records_recovered));
  }
  events_.record(simulator_->now(), EventKind::state_recovered, SliceId{0},
                 EventText{"replayed " + std::to_string(stats.events_replayed) + " events, " +
                               std::to_string(stats.reinstalled) + " slices reinstalled, " +
                               std::to_string(stats.reinstall_failures) + " lost",
                           {}});
  if (log_.enabled(LogLevel::info)) {
    log_.info("state recovered: " + std::to_string(stats.records_recovered) + " records, " +
              std::to_string(stats.events_replayed) + " events replayed");
  }
  return stats;
}

json::Value Orchestrator::health_json() const {
  const SimTime now = simulator_->now();

  // Component liveness: reachability of every domain service over the
  // monitoring bus (absent bus = standalone mode, reported as such).
  json::Object components;
  for (const char* domain : {"ran", "transport", "cloud"}) {
    components.emplace(domain, bus_ != nullptr && bus_->has_service(domain));
  }

  // Journal lag: records appended since the last snapshot — what a
  // crash would have to replay.
  bool store_degraded = false;
  json::Object journal;
  journal.emplace("attached", store_ != nullptr);
  if (store_ != nullptr) {
    journal.emplace("open", store_->is_open());
    journal.emplace("lag_records", static_cast<double>(store_->journal_records()));
    journal.emplace("bytes", static_cast<double>(store_->journal_bytes()));
    store_degraded = !store_->is_open();
  }

  json::Object last_epoch;
  last_epoch.emplace("ran", epoch_ran_);
  bool epoch_stale = false;
  if (epoch_ran_) {
    last_epoch.emplace("t_s", last_epoch_at_.as_seconds());
    last_epoch.emplace("active_slices", static_cast<double>(last_epoch_active_));
    if (last_epoch_wall_us_ >= 0) {
      last_epoch.emplace("duration_us", static_cast<double>(last_epoch_wall_us_));
    }
    epoch_stale = started_ && now - last_epoch_at_ > config_.monitoring_period * 2.0;
  } else {
    // Before the first epoch the loop is healthy as long as one is due.
    epoch_stale = started_ && now.as_micros() > (config_.monitoring_period * 2.0).as_micros();
  }
  last_epoch.emplace("stale", epoch_stale);

  json::Object faults;
  for (const auto& [component, detail] : active_faults_) faults.emplace(component, detail);

  json::Object out;
  out.emplace("status", epoch_stale || store_degraded || !active_faults_.empty()
                            ? std::string("degraded")
                            : std::string("ok"));
  out.emplace("faults", std::move(faults));
  out.emplace("suspended", suspended_);
  out.emplace("started", started_);
  out.emplace("sim_time_s", now.as_seconds());
  out.emplace("components", std::move(components));
  out.emplace("journal", std::move(journal));
  out.emplace("last_epoch", std::move(last_epoch));
  out.emplace("trace", telemetry::trace::Tracer::instance().status_json());
  return json::Value{std::move(out)};
}

std::shared_ptr<net::Router> Orchestrator::make_router() {
  auto router = std::make_shared<net::Router>();

  const auto record_json = [this](const SliceRecord& record) {
    json::Object entry;
    entry.emplace("slice", static_cast<double>(record.id.value()));
    entry.emplace("request", static_cast<double>(record.request.value()));
    entry.emplace("tenant", record.spec.tenant_name);
    entry.emplace("vertical", std::string(traffic::to_string(record.spec.vertical)));
    entry.emplace("state", std::string(to_string(record.state)));
    entry.emplace("contracted_mbps", record.spec.expected_throughput.as_mbps());
    entry.emplace("reserved_mbps", record.reserved.as_mbps());
    entry.emplace("max_latency_ms", record.spec.max_latency.as_millis());
    entry.emplace("violation_epochs", static_cast<double>(record.violation_epochs));
    if (const SliceLedgerEntry* ledger = ledger_.find(record.id)) {
      entry.emplace("earned", ledger->earned.as_units());
      entry.emplace("penalties", ledger->penalties.as_units());
    }
    return json::Value(std::move(entry));
  };

  router->add(net::Method::post, "/slices", [this](const net::RouteContext& ctx) {
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const json::Value& v = doc.value();

    // Two ways to name what is requested: a catalog template, or a
    // vertical + duration (the raw dashboard form).
    SliceSpec spec;
    if (const json::Value* tmpl = v.find("template"); tmpl != nullptr && tmpl->is_string()) {
      Result<SliceSpec> from_catalog =
          v.find("duration_hours") != nullptr && v.find("duration_hours")->is_number()
              ? catalog_.instantiate(tmpl->as_string(),
                                     Duration::hours(v.find("duration_hours")->as_number()))
              : catalog_.instantiate(tmpl->as_string());
      if (!from_catalog.ok()) return net::Response::from_error(from_catalog.error());
      spec = std::move(from_catalog).value();
    } else {
      const Result<std::string> vertical_name = v.get_string("vertical");
      if (!vertical_name.ok()) return net::Response::from_error(vertical_name.error());
      std::optional<traffic::Vertical> vertical;
      for (const traffic::Vertical candidate : traffic::all_verticals()) {
        if (traffic::to_string(candidate) == vertical_name.value()) vertical = candidate;
      }
      if (!vertical)
        return net::Response::from_error(make_error(
            Errc::invalid_argument, "unknown vertical '" + vertical_name.value() + "'"));

      const Result<double> hours = v.get_number("duration_hours");
      if (!hours.ok()) return net::Response::from_error(hours.error());
      spec = SliceSpec::from_profile(traffic::profile_for(*vertical),
                                     Duration::hours(hours.value()));
    }
    // Dashboard overrides of the profile defaults.
    if (const json::Value* f = v.find("throughput_mbps"); f != nullptr && f->is_number())
      spec.expected_throughput = DataRate::mbps(f->as_number());
    if (const json::Value* f = v.find("max_latency_ms"); f != nullptr && f->is_number())
      spec.max_latency = Duration::millis(f->as_number());
    if (const json::Value* f = v.find("price_per_hour"); f != nullptr && f->is_number())
      spec.price_per_hour = Money::units(f->as_number());
    if (const json::Value* f = v.find("penalty_per_violation"); f != nullptr && f->is_number())
      spec.penalty_per_violation = Money::units(f->as_number());
    if (const json::Value* f = v.find("tenant"); f != nullptr && f->is_string())
      spec.tenant_name = f->as_string();

    const SubmitVerdict verdict = submit(spec);
    json::Object body;
    body.emplace("request", static_cast<double>(verdict.request.value()));
    body.emplace("slice", static_cast<double>(verdict.slice.value()));
    body.emplace("state", std::string(to_string(verdict.state)));
    const net::Status status = verdict.state == SliceState::rejected
                                   ? net::Status::conflict
                                   : net::Status::created;
    return net::Response::json(status, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/slices", [this, record_json](const net::RouteContext&) {
    json::Array out;
    for (const auto& [slice, record] : records_) out.push_back(record_json(record));
    json::Object body;
    body.emplace("slices", std::move(out));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/slices/{id}",
              [this, record_json](const net::RouteContext& ctx) {
                const Result<std::uint64_t> id = ctx.id_param("id");
                if (!id.ok()) return net::Response::from_error(id.error());
                const SliceRecord* record = find_slice(SliceId{id.value()});
                if (record == nullptr)
                  return net::Response::from_error(make_error(Errc::not_found, "unknown slice"));
                return net::Response::json(net::Status::ok, json::serialize(record_json(*record)));
              });

  router->add(net::Method::del, "/slices/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<void> r = terminate(SliceId{id.value()});
    if (!r.ok()) return net::Response::from_error(r.error());
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::patch, "/slices/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const Result<double> rate = doc.value().get_number("throughput_mbps");
    if (!rate.ok()) return net::Response::from_error(rate.error());
    const Result<void> r = resize_slice(SliceId{id.value()}, DataRate::mbps(rate.value()));
    if (!r.ok()) return net::Response::from_error(r.error());
    return net::Response::json(net::Status::ok, "{}");
  });

  router->add(net::Method::get, "/templates", [this](const net::RouteContext&) {
    json::Array out;
    for (const std::string& name : catalog_.names()) {
      const SliceTemplate* entry = catalog_.find(name);
      json::Object row;
      row.emplace("name", name);
      row.emplace("vertical", std::string(traffic::to_string(entry->vertical)));
      row.emplace("duration_hours", entry->default_duration.as_hours());
      out.push_back(std::move(row));
    }
    json::Object body;
    body.emplace("templates", std::move(out));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/events", [this](const net::RouteContext& ctx) {
    const auto after = ctx.query.find("after");
    const EventLog::Range events =
        after != ctx.query.end()
            ? events_.after(std::strtoull(after->second.c_str(), nullptr, 10))
            : events_.recent(100);
    json::Array out;
    for (const Event& event : events) out.push_back(event.to_json());
    json::Object body;
    body.emplace("events", std::move(out));
    body.emplace("total_recorded", static_cast<double>(events_.total_recorded()));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/report", [this](const net::RouteContext&) {
    const OrchestratorSummary s = summary();
    json::Object body;
    body.emplace("active_slices", static_cast<double>(s.active_slices));
    body.emplace("installing_slices", static_cast<double>(s.installing_slices));
    body.emplace("admitted_total", static_cast<double>(s.admitted_total));
    body.emplace("rejected_total", static_cast<double>(s.rejected_total));
    body.emplace("contracted_mbps", s.contracted_total.as_mbps());
    body.emplace("reserved_mbps", s.reserved_total.as_mbps());
    body.emplace("multiplexing_gain", s.multiplexing_gain);
    body.emplace("earned", s.earned.as_units());
    body.emplace("penalties", s.penalties.as_units());
    body.emplace("net_revenue", s.net.as_units());
    body.emplace("violation_epochs", static_cast<double>(s.violation_epochs));
    body.emplace("reconfigurations", static_cast<double>(s.reconfigurations));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/slices/{id}/audit", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const SliceId slice{id.value()};
    const SliceRecord* record = find_slice(slice);
    json::Array out;
    for (const Event& event : events_.after(0)) {
      if (event.slice == slice) out.push_back(event.to_json());
    }
    // A closed slice is answered from the event ring while it holds any
    // of its events.
    if (record == nullptr && out.empty())
      return net::Response::from_error(make_error(Errc::not_found, "unknown slice"));
    json::Object body;
    body.emplace("slice", static_cast<double>(slice.value()));
    body.emplace("state", record == nullptr ? std::string("closed")
                                            : std::string(to_string(record->state)));
    body.emplace("events", std::move(out));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/healthz", [this](const net::RouteContext&) {
    return net::Response::json(net::Status::ok, json::serialize(health_json()));
  });

  // Same shape as EdgeNode::metrics_body so one scraper handles both:
  // the registry snapshot plus the tracer status (whose lane_detail
  // carries the per-lane ring-overwrite drop counters).
  router->add(net::Method::get, "/metrics", [this](const net::RouteContext&) {
    std::string body = "{\"metrics\":";
    if (registry_ != nullptr) {
      std::string registry_body;
      registry_->metrics_body(registry_body);
      body += registry_body;
    } else {
      body += "null";
    }
    body += ",\"trace\":";
    body += json::serialize(telemetry::trace::Tracer::instance().status_json());
    body.push_back('}');
    return net::Response::json(net::Status::ok, std::move(body));
  });

  router->add(net::Method::get, "/trace", [](const net::RouteContext& ctx) {
    auto& tracer = telemetry::trace::Tracer::instance();
    std::string body;
    tracer.export_chrome_json(body);
    if (const auto clear = ctx.query.find("clear");
        clear != ctx.query.end() && clear->second != "0") {
      tracer.clear();
    }
    return net::Response::json(net::Status::ok, std::move(body));
  });

  router->add(net::Method::del, "/trace", [](const net::RouteContext&) {
    auto& tracer = telemetry::trace::Tracer::instance();
    const std::size_t cleared = tracer.span_count();
    tracer.clear();
    json::Object body;
    body.emplace("cleared_spans", static_cast<double>(cleared));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::get, "/store/status", [this](const net::RouteContext&) {
    if (store_ == nullptr)
      return net::Response::from_error(make_error(Errc::unavailable, "no state store attached"));
    json::Value status = store_->status_json();
    if (last_recovery_.has_value()) {
      json::Object recovery;
      recovery.emplace("had_snapshot", last_recovery_->had_snapshot);
      recovery.emplace("snapshot_seq", static_cast<double>(last_recovery_->snapshot_seq));
      recovery.emplace("events_replayed", static_cast<double>(last_recovery_->events_replayed));
      recovery.emplace("records_recovered",
                       static_cast<double>(last_recovery_->records_recovered));
      recovery.emplace("reinstalled", static_cast<double>(last_recovery_->reinstalled));
      recovery.emplace("reinstall_failures",
                       static_cast<double>(last_recovery_->reinstall_failures));
      recovery.emplace("journal_truncated", last_recovery_->journal_truncated);
      recovery.emplace("replay_ms", last_recovery_->replay_millis);
      status["last_recovery"] = json::Value(std::move(recovery));
    }
    return net::Response::json(net::Status::ok, json::serialize(status));
  });

  router->add(net::Method::post, "/store/snapshot", [this](const net::RouteContext&) {
    const Result<std::uint64_t> seq = snapshot_now();
    if (!seq.ok()) return net::Response::from_error(seq.error());
    json::Object body;
    body.emplace("snapshot_seq", static_cast<double>(seq.value()));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::post, "/store/compact", [this](const net::RouteContext&) {
    if (store_ == nullptr || !store_->is_open())
      return net::Response::from_error(
          make_error(Errc::unavailable, "no open state store attached"));
    const Result<std::uint64_t> reclaimed = store_->compact();
    if (!reclaimed.ok()) return net::Response::from_error(reclaimed.error());
    json::Object body;
    body.emplace("bytes_reclaimed", static_cast<double>(reclaimed.value()));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::post, "/store/restore", [this](const net::RouteContext&) {
    const Result<RecoveryStats> stats = recover_from_store();
    if (!stats.ok()) return net::Response::from_error(stats.error());
    json::Object body;
    body.emplace("had_snapshot", stats.value().had_snapshot);
    body.emplace("events_replayed", static_cast<double>(stats.value().events_replayed));
    body.emplace("records_recovered", static_cast<double>(stats.value().records_recovered));
    body.emplace("reinstalled", static_cast<double>(stats.value().reinstalled));
    body.emplace("reinstall_failures",
                 static_cast<double>(stats.value().reinstall_failures));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  return router;
}

}  // namespace slices::core
