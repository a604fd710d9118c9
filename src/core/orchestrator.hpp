#pragma once
// The end-to-end network-slicing orchestrator (Fig. 1 of the paper).
//
// Hierarchically placed on top of the three domain controllers (radio,
// transport, cloud) plus the EPC manager, it:
//   * admits slice requests under a revenue-maximization policy,
//   * embeds admitted slices across all domains atomically through one
//     ordered stage list (PLMN install, PRB allocation, placement,
//     delay/capacity-constrained paths, EPC stack, optional edge
//     service), releasing the installed stages in reverse on failure,
//   * runs the closed monitoring → forecasting → reconfiguration loop
//     every monitoring period, overbooking idle reservations to make
//     room for new slices,
//   * tracks SLA violations and keeps the gains-vs-penalties ledger the
//     demo dashboard displays.
//
// It holds the open slices only (pending, installing, active). A slice
// that closes — rejected, expired or terminated — leaves: its record,
// workload and ledger entry are erased, and what it counted lives on in
// the running totals (summary(), the ledger's totals), the bounded
// event log and the journal. Memory and snapshots follow the open
// slices, not the run's history.
//
// Every controller serves its /metrics over the REST bus for operators
// and dashboards; the orchestrator reads serve reports in-process and
// uses the bus only for /healthz reachability. Resource configuration
// uses the controllers' typed APIs so multi-domain transactions can
// roll back precisely.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/controller.hpp"
#include "common/ids.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/admission.hpp"
#include "core/catalog.hpp"
#include "core/events.hpp"
#include "core/overbooking.hpp"
#include "core/revenue.hpp"
#include "core/slice.hpp"
#include "epc/epc.hpp"
#include "net/rest_bus.hpp"
#include "ran/controller.hpp"
#include "sim/simulator.hpp"
#include "store/store.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "traffic/model.hpp"
#include "transport/controller.hpp"

namespace slices::core {

/// Orchestrator tuning.
struct OrchestratorConfig {
  /// Monitoring/orchestration cycle (one epoch).
  Duration monitoring_period = Duration::minutes(15.0);
  OverbookingConfig overbooking;
  std::string admission_policy = "knapsack_revenue";
  /// When > 0, requests are not decided on arrival but queued and
  /// auctioned as a batch every window (the broker model of the slice-
  /// broker literature — this is where revenue-max policies beat FCFS).
  /// Zero (default) decides each request immediately.
  Duration admission_window = Duration::zero();
  /// Batched mode only: how long a request that lost an auction stays
  /// queued for later auctions before being finally rejected. Zero
  /// (default) rejects at the first lost auction.
  Duration admission_patience = Duration::zero();
  /// Throughput SLA tolerance: a violation epoch is one where
  /// served < (1 − tolerance) × min(demand, contracted).
  double sla_tolerance = 0.05;
  /// CQI assumed when planning radio capacity for not-yet-active slices.
  ran::Cqi planning_cqi{10};
  /// Reconfigure a reservation only when it moves by more than this
  /// fraction of contract (hysteresis against thrashing).
  double reconfigure_threshold = 0.02;
  /// Slices placed at an edge datacenter also get a breakout path from
  /// the edge to the core cloud (internet/centralized services), sized
  /// at this fraction of the contract. 0 disables the second leg.
  double edge_breakout_fraction = 0.25;
  /// Delay bound of the breakout leg (it is not latency-critical).
  Duration breakout_delay_bound = Duration::millis(50.0);

  // Installation-stage latencies (see experiment D4). Each stage draws
  // multiplicative lognormal-ish jitter of `install_jitter` relative
  // std-dev, seeded per orchestrator, so repeated installs show a
  // realistic latency distribution.
  Duration plmn_install_time = Duration::millis(800.0);
  Duration ran_reserve_time = Duration::millis(300.0);
  Duration path_setup_time_per_rule = Duration::millis(50.0);
  Duration activation_margin = Duration::millis(500.0);
  double install_jitter = 0.15;
  std::uint64_t install_jitter_seed = 0x1057a11;

  /// Worker threads (including the calling one) for sharding per-cell
  /// RAN serving and per-path transport serving inside each epoch.
  /// 1 = fully sequential. The parallel phases reduce deterministically,
  /// so every value produces bit-for-bit identical results.
  std::size_t epoch_threads = 1;
};

/// Breakdown of one slice's installation timeline (experiment D4).
struct InstallTimeline {
  Duration plmn_install;
  Duration ran_reservation;
  Duration path_setup;
  Duration epc_deploy;
  Duration activation_margin;

  [[nodiscard]] Duration total() const noexcept {
    return plmn_install + ran_reservation + path_setup + epc_deploy + activation_margin;
  }
};

/// Aggregate numbers for the dashboard's headline panel.
struct OrchestratorSummary {
  std::size_t active_slices = 0;
  std::size_t installing_slices = 0;
  std::uint64_t admitted_total = 0;
  std::uint64_t rejected_total = 0;
  DataRate contracted_total;    ///< sum of contracted rates (active)
  DataRate reserved_total;      ///< sum of current reservations (active)
  double multiplexing_gain = 1.0;  ///< contracted / reserved (>= 1 with OB)
  Money earned;
  Money penalties;
  Money net;
  std::uint64_t violation_epochs = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t expired_total = 0;     ///< slices that ran to their end
  std::uint64_t terminated_total = 0;  ///< slices torn down early
  std::uint64_t served_epochs = 0;     ///< slice-epochs served, over every slice
};

/// What submit() decided for one request.
struct SubmitVerdict {
  RequestId request;
  SliceId slice;
  /// installing or rejected; pending in batched mode (admission_window),
  /// where the next auction decides.
  SliceState state = SliceState::pending;
};

/// What a crash-recovery replay did (docs/persistence.md).
struct RecoveryStats {
  bool had_snapshot = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t events_replayed = 0;
  std::size_t records_recovered = 0;     ///< open slice records reconstructed
  std::size_t reinstalled = 0;           ///< live slices re-embedded into the domains
  std::size_t reinstall_failures = 0;    ///< live slices the substrate could no longer fit
  bool journal_truncated = false;        ///< a torn tail was dropped
  double replay_millis = 0.0;            ///< wall-clock of the whole recovery
};

/// The end-to-end orchestrator.
class Orchestrator {
 public:
  /// All collaborators are owned by the caller and must outlive the
  /// orchestrator. `bus` and `registry` may be nullptr (no /healthz
  /// reachability / no telemetry).
  Orchestrator(sim::Simulator* simulator, ran::RanController* ran,
               transport::TransportController* transport, cloud::CloudController* cloud,
               epc::EpcManager* epc, net::RestBus* bus,
               telemetry::MonitorRegistry* registry, OrchestratorConfig config = {});

  /// Where slices enter/exit the transport network: the RAN-side
  /// gateway and one gateway node per datacenter. Must be called before
  /// the first submit().
  void set_attachment_points(NodeId ran_gateway,
                             std::map<DatacenterId, NodeId> datacenter_gateways);

  /// Begin the periodic orchestration loop on the simulator.
  void start();

  // --- Dashboard-facing API -------------------------------------------------

  /// Submit a slice request, with an optional demand workload (sampled
  /// every epoch while the slice is active). Decided immediately
  /// (admission + embedding) unless admission is batched.
  SubmitVerdict submit(const SliceSpec& spec,
                       std::unique_ptr<traffic::TrafficModel> workload = nullptr);

  /// Attach (or replace) the demand workload of an open slice — e.g.
  /// one submitted over REST, where the form carries SLA terms only.
  /// Errors: not_found (unknown or closed).
  [[nodiscard]] Result<void> attach_workload(SliceId slice,
                                             std::unique_ptr<traffic::TrafficModel> workload);

  /// Tenant-initiated contract change: set a live slice's contracted
  /// throughput to `new_contract`. Growth re-validates radio and
  /// transport capacity atomically (insufficient_capacity leaves the
  /// old contract untouched); shrinking always succeeds. The EPC
  /// data-plane VNF keeps its deploy-time sizing (scaling VNFs in place
  /// is out of demo scope). Errors: not_found, conflict (not active),
  /// invalid_argument, insufficient_capacity.
  [[nodiscard]] Result<void> resize_slice(SliceId slice, DataRate new_contract);

  /// Operator-initiated early teardown. Errors: not_found, conflict
  /// (slice not live).
  [[nodiscard]] Result<void> terminate(SliceId slice);

  /// An open slice's record; nullptr once it closed (or never existed).
  [[nodiscard]] const SliceRecord* find_slice(SliceId slice) const noexcept;
  /// The open records (pending, installing, active), in SliceId order.
  /// Closing a slice erases its entry.
  [[nodiscard]] const std::map<SliceId, SliceRecord>& slices() const noexcept {
    return records_;
  }

  [[nodiscard]] const RevenueLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] const EventLog& events() const noexcept { return events_; }

  /// The slice-template catalog the REST dashboard API serves
  /// (SliceCatalog::builtin()).
  [[nodiscard]] const SliceCatalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const OverbookingEngine& overbooking() const noexcept { return engine_; }
  [[nodiscard]] OverbookingEngine& overbooking() noexcept { return engine_; }
  [[nodiscard]] const OrchestratorConfig& config() const noexcept { return config_; }

  /// Installation timeline of the most recent successful embedding.
  [[nodiscard]] const InstallTimeline& last_install_timeline() const noexcept {
    return last_timeline_;
  }

  /// Headline dashboard numbers, computed on demand.
  [[nodiscard]] OrchestratorSummary summary() const;

  // --- Durable state store (docs/persistence.md) ---------------------------

  /// Attach the write-ahead store. From here on every state transition
  /// (submit/admit/reject/activate/resize/reconfigure/expire/terminate
  /// and per-epoch accruals) is journaled at its commit point, and a
  /// full-state snapshot is cut whenever the store asks for one. The
  /// store must be open() and must outlive the orchestrator. Pass
  /// nullptr to detach (stops journaling).
  void attach_store(store::StateStore* store) { store_ = store; }
  [[nodiscard]] store::StateStore* attached_store() const noexcept { return store_; }

  /// Rebuild orchestrator state from the attached store's recovered
  /// input (latest valid snapshot + journal tail): reload the durable
  /// state, replay events past the snapshot, re-install live slices
  /// into the RAN/transport/cloud controllers and the EPC, and
  /// re-schedule their activation/expiry timers. Fast-forwards the
  /// simulator to the last journaled timestamp first, so recovered
  /// timers land in the future. Demand workloads are soft state and
  /// must be re-attached afterwards (attach_workload). Errors:
  /// unavailable (no store attached / not open), conflict (this
  /// orchestrator already holds slice state).
  [[nodiscard]] Result<RecoveryStats> recover_from_store();

  /// Durable-state dump: everything recovery needs to reconstruct this
  /// orchestrator — the open records and their ledger entries, the
  /// running totals and the id allocators — deterministically serialized
  /// (used for snapshots and for state-equality checks in tests). Its
  /// size follows the open slices. Soft state — forecaster internals,
  /// the event ring, install-jitter RNG — is excluded.
  [[nodiscard]] json::Value state_json() const;

  /// Cut a snapshot now (also truncates the journal). Errors:
  /// unavailable (no store attached / not open) plus I/O errors.
  [[nodiscard]] Result<std::uint64_t> snapshot_now();

  /// Stats of the last recover_from_store(), if one ran.
  [[nodiscard]] const std::optional<RecoveryStats>& last_recovery() const noexcept {
    return last_recovery_;
  }

  // --- Fault injection / scenario hooks (docs/scenarios.md) ----------------

  /// Suspend or resume the monitoring/orchestration loop (a controller
  /// restart or control-plane blackout): while suspended, run_epoch
  /// returns immediately — no serving, no accrual, no reconfiguration —
  /// and /healthz reports the loop as stale once two periods pass.
  void set_suspended(bool suspended);
  [[nodiscard]] bool suspended() const noexcept { return suspended_; }

  /// Declare an injected fault active/cleared under a stable component
  /// name (e.g. "link.mmwave", "dc.edge-dc"). Faults are recorded in the
  /// event log (audit trail) with the given detail fields and surfaced
  /// in health_json() under "faults" — /healthz turns "degraded" while
  /// any fault is active. Clearing an unknown fault is a no-op.
  void note_fault(const std::string& component, bool active, std::string detail,
                  json::Object fields = {});
  [[nodiscard]] const std::map<std::string, std::string>& active_faults() const noexcept {
    return active_faults_;
  }

  /// Liveness/health document served at GET /healthz: component
  /// reachability over the bus, journal lag, last-epoch freshness,
  /// active injected faults and tracer status. Pure read — safe to call
  /// from tests and dashboards.
  [[nodiscard]] json::Value health_json() const;

  /// REST facade — the dashboard API of the demo (slice CRUD + report).
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

  /// Run one monitoring/orchestration epoch immediately (the periodic
  /// loop calls this; tests/benches may call it directly).
  void run_epoch(SimTime now);

  /// Capacity this orchestrator believes it can still sell: physical
  /// radio headroom plus what the overbooking engine can reclaim from
  /// live slices. This is the forecast-headroom signal a federation
  /// broker uses for delegated cross-region admission.
  [[nodiscard]] DataRate sellable_capacity() const;

 private:
  struct Workload {
    std::unique_ptr<traffic::TrafficModel> model;
  };

  /// Try to admit + embed `record` (in pending state). On success the
  /// record moves to installing and activation is scheduled; on a
  /// rejection it is closed. Returns whether it was admitted.
  bool decide(SliceRecord& record);

  /// Batch auction of all pending requests (admission_window mode).
  void decide_pending_batch();

  /// SLO instrument: the headroom the admission policy saw for this
  /// decision, recorded as a histogram (distribution over decisions)
  /// and a series (headroom over time).
  void record_admission_headroom(DataRate sellable);

  /// Shared admit path: reclaim, embed, transition, schedule activation.
  /// Returns false (and rejects) on embedding failure.
  bool try_admit(SliceRecord& record);

  /// Close a pending `record` as rejected and journal it. Callers record
  /// their own audit event first.
  void reject(SliceRecord& record);

  /// Close `record` as rejected, expired or terminated: count it in that
  /// state's total, untrack a slice that ran from the overbooking engine
  /// and erase its "slice.<id>.*" instruments, then erase its record,
  /// workload and ledger entry (`record` dangles afterwards). The caller
  /// released its domain stages.
  void close(SliceRecord& record, SliceState state);

  /// Embed a pending record across all domains (install_stages with
  /// fresh ids at the contract rate) and draw its jittered install
  /// timeline. On failure the record keeps an empty embedding and
  /// `failed` names the stage that failed.
  [[nodiscard]] Result<InstallTimeline> embed(SliceRecord& record, EmbedStage& failed);

  /// Run every EmbedStage in order into `e`, reserving `rate` on the RAN
  /// and the paths. Each stage reuses an id `e` already holds (PLMN,
  /// datacenter, path ids: a recovered record) and picks a fresh one
  /// otherwise. On failure, releases the stages this call installed, in
  /// reverse, sets `failed` and returns the stage's error. Returns the
  /// EPC deploy estimate.
  [[nodiscard]] Result<Duration> install_stages(SliceId slice, const SliceSpec& spec,
                                                DataRate rate, Embedding& e,
                                                EmbedStage& failed);
  [[nodiscard]] Result<void> install_stage(EmbedStage stage, SliceId slice,
                                           const SliceSpec& spec, DataRate rate, Embedding& e,
                                           Duration& epc_time);
  /// Restore path `leg` of `e` under its recorded id, or allocate it.
  [[nodiscard]] Result<void> install_leg(std::size_t leg, SliceId slice, NodeId src, NodeId dst,
                                         DataRate rate, Duration bound, Embedding& e);
  /// Release the first `installed` stages of `e`, last stage first.
  void release_stages(SliceId slice, const Embedding& e, std::size_t installed);

  /// The transport gateway of the first core datacenter, if any.
  [[nodiscard]] std::optional<NodeId> core_gateway() const;

  void activate(SliceId slice);
  void expire(SliceId slice);

  /// Shrink reservations of live slices to the engine's targets;
  /// returns the total reclaimed rate.
  DataRate apply_overbooking(SimTime now);

  /// Reservation a given path leg should carry for a base (contract or
  /// overbooked) rate: leg 0 is the access path at the full rate,
  /// further legs are breakout at the configured fraction.
  [[nodiscard]] DataRate leg_rate(std::size_t leg_index, DataRate base) const noexcept {
    return leg_index == 0 ? base : base * config_.edge_breakout_fraction;
  }

  void publish_summary(SimTime now);

  // --- Durability internals (docs/persistence.md) --------------------------

  /// Append one journal operation (stamps "t_us"; cuts a snapshot when
  /// the store's cadence asks for one). No-op without an open store;
  /// journal I/O failures are logged, never fatal to the control plane.
  void journal_op(const char* op, json::Object fields);

  /// Whether journal_op() would write: a store is attached and open.
  /// Callers build an operation's JSON only when it is.
  [[nodiscard]] bool journaling() const noexcept {
    return store_ != nullptr && store_->is_open();
  }

  /// Replay one journaled operation onto in-memory state (no domain
  /// side effects — reinstall happens once, after replay).
  void apply_journal_op(const json::Value& op);

  /// Install a snapshot's durable-state dump wholesale. Errors:
  /// invalid_argument for a dump without the id allocators (the layout
  /// that kept closed records), which is not read.
  [[nodiscard]] Result<void> load_state(const json::Value& state);

  /// Re-embed every installing/active record into the domain
  /// controllers after a replay (install_stages under its recorded
  /// ids); slices the substrate can no longer fit keep nothing and are
  /// closed as terminated (degrade, never crash).
  void reinstall_recovered(RecoveryStats& stats);

  sim::Simulator* simulator_;
  ran::RanController* ran_;
  transport::TransportController* transport_;
  cloud::CloudController* cloud_;
  epc::EpcManager* epc_;
  net::RestBus* bus_;
  telemetry::MonitorRegistry* registry_;
  OrchestratorConfig config_;
  std::unique_ptr<AdmissionPolicy> policy_;
  Rng install_jitter_rng_{0};
  OverbookingEngine engine_;
  RevenueLedger ledger_;
  EventLog events_;
  SliceCatalog catalog_ = SliceCatalog::builtin();
  Logger log_{"orchestrator"};

  NodeId ran_gateway_;
  std::map<DatacenterId, NodeId> dc_gateways_;

  // Telemetry handles interned on first use so the epoch loop never
  // rebuilds "slice.N.*" / "orchestrator.*" key strings.
  struct SliceHandles {
    telemetry::SeriesHandle demand;
    telemetry::SeriesHandle achieved;
    telemetry::SeriesHandle reserved;
    telemetry::Counter* violations = nullptr;  ///< "slice.N.violations"
  };
  struct SummaryHandles {
    telemetry::SeriesHandle active_slices;
    telemetry::SeriesHandle multiplexing_gain;
    telemetry::SeriesHandle contracted_mbps;
    telemetry::SeriesHandle reserved_mbps;
    telemetry::SeriesHandle net_revenue;
    telemetry::SeriesHandle penalties;
  };
  std::map<SliceId, SliceHandles> slice_handles_;
  SummaryHandles summary_handles_;

  // Overbooking SLO instruments (docs/observability.md): the headroom
  // signal at each admission decision, realized demand against the
  // forecast reservation each epoch, and the SLA-breach ledger as
  // counters. Everything here is sim-derived, so the contents are
  // compared by determinism_test like any other registry instrument.
  struct SloInstruments {
    telemetry::Histogram* admission_headroom = nullptr;
    telemetry::Counter* violation_epochs = nullptr;
    telemetry::Counter* penalty_cents = nullptr;
    telemetry::SeriesHandle headroom_mbps;
    telemetry::SeriesHandle demand_mbps;
    telemetry::SeriesHandle forecast_error_mbps;
  };
  SloInstruments slo_;

  // Latency histograms, interned eagerly in the constructor so the set
  // of registered instruments (and hence /metrics bytes) never depends
  // on which code paths ran. Only filled when trace::wall_clock() is on
  // — wall durations are nondeterministic and must stay out of the
  // default registry contents (see docs/observability.md).
  struct EpochHistograms {
    telemetry::Histogram* epoch_us = nullptr;
    telemetry::Histogram* ran_us = nullptr;
    telemetry::Histogram* transport_us = nullptr;
    telemetry::Histogram* reduce_us = nullptr;
    telemetry::Histogram* admission_us = nullptr;
  };
  EpochHistograms hist_;

  // Per-epoch scratch, reused so the steady-state epoch loop does not
  // reallocate the demand/report vectors it hands to the RAN and
  // transport kernels.
  std::vector<std::pair<PlmnId, DataRate>> epoch_ran_demands_;
  std::vector<ran::RanServeReport> epoch_radio_reports_;
  std::vector<std::pair<PathId, DataRate>> epoch_path_demands_;
  std::vector<transport::PathServeReport> epoch_path_reports_;

  // Freshness facts for /healthz (wall duration is -1 while wall-clock
  // profiling is off).
  SimTime last_epoch_at_;
  std::size_t last_epoch_active_ = 0;
  std::int64_t last_epoch_wall_us_ = -1;
  bool epoch_ran_ = false;

  // The open records only: close() erases a slice's record, workload
  // and ledger entry and counts it in the totals below.
  std::map<SliceId, SliceRecord> records_;
  std::map<SliceId, Workload> workloads_;
  IdAllocator<SliceTag> slice_ids_;
  IdAllocator<RequestTag> request_ids_;
  std::uint64_t next_plmn_ = 100001;  // PLMN code pool for dynamic installs
  std::uint64_t admitted_total_ = 0;
  std::uint64_t rejected_total_ = 0;
  std::uint64_t expired_total_ = 0;
  std::uint64_t terminated_total_ = 0;
  std::uint64_t served_epochs_ = 0;
  std::uint64_t reconfigurations_ = 0;
  InstallTimeline last_timeline_;
  bool started_ = false;
  bool suspended_ = false;
  std::map<std::string, std::string> active_faults_;  ///< component -> detail
  store::StateStore* store_ = nullptr;
  std::optional<RecoveryStats> last_recovery_;
};

}  // namespace slices::core
