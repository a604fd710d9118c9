#include "dashboard/dashboard.hpp"

#include "dashboard/table.hpp"

namespace slices::dashboard {

std::string Dashboard::render_slices() const {
  TextTable table({"slice", "tenant", "vertical", "state", "contracted Mb/s",
                   "reserved Mb/s", "violations", "earned", "penalties"});
  for (const auto& [slice, record] : testbed_->orchestrator->slices()) {
    const core::SliceLedgerEntry* ledger = testbed_->orchestrator->ledger().find(slice);
    table.add_row({std::to_string(slice.value()),
                   record.spec.tenant_name,
                   std::string(traffic::to_string(record.spec.vertical)),
                   std::string(core::to_string(record.state)),
                   TextTable::num(record.spec.expected_throughput.as_mbps()),
                   TextTable::num(record.reserved.as_mbps()),
                   std::to_string(record.violation_epochs),
                   ledger == nullptr ? "0.00" : TextTable::num(ledger->earned.as_units(), 2),
                   ledger == nullptr ? "0.00"
                                     : TextTable::num(ledger->penalties.as_units(), 2)});
  }
  return "== Network slices ==\n" + table.render();
}

std::string Dashboard::render_domains() const {
  std::string out = "== Domain utilization ==\n";

  TextTable cells({"cell", "total PRB", "reserved PRB", "free PRB"});
  for (const CellId id : {testbed_->cell_a, testbed_->cell_b}) {
    const ran::Cell* cell = testbed_->ran.find_cell(id);
    if (cell == nullptr) continue;
    cells.add_row({cell->name(), std::to_string(cell->total_prbs().value),
                   std::to_string(cell->reserved_prbs().value),
                   std::to_string(cell->unreserved_prbs().value)});
  }
  out += cells.render();

  TextTable links({"link", "tech", "nominal Mb/s", "effective Mb/s", "reserved Mb/s",
                   "delay ms"});
  const transport::TransportController& tc = *testbed_->transport;
  for (const transport::Link& link : tc.topology().links()) {
    const transport::Node* from = tc.topology().find_node(link.from);
    const transport::Node* to = tc.topology().find_node(link.to);
    links.add_row({from->name + "->" + to->name,
                   std::string(transport::to_string(link.technology)),
                   TextTable::num(link.nominal_capacity.as_mbps(), 0),
                   TextTable::num(tc.fading().effective_capacity(link).as_mbps(), 0),
                   TextTable::num(tc.reserved_on(link.id).as_mbps(), 0),
                   TextTable::num(link.delay.as_millis(), 1)});
  }
  out += links.render();

  TextTable dcs({"datacenter", "kind", "vCPU used", "vCPU total", "stacks"});
  for (const cloud::Datacenter* dc : testbed_->cloud.datacenters()) {
    dcs.add_row({dc->name(), std::string(cloud::to_string(dc->kind())),
                 TextTable::num(dc->used_capacity().vcpus, 0),
                 TextTable::num(dc->total_capacity().vcpus, 0),
                 std::to_string(dc->vm_count())});
  }
  out += dcs.render();
  return out;
}

std::string Dashboard::render_headline() const {
  const core::OrchestratorSummary s = testbed_->orchestrator->summary();
  TextTable table({"metric", "value"});
  table.add_row({"active slices", std::to_string(s.active_slices)});
  table.add_row({"admitted / rejected",
                 std::to_string(s.admitted_total) + " / " + std::to_string(s.rejected_total)});
  table.add_row({"contracted Mb/s", TextTable::num(s.contracted_total.as_mbps())});
  table.add_row({"reserved Mb/s", TextTable::num(s.reserved_total.as_mbps())});
  table.add_row({"multiplexing gain", TextTable::num(s.multiplexing_gain, 3)});
  table.add_row({"earned", TextTable::num(s.earned.as_units(), 2)});
  table.add_row({"penalties", TextTable::num(s.penalties.as_units(), 2)});
  table.add_row({"net revenue", TextTable::num(s.net.as_units(), 2)});
  table.add_row({"violation epochs", std::to_string(s.violation_epochs)});
  table.add_row({"reconfigurations", std::to_string(s.reconfigurations)});
  return "== Overbooking gains vs penalties ==\n" + table.render();
}

std::string Dashboard::render_bus() const {
  TextTable table({"service", "requests", "2xx", "errors", "tx bytes", "rx bytes"});
  for (const auto& [name, stats] : testbed_->bus.stats()) {
    table.add_row({name, std::to_string(stats.requests), std::to_string(stats.responses_ok),
                   std::to_string(stats.responses_error), std::to_string(stats.bytes_tx),
                   std::to_string(stats.bytes_rx)});
  }
  return "== REST bus ==\n" + table.render();
}

std::string Dashboard::render_health() const {
  const json::Value health = testbed_->orchestrator->health_json();
  const auto field = [&](std::string_view key) -> const json::Value* {
    return health.find(key);
  };
  TextTable table({"check", "value"});
  if (const json::Value* status = field("status"); status != nullptr && status->is_string()) {
    table.add_row({"status", status->as_string()});
  }
  if (const json::Value* components = field("components");
      components != nullptr && components->is_object()) {
    for (const auto& [name, up] : components->as_object()) {
      table.add_row({name, up.is_bool() && up.as_bool() ? "up" : "down"});
    }
  }
  if (const json::Value* journal = field("journal");
      journal != nullptr && journal->is_object()) {
    const json::Value* lag = journal->find("lag_records");
    table.add_row({"journal lag",
                   lag != nullptr && lag->is_number()
                       ? std::to_string(static_cast<std::uint64_t>(lag->as_number()))
                       : "detached"});
  }
  if (const json::Value* epoch = field("last_epoch");
      epoch != nullptr && epoch->is_object()) {
    const json::Value* t = epoch->find("t_s");
    if (t != nullptr && t->is_number()) {
      table.add_row({"last epoch (h)", TextTable::num(t->as_number() / 3600.0, 2)});
    }
    const json::Value* dur = epoch->find("duration_us");
    if (dur != nullptr && dur->is_number()) {
      table.add_row({"epoch wall (us)",
                     std::to_string(static_cast<std::int64_t>(dur->as_number()))});
    }
  }
  if (const json::Value* trace = field("trace"); trace != nullptr && trace->is_object()) {
    const json::Value* spans = trace->find("spans");
    const json::Value* enabled = trace->find("enabled");
    std::string summary = enabled != nullptr && enabled->is_bool() && enabled->as_bool()
                              ? "on" : "off";
    if (spans != nullptr && spans->is_number()) {
      summary += ", " + std::to_string(static_cast<std::uint64_t>(spans->as_number())) +
                 " spans";
    }
    table.add_row({"tracing", summary});
  }
  return "== Health ==\n" + table.render();
}

std::string Dashboard::render_events(std::size_t count) const {
  TextTable table({"t (h)", "slice", "event", "detail"});
  for (const core::Event& event : testbed_->orchestrator->events().recent(count)) {
    table.add_row({TextTable::num(event.time.as_hours(), 2),
                   std::to_string(event.slice.value()),
                   std::string(core::to_string(event.kind)), event.detail()});
  }
  return "== Recent events ==\n" + table.render();
}

std::string Dashboard::render_federation(const json::Value& metrics) {
  const auto num = [](const json::Value* section, const char* key) -> double {
    if (section == nullptr) return 0.0;
    const json::Value* v = section->find(key);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };

  std::string out = "== Federation ==\n";
  if (const json::Value* broker = metrics.find("broker"); broker != nullptr) {
    const json::Value* gauges = broker->find("gauges");
    TextTable table({"broker metric", "value"});
    table.add_row({"submitted", TextTable::num(num(gauges, "federation.submitted"), 0)});
    table.add_row({"placed local / remote",
                   TextTable::num(num(gauges, "federation.placed_local"), 0) + " / " +
                       TextTable::num(num(gauges, "federation.placed_remote"), 0)});
    table.add_row({"edge rejected", TextTable::num(num(gauges, "federation.edge_rejected"), 0)});
    table.add_row({"no region", TextTable::num(num(gauges, "federation.rejected_no_region"), 0)});
    table.add_row({"deferred total / queued",
                   TextTable::num(num(gauges, "federation.deferred_total"), 0) + " / " +
                       TextTable::num(num(gauges, "federation.deferred_depth"), 0)});
    table.add_row({"backbone reserved Mb/s",
                   TextTable::num(num(gauges, "federation.backbone_reserved_mbps"))});
    table.add_row({"backbone leases",
                   TextTable::num(num(gauges, "federation.backbone_leases"), 0)});
    out += table.render();
  }

  if (const json::Value* regions = metrics.find("regions");
      regions != nullptr && regions->is_object()) {
    TextTable table({"region", "active", "contracted Mb/s", "reserved Mb/s",
                     "headroom Mb/s", "violations", "penalty cents"});
    for (const auto& [name, doc] : regions->as_object()) {
      if (!doc.is_object()) {
        table.add_row({name, "-", "-", "-", "-", "-", "-"});  // unreachable edge
        continue;
      }
      const json::Value* gauges = doc.find("gauges");
      const json::Value* counters = doc.find("counters");
      table.add_row({name,
                     TextTable::num(num(gauges, "orchestrator.active_slices"), 0),
                     TextTable::num(num(gauges, "orchestrator.contracted_mbps")),
                     TextTable::num(num(gauges, "orchestrator.reserved_mbps")),
                     TextTable::num(num(gauges, "orchestrator.slo.headroom_mbps")),
                     TextTable::num(num(counters, "orchestrator.slo.violation_epochs"), 0),
                     TextTable::num(num(counters, "orchestrator.slo.penalty_cents"), 0)});
    }
    out += table.render();
  }
  const std::string mobility = render_mobility(metrics);
  if (!mobility.empty()) out += mobility;
  return out;
}

std::string Dashboard::render_mobility(const json::Value& metrics) {
  const auto num = [](const json::Value* section, const char* key) -> double {
    if (section == nullptr) return 0.0;
    const json::Value* v = section->find(key);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };

  const json::Value* broker = metrics.find("broker");
  const json::Value* broker_gauges = broker != nullptr ? broker->find("gauges") : nullptr;
  const double roam_attempts = num(broker_gauges, "federation.roam_attempts");
  const double roam_admitted = num(broker_gauges, "federation.roam_admitted");
  const double roam_dropped = num(broker_gauges, "federation.roam_dropped");

  TextTable table({"region", "HO attempts", "HO success", "HO drops", "success %"});
  double total_attempts = 0.0;
  if (const json::Value* regions = metrics.find("regions");
      regions != nullptr && regions->is_object()) {
    for (const auto& [name, doc] : regions->as_object()) {
      if (!doc.is_object()) continue;  // unreachable edge
      const json::Value* counters = doc.find("counters");
      const double attempts = num(counters, "ran.handover.attempts");
      if (attempts <= 0.0) continue;  // region without mobile UEs
      total_attempts += attempts;
      const double successes = num(counters, "ran.handover.success");
      table.add_row({name, TextTable::num(attempts, 0), TextTable::num(successes, 0),
                     TextTable::num(num(counters, "ran.handover.drops"), 0),
                     TextTable::num(100.0 * successes / attempts, 1)});
    }
  }
  if (total_attempts <= 0.0 && roam_attempts <= 0.0) return {};  // no mobility signal

  std::string out = "== Mobility ==\n" + table.render();
  TextTable roam({"roam metric", "value"});
  roam.add_row({"attempts", TextTable::num(roam_attempts, 0)});
  roam.add_row({"admitted", TextTable::num(roam_admitted, 0)});
  roam.add_row({"dropped", TextTable::num(roam_dropped, 0)});
  out += roam.render();
  return out;
}

std::string Dashboard::render_all() const {
  return render_headline() + "\n" + render_slices() + "\n" + render_domains() + "\n" +
         render_events() + "\n" + render_bus() + "\n" + render_health();
}

json::Value Dashboard::snapshot() const {
  const core::OrchestratorSummary s = testbed_->orchestrator->summary();
  json::Object headline;
  headline.emplace("active_slices", static_cast<double>(s.active_slices));
  headline.emplace("admitted_total", static_cast<double>(s.admitted_total));
  headline.emplace("rejected_total", static_cast<double>(s.rejected_total));
  headline.emplace("contracted_mbps", s.contracted_total.as_mbps());
  headline.emplace("reserved_mbps", s.reserved_total.as_mbps());
  headline.emplace("multiplexing_gain", s.multiplexing_gain);
  headline.emplace("earned", s.earned.as_units());
  headline.emplace("penalties", s.penalties.as_units());
  headline.emplace("net_revenue", s.net.as_units());
  headline.emplace("violation_epochs", static_cast<double>(s.violation_epochs));

  json::Array slice_rows;
  for (const auto& [slice, record] : testbed_->orchestrator->slices()) {
    json::Object row;
    row.emplace("slice", static_cast<double>(slice.value()));
    row.emplace("tenant", record.spec.tenant_name);
    row.emplace("vertical", std::string(traffic::to_string(record.spec.vertical)));
    row.emplace("state", std::string(core::to_string(record.state)));
    row.emplace("contracted_mbps", record.spec.expected_throughput.as_mbps());
    row.emplace("reserved_mbps", record.reserved.as_mbps());
    row.emplace("violation_epochs", static_cast<double>(record.violation_epochs));
    slice_rows.push_back(std::move(row));
  }

  json::Object root;
  root.emplace("headline", std::move(headline));
  root.emplace("slices", std::move(slice_rows));
  root.emplace("health", testbed_->orchestrator->health_json());
  root.emplace("telemetry", testbed_->registry.snapshot());
  return root;
}

}  // namespace slices::dashboard
