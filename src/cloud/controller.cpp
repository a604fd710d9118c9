#include "cloud/controller.hpp"

#include <cassert>

#include "json/value.hpp"
#include "telemetry/trace.hpp"

namespace slices::cloud {

DatacenterId CloudController::add_datacenter(std::string name, DatacenterKind kind,
                                             double cpu_allocation_ratio) {
  assert(!finalized() && "add datacenters before finalize()");
  const DatacenterId id = dc_ids_.next();
  datacenters_.push_back(
      std::make_unique<Datacenter>(id, std::move(name), kind, cpu_allocation_ratio));
  return id;
}

void CloudController::add_host(DatacenterId dc, std::string name, ComputeCapacity physical) {
  for (auto& d : datacenters_) {
    if (d->id() == dc) {
      d->add_host(std::move(name), physical);
      return;
    }
  }
  assert(false && "unknown datacenter");
}

void CloudController::finalize(PlacementPolicy policy) {
  assert(!finalized());
  std::vector<Datacenter*> raw;
  raw.reserve(datacenters_.size());
  for (auto& d : datacenters_) raw.push_back(d.get());
  engine_ = std::make_unique<StackEngine>(std::move(raw), policy);
}

const Datacenter* CloudController::find_datacenter(DatacenterId id) const noexcept {
  for (const auto& d : datacenters_) {
    if (d->id() == id) return d.get();
  }
  return nullptr;
}

std::vector<const Datacenter*> CloudController::datacenters() const {
  std::vector<const Datacenter*> out;
  out.reserve(datacenters_.size());
  for (const auto& d : datacenters_) out.push_back(d.get());
  return out;
}

std::optional<DatacenterId> CloudController::choose_datacenter(
    const ComputeCapacity& footprint, bool require_edge) const {
  // Pass 1: the kind we prefer; pass 2 (only when edge not required):
  // fall back to the other kind.
  const auto pick = [&](DatacenterKind kind) -> std::optional<DatacenterId> {
    for (const auto& d : datacenters_) {
      if (d->kind() == kind && datacenter_available(d->id()) && d->can_fit(footprint)) {
        return d->id();
      }
    }
    return std::nullopt;
  };
  if (require_edge) return pick(DatacenterKind::edge);
  if (const auto core = pick(DatacenterKind::core)) return core;
  return pick(DatacenterKind::edge);
}

Result<void> CloudController::set_datacenter_available(DatacenterId dc, bool available) {
  if (find_datacenter(dc) == nullptr) {
    return make_error(Errc::not_found, "unknown datacenter " + std::to_string(dc.value()));
  }
  if (available) {
    failed_dcs_.erase(dc.value());
  } else {
    failed_dcs_.insert(dc.value());
  }
  return {};
}

Result<StackId> CloudController::create_stack(DatacenterId dc, const StackTemplate& tmpl) {
  assert(finalized());
  if (!datacenter_available(dc)) {
    return make_error(Errc::unavailable,
                      "datacenter " + std::to_string(dc.value()) + " is failed");
  }
  return engine_->create_stack(dc, tmpl);
}

Result<void> CloudController::delete_stack(StackId stack) {
  assert(finalized());
  return engine_->delete_stack(stack);
}

void CloudController::record_epoch(SimTime now) {
  TRACE_SCOPE("cloud.record_epoch");
  if (registry_ == nullptr) return;
  for (std::size_t i = dc_handles_.size(); i < datacenters_.size(); ++i) {
    const std::string prefix = "cloud.dc." + std::to_string(datacenters_[i]->id().value());
    dc_handles_.push_back({registry_->handle(prefix + ".vcpu_used"),
                           registry_->handle(prefix + ".vcpu_total"),
                           registry_->handle(prefix + ".utilization")});
  }
  for (std::size_t i = 0; i < datacenters_.size(); ++i) {
    const ComputeCapacity total = datacenters_[i]->total_capacity();
    const ComputeCapacity used = datacenters_[i]->used_capacity();
    DcHandles& h = dc_handles_[i];
    h.vcpu_used.observe(now, used.vcpus);
    h.vcpu_total.observe(now, total.vcpus);
    h.utilization.observe(now, total.vcpus <= 0.0 ? 0.0 : used.vcpus / total.vcpus);
  }
}

std::shared_ptr<net::Router> CloudController::make_router() {
  auto router = std::make_shared<net::Router>();

  router->add(net::Method::get, "/datacenters", [this](const net::RouteContext&) {
    json::Array dcs;
    for (const auto& d : datacenters_) {
      const ComputeCapacity total = d->total_capacity();
      const ComputeCapacity used = d->used_capacity();
      json::Object entry;
      entry.emplace("id", static_cast<double>(d->id().value()));
      entry.emplace("name", d->name());
      entry.emplace("kind", std::string(to_string(d->kind())));
      entry.emplace("hosts", static_cast<double>(d->host_count()));
      entry.emplace("vcpu_total", total.vcpus);
      entry.emplace("vcpu_used", used.vcpus);
      entry.emplace("memory_mb_total", total.memory_mb);
      entry.emplace("memory_mb_used", used.memory_mb);
      dcs.push_back(std::move(entry));
    }
    json::Object body;
    body.emplace("datacenters", std::move(dcs));
    return net::Response::json(net::Status::ok, json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::post, "/stacks", [this](const net::RouteContext& ctx) {
    const Result<json::Value> doc = json::parse(ctx.request->body);
    if (!doc.ok()) return net::Response::from_error(doc.error());
    const json::Value& v = doc.value();
    const Result<double> dc = v.get_number("datacenter");
    if (!dc.ok()) return net::Response::from_error(dc.error());
    const Result<std::string> name = v.get_string("name");
    if (!name.ok()) return net::Response::from_error(name.error());
    const json::Value* resources = v.find("resources");
    if (resources == nullptr || !resources->is_array())
      return net::Response::from_error(
          make_error(Errc::protocol_error, "missing 'resources' array"));

    StackTemplate tmpl;
    tmpl.name = name.value();
    for (const json::Value& r : resources->as_array()) {
      const Result<std::string> rname = r.get_string("name");
      const Result<double> vcpus = r.get_number("vcpus");
      const Result<double> mem = r.get_number("memory_mb");
      const Result<double> disk = r.get_number("disk_gb");
      if (!rname.ok()) return net::Response::from_error(rname.error());
      for (const auto* field : {&vcpus, &mem, &disk}) {
        if (!field->ok()) return net::Response::from_error(field->error());
      }
      tmpl.resources.push_back(ResourceSpec{
          rname.value(),
          Flavor{rname.value(), ComputeCapacity{vcpus.value(), mem.value(), disk.value()}}});
    }

    const Result<StackId> stack =
        create_stack(DatacenterId{static_cast<std::uint64_t>(dc.value())}, tmpl);
    if (!stack.ok()) return net::Response::from_error(stack.error());
    json::Object body;
    body.emplace("stack", static_cast<double>(stack.value().value()));
    body.emplace("deploy_seconds", estimated_deploy_time(tmpl).as_seconds());
    return net::Response::json(net::Status::created,
                               json::serialize(json::Value(std::move(body))));
  });

  router->add(net::Method::del, "/stacks/{id}", [this](const net::RouteContext& ctx) {
    const Result<std::uint64_t> id = ctx.id_param("id");
    if (!id.ok()) return net::Response::from_error(id.error());
    const Result<void> r = delete_stack(StackId{id.value()});
    if (!r.ok()) return net::Response::from_error(r.error());
    net::Response resp;
    resp.status = net::Status::no_content;
    return resp;
  });

  router->add(net::Method::get, "/metrics", [this](const net::RouteContext&) {
    if (registry_ == nullptr) return net::Response::json(net::Status::ok, "{}");
    registry_->metrics_body(metrics_buffer_, "cloud.");
    return net::Response::json(net::Status::ok, metrics_buffer_);
  });

  return router;
}

}  // namespace slices::cloud
