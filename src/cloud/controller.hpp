#pragma once
// Cloud domain controller.
//
// Fronts the edge and core datacenters toward the orchestrator: capacity
// queries, Heat stack create/delete, datacenter selection for a slice's
// compute footprint, utilization telemetry and the REST facade.

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cloud/datacenter.hpp"
#include "cloud/heat.hpp"
#include "common/result.hpp"
#include "net/router.hpp"
#include "telemetry/registry.hpp"

namespace slices::cloud {

/// The cloud-domain controller. Construct, add datacenters and hosts,
/// then call finalize() once before first use of the stack engine.
class CloudController {
 public:
  explicit CloudController(telemetry::MonitorRegistry* registry = nullptr)
      : registry_(registry) {}

  /// Register a datacenter (before finalize()).
  DatacenterId add_datacenter(std::string name, DatacenterKind kind,
                              double cpu_allocation_ratio = 1.0);

  /// Add a host to a datacenter (before or after finalize()).
  void add_host(DatacenterId dc, std::string name, ComputeCapacity physical);

  /// Freeze the datacenter set and build the stack engine.
  void finalize(PlacementPolicy policy = PlacementPolicy::first_fit);

  [[nodiscard]] bool finalized() const noexcept { return engine_ != nullptr; }
  [[nodiscard]] StackEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const StackEngine& engine() const noexcept { return *engine_; }

  [[nodiscard]] const Datacenter* find_datacenter(DatacenterId id) const noexcept;
  [[nodiscard]] std::vector<const Datacenter*> datacenters() const;

  /// Pick a datacenter able to host `footprint`. When `require_edge` is
  /// set only edge DCs qualify (latency-bound verticals); otherwise
  /// core DCs are preferred (keep scarce edge capacity free). Failed
  /// (unavailable) datacenters never qualify. Returns nullopt when
  /// nothing fits.
  [[nodiscard]] std::optional<DatacenterId> choose_datacenter(const ComputeCapacity& footprint,
                                                              bool require_edge) const;

  // --- Failure injection -----------------------------------------------------

  /// Mark a datacenter failed/recovered (site outage). A failed DC takes
  /// no new placements — choose_datacenter skips it and create_stack
  /// returns unavailable. Stacks already running there are the caller's
  /// responsibility to tear down (the orchestrator terminates the
  /// affected slices). Errors: not_found.
  [[nodiscard]] Result<void> set_datacenter_available(DatacenterId dc, bool available);

  [[nodiscard]] bool datacenter_available(DatacenterId dc) const noexcept {
    return !failed_dcs_.contains(dc.value());
  }

  /// Create a stack; forwards to the engine. Also records telemetry.
  [[nodiscard]] Result<StackId> create_stack(DatacenterId dc, const StackTemplate& tmpl);

  [[nodiscard]] Result<void> delete_stack(StackId stack);

  /// Deployment-time estimate for a template (used by the install
  /// workflow to model the "few seconds" the demo mentions).
  [[nodiscard]] Duration estimated_deploy_time(const StackTemplate& tmpl) const noexcept {
    return engine_->deploy_time().estimate(tmpl);
  }

  /// Publish per-datacenter utilization telemetry for this epoch.
  void record_epoch(SimTime now);

  /// REST facade (datacenters, stack CRUD, metrics).
  [[nodiscard]] std::shared_ptr<net::Router> make_router();

 private:
  // Deque-like stable storage: datacenters are appended before
  // finalize(); unique_ptr keeps addresses stable for the engine.
  std::vector<std::unique_ptr<Datacenter>> datacenters_;
  std::unique_ptr<StackEngine> engine_;
  std::set<std::uint64_t> failed_dcs_;  ///< DatacenterId values currently failed
  IdAllocator<DatacenterTag> dc_ids_;
  telemetry::MonitorRegistry* registry_;
  /// Per-datacenter series, by datacenters_ index, interned on the first
  /// record_epoch that sees the datacenter.
  struct DcHandles {
    telemetry::SeriesHandle vcpu_used;
    telemetry::SeriesHandle vcpu_total;
    telemetry::SeriesHandle utilization;
  };
  std::vector<DcHandles> dc_handles_;
  std::string metrics_buffer_;  ///< reused /metrics serialization buffer
};

}  // namespace slices::cloud
