#pragma once
// The Fig. 2 testbed, in software.
//
// Builds the full end-to-end deployment the demo runs on: two 20 MHz
// MOCN eNBs, a transport network with parallel mmWave and µwave wireless
// links into an OpenFlow switch and fiber toward the edge and core
// datacenters, two OpenStack-style datacenters, the EPC manager, the
// REST bus with every controller registered, and the orchestrator on
// top. One call gives benches/examples a ready system.
//
// The wiring below the layout — transport controller, EPC, epoch pool,
// REST bus registrations, orchestrator and its attachment points — is
// wire_testbed(), which every metro region (federation::EdgeNode) calls
// on its own layout too: one region stack, two layouts.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/controller.hpp"
#include "common/thread_pool.hpp"
#include "core/orchestrator.hpp"
#include "epc/epc.hpp"
#include "net/rest_bus.hpp"
#include "ran/controller.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "transport/controller.hpp"

namespace slices::core {

/// Scenario-facing names of a layout's elements, in layout order.
template <typename Id>
using NameTable = std::vector<std::pair<std::string, Id>>;

/// Position of `name` in `table`; nullopt when the layout has no such name.
template <typename Id>
[[nodiscard]] std::optional<std::size_t> find_name(const NameTable<Id>& table,
                                                   std::string_view name) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].first == name) return i;
  }
  return std::nullopt;
}

/// A fully wired testbed. Members are declared in dependency order so
/// destruction is safe (orchestrator first, substrates last).
struct Testbed {
  sim::Simulator simulator;
  telemetry::MonitorRegistry registry;
  /// Epoch-serving workers; created when config.epoch_threads > 1 and
  /// attached to the RAN and transport controllers.
  std::unique_ptr<ThreadPool> pool;
  net::RestBus bus;
  ran::RanController ran{&registry};
  cloud::CloudController cloud{&registry};
  std::unique_ptr<transport::TransportController> transport;
  std::unique_ptr<epc::EpcManager> epc;
  std::unique_ptr<Orchestrator> orchestrator;

  // Well-known handles of the Fig. 2 layout.
  NodeId ran_gateway;
  NodeId switch_node;      ///< the programmable (PF5240-like) switch
  NodeId edge_gateway;
  NodeId core_gateway;
  LinkId mmwave_uplink;    ///< RAN gw -> switch over mmWave
  LinkId uwave_uplink;     ///< RAN gw -> switch over µwave (backup)
  DatacenterId edge_dc;
  DatacenterId core_dc;
  CellId cell_a;
  CellId cell_b;

  // How scenario events name this layout's elements. Fig. 2: cells
  // "a"/"b", datacenters "edge"/"core", links "mmwave"/"uwave". A metro
  // region: cells "c<k>", datacenters "core"/"edge<k>", no links. A
  // mobility storm's focus cell is its position in `cell_names`.
  NameTable<CellId> cell_names;
  NameTable<DatacenterId> dc_names;
  NameTable<LinkId> link_names;
};

/// Finish a testbed whose layout is in place: `tb.ran` has its cells and
/// `tb.cloud` its datacenters and hosts. Finalizes the cloud, builds the
/// transport controller over `topology` (fading seeded from `seed`), the
/// EPC and — when config.epoch_threads > 1 — the epoch pool; registers
/// the three controllers on the bus; constructs the orchestrator with
/// `ran_gateway` and `dc_gateways` as attachment points, registers it and
/// starts its loop. Shared by make_testbed and every metro region.
void wire_testbed(Testbed& tb, transport::Topology topology, std::uint64_t seed,
                  const OrchestratorConfig& config, NodeId ran_gateway,
                  std::map<DatacenterId, NodeId> dc_gateways);

/// Build the Fig. 2 testbed. `seed` drives every stochastic process
/// (fading; traffic models are seeded by the caller). The orchestrator
/// is constructed with `config` and started (periodic loop armed).
[[nodiscard]] std::unique_ptr<Testbed> make_testbed(std::uint64_t seed,
                                                    OrchestratorConfig config = {});

}  // namespace slices::core
