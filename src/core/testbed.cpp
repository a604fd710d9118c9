#include "core/testbed.hpp"

namespace slices::core {

void wire_testbed(Testbed& tb, transport::Topology topology, std::uint64_t seed,
                  const OrchestratorConfig& config, NodeId ran_gateway,
                  std::map<DatacenterId, NodeId> dc_gateways) {
  tb.cloud.finalize(cloud::PlacementPolicy::first_fit);
  tb.transport = std::make_unique<transport::TransportController>(
      std::move(topology), Rng(seed ^ 0x7261696eULL), &tb.registry);
  tb.epc = std::make_unique<epc::EpcManager>(&tb.cloud);

  // --- Epoch worker pool ---------------------------------------------------
  if (config.epoch_threads > 1) {
    tb.pool = std::make_unique<ThreadPool>(config.epoch_threads);
    tb.ran.set_thread_pool(tb.pool.get());
    tb.transport->set_thread_pool(tb.pool.get());
  }

  // --- REST bus: controllers feed the orchestrator over HTTP --------------
  tb.bus.register_service("ran", tb.ran.make_router());
  tb.bus.register_service("transport", tb.transport->make_router());
  tb.bus.register_service("cloud", tb.cloud.make_router());

  // --- The orchestrator on top --------------------------------------------
  tb.orchestrator = std::make_unique<Orchestrator>(&tb.simulator, &tb.ran, tb.transport.get(),
                                                   &tb.cloud, tb.epc.get(), &tb.bus,
                                                   &tb.registry, config);
  tb.orchestrator->set_attachment_points(ran_gateway, std::move(dc_gateways));
  tb.bus.register_service("orchestrator", tb.orchestrator->make_router());
  tb.orchestrator->start();
}

std::unique_ptr<Testbed> make_testbed(std::uint64_t seed, OrchestratorConfig config) {
  auto tb = std::make_unique<Testbed>();

  // --- RAN: two commercial-grade 20 MHz MOCN small cells ------------------
  tb->cell_a = CellId{1};
  tb->cell_b = CellId{2};
  tb->ran.add_cell(ran::Cell(tb->cell_a, "enb-a", ran::Bandwidth::mhz20,
                             ran::SharingPolicy::pooled));
  tb->ran.add_cell(ran::Cell(tb->cell_b, "enb-b", ran::Bandwidth::mhz20,
                             ran::SharingPolicy::pooled));

  // --- Transport: wireless fronthaul + OpenFlow switch + wired tails ------
  transport::Topology topo;
  tb->ran_gateway = topo.add_node("ran-gw", transport::NodeKind::enb_gateway);
  tb->switch_node = topo.add_node("pf5240", transport::NodeKind::openflow_switch);
  tb->edge_gateway = topo.add_node("edge-gw", transport::NodeKind::edge_gateway);
  tb->core_gateway = topo.add_node("core-gw", transport::NodeKind::core_gateway);

  // Parallel wireless uplinks: mmWave is the fast default, µwave the
  // slower but steadier alternative — rerouting between them is the
  // transport reconfiguration story.
  const auto [mm_fwd, mm_rev] = topo.add_bidirectional(
      tb->ran_gateway, tb->switch_node, transport::LinkTechnology::mmwave,
      DataRate::mbps(1000.0), Duration::millis(1.0));
  const auto [uw_fwd, uw_rev] = topo.add_bidirectional(
      tb->ran_gateway, tb->switch_node, transport::LinkTechnology::uwave,
      DataRate::mbps(400.0), Duration::millis(2.5));
  (void)mm_rev;
  (void)uw_rev;
  tb->mmwave_uplink = mm_fwd;
  tb->uwave_uplink = uw_fwd;

  topo.add_bidirectional(tb->switch_node, tb->edge_gateway,
                         transport::LinkTechnology::fiber, DataRate::mbps(10000.0),
                         Duration::millis(0.5));
  topo.add_bidirectional(tb->switch_node, tb->core_gateway,
                         transport::LinkTechnology::fiber, DataRate::mbps(10000.0),
                         Duration::millis(4.0));
  topo.add_bidirectional(tb->edge_gateway, tb->core_gateway,
                         transport::LinkTechnology::fiber, DataRate::mbps(10000.0),
                         Duration::millis(3.5));

  // --- Cloud: scarce edge DC + roomy core DC ------------------------------
  tb->edge_dc = tb->cloud.add_datacenter("edge-dc", cloud::DatacenterKind::edge,
                                         /*cpu_allocation_ratio=*/1.0);
  tb->cloud.add_host(tb->edge_dc, "edge-host-1", ComputeCapacity{32.0, 131072.0, 1000.0});
  tb->cloud.add_host(tb->edge_dc, "edge-host-2", ComputeCapacity{32.0, 131072.0, 1000.0});

  tb->core_dc = tb->cloud.add_datacenter("core-dc", cloud::DatacenterKind::core,
                                         /*cpu_allocation_ratio=*/2.0);
  for (int i = 1; i <= 4; ++i) {
    tb->cloud.add_host(tb->core_dc, "core-host-" + std::to_string(i),
                       ComputeCapacity{64.0, 262144.0, 4000.0});
  }

  tb->cell_names = {{"a", tb->cell_a}, {"b", tb->cell_b}};
  tb->dc_names = {{"edge", tb->edge_dc}, {"core", tb->core_dc}};
  tb->link_names = {{"mmwave", tb->mmwave_uplink}, {"uwave", tb->uwave_uplink}};

  wire_testbed(*tb, std::move(topo), seed, config, tb->ran_gateway,
               {{tb->edge_dc, tb->edge_gateway}, {tb->core_dc, tb->core_gateway}});
  return tb;
}

}  // namespace slices::core
