// Unit tests for the cloud substrate: placement, oversubscription, Heat
// stacks (atomicity), the cloud controller and its REST facade.

#include <gtest/gtest.h>

#include "cloud/controller.hpp"
#include "cloud/datacenter.hpp"
#include "cloud/heat.hpp"
#include "net/rest_bus.hpp"

namespace slices::cloud {
namespace {

Flavor small() { return {"small", ComputeCapacity{2.0, 2048.0, 20.0}}; }
Flavor large() { return {"large", ComputeCapacity{12.0, 16384.0, 100.0}}; }

Datacenter make_dc(double ratio = 1.0) {
  Datacenter dc(DatacenterId{1}, "dc", DatacenterKind::edge, ratio);
  dc.add_host("h1", ComputeCapacity{16.0, 32768.0, 500.0});
  dc.add_host("h2", ComputeCapacity{16.0, 32768.0, 500.0});
  return dc;
}

// --- Datacenter / placement --------------------------------------------------

TEST(Datacenter, CapacityAggregation) {
  Datacenter dc = make_dc();
  EXPECT_DOUBLE_EQ(dc.total_capacity().vcpus, 32.0);
  EXPECT_DOUBLE_EQ(dc.free_capacity().vcpus, 32.0);
  EXPECT_TRUE(dc.can_fit(large().footprint));
  EXPECT_FALSE(dc.can_fit(ComputeCapacity{17.0, 1024.0, 10.0}));  // > one host
}

TEST(Datacenter, BootAndDeleteVm) {
  Datacenter dc = make_dc();
  const Result<VmId> vm = dc.boot_vm("vm1", small());
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(dc.vm_count(), 1u);
  EXPECT_DOUBLE_EQ(dc.used_capacity().vcpus, 2.0);
  ASSERT_NE(dc.find_vm(vm.value()), nullptr);
  EXPECT_TRUE(dc.delete_vm(vm.value()).ok());
  EXPECT_DOUBLE_EQ(dc.used_capacity().vcpus, 0.0);
  EXPECT_EQ(dc.delete_vm(vm.value()).error().code, Errc::not_found);
}

TEST(Datacenter, RejectsWhenNoHostFits) {
  Datacenter dc = make_dc();
  // Fill both hosts with 14 vCPUs each; a 12-vCPU VM no longer fits.
  ASSERT_TRUE(dc.boot_vm("a", Flavor{"f", ComputeCapacity{14.0, 1024.0, 10.0}}).ok());
  ASSERT_TRUE(dc.boot_vm("b", Flavor{"f", ComputeCapacity{14.0, 1024.0, 10.0}}).ok());
  const Result<VmId> vm = dc.boot_vm("c", large());
  ASSERT_FALSE(vm.ok());
  EXPECT_EQ(vm.error().code, Errc::insufficient_capacity);
}

TEST(Datacenter, MemoryIsNeverOversubscribed) {
  Datacenter dc(DatacenterId{1}, "dc", DatacenterKind::core, /*ratio=*/4.0);
  dc.add_host("h", ComputeCapacity{4.0, 8192.0, 100.0});
  // vCPU ratio allows 16 scheduled vCPUs, but memory still caps.
  ASSERT_TRUE(dc.boot_vm("a", Flavor{"f", ComputeCapacity{8.0, 4096.0, 10.0}}).ok());
  ASSERT_TRUE(dc.boot_vm("b", Flavor{"f", ComputeCapacity{8.0, 4096.0, 10.0}}).ok());
  // CPU would still fit (16 scheduled), memory would not.
  EXPECT_FALSE(dc.boot_vm("c", Flavor{"f", ComputeCapacity{0.5, 1024.0, 1.0}}).ok());
}

TEST(Datacenter, CpuOversubscriptionRatioRaisesCapacity) {
  Datacenter strict = make_dc(1.0);
  Datacenter loose = make_dc(2.0);
  const Flavor big{"big", ComputeCapacity{10.0, 1024.0, 10.0}};
  // 3 x 10 vCPU on 2x16 physical: strict fits only 2, loose fits 3.
  ASSERT_TRUE(strict.boot_vm("a", big).ok());
  ASSERT_TRUE(strict.boot_vm("b", big).ok());
  EXPECT_FALSE(strict.boot_vm("c", big).ok());
  ASSERT_TRUE(loose.boot_vm("a", big).ok());
  ASSERT_TRUE(loose.boot_vm("b", big).ok());
  EXPECT_TRUE(loose.boot_vm("c", big).ok());
}

TEST(Placement, PoliciesChooseDifferentHosts) {
  // h1 partially used, h2 empty: best_fit -> h1, worst_fit -> h2.
  const auto build = [] {
    Datacenter dc(DatacenterId{1}, "dc", DatacenterKind::edge);
    dc.add_host("h1", ComputeCapacity{16.0, 32768.0, 500.0});
    dc.add_host("h2", ComputeCapacity{16.0, 32768.0, 500.0});
    const Result<VmId> seed = dc.boot_vm("seed", Flavor{"f", ComputeCapacity{8.0, 1024.0, 10.0}},
                                         PlacementPolicy::first_fit);
    EXPECT_TRUE(seed.ok());
    return dc;
  };

  Datacenter best = build();
  const Result<VmId> bf = best.boot_vm("x", small(), PlacementPolicy::best_fit);
  ASSERT_TRUE(bf.ok());
  EXPECT_EQ(best.find_vm(bf.value())->host, best.hosts()[0].id);

  Datacenter worst = build();
  const Result<VmId> wf = worst.boot_vm("x", small(), PlacementPolicy::worst_fit);
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(worst.find_vm(wf.value())->host, worst.hosts()[1].id);
}

// --- StackEngine -----------------------------------------------------------------

TEST(StackEngine, CreateAndDeleteStack) {
  Datacenter dc = make_dc();
  StackEngine engine({&dc});
  StackTemplate tmpl;
  tmpl.name = "app";
  tmpl.resources = {{"web", small()}, {"db", small()}};
  EXPECT_DOUBLE_EQ(tmpl.footprint().vcpus, 4.0);

  const Result<StackId> stack = engine.create_stack(dc.id(), tmpl);
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ(engine.stack_count(), 1u);
  EXPECT_EQ(dc.vm_count(), 2u);
  ASSERT_NE(engine.find_stack(stack.value()), nullptr);
  EXPECT_EQ(engine.find_stack(stack.value())->resources.size(), 2u);

  ASSERT_TRUE(engine.delete_stack(stack.value()).ok());
  EXPECT_EQ(dc.vm_count(), 0u);
  EXPECT_DOUBLE_EQ(dc.used_capacity().vcpus, 0.0);
  EXPECT_EQ(engine.delete_stack(stack.value()).error().code, Errc::not_found);
}

TEST(StackEngine, CreationIsAtomic) {
  Datacenter dc(DatacenterId{1}, "dc", DatacenterKind::edge);
  dc.add_host("h", ComputeCapacity{8.0, 32768.0, 500.0});
  StackEngine engine({&dc});
  StackTemplate tmpl;
  tmpl.name = "too-big";
  tmpl.resources = {{"a", Flavor{"f", ComputeCapacity{6.0, 1024.0, 10.0}}},
                    {"b", Flavor{"f", ComputeCapacity{6.0, 1024.0, 10.0}}}};
  const Result<StackId> stack = engine.create_stack(dc.id(), tmpl);
  ASSERT_FALSE(stack.ok());
  EXPECT_EQ(stack.error().code, Errc::insufficient_capacity);
  // Rollback: the first VM must not linger.
  EXPECT_EQ(dc.vm_count(), 0u);
  EXPECT_DOUBLE_EQ(dc.used_capacity().vcpus, 0.0);
}

TEST(StackEngine, UnknownDatacenterRejected) {
  Datacenter dc = make_dc();
  StackEngine engine({&dc});
  EXPECT_EQ(engine.create_stack(DatacenterId{99}, StackTemplate{}).error().code,
            Errc::not_found);
}

TEST(DeployTimeModel, ScalesWithVmCount) {
  const DeployTimeModel model;
  StackTemplate one;
  one.resources = {{"a", small()}};
  StackTemplate four;
  four.resources = {{"a", small()}, {"b", small()}, {"c", small()}, {"d", small()}};
  EXPECT_GT(model.estimate(four), model.estimate(one));
  EXPECT_EQ(model.estimate(four) - model.estimate(one), model.per_vm * 3.0);
}

// --- CloudController --------------------------------------------------------------

CloudController make_controller(telemetry::MonitorRegistry* reg = nullptr) {
  CloudController controller(reg);
  const DatacenterId edge = controller.add_datacenter("edge", DatacenterKind::edge);
  controller.add_host(edge, "e1", ComputeCapacity{16.0, 32768.0, 500.0});
  const DatacenterId core = controller.add_datacenter("core", DatacenterKind::core, 2.0);
  controller.add_host(core, "c1", ComputeCapacity{64.0, 262144.0, 4000.0});
  controller.finalize();
  return controller;
}

TEST(CloudController, ChooseDatacenterPrefersCore) {
  CloudController controller = make_controller();
  const ComputeCapacity footprint{4.0, 4096.0, 40.0};
  const auto chosen = controller.choose_datacenter(footprint, /*require_edge=*/false);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(controller.find_datacenter(*chosen)->kind(), DatacenterKind::core);
}

TEST(CloudController, RequireEdgeRestrictsChoice) {
  CloudController controller = make_controller();
  const auto chosen =
      controller.choose_datacenter(ComputeCapacity{4.0, 4096.0, 40.0}, /*require_edge=*/true);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(controller.find_datacenter(*chosen)->kind(), DatacenterKind::edge);
  // Bigger than the edge host: nothing qualifies when edge is required.
  EXPECT_FALSE(controller.choose_datacenter(ComputeCapacity{32.0, 4096.0, 40.0}, true)
                   .has_value());
}

TEST(CloudController, FallsBackToEdgeWhenCoreFull) {
  CloudController controller = make_controller();
  // With room everywhere, placement prefers the core.
  const Datacenter* core = controller.find_datacenter(
      controller.choose_datacenter(ComputeCapacity{1.0, 1024.0, 1.0}, false).value());
  ASSERT_EQ(core->kind(), DatacenterKind::core);
  // Exhaust the core (128 schedulable vCPUs via ratio 2.0).
  StackTemplate filler;
  filler.name = "filler";
  filler.resources = {{"x", Flavor{"f", ComputeCapacity{128.0, 65536.0, 100.0}}}};
  ASSERT_TRUE(controller.create_stack(core->id(), filler).ok());
  const auto chosen =
      controller.choose_datacenter(ComputeCapacity{8.0, 8192.0, 50.0}, false);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(controller.find_datacenter(*chosen)->kind(), DatacenterKind::edge);
}

TEST(CloudController, RecordEpochPublishesUtilization) {
  telemetry::MonitorRegistry registry;
  CloudController controller = make_controller(&registry);
  controller.record_epoch(SimTime::from_seconds(10.0));
  const Datacenter* edge = controller.find_datacenter(
      controller.choose_datacenter(ComputeCapacity{1.0, 1024.0, 1.0}, true).value());
  const std::string key = "cloud.dc." + std::to_string(edge->id().value()) + ".utilization";
  ASSERT_NE(registry.find_series(key), nullptr);
  EXPECT_DOUBLE_EQ(registry.find_gauge(key)->value(), 0.0);
}

TEST(CloudController, RestApiStackLifecycle) {
  CloudController controller = make_controller();
  net::RestBus bus;
  bus.register_service("cloud", controller.make_router());

  const Result<json::Value> dcs = bus.get_json("cloud", "/datacenters");
  ASSERT_TRUE(dcs.ok());
  ASSERT_EQ(dcs.value().find("datacenters")->as_array().size(), 2u);

  const auto core_id = static_cast<std::uint64_t>(
      dcs.value().find("datacenters")->as_array()[1].find("id")->as_number());

  json::Value req;
  req["datacenter"] = static_cast<double>(core_id);
  req["name"] = "demo-stack";
  json::Array resources;
  json::Value vm;
  vm["name"] = "app";
  vm["vcpus"] = 4.0;
  vm["memory_mb"] = 4096.0;
  vm["disk_gb"] = 40.0;
  resources.push_back(vm);
  req["resources"] = resources;

  const Result<json::Value> created = bus.call_json("cloud", net::Method::post, "/stacks", req);
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_GT(created.value().find("deploy_seconds")->as_number(), 0.0);
  const auto stack_id =
      static_cast<std::uint64_t>(created.value().find("stack")->as_number());

  ASSERT_TRUE(bus.call_json("cloud", net::Method::del,
                            "/stacks/" + std::to_string(stack_id), json::Value(nullptr)).ok());
  EXPECT_FALSE(bus.call_json("cloud", net::Method::del,
                             "/stacks/" + std::to_string(stack_id), json::Value(nullptr)).ok());
}

}  // namespace
}  // namespace slices::cloud
