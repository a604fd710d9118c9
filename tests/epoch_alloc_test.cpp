// Allocation accounting for the epoch kernels: after a warm-up epoch
// has grown a controller's arena and scratch vectors to their
// high-water marks, the steady-state serve loop — RAN serve_epoch and
// transport serve_epoch — must perform ZERO
// heap allocations, at any pool size. The global operator new/delete
// replacements in counting_new.hpp count every allocation on every
// thread, in every form of new, so a single malloc
// sneaking back into a hot path fails the test instead of quietly
// costing a syscall per epoch at 1M UEs / 100k paths. The orchestrator's
// epoch around them is held to fewer allocations than active slices.
//
// The controllers are built WITHOUT a telemetry registry: series append
// may grow telemetry buffers, which is monitored-state growth, not
// serve-loop scratch, and is outside the zero-allocation contract.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/testbed.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"
#include "traffic/model.hpp"
#include "traffic/verticals.hpp"
#include "transport/controller.hpp"
#include "transport/topology.hpp"
#include "counting_new.hpp"

namespace slices::ran {
namespace {

struct Fixture {
  std::unique_ptr<ThreadPool> pool;
  RanController ran;  // no registry: telemetry growth is out of scope
  std::vector<PlmnId> plmns;
  std::vector<std::pair<PlmnId, DataRate>> demands;
  std::vector<RanServeReport> reports;

  explicit Fixture(std::size_t threads, std::size_t n_ues) {
    constexpr std::size_t kCells = 16;
    for (std::size_t i = 0; i < kCells; ++i) {
      ran.add_cell(Cell(CellId{i + 1}, "cell-" + std::to_string(i), Bandwidth::mhz20,
                        SharingPolicy::pooled));
    }
    for (std::size_t p = 0; p < 4; ++p) {
      const PlmnId plmn{100 + p};
      EXPECT_TRUE(ran.install_plmn(plmn).ok());
      EXPECT_TRUE(ran.set_allocation(plmn, DataRate::mbps(30.0)).ok());
      plmns.push_back(plmn);
      demands.emplace_back(plmn, DataRate::mbps(25.0 + 10.0 * static_cast<double>(p)));
    }
    Rng rng(5);
    for (std::size_t i = 0; i < n_ues; ++i) {
      EXPECT_TRUE(ran.attach_ue(plmns[i % plmns.size()],
                                Cqi{static_cast<int>(rng.uniform_int(1, 15))})
                      .ok());
    }
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      ran.set_thread_pool(pool.get());
    }
  }

  void run_epoch(int epoch) {
    ran.serve_epoch(demands, SimTime::from_seconds(epoch * 1.0), reports);
    EXPECT_EQ(reports.size(), demands.size());
  }
};

void expect_zero_alloc_epochs(std::size_t threads) {
  Fixture fx(threads, /*n_ues=*/20'000);
  // Warm-up: grows the arena to its high-water mark and the report
  // vector's capacity.
  fx.run_epoch(0);
  fx.run_epoch(1);

  AllocationCounter counter;
  for (int epoch = 2; epoch < 8; ++epoch) fx.run_epoch(epoch);
  EXPECT_EQ(counter.count(), 0u)
      << "steady-state epochs allocated with threads=" << threads;
}

TEST(EpochAllocations, SteadyStateServeLoopIsAllocationFreeSerial) {
  expect_zero_alloc_epochs(1);
}

TEST(EpochAllocations, SteadyStateServeLoopIsAllocationFreePooled) {
  expect_zero_alloc_epochs(4);
}

TEST(EpochAllocations, ArenaRewindsInsteadOfFreeing) {
  Fixture fx(1, /*n_ues=*/1'000);
  fx.run_epoch(0);
  Arena probe;
  probe.reserve(1024);
  AllocationCounter counter;
  for (int i = 0; i < 100; ++i) {
    probe.reset();
    const auto a = probe.alloc_array<std::uint64_t>(64);
    const auto b = probe.alloc_array<std::uint8_t>(128);
    EXPECT_EQ(a.size(), 64u);
    EXPECT_EQ(b.size(), 128u);
  }
  EXPECT_EQ(counter.count(), 0u);
  EXPECT_LE(probe.high_water(), probe.capacity());
}

// A fresh controller's first epoch reserves the arena and grows
// `reports`, so it must allocate — this guards against the
// counter itself going blind (a counter that never fires would make the
// zero-allocation tests above vacuous) on the same code they measure.
TEST(EpochAllocations, CounterSeesFirstEpochAllocations) {
  Fixture fx(1, /*n_ues=*/1'000);
  AllocationCounter counter;
  fx.run_epoch(0);
  EXPECT_GT(counter.count(), 0u);
}

// Transport serve kernel: same contract as the RAN one. Fiber-only
// substrate so no fading process runs — steady state must not even hit
// the repair path (degradation is impossible without fading or admin
// down events).
struct TransportFixture {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<transport::TransportController> tc;  // no registry
  std::vector<std::pair<PathId, DataRate>> demands;
  std::vector<transport::PathServeReport> reports;

  explicit TransportFixture(std::size_t threads, std::size_t n_paths) {
    transport::Topology topology;
    const NodeId src = topology.add_node("src", transport::NodeKind::enb_gateway);
    const NodeId mid = topology.add_node("mid", transport::NodeKind::openflow_switch);
    const NodeId dst = topology.add_node("dst", transport::NodeKind::core_gateway);
    topology.add_link(src, mid, transport::LinkTechnology::fiber,
                      DataRate::mbps(1e9), Duration::millis(1.0));
    topology.add_link(mid, dst, transport::LinkTechnology::fiber,
                      DataRate::mbps(1e9), Duration::millis(1.0));
    tc = std::make_unique<transport::TransportController>(std::move(topology), Rng(17));
    for (std::size_t i = 0; i < n_paths; ++i) {
      const Result<PathId> path = tc->allocate_path(SliceId{i + 1}, src, dst,
                                                    DataRate::mbps(2.0), Duration::millis(50.0));
      EXPECT_TRUE(path.ok());
      demands.emplace_back(path.value(), DataRate::mbps(1.5));
    }
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      tc->set_thread_pool(pool.get());
    }
  }

  void run_epoch(int epoch) {
    tc->serve_epoch(demands, SimTime::from_seconds(epoch * 1.0), reports);
    EXPECT_EQ(reports.size(), demands.size());
  }
};

void expect_zero_alloc_transport_epochs(std::size_t threads) {
  TransportFixture fx(threads, /*n_paths=*/512);
  fx.run_epoch(0);
  fx.run_epoch(1);

  AllocationCounter counter;
  for (int epoch = 2; epoch < 8; ++epoch) fx.run_epoch(epoch);
  EXPECT_EQ(counter.count(), 0u)
      << "steady-state transport epochs allocated with threads=" << threads;
}

TEST(EpochAllocations, TransportServeLoopIsAllocationFreeSerial) {
  expect_zero_alloc_transport_epochs(1);
}

TEST(EpochAllocations, TransportServeLoopIsAllocationFreePooled) {
  expect_zero_alloc_transport_epochs(4);
}

// Vacuity guard for the transport kernel: a fresh controller's first
// epoch reserves the arena and grows `reports`, so the counter must see
// it allocate.
TEST(EpochAllocations, CounterSeesFirstTransportEpochAllocations) {
  TransportFixture fx(1, /*n_paths=*/64);
  AllocationCounter counter;
  fx.run_epoch(0);
  EXPECT_GT(counter.count(), 0u);
}

}  // namespace
}  // namespace slices::ran

namespace slices::core {
namespace {

// The orchestrator's epoch around the two kernels (demand sampling,
// pairing serve reports with slices, the SLA reduction, overbooking)
// must not cost an allocation per active slice. Steady state on the
// Fig. 2 testbed: constant demand, so once overbooking has shrunk every
// reservation to its target the hysteresis keeps it; no violations (no
// audit events) and no store (no journal documents). The EWMA estimator
// has no periodic model reselection, which allocates by design.
TEST(EpochAllocations, OrchestratorEpochAllocatesLessThanOncePerSlice) {
  OrchestratorConfig config;
  config.overbooking.estimator = EstimatorKind::ewma;
  auto tb = make_testbed(31, config);
  constexpr std::size_t kSlices = 6;  // the eNBs broadcast at most six PLMNs
  for (std::size_t i = 0; i < kSlices; ++i) {
    SliceSpec spec = SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(1000.0));
    spec.expected_throughput = DataRate::mbps(4.0);
    ASSERT_EQ(tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(2.0)).state,
              SliceState::installing);
  }
  // Warm-up: activation, estimator warm-up and the one shrink to target.
  tb->simulator.run_for(config.monitoring_period * 40.0);
  const OrchestratorSummary warm = tb->orchestrator->summary();
  ASSERT_EQ(warm.active_slices, kSlices);
  ASSERT_GE(warm.reconfigurations, kSlices);  // overbooking acted on every slice
  ASSERT_LT(warm.reserved_total, warm.contracted_total);

  constexpr int kEpochs = 32;
  SimTime now = tb->simulator.now();
  std::uint64_t allocations = 0;
  {
    AllocationCounter counter;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      now = now + config.monitoring_period;
      tb->orchestrator->run_epoch(now);
    }
    allocations = counter.count();
  }
  const OrchestratorSummary after = tb->orchestrator->summary();
  EXPECT_EQ(after.reconfigurations, warm.reconfigurations);  // hysteresis held
  EXPECT_EQ(after.violation_epochs, 0u);
  EXPECT_EQ(after.active_slices, kSlices);
  EXPECT_LT(allocations, kSlices * kEpochs)
      << "orchestrator epochs allocated " << allocations << " times over " << kEpochs
      << " epochs of " << kSlices << " slices";
}

// An epoch that records SLA violations allocates nothing either: each
// violation goes into the event ring as a typed record, formatted only
// when someone reads the log. Overbooking off keeps every reservation at
// its contract; demand above it saturates each slice's path, and the
// queueing delay breaches the 8 ms bound every epoch. Warm-up fills the
// event ring, which grows to its capacity on first use.
TEST(EpochAllocations, OrchestratorEpochRecordingViolationsAllocatesNothing) {
  OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = make_testbed(32, config);
  constexpr std::size_t kSlices = 6;
  for (std::size_t i = 0; i < kSlices; ++i) {
    SliceSpec spec = SliceSpec::from_profile(
        traffic::profile_for(traffic::Vertical::embb_video), Duration::hours(1000.0));
    spec.expected_throughput = DataRate::mbps(4.0);
    spec.max_latency = Duration::millis(8.0);
    const SubmitVerdict verdict =
        tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(12.0));
    ASSERT_EQ(verdict.state, SliceState::installing);
  }
  tb->simulator.run_for(config.monitoring_period * 400.0);
  const OrchestratorSummary warm = tb->orchestrator->summary();
  ASSERT_EQ(warm.active_slices, kSlices);
  ASSERT_EQ(tb->orchestrator->events().size(), 1024u);

  constexpr int kEpochs = 32;
  SimTime now = tb->simulator.now();
  std::uint64_t allocations = 0;
  {
    AllocationCounter counter;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      now = now + config.monitoring_period;
      tb->orchestrator->run_epoch(now);
    }
    allocations = counter.count();
  }
  const OrchestratorSummary after = tb->orchestrator->summary();
  EXPECT_EQ(after.violation_epochs - warm.violation_epochs, kSlices * kEpochs);
  EXPECT_EQ(allocations, 0u) << "orchestrator epochs recording violations allocated "
                             << allocations << " times over " << kEpochs << " epochs";
}

}  // namespace
}  // namespace slices::core
