// Unit tests for the RAN substrate: PHY tables, MOCN cells, the
// multi-PLMN scheduler, and the RAN controller incl. its REST facade.

#include <gtest/gtest.h>

#include <algorithm>

#include "net/rest_bus.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"
#include "ran/phy.hpp"
#include "ran/scheduler.hpp"

namespace slices::ran {
namespace {

// --- PHY -------------------------------------------------------------------

TEST(Phy, BandwidthToPrbTable) {
  EXPECT_EQ(prbs_for(Bandwidth::mhz1_4).value, 6);
  EXPECT_EQ(prbs_for(Bandwidth::mhz3).value, 15);
  EXPECT_EQ(prbs_for(Bandwidth::mhz5).value, 25);
  EXPECT_EQ(prbs_for(Bandwidth::mhz10).value, 50);
  EXPECT_EQ(prbs_for(Bandwidth::mhz15).value, 75);
  EXPECT_EQ(prbs_for(Bandwidth::mhz20).value, 100);
}

TEST(Phy, SpectralEfficiencyMonotoneInCqi) {
  for (int cqi = 2; cqi <= 15; ++cqi) {
    EXPECT_GT(spectral_efficiency(Cqi{cqi}), spectral_efficiency(Cqi{cqi - 1}));
  }
}

TEST(Phy, FullCellThroughputIsLtePlausible) {
  // 100 PRB at CQI 15 with 0.75 data fraction ≈ 70 Mb/s — the right
  // order of magnitude for 20 MHz SISO LTE.
  const DataRate full = throughput_of(PrbCount{100}, Cqi{15});
  EXPECT_GT(full.as_mbps(), 50.0);
  EXPECT_LT(full.as_mbps(), 110.0);
}

TEST(Phy, PrbsNeededInvertsThroughput) {
  for (const int cqi : {3, 7, 11, 15}) {
    const DataRate rate = DataRate::mbps(12.0);
    const PrbCount needed = prbs_needed(rate, Cqi{cqi});
    EXPECT_GE(throughput_of(needed, Cqi{cqi}), rate);
    if (needed.value > 0) {
      EXPECT_LT(throughput_of(needed - PrbCount{1}, Cqi{cqi}), rate);
    }
  }
}

TEST(Phy, ZeroRateNeedsZeroPrbs) {
  EXPECT_EQ(prbs_needed(DataRate::zero(), Cqi{7}).value, 0);
}

// Regression: demand that is an exact multiple of the per-PRB rate must
// need exactly n PRBs. The old std::ceil(rate / per_prb) returned n+1
// whenever the FP quotient landed one ulp above the integer.
TEST(Phy, PrbsNeededExactMultiplesDoNotRoundUp) {
  for (int cqi = 1; cqi <= 15; ++cqi) {
    const DataRate per_prb = prb_throughput(Cqi{cqi});
    for (const int n : {1, 2, 3, 7, 25, 100, 4096}) {
      const DataRate rate = per_prb * static_cast<double>(n);
      EXPECT_EQ(prbs_needed(rate, Cqi{cqi}).value, n)
          << "cqi=" << cqi << " n=" << n;
    }
  }
}

// A hair above an exact multiple still rounds up to n+1: the slack
// only absorbs representation error, not real extra demand.
TEST(Phy, PrbsNeededJustAboveMultipleRoundsUp) {
  const DataRate per_prb = prb_throughput(Cqi{10});
  const DataRate rate = per_prb * 10.0 + DataRate::bps(1000.0);
  EXPECT_EQ(prbs_needed(rate, Cqi{10}).value, 11);
}

TEST(Phy, PhyTablesMatchScalarPath) {
  for (int cqi = 1; cqi <= 15; ++cqi) {
    EXPECT_EQ(kPhyTables.prb_bps[static_cast<std::size_t>(cqi)],
              prb_throughput(Cqi{cqi}).bits_per_second());
  }
}

// --- scheduler --------------------------------------------------------------

TEST(Scheduler, ReservationsServeFirst) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{50}, DataRate::mbps(10.0), Cqi{10}},
      {PlmnId{2}, PrbCount{50}, DataRate::mbps(10.0), Cqi{10}},
  };
  const auto grants = schedule_epoch(PrbCount{100}, loads, SharingPolicy::strict);
  ASSERT_EQ(grants.size(), 2u);
  for (const PlmnGrant& g : grants) {
    EXPECT_DOUBLE_EQ(g.served.as_mbps(), 10.0);
    EXPECT_DOUBLE_EQ(g.unserved.as_mbps(), 0.0);
    EXPECT_LE(g.granted.value, 50);
  }
}

TEST(Scheduler, StrictIsolationWastesIdleReservedPrbs) {
  // PLMN 1 reserved 80 but idle; PLMN 2 wants far more than its 20.
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{80}, DataRate::zero(), Cqi{10}},
      {PlmnId{2}, PrbCount{20}, DataRate::mbps(60.0), Cqi{10}},
  };
  const auto strict = schedule_epoch(PrbCount{100}, loads, SharingPolicy::strict);
  // No common pool (all reserved): PLMN 2 capped at its 20 PRBs.
  EXPECT_EQ(strict[1].granted.value, 20);
  EXPECT_GT(strict[1].unserved.as_mbps(), 0.0);

  const auto pooled = schedule_epoch(PrbCount{100}, loads, SharingPolicy::pooled);
  EXPECT_GT(pooled[1].granted.value, 20);
  EXPECT_GT(pooled[1].served, strict[1].served);
}

TEST(Scheduler, PoolSplitsFairlyAmongEqualClaims) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}},
      {PlmnId{2}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}},
  };
  const auto grants = schedule_epoch(PrbCount{60}, loads, SharingPolicy::strict);
  EXPECT_EQ(grants[0].granted.value, 30);
  EXPECT_EQ(grants[1].granted.value, 30);
}

TEST(Scheduler, PoolWeightsBiasContendedSharing) {
  // Equal demands, no reservations: weight 3 vs 1 splits the pool 3:1.
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 3},
      {PlmnId{2}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 1},
  };
  const auto grants = schedule_epoch(PrbCount{80}, loads, SharingPolicy::strict);
  EXPECT_EQ(grants[0].granted.value, 60);
  EXPECT_EQ(grants[1].granted.value, 20);
}

TEST(Scheduler, PoolWeightsDoNotTouchReservations) {
  // PLMN 2 has everything it needs reserved; weights only shape the pool.
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 1},
      {PlmnId{2}, PrbCount{40}, DataRate::mbps(10.0), Cqi{10}, 5},
  };
  const auto grants = schedule_epoch(PrbCount{100}, loads, SharingPolicy::strict);
  // PLMN 2 needs ~30 PRBs, covered by its 40 reserved; the 60-PRB pool
  // goes entirely to PLMN 1 regardless of weights.
  EXPECT_NEAR(grants[1].served.as_mbps(), 10.0, 1e-9);
  EXPECT_EQ(grants[0].granted.value, 60);
}

TEST(Scheduler, ZeroWeightTreatedAsOne) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 0},
      {PlmnId{2}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 1},
  };
  const auto grants = schedule_epoch(PrbCount{40}, loads, SharingPolicy::strict);
  EXPECT_EQ(grants[0].granted.value, 20);
  EXPECT_EQ(grants[1].granted.value, 20);
}

TEST(Scheduler, NeverGrantsMoreThanTotal) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{40}, DataRate::mbps(100.0), Cqi{8}},
      {PlmnId{2}, PrbCount{30}, DataRate::mbps(100.0), Cqi{5}},
      {PlmnId{3}, PrbCount{0}, DataRate::mbps(100.0), Cqi{12}},
  };
  for (const SharingPolicy policy : {SharingPolicy::strict, SharingPolicy::pooled}) {
    const auto grants = schedule_epoch(PrbCount{100}, loads, policy);
    int total = 0;
    for (const PlmnGrant& g : grants) total += g.granted.value;
    EXPECT_LE(total, 100);
  }
}

TEST(Scheduler, ServedNeverExceedsDemand) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{90}, DataRate::mbps(1.0), Cqi{15}},
  };
  const auto grants = schedule_epoch(PrbCount{100}, loads, SharingPolicy::pooled);
  EXPECT_DOUBLE_EQ(grants[0].served.as_mbps(), 1.0);
}

// --- Cell ----------------------------------------------------------------------

Cell make_cell() {
  return Cell(CellId{1}, "test-cell", Bandwidth::mhz20, SharingPolicy::pooled);
}

TEST(Cell, BroadcastLifecycle) {
  Cell cell = make_cell();
  EXPECT_TRUE(cell.broadcast_plmn(PlmnId{10}).ok());
  EXPECT_TRUE(cell.broadcasts(PlmnId{10}));
  EXPECT_EQ(cell.broadcast_plmn(PlmnId{10}).error().code, Errc::conflict);
  EXPECT_TRUE(cell.withdraw_plmn(PlmnId{10}).ok());
  EXPECT_FALSE(cell.broadcasts(PlmnId{10}));
  EXPECT_EQ(cell.withdraw_plmn(PlmnId{10}).error().code, Errc::not_found);
}

TEST(Cell, BroadcastListBounded) {
  Cell cell = make_cell();
  for (std::uint64_t i = 1; i <= kMaxBroadcastPlmns; ++i) {
    EXPECT_TRUE(cell.broadcast_plmn(PlmnId{i}).ok());
  }
  EXPECT_EQ(cell.broadcast_plmn(PlmnId{99}).error().code, Errc::insufficient_capacity);
}

TEST(Cell, ReservationRespectsCapacity) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{2}).ok());
  EXPECT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{60}).ok());
  EXPECT_EQ(cell.set_reservation(PlmnId{2}, PrbCount{50}).error().code,
            Errc::insufficient_capacity);
  EXPECT_TRUE(cell.set_reservation(PlmnId{2}, PrbCount{40}).ok());
  EXPECT_EQ(cell.reserved_prbs().value, 100);
  EXPECT_EQ(cell.unreserved_prbs().value, 0);
}

TEST(Cell, ReservationResizeIsPutSemantics) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{80}).ok());
  // Shrink and re-grow within own footprint always works.
  EXPECT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{20}).ok());
  EXPECT_EQ(cell.reservation_of(PlmnId{1}).value, 20);
  EXPECT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{100}).ok());
}

TEST(Cell, ReservationErrors) {
  Cell cell = make_cell();
  EXPECT_EQ(cell.set_reservation(PlmnId{1}, PrbCount{10}).error().code, Errc::not_found);
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  EXPECT_EQ(cell.set_reservation(PlmnId{1}, PrbCount{-5}).error().code,
            Errc::invalid_argument);
}

TEST(Cell, WithdrawBlockedByReservationAndUes) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{10}).ok());
  EXPECT_EQ(cell.withdraw_plmn(PlmnId{1}).error().code, Errc::conflict);
  cell.clear_reservation(PlmnId{1});
  ASSERT_TRUE(cell.attach_ue(UeId{5}, PlmnId{1}, Cqi{9}).ok());
  EXPECT_EQ(cell.withdraw_plmn(PlmnId{1}).error().code, Errc::conflict);
  ASSERT_TRUE(cell.detach_ue(UeId{5}).ok());
  EXPECT_TRUE(cell.withdraw_plmn(PlmnId{1}).ok());
}

TEST(Cell, UeAttachRequiresBroadcast) {
  Cell cell = make_cell();
  EXPECT_EQ(cell.attach_ue(UeId{1}, PlmnId{7}, Cqi{10}).error().code, Errc::not_found);
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{7}).ok());
  EXPECT_TRUE(cell.attach_ue(UeId{1}, PlmnId{7}, Cqi{10}).ok());
  EXPECT_EQ(cell.attach_ue(UeId{1}, PlmnId{7}, Cqi{10}).error().code, Errc::conflict);
  EXPECT_EQ(cell.attached_count(PlmnId{7}), 1u);
}

TEST(Cell, MeanCqiAveragesAttachedUes) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{9}), Cqi{9});  // fallback
  ASSERT_TRUE(cell.attach_ue(UeId{1}, PlmnId{1}, Cqi{6}).ok());
  ASSERT_TRUE(cell.attach_ue(UeId{2}, PlmnId{1}, Cqi{12}).ok());
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{9}), Cqi{9});  // (6+12)/2
}

TEST(Cell, UeCqiUpdateAndQuery) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.attach_ue(UeId{1}, PlmnId{1}, Cqi{7}).ok());
  EXPECT_EQ(cell.ue_cqi(UeId{1}), Cqi{7});
  EXPECT_TRUE(cell.update_ue_cqi(UeId{1}, Cqi{12}).ok());
  EXPECT_EQ(cell.ue_cqi(UeId{1}), Cqi{12});
  EXPECT_EQ(cell.update_ue_cqi(UeId{9}, Cqi{5}).error().code, Errc::not_found);
  EXPECT_EQ(cell.ue_cqi(UeId{9}), std::nullopt);
}

TEST(Cell, CqiWanderStaysInRange) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.attach_ue(UeId{1}, PlmnId{1}, Cqi{1}).ok());
  ASSERT_TRUE(cell.attach_ue(UeId{2}, PlmnId{1}, Cqi{15}).ok());
  Rng rng(3);
  bool moved = false;
  for (int i = 0; i < 500; ++i) {
    cell.wander_cqis(rng, 0.5);
    for (const UeId ue : {UeId{1}, UeId{2}}) {
      const std::optional<Cqi> cqi = cell.ue_cqi(ue);
      ASSERT_TRUE(cqi.has_value());
      EXPECT_GE(cqi->index(), 1);
      EXPECT_LE(cqi->index(), 15);
      if (*cqi != Cqi{1} && *cqi != Cqi{15}) moved = true;
    }
  }
  EXPECT_TRUE(moved);
}

// Distribution parity between the batched wander kernel and the retained
// legacy walk: same step probability, symmetric sign, same bounds. The two
// consume the RNG differently, so this is a statistical check, not a
// bit-compare.
TEST(Cell, WanderStepRateMatchesLegacyDistribution) {
  constexpr std::size_t kUes = 2048;
  constexpr int kRounds = 20;
  constexpr double kP = 0.3;
  const auto step_rate = [&](bool legacy) {
    Cell cell = make_cell();
    EXPECT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
    std::vector<UeId> ues;
    for (std::size_t i = 0; i < kUes; ++i) {
      const UeId ue{i + 1};
      EXPECT_TRUE(cell.attach_ue(ue, PlmnId{1}, Cqi{8}).ok());
      ues.push_back(ue);
    }
    Rng rng(19);
    std::vector<int> before(kUes);
    std::int64_t moved = 0;
    std::int64_t trials = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < kUes; ++i) before[i] = cell.ue_cqi(ues[i])->index();
      if (legacy) {
        cell.wander_cqis_legacy(rng, kP);
      } else {
        cell.wander_cqis(rng, kP);
      }
      for (std::size_t i = 0; i < kUes; ++i) {
        const int after = cell.ue_cqi(ues[i])->index();
        EXPECT_GE(after, 1);
        EXPECT_LE(after, 15);
        if (after != before[i]) ++moved;
        ++trials;
      }
    }
    return static_cast<double>(moved) / static_cast<double>(trials);
  };
  const double vectorized = step_rate(false);
  const double legacy = step_rate(true);
  // Clamping at the band edges hides the odd step, so the observed rate
  // sits a hair below p; both kernels must sit there together.
  EXPECT_NEAR(vectorized, kP, 0.02);
  EXPECT_NEAR(legacy, kP, 0.02);
  EXPECT_NEAR(vectorized, legacy, 0.015);
}

// The batched kernel masks detached rows with the live column and folds
// per-PLMN CQI deltas once per block: after wandering across holes, the
// cached mean must equal a recomputation from the surviving UEs.
TEST(Cell, WanderSkipsHolesAndKeepsCqiSumsConsistent) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{2}).ok());
  std::vector<UeId> live;
  for (std::size_t i = 0; i < 64; ++i) {
    const UeId ue{i + 1};
    const PlmnId plmn{1 + i % 2};
    ASSERT_TRUE(cell.attach_ue(ue, plmn, Cqi{static_cast<int>(1 + i % 15)}).ok());
    live.push_back(ue);
  }
  // Punch holes in the middle of the columns.
  for (std::size_t i = 0; i < 64; i += 3) {
    ASSERT_TRUE(cell.detach_ue(UeId{i + 1}).ok());
    live.erase(std::find(live.begin(), live.end(), UeId{i + 1}));
  }
  Rng rng(23);
  for (int round = 0; round < 50; ++round) cell.wander_cqis(rng, 0.5);

  for (const PlmnId plmn : {PlmnId{1}, PlmnId{2}}) {
    std::int64_t sum = 0;
    std::int64_t count = 0;
    for (const UeId ue : live) {
      // ue_cqi is hole-aware; only UEs of this PLMN contribute.
      if ((ue.value() - 1) % 2 != plmn.value() - 1) continue;
      const std::optional<Cqi> cqi = cell.ue_cqi(ue);
      ASSERT_TRUE(cqi.has_value());
      sum += cqi->index();
      ++count;
    }
    ASSERT_GT(count, 0);
    const int expected_mean =
        std::clamp(static_cast<int>(sum / count), 1, 15);  // mirror of mean_cqi_at
    EXPECT_EQ(cell.mean_cqi(plmn, Cqi{7}).index(), expected_mean) << "plmn " << plmn.value();
  }
  // Detached rows stay detached.
  EXPECT_EQ(cell.ue_cqi(UeId{1}), std::nullopt);
}

TEST(Cell, ServeEpochUsesReservations) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{50}).ok());
  const std::vector<std::pair<PlmnId, DataRate>> demands = {{PlmnId{1}, DataRate::mbps(5.0)}};
  const auto grants = cell.serve_epoch(demands);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0].served.as_mbps(), 5.0);
}

// --- RanController ----------------------------------------------------------------

RanController make_controller(telemetry::MonitorRegistry* reg = nullptr) {
  RanController controller(reg);
  controller.add_cell(Cell(CellId{1}, "a", Bandwidth::mhz20, SharingPolicy::pooled));
  controller.add_cell(Cell(CellId{2}, "b", Bandwidth::mhz20, SharingPolicy::pooled));
  return controller;
}

TEST(RanController, PlmnInstallIsNetworkWide) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{100}).ok());
  EXPECT_TRUE(controller.find_cell(CellId{1})->broadcasts(PlmnId{100}));
  EXPECT_TRUE(controller.find_cell(CellId{2})->broadcasts(PlmnId{100}));
  EXPECT_EQ(controller.install_plmn(PlmnId{100}).error().code, Errc::conflict);
}

TEST(RanController, RemovePlmnBlockedByAllocation) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{100}).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{100}, DataRate::mbps(20.0)).ok());
  EXPECT_EQ(controller.remove_plmn(PlmnId{100}).error().code, Errc::conflict);
  controller.release_allocation(PlmnId{100});
  EXPECT_TRUE(controller.remove_plmn(PlmnId{100}).ok());
}

TEST(RanController, AllocationGuaranteesRate) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{100}).ok());
  const Result<RanAllocation> alloc =
      controller.set_allocation(PlmnId{100}, DataRate::mbps(30.0), Cqi{10});
  ASSERT_TRUE(alloc.ok());
  DataRate capacity = DataRate::zero();
  for (const auto& [cell, prbs] : alloc.value().per_cell) {
    capacity += throughput_of(prbs, Cqi{10});
  }
  EXPECT_GE(capacity, DataRate::mbps(30.0));
}

TEST(RanController, AllocationSpansCellsWhenOneIsFull) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{100}).ok());
  // One 20 MHz cell at CQI 10 carries ~41 Mb/s; ask for more.
  const double one_cell = throughput_of(PrbCount{100}, Cqi{10}).as_mbps();
  const Result<RanAllocation> alloc =
      controller.set_allocation(PlmnId{100}, DataRate::mbps(one_cell * 1.5), Cqi{10});
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc.value().per_cell.size(), 2u);
}

TEST(RanController, AllocationFailsAtomicallyBeyondCapacity) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{100}).ok());
  const double total = controller.total_capacity(Cqi{10}).as_mbps();
  const Result<RanAllocation> too_big =
      controller.set_allocation(PlmnId{100}, DataRate::mbps(total * 1.2), Cqi{10});
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.error().code, Errc::insufficient_capacity);
  // Nothing must remain reserved after the failure.
  EXPECT_EQ(controller.find_cell(CellId{1})->reserved_prbs().value, 0);
  EXPECT_EQ(controller.find_cell(CellId{2})->reserved_prbs().value, 0);
  EXPECT_EQ(controller.find_allocation(PlmnId{100}), nullptr);
}

TEST(RanController, ResizePreservesOtherAllocations) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(controller.install_plmn(PlmnId{2}).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{1}, DataRate::mbps(30.0)).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{2}, DataRate::mbps(25.0)).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{1}, DataRate::mbps(5.0)).ok());  // shrink
  ASSERT_NE(controller.find_allocation(PlmnId{2}), nullptr);
  EXPECT_DOUBLE_EQ(controller.find_allocation(PlmnId{2})->rate.as_mbps(), 25.0);
  EXPECT_DOUBLE_EQ(controller.find_allocation(PlmnId{1})->rate.as_mbps(), 5.0);
}

TEST(RanController, AvailableCapacityShrinksWithAllocations) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{1}).ok());
  const DataRate before = controller.available_capacity();
  ASSERT_TRUE(controller.set_allocation(PlmnId{1}, DataRate::mbps(20.0)).ok());
  const DataRate after = controller.available_capacity();
  EXPECT_LT(after, before);
  EXPECT_GE(before - after, DataRate::mbps(20.0) * 0.99);
}

TEST(RanController, UeAttachGatedOnPlmnInstall) {
  RanController controller = make_controller();
  EXPECT_EQ(controller.attach_ue(PlmnId{5}, Cqi{10}).error().code, Errc::not_found);
  ASSERT_TRUE(controller.install_plmn(PlmnId{5}).ok());
  const Result<UeId> ue = controller.attach_ue(PlmnId{5}, Cqi{10});
  ASSERT_TRUE(ue.ok());
  EXPECT_EQ(controller.attached_ues(PlmnId{5}), 1u);
  EXPECT_TRUE(controller.detach_ue(ue.value()).ok());
  EXPECT_EQ(controller.detach_ue(ue.value()).error().code, Errc::not_found);
}

TEST(RanController, UesBalanceAcrossCells) {
  RanController controller = make_controller();
  ASSERT_TRUE(controller.install_plmn(PlmnId{5}).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(controller.attach_ue(PlmnId{5}, Cqi{10}).ok());
  EXPECT_EQ(controller.find_cell(CellId{1})->attached_total(), 5u);
  EXPECT_EQ(controller.find_cell(CellId{2})->attached_total(), 5u);
}

TEST(RanController, ServeEpochAggregatesAndPublishesTelemetry) {
  telemetry::MonitorRegistry registry;
  RanController controller = make_controller(&registry);
  ASSERT_TRUE(controller.install_plmn(PlmnId{7}).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{7}, DataRate::mbps(20.0)).ok());
  const std::vector<std::pair<PlmnId, DataRate>> demands = {{PlmnId{7}, DataRate::mbps(10.0)}};
  const auto reports = controller.serve_epoch(demands, SimTime::from_seconds(60.0));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NEAR(reports[0].served.as_mbps(), 10.0, 0.3);
  EXPECT_NE(registry.find_series("ran.plmn.7.served_mbps"), nullptr);
  EXPECT_NE(registry.find_series("ran.cell.1.utilization"), nullptr);
}

TEST(RanController, RestApiDrivesFullLifecycle) {
  RanController controller = make_controller();
  net::RestBus bus;
  bus.register_service("ran", controller.make_router());

  // Install PLMN.
  json::Value install;
  install["plmn"] = 31337;
  ASSERT_TRUE(bus.call_json("ran", net::Method::post, "/plmns", install).ok());
  EXPECT_TRUE(controller.plmn_installed(PlmnId{31337}));

  // Allocate.
  json::Value alloc;
  alloc["rate_mbps"] = 25.0;
  const Result<json::Value> alloc_resp =
      bus.call_json("ran", net::Method::put, "/allocations/31337", alloc);
  ASSERT_TRUE(alloc_resp.ok()) << alloc_resp.error().message;
  EXPECT_GT(alloc_resp.value().find("total_prb")->as_int(), 0);

  // Capacity reflects the reservation.
  const Result<json::Value> cap = bus.get_json("ran", "/capacity");
  ASSERT_TRUE(cap.ok());
  EXPECT_LT(cap.value().find("available_mbps")->as_number(),
            cap.value().find("total_mbps")->as_number());

  // Attach a UE over REST.
  json::Value ue;
  ue["plmn"] = 31337;
  ue["cqi"] = 12;
  const Result<json::Value> ue_resp = bus.call_json("ran", net::Method::post, "/ues", ue);
  ASSERT_TRUE(ue_resp.ok());

  // Release + remove.
  ASSERT_TRUE(bus.call_json("ran", net::Method::del,
                            "/allocations/31337", json::Value(nullptr)).ok());
  const Result<json::Value> bad_remove =
      bus.call_json("ran", net::Method::del, "/plmns/31337", json::Value(nullptr));
  EXPECT_FALSE(bad_remove.ok());  // UE still attached
}

TEST(RanController, RestApiRejectsGarbage) {
  RanController controller = make_controller();
  net::RestBus bus;
  bus.register_service("ran", controller.make_router());

  net::Request bad;
  bad.method = net::Method::post;
  bad.target = "/plmns";
  bad.body = "not json";
  const Result<net::Response> resp = bus.call("ran", bad);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, net::Status::bad_request);

  json::Value ue;
  ue["plmn"] = 1;
  ue["cqi"] = 99;  // out of range
  EXPECT_FALSE(bus.call_json("ran", net::Method::post, "/ues", ue).ok());
}

}  // namespace
}  // namespace slices::ran
