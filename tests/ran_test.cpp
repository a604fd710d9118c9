// Unit tests for the RAN substrate: PHY tables, MOCN cells, the
// multi-PLMN scheduler, and the RAN controller incl. its REST facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
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

// The scheduling kernel over vectors sized to `loads`.
std::vector<PlmnGrant> schedule(PrbCount total, const std::vector<PlmnLoad>& loads,
                                SharingPolicy policy) {
  std::vector<PlmnGrant> grants(loads.size());
  std::vector<int> want(loads.size());
  schedule_epoch(total, loads, policy, grants, want);
  return grants;
}

TEST(Scheduler, ReservationsServeFirst) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{50}, DataRate::mbps(10.0), Cqi{10}},
      {PlmnId{2}, PrbCount{50}, DataRate::mbps(10.0), Cqi{10}},
  };
  const auto grants = schedule(PrbCount{100}, loads, SharingPolicy::strict);
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
  const auto strict = schedule(PrbCount{100}, loads, SharingPolicy::strict);
  // No common pool (all reserved): PLMN 2 capped at its 20 PRBs.
  EXPECT_EQ(strict[1].granted.value, 20);
  EXPECT_GT(strict[1].unserved.as_mbps(), 0.0);

  const auto pooled = schedule(PrbCount{100}, loads, SharingPolicy::pooled);
  EXPECT_GT(pooled[1].granted.value, 20);
  EXPECT_GT(pooled[1].served, strict[1].served);
}

TEST(Scheduler, PoolSplitsFairlyAmongEqualClaims) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}},
      {PlmnId{2}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}},
  };
  const auto grants = schedule(PrbCount{60}, loads, SharingPolicy::strict);
  EXPECT_EQ(grants[0].granted.value, 30);
  EXPECT_EQ(grants[1].granted.value, 30);
}

TEST(Scheduler, PoolWeightsBiasContendedSharing) {
  // Equal demands, no reservations: weight 3 vs 1 splits the pool 3:1.
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 3},
      {PlmnId{2}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 1},
  };
  const auto grants = schedule(PrbCount{80}, loads, SharingPolicy::strict);
  EXPECT_EQ(grants[0].granted.value, 60);
  EXPECT_EQ(grants[1].granted.value, 20);
}

TEST(Scheduler, PoolWeightsDoNotTouchReservations) {
  // PLMN 2 has everything it needs reserved; weights only shape the pool.
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{0}, DataRate::mbps(50.0), Cqi{10}, 1},
      {PlmnId{2}, PrbCount{40}, DataRate::mbps(10.0), Cqi{10}, 5},
  };
  const auto grants = schedule(PrbCount{100}, loads, SharingPolicy::strict);
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
  const auto grants = schedule(PrbCount{40}, loads, SharingPolicy::strict);
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
    const auto grants = schedule(PrbCount{100}, loads, policy);
    int total = 0;
    for (const PlmnGrant& g : grants) total += g.granted.value;
    EXPECT_LE(total, 100);
  }
}

TEST(Scheduler, ServedNeverExceedsDemand) {
  const std::vector<PlmnLoad> loads = {
      {PlmnId{1}, PrbCount{90}, DataRate::mbps(1.0), Cqi{15}},
  };
  const auto grants = schedule(PrbCount{100}, loads, SharingPolicy::pooled);
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
  const Result<std::uint32_t> row = cell.attach(PlmnId{1}, Cqi{9});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(cell.withdraw_plmn(PlmnId{1}).error().code, Errc::conflict);
  cell.detach(row.value());
  EXPECT_TRUE(cell.withdraw_plmn(PlmnId{1}).ok());
}

TEST(Cell, UeAttachRequiresBroadcast) {
  Cell cell = make_cell();
  EXPECT_EQ(cell.attach(PlmnId{7}, Cqi{10}).error().code, Errc::not_found);
  EXPECT_EQ(cell.attached_total(), 0u);
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{7}).ok());
  const Result<std::uint32_t> row = cell.attach(PlmnId{7}, Cqi{10});
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(cell.ues().live(row.value()));
  EXPECT_EQ(cell.cqi_at(row.value()), Cqi{10});
  EXPECT_EQ(cell.attached_count(PlmnId{7}), 1u);
}

TEST(Cell, MeanCqiAveragesAttachedUes) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{9}), Cqi{9});  // fallback
  ASSERT_TRUE(cell.attach(PlmnId{1}, Cqi{6}).ok());
  ASSERT_TRUE(cell.attach(PlmnId{1}, Cqi{12}).ok());
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{9}), Cqi{9});  // (6+12)/2
}

TEST(Cell, UeCqiQueryAndDetachedHole) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  const std::uint32_t row = cell.attach(PlmnId{1}, Cqi{7}).value();
  const std::uint32_t other = cell.attach(PlmnId{1}, Cqi{9}).value();
  EXPECT_EQ(cell.cqi_at(row), Cqi{7});
  EXPECT_EQ(cell.cqi_at(other), Cqi{9});
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{1}), Cqi{8});  // (7+9)/2
  // A detached row is a hole: its CQI byte reads 0, and it leaves the
  // PLMN aggregate.
  cell.detach(other);
  EXPECT_FALSE(cell.ues().live(other));
  EXPECT_EQ(cell.ues().cqi_column()[other], 0);
  EXPECT_TRUE(cell.ues().live(row));
  EXPECT_EQ(cell.cqi_at(row), Cqi{7});
  EXPECT_EQ(cell.mean_cqi(PlmnId{1}, Cqi{1}), Cqi{7});
}

// A UE row holds its PLMN's slot, which the cell keeps while it
// broadcasts that PLMN, so withdrawing a PLMN from the middle of the
// broadcast list leaves every UE row as it was; only the slot <->
// position tables shift, and reads and detaches of the rows above it
// still find their PLMN.
TEST(Cell, WithdrawTouchesNoUeRow) {
  Cell cell = make_cell();
  const std::vector<PlmnId> plmns = {PlmnId{1}, PlmnId{2}, PlmnId{3}, PlmnId{4}};
  for (const PlmnId plmn : plmns) ASSERT_TRUE(cell.broadcast_plmn(plmn).ok());
  // UEs under positions 0, 2 and 3; PLMN 2 at position 1 stays empty.
  std::vector<std::pair<PlmnId, std::uint32_t>> rows;
  for (int i = 0; i < 48; ++i) {
    const PlmnId plmn = plmns[i % 3 == 0 ? 0 : (i % 3 == 1 ? 2 : 3)];
    const Result<std::uint32_t> row = cell.attach(plmn, Cqi{1 + i % 15});
    ASSERT_TRUE(row.ok());
    rows.emplace_back(plmn, row.value());
  }
  for (std::size_t k = 0; k < rows.size(); k += 5) cell.detach(rows[k].second);  // holes
  const auto column = [](std::span<const std::uint8_t> bytes) {
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
  };
  const std::vector<std::uint8_t> plmn_before = column(cell.ues().plmn_column());
  const std::vector<std::uint8_t> cqi_before = column(cell.ues().cqi_column());
  std::vector<std::pair<std::size_t, Cqi>> stats_before;
  for (const PlmnId plmn : {plmns[0], plmns[2], plmns[3]}) {
    stats_before.emplace_back(cell.attached_count(plmn), cell.mean_cqi(plmn, Cqi{1}));
  }

  ASSERT_TRUE(cell.withdraw_plmn(PlmnId{2}).ok());
  EXPECT_EQ(column(cell.ues().plmn_column()), plmn_before);
  EXPECT_EQ(column(cell.ues().cqi_column()), cqi_before);
  std::vector<std::pair<std::size_t, Cqi>> stats_after;
  for (const PlmnId plmn : {plmns[0], plmns[2], plmns[3]}) {
    stats_after.emplace_back(cell.attached_count(plmn), cell.mean_cqi(plmn, Cqi{1}));
  }
  EXPECT_EQ(stats_after, stats_before);

  // Every live row still reads its PLMN's (now shifted) position.
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k % 5 == 0) continue;
    const auto& [plmn, row] = rows[k];
    ASSERT_EQ(cell.plmn_index_at(row), cell.broadcast_index(plmn)) << "row " << row;
  }
  // Detaches land on the right PLMN: detaching every survivor empties
  // each PLMN's count and CQI sum exactly.
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k % 5 != 0) cell.detach(rows[k].second);
  }
  for (const PlmnId plmn : {plmns[0], plmns[2], plmns[3]}) {
    EXPECT_EQ(cell.attached_count(plmn), 0u) << "plmn " << plmn.value();
    ASSERT_TRUE(cell.attach(plmn, Cqi{8}).ok());
    EXPECT_EQ(cell.mean_cqi(plmn, Cqi{1}), Cqi{8}) << "plmn " << plmn.value();
  }
}

TEST(Cell, ServeEpochUsesReservations) {
  Cell cell = make_cell();
  ASSERT_TRUE(cell.broadcast_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(cell.set_reservation(PlmnId{1}, PrbCount{50}).ok());
  const std::array<DataRate, 1> demand_by_index = {DataRate::mbps(5.0)};
  std::array<PlmnGrant, kMaxBroadcastPlmns> grants;
  ASSERT_EQ(cell.serve_epoch(demand_by_index, Cqi{10}, grants), 1u);
  EXPECT_EQ(grants[0].plmn, PlmnId{1});
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

// The controller is the only UE index ({plmn, cell, row} per UE), so
// every UE operation must keep it, the cells' row stores and the
// per-PLMN aggregates in step. A seeded mix of attaches, detaches,
// handover batches (with unknown-UE, out-of-range-target, same-cell
// and inactive-target drops) and outages runs against a shadow model;
// every step re-checks the whole observable UE state.
TEST(RanController, RandomizedUeOpsMatchShadowModel) {
  const std::vector<CellId> cell_ids = {CellId{11}, CellId{12}, CellId{13}, CellId{14}};
  const std::vector<PlmnId> plmns = {PlmnId{10}, PlmnId{20}, PlmnId{30}};
  // Two PLMNs without a radio allocation, first broadcast between the
  // allocated ones, go off and on the air between handover batches:
  // each withdrawal detaches the PLMN's UEs first and leaves it empty,
  // and a re-install reuses a freed slot, so the rows of the PLMNs
  // broadcast above it keep their slot while their positions shift.
  const std::vector<PlmnId> transient = {PlmnId{50}, PlmnId{60}};
  std::vector<bool> on_air(transient.size(), true);
  const PlmnId not_installed{40};
  const CellId unknown_cell{99};
  RanController controller;
  for (const CellId id : cell_ids) {
    controller.add_cell(Cell(id, "c" + std::to_string(id.value()), Bandwidth::mhz20,
                             SharingPolicy::pooled));
  }
  for (std::size_t k = 0; k < plmns.size(); ++k) {
    ASSERT_TRUE(controller.install_plmn(plmns[k]).ok());
    ASSERT_TRUE(controller.set_allocation(plmns[k], DataRate::mbps(40.0)).ok());
    if (k < transient.size()) {
      ASSERT_TRUE(controller.install_plmn(transient[k]).ok());
    }
  }
  std::vector<PlmnId> every_plmn = plmns;
  every_plmn.insert(every_plmn.end(), transient.begin(), transient.end());
  const auto attachable = [&](PlmnId plmn) {
    if (plmn == not_installed) return false;
    for (std::size_t t = 0; t < transient.size(); ++t) {
      if (plmn == transient[t]) return static_cast<bool>(on_air[t]);
    }
    return true;
  };

  struct ShadowUe {
    std::size_t cell;
    PlmnId plmn;
    int cqi;
  };
  std::map<std::uint64_t, ShadowUe> shadow;
  std::vector<UeId> live;  // shadow keys, for uniform picks
  std::vector<bool> active(cell_ids.size(), true);
  std::uint64_t next_unknown = 1'000'000;

  const auto forget = [&](UeId ue) {
    shadow.erase(ue.value());
    const auto it = std::find(live.begin(), live.end(), ue);
    ASSERT_NE(it, live.end());
    *it = live.back();
    live.pop_back();
  };
  const auto reserved_by_plmn = [&] {
    std::vector<int> sums;
    for (const PlmnId plmn : plmns) {
      int sum = 0;
      for (const CellId id : cell_ids) sum += controller.find_cell(id)->reservation_of(plmn).value;
      sums.push_back(sum);
    }
    return sums;
  };
  const auto check = [&](int op) {
    SCOPED_TRACE("op " + std::to_string(op));
    for (const auto& [id, ue] : shadow) {
      ASSERT_TRUE(controller.ue_attached(UeId{id}));
      ASSERT_EQ(controller.ue_cell(UeId{id}), cell_ids[ue.cell]) << "ue " << id;
      ASSERT_EQ(controller.ue_cqi(UeId{id}), Cqi{ue.cqi}) << "ue " << id;
    }
    const UeId stranger{next_unknown};
    EXPECT_FALSE(controller.ue_attached(stranger));
    EXPECT_FALSE(controller.ue_cell(stranger).valid());
    EXPECT_EQ(controller.ue_cqi(stranger), std::nullopt);
    for (std::size_t c = 0; c < cell_ids.size(); ++c) {
      const Cell& cell = *controller.find_cell(cell_ids[c]);
      std::size_t total = 0;
      for (const PlmnId plmn : every_plmn) {
        std::size_t count = 0;
        std::int64_t cqi_sum = 0;
        for (const auto& [id, ue] : shadow) {
          if (ue.cell != c || ue.plmn != plmn) continue;
          ++count;
          cqi_sum += ue.cqi;
        }
        ASSERT_EQ(cell.attached_count(plmn), count) << "cell " << c;
        const Cqi mean = count == 0 ? Cqi{3}
                                    : Cqi{std::clamp(static_cast<int>(
                                                         cqi_sum / static_cast<std::int64_t>(count)),
                                                     1, 15)};
        ASSERT_EQ(cell.mean_cqi(plmn, Cqi{3}), mean) << "cell " << c;
        total += count;
      }
      ASSERT_EQ(cell.attached_total(), total) << "cell " << c;
    }
    for (const PlmnId plmn : every_plmn) {
      std::size_t count = 0;
      for (const auto& [id, ue] : shadow) count += ue.plmn == plmn ? 1 : 0;
      ASSERT_EQ(controller.attached_ues(plmn), count);
    }
  };

  Rng rng(0x5EEDu);
  std::uint64_t handovers = 0;
  std::uint64_t drops = 0;
  std::uint64_t withdrawals = 0;
  for (int op = 0; op < 3000; ++op) {
    const auto pick_plmn = [&] {
      const auto k = static_cast<std::size_t>(rng.uniform_int(0, 5));
      return k == every_plmn.size() ? not_installed : every_plmn[k];
    };
    const int cqi = static_cast<int>(rng.uniform_int(1, 15));
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1: {  // least-loaded attach
        const PlmnId plmn = pick_plmn();
        const Result<UeId> ue = controller.attach_ue(plmn, Cqi{cqi});
        if (!attachable(plmn)) {
          ASSERT_EQ(ue.error().code, Errc::not_found);
          break;
        }
        ASSERT_TRUE(ue.ok());
        std::vector<std::size_t> load(cell_ids.size(), 0);
        for (const auto& [id, s] : shadow) ++load[s.cell];
        const std::size_t least = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        shadow.emplace(ue.value().value(), ShadowUe{least, plmn, cqi});
        live.push_back(ue.value());
        break;
      }
      case 2:
      case 3: {  // placed attach, incl. unknown and inactive cells
        const PlmnId plmn = pick_plmn();
        const auto c = static_cast<std::size_t>(rng.uniform_int(0, 4));
        const CellId target = c == cell_ids.size() ? unknown_cell : cell_ids[c];
        const Result<UeId> ue = controller.attach_ue_at(target, plmn, Cqi{cqi});
        if (!attachable(plmn) || target == unknown_cell) {
          ASSERT_EQ(ue.error().code, Errc::not_found);
        } else if (!active[c]) {
          ASSERT_EQ(ue.error().code, Errc::conflict);
        } else {
          ASSERT_TRUE(ue.ok());
          shadow.emplace(ue.value().value(), ShadowUe{c, plmn, cqi});
          live.push_back(ue.value());
        }
        break;
      }
      case 4: {  // detach, sometimes of an unknown UE
        if (live.empty() || rng.bernoulli(0.2)) {
          ASSERT_EQ(controller.detach_ue(UeId{next_unknown}).error().code, Errc::not_found);
          break;
        }
        const UeId ue = live[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1))];
        ASSERT_TRUE(controller.detach_ue(ue).ok());
        forget(ue);
        break;
      }
      case 5:
      case 6:
      case 7:
      case 9: {  // handover batch, sometimes after a transient PLMN goes off or on the air
        if (rng.bernoulli(0.25)) {
          const auto t = static_cast<std::size_t>(rng.uniform_int(0, 1));
          if (on_air[t]) {
            std::vector<UeId> leaving;
            for (const auto& [id, ue] : shadow) {
              if (ue.plmn == transient[t]) leaving.push_back(UeId{id});
            }
            for (const UeId ue : leaving) {
              ASSERT_TRUE(controller.detach_ue(ue).ok());
              forget(ue);
            }
            ASSERT_TRUE(controller.remove_plmn(transient[t]).ok());
            ++withdrawals;
          } else {
            ASSERT_TRUE(controller.install_plmn(transient[t]).ok());
          }
          on_air[t] = !on_air[t];
        }
        const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
        std::vector<HandoverRequest> batch;
        std::vector<std::uint8_t> expected;
        for (std::size_t k = 0; k < n; ++k) {
          const bool known = !live.empty() && !rng.bernoulli(0.15);
          const UeId ue = known ? live[static_cast<std::size_t>(rng.uniform_int(
                                      0, static_cast<std::int64_t>(live.size()) - 1))]
                                : UeId{next_unknown};
          // c == cell_ids.size() is a target index out of range; an
          // unknown UE has no slot (kNoUeSlot).
          const auto c = static_cast<std::size_t>(rng.uniform_int(0, 4));
          batch.push_back(
              HandoverRequest{ue, controller.ue_slot(ue), static_cast<std::uint32_t>(c)});
          // Requests apply in batch order, so a UE named twice moves from
          // wherever the earlier request left it.
          bool ok = false;
          if (known && c < cell_ids.size() && active[c]) {
            ShadowUe& s = shadow.at(ue.value());
            ok = s.cell != c;
            if (ok) s.cell = c;
          }
          expected.push_back(ok ? 1 : 0);
        }
        const std::vector<int> reserved_before = reserved_by_plmn();
        std::vector<std::uint8_t> outcomes(n, 0xff);
        const HandoverStats stats = controller.apply_handovers(
            batch, SimTime::from_micros(1000 * (op + 1)), outcomes);
        ASSERT_EQ(outcomes, expected);
        const auto successes =
            static_cast<std::uint64_t>(std::count(expected.begin(), expected.end(), 1));
        ASSERT_EQ(stats.attempts, n);
        ASSERT_EQ(stats.successes, successes);
        ASSERT_EQ(stats.drops, n - successes);
        // Reservations migrate with the UEs; none are created or lost.
        ASSERT_EQ(reserved_by_plmn(), reserved_before);
        handovers += successes;
        drops += n - successes;
        break;
      }
      default: {  // eNB outage / recovery
        const auto c = static_cast<std::size_t>(rng.uniform_int(0, 3));
        active[c] = !active[c];
        ASSERT_TRUE(controller.set_cell_active(cell_ids[c], active[c]).ok());
        break;
      }
    }
    ++next_unknown;
    check(op);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(shadow.size(), 50u) << "the mix must build a real population";
  EXPECT_GT(handovers, 1000u);
  EXPECT_GT(drops, 500u);
  EXPECT_GT(withdrawals, 50u);
  EXPECT_EQ(controller.handover_totals().successes, handovers);
}

// Slots are reused across withdrawals and re-broadcasts, and cells added
// at different times broadcast the same PLMNs in different orders under
// different slots. Attaches, detaches and handovers between
// such cells keep every per-PLMN count and mean CQI exact.
TEST(RanController, ReusedPlmnSlotsKeepAggregatesExactUnderChurn) {
  const std::vector<PlmnId> pool = {PlmnId{1}, PlmnId{2}, PlmnId{3}, PlmnId{4},
                                    PlmnId{5}, PlmnId{6}, PlmnId{7}};
  RanController controller;
  controller.add_cell(Cell(CellId{1}, "a", Bandwidth::mhz20, SharingPolicy::pooled));
  for (std::size_t k = 0; k < 5; ++k) ASSERT_TRUE(controller.install_plmn(pool[k]).ok());
  ASSERT_TRUE(controller.remove_plmn(pool[1]).ok());
  ASSERT_TRUE(controller.remove_plmn(pool[3]).ok());
  ASSERT_TRUE(controller.install_plmn(pool[5]).ok());  // takes PLMN 2's freed slot
  ASSERT_TRUE(controller.install_plmn(pool[6]).ok());  // takes PLMN 4's
  std::vector<bool> installed = {true, false, true, false, true, true, true};
  controller.add_cell(Cell(CellId{2}, "b", Bandwidth::mhz20, SharingPolicy::pooled));
  controller.add_cell(Cell(CellId{3}, "c", Bandwidth::mhz20, SharingPolicy::pooled));
  const std::vector<CellId> cell_ids = {CellId{1}, CellId{2}, CellId{3}};
  bool orders_differ = false;
  for (const PlmnId plmn : pool) {
    orders_differ |= controller.find_cell(cell_ids[0])->broadcast_index(plmn) !=
                     controller.find_cell(cell_ids[1])->broadcast_index(plmn);
  }
  ASSERT_TRUE(orders_differ) << "the cells must not share one broadcast order";

  struct ShadowUe {
    std::size_t cell;
    PlmnId plmn;
    int cqi;
  };
  std::map<std::uint64_t, ShadowUe> shadow;
  const auto pick_live = [&](Rng& rng) {
    auto it = shadow.begin();
    std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(shadow.size()) - 1));
    return UeId{it->first};
  };
  const auto check = [&](int op) {
    SCOPED_TRACE("op " + std::to_string(op));
    for (const auto& [id, ue] : shadow) {
      ASSERT_EQ(controller.ue_cell(UeId{id}), cell_ids[ue.cell]) << "ue " << id;
      ASSERT_EQ(controller.ue_cqi(UeId{id}), Cqi{ue.cqi}) << "ue " << id;
    }
    for (std::size_t c = 0; c < cell_ids.size(); ++c) {
      const Cell& cell = *controller.find_cell(cell_ids[c]);
      for (const PlmnId plmn : pool) {
        std::size_t count = 0;
        std::int64_t cqi_sum = 0;
        for (const auto& [id, ue] : shadow) {
          if (ue.cell != c || ue.plmn != plmn) continue;
          ++count;
          cqi_sum += ue.cqi;
        }
        ASSERT_EQ(cell.attached_count(plmn), count) << "cell " << c << " plmn " << plmn.value();
        const Cqi mean =
            count == 0 ? Cqi{3}
                       : Cqi{std::clamp(static_cast<int>(cqi_sum / static_cast<std::int64_t>(count)),
                                        1, 15)};
        ASSERT_EQ(cell.mean_cqi(plmn, Cqi{3}), mean) << "cell " << c << " plmn " << plmn.value();
      }
    }
  };

  Rng rng(0xC4u);
  std::uint64_t handovers = 0;
  std::uint64_t withdrawals = 0;
  for (int op = 0; op < 6000; ++op) {
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const std::int64_t kind = rng.uniform_int(0, 39);
    switch (kind < 16 ? 0 : kind < 18 ? 1 : kind < 39 ? 2 : 3) {
      case 0: {  // attach
        const auto c = static_cast<std::size_t>(rng.uniform_int(0, 2));
        const int cqi = static_cast<int>(rng.uniform_int(1, 15));
        const Result<UeId> ue = controller.attach_ue_at(cell_ids[c], pool[k], Cqi{cqi});
        if (!installed[k]) {
          ASSERT_EQ(ue.error().code, Errc::not_found);
          break;
        }
        ASSERT_TRUE(ue.ok());
        shadow.emplace(ue.value().value(), ShadowUe{c, pool[k], cqi});
        break;
      }
      case 1: {  // detach
        if (shadow.empty()) break;
        const UeId ue = pick_live(rng);
        ASSERT_TRUE(controller.detach_ue(ue).ok());
        shadow.erase(ue.value());
        break;
      }
      case 2: {  // handover batch
        if (shadow.empty()) break;
        std::vector<HandoverRequest> batch;
        for (int n = 0; n < 10; ++n) {
          const UeId ue = pick_live(rng);
          const auto c = static_cast<std::size_t>(rng.uniform_int(0, 2));
          batch.push_back(
              HandoverRequest{ue, controller.ue_slot(ue), static_cast<std::uint32_t>(c)});
          ShadowUe& s = shadow.at(ue.value());
          if (s.cell != c) ++handovers;
          s.cell = c;
        }
        controller.apply_handovers(batch, SimTime::from_micros(op + 1), {});
        break;
      }
      default: {  // withdraw (after detaching its UEs) or re-broadcast
        if (installed[k]) {
          std::vector<UeId> leaving;
          for (const auto& [id, ue] : shadow) {
            if (ue.plmn == pool[k]) leaving.push_back(UeId{id});
          }
          for (const UeId ue : leaving) {
            ASSERT_TRUE(controller.detach_ue(ue).ok());
            shadow.erase(ue.value());
          }
          ASSERT_TRUE(controller.remove_plmn(pool[k]).ok());
          ++withdrawals;
        } else if (std::count(installed.begin(), installed.end(), true) <
                   static_cast<std::ptrdiff_t>(kMaxBroadcastPlmns)) {
          ASSERT_TRUE(controller.install_plmn(pool[k]).ok());
        } else {
          break;
        }
        installed[k] = !installed[k];
        break;
      }
    }
    check(op);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(shadow.size(), 20u);
  EXPECT_GT(handovers, 1000u);
  EXPECT_GT(withdrawals, 50u);
  EXPECT_EQ(controller.handover_totals().successes, handovers);
}

// Cell::reserved_prbs() is a running total, so every path that changes
// a reservation must keep it in step: set_reservation (grow, shrink,
// zero), clear_reservation, withdraw_plmn, and the controller's
// handover PRB migration and allocation resizes. A seeded mix of those
// runs first on a bare cell against a shadow map, then through a
// controller; after every op each cell's total must equal the sum of
// reservation_of over its broadcast list.
TEST(RanController, ReservedTotalStaysExactUnderRandomOps) {
  const auto check_total = [](const Cell& cell) {
    int sum = 0;
    for (std::size_t i = 0; i < cell.broadcast_count(); ++i) {
      sum += cell.reservation_of(cell.broadcast_at(i)).value;
    }
    ASSERT_EQ(cell.reserved_prbs().value, sum) << cell.name();
    ASSERT_EQ(cell.unreserved_prbs().value, cell.total_prbs().value - sum) << cell.name();
  };

  Rng rng(0xC0FFEEu);
  Cell cell = make_cell();
  std::map<std::uint64_t, int> shadow;  // broadcast PLMN -> reservation
  std::size_t refusals = 0;
  for (int op = 0; op < 4000; ++op) {
    const PlmnId plmn{static_cast<std::uint64_t>(rng.uniform_int(1, 8))};
    const bool broadcast = shadow.contains(plmn.value());
    switch (rng.uniform_int(0, 6)) {
      case 0:
      case 1:
      case 2: {  // grow, shrink or zero
        const int prbs = rng.bernoulli(0.2) ? 0 : static_cast<int>(rng.uniform_int(1, 70));
        const Result<void> r = cell.set_reservation(plmn, PrbCount{prbs});
        if (!broadcast) {
          ASSERT_EQ(r.error().code, Errc::not_found);
          break;
        }
        int others = 0;
        for (const auto& [id, held] : shadow) others += id == plmn.value() ? 0 : held;
        if (others + prbs > 100) {
          ASSERT_EQ(r.error().code, Errc::insufficient_capacity);
          ASSERT_EQ(r.error().message,
                    "cell test-cell has only " + std::to_string(100 - others) + " PRBs free");
          ++refusals;
        } else {
          ASSERT_TRUE(r.ok());
          shadow[plmn.value()] = prbs;
        }
        break;
      }
      case 3: {
        cell.clear_reservation(plmn);
        if (broadcast) shadow[plmn.value()] = 0;
        break;
      }
      case 4:
      case 5: {
        const Result<void> r = cell.withdraw_plmn(plmn);
        if (!broadcast) {
          ASSERT_EQ(r.error().code, Errc::not_found);
        } else if (shadow[plmn.value()] > 0) {
          ASSERT_EQ(r.error().code, Errc::conflict);
        } else {
          ASSERT_TRUE(r.ok());
          shadow.erase(plmn.value());
        }
        break;
      }
      default: {
        const Result<void> r = cell.broadcast_plmn(plmn);
        if (broadcast || shadow.size() == kMaxBroadcastPlmns) {
          ASSERT_FALSE(r.ok());
        } else {
          ASSERT_TRUE(r.ok());
          shadow[plmn.value()] = 0;
        }
        break;
      }
    }
    check_total(cell);
    int sum = 0;
    for (const auto& [id, held] : shadow) sum += held;
    ASSERT_EQ(cell.reserved_prbs().value, sum) << "op " << op;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(refusals, 50u) << "the mix must hit the capacity check";

  // Through a controller: allocations resize and release every cell's
  // reservations, and each handover moves the UE's PRB share.
  RanController controller;
  for (std::uint64_t c = 1; c <= 3; ++c) {
    controller.add_cell(Cell(CellId{c}, "c" + std::to_string(c), Bandwidth::mhz10,
                             SharingPolicy::pooled));
  }
  const std::vector<PlmnId> plmns = {PlmnId{1}, PlmnId{2}, PlmnId{3}};
  for (const PlmnId plmn : plmns) ASSERT_TRUE(controller.install_plmn(plmn).ok());
  std::vector<UeId> ues;
  for (int k = 0; k < 90; ++k) {
    const Result<UeId> ue = controller.attach_ue(plmns[static_cast<std::size_t>(k % 3)],
                                                 Cqi{static_cast<int>(rng.uniform_int(5, 15))});
    ASSERT_TRUE(ue.ok());
    ues.push_back(ue.value());
  }
  const auto check_cells = [&] {
    for (std::size_t c = 0; c < controller.cell_count(); ++c) check_total(controller.cell_at(c));
  };
  std::uint64_t migrated = 0;
  for (int op = 0; op < 600; ++op) {
    const PlmnId plmn = plmns[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    switch (rng.uniform_int(0, 3)) {
      case 0:
        (void)controller.set_allocation(plmn, DataRate::mbps(rng.uniform(0.0, 30.0)));
        break;
      case 1:
        controller.release_allocation(plmn);
        break;
      default: {
        std::vector<HandoverRequest> batch;
        for (int k = 0; k < 20; ++k) {
          const UeId ue = ues[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ues.size()) - 1))];
          batch.push_back(HandoverRequest{ue, controller.ue_slot(ue),
                                          static_cast<std::uint32_t>(rng.uniform_int(0, 2))});
        }
        migrated += controller.apply_handovers(batch, SimTime::from_micros(op + 1)).successes;
        break;
      }
    }
    check_cells();
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(migrated, 1000u);

  // withdraw_plmn through remove_plmn: PLMN 3 leaves every cell.
  controller.release_allocation(PlmnId{3});
  for (std::size_t k = 2; k < ues.size(); k += 3) ASSERT_TRUE(controller.detach_ue(ues[k]).ok());
  ASSERT_TRUE(controller.remove_plmn(PlmnId{3}).ok());
  check_cells();
}

TEST(RanController, ServeEpochAggregatesAndPublishesTelemetry) {
  telemetry::MonitorRegistry registry;
  RanController controller = make_controller(&registry);
  ASSERT_TRUE(controller.install_plmn(PlmnId{7}).ok());
  ASSERT_TRUE(controller.set_allocation(PlmnId{7}, DataRate::mbps(20.0)).ok());
  const std::vector<std::pair<PlmnId, DataRate>> demands = {{PlmnId{7}, DataRate::mbps(10.0)}};
  std::vector<RanServeReport> reports;
  controller.serve_epoch(demands, SimTime::from_seconds(60.0), reports);
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
