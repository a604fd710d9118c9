// Mobility & handover subsystem: direct Field mechanics, the
// controller's batched handover path, determinism of mobile scenarios
// (thread-count invariance, record/replay parity, cross-region roaming
// through the federation), and the zero-allocation contract of the
// steady-state step+apply loop.
//
// Like epoch_alloc_test, this binary replaces global operator new and
// delete (counting_new.hpp) to count allocations on every thread — it
// must stay its own test executable.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/testbed.hpp"
#include "federation/runner.hpp"
#include "mobility/field.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"
#include "scenario/recorder.hpp"
#include "scenario/region.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "traffic/model.hpp"
#include "traffic/verticals.hpp"
#include "counting_new.hpp"

namespace slices {
namespace {

/// A small RAN + Field pair: 16 cells, `plmns` installed, population
/// spawned through one sync_population call. `threads` > 0 gives the
/// Field a pool of that width (0: no pool, the serial path).
struct FieldFixture {
  ran::RanController ran;  // no registry: telemetry growth is out of scope
  std::vector<PlmnId> plmns;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<mobility::Field> field;

  explicit FieldFixture(std::size_t n_plmns, std::size_t ues_per_slice,
                        std::uint64_t seed = 7, std::size_t threads = 0,
                        std::uint32_t region_index = 0, std::uint32_t region_count = 1) {
    for (std::size_t c = 0; c < 16; ++c) {
      ran.add_cell(ran::Cell(CellId{c + 1}, "cell-" + std::to_string(c),
                             ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
    }
    for (std::size_t p = 0; p < n_plmns; ++p) {
      const PlmnId plmn{p + 1};
      EXPECT_TRUE(ran.install_plmn(plmn).ok());
      plmns.push_back(plmn);
    }
    mobility::FieldConfig config;
    config.seed = seed;
    config.ues_per_slice = ues_per_slice;
    config.region_index = region_index;
    config.region_count = region_count;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    field = std::make_unique<mobility::Field>(config, &ran, pool.get());
    field->sync_population(plmns);
  }

  ran::HandoverStats epoch(int minute) {
    const SimTime now = SimTime::from_micros(static_cast<std::int64_t>(minute) * 60'000'000);
    field->step(now);
    return field->apply(now);
  }
};

// ------------------------------------------------------- Field basics

TEST(MobilityField, SpawnsOnePopulationPerLivePlmn) {
  FieldFixture fx(3, 40);
  EXPECT_EQ(fx.field->population(), 120u);
  // Every spawned UE is really attached in the RAN.
  std::size_t attached = 0;
  for (const PlmnId plmn : fx.plmns) attached += fx.ran.attached_ues(plmn);
  EXPECT_EQ(attached, 120u);
  // A second sync with the same set is a no-op.
  fx.field->sync_population(fx.plmns);
  EXPECT_EQ(fx.field->population(), 120u);
}

TEST(MobilityField, SyncDrainsDeadPlmns) {
  FieldFixture fx(3, 40);
  ASSERT_EQ(fx.field->population(), 120u);
  // PLMN 2's slice tears down: only 1 and 3 stay live.
  const std::vector<PlmnId> live{PlmnId{1}, PlmnId{3}};
  fx.field->sync_population(live);
  EXPECT_EQ(fx.field->population(), 80u);
  EXPECT_EQ(fx.ran.attached_ues(PlmnId{2}), 0u);
}

// Something other than the Field (an operator's DELETE /ues/{id}) may
// detach a Field UE, and a later attach may reuse its index slot. The
// Field's drain, handovers and region exits for that UE must then leave
// the slot's new owner alone and keep the per-PLMN counts exact.
TEST(MobilityField, UesDetachedElsewhereDrainHandOverAndExitCleanly) {
  ran::RanController ran;
  for (std::size_t c = 0; c < 16; ++c) {
    ran.add_cell(ran::Cell(CellId{c + 1}, "cell-" + std::to_string(c), ran::Bandwidth::mhz20,
                           ran::SharingPolicy::pooled));
  }
  const std::vector<PlmnId> both{PlmnId{1}, PlmnId{2}};
  for (const PlmnId plmn : both) ASSERT_TRUE(ran.install_plmn(plmn).ok());
  mobility::FieldConfig config;
  config.seed = 7;
  config.ues_per_slice = 40;
  config.region_index = 0;  // west end of a two-region metro: UEs exit east
  config.region_count = 2;
  mobility::Field field(config, &ran);
  field.sync_population(both);
  ASSERT_EQ(field.population(), 80u);

  // Only the Field has attached so far, so every attached id is its UE.
  std::vector<UeId> field_ues;
  for (std::uint64_t id = 1; id < 1000 && field_ues.size() < 80; ++id) {
    if (ran.ue_attached(UeId{id})) field_ues.push_back(UeId{id});
  }
  ASSERT_EQ(field_ues.size(), 80u);
  // Detach every other Field UE behind its back; operator UEs on PLMN 1
  // then reuse the freed slots.
  std::vector<std::uint32_t> freed;
  for (std::size_t k = 0; k < field_ues.size(); k += 2) {
    freed.push_back(ran.ue_slot(field_ues[k]));
    ASSERT_TRUE(ran.detach_ue(field_ues[k]).ok());
  }
  std::vector<UeId> operators;
  std::vector<CellId> operator_cells;
  std::vector<std::uint32_t> reused;
  for (std::size_t k = 0; k < freed.size(); ++k) {
    const Result<UeId> ue = ran.attach_ue(PlmnId{1}, ran::Cqi{12});
    ASSERT_TRUE(ue.ok());
    operators.push_back(ue.value());
    operator_cells.push_back(ran.ue_cell(ue.value()));
    reused.push_back(ran.ue_slot(ue.value()));
  }
  std::sort(freed.begin(), freed.end());
  std::sort(reused.begin(), reused.end());
  ASSERT_EQ(reused, freed) << "the operator UEs must reuse the freed slots for the test to bite";

  // PLMN 2's slice tears down: the drain skips its UEs detached elsewhere.
  field.sync_population(std::vector<PlmnId>{PlmnId{1}});
  EXPECT_EQ(field.population(), 40u);
  EXPECT_EQ(ran.attached_ues(PlmnId{2}), 0u);
  EXPECT_EQ(ran.attached_ues(PlmnId{1}), 20u + operators.size());

  // A commuter wave walks every remaining Field row across cells and out
  // east, including the rows whose UE is gone.
  field.add_storm(mobility::StormKind::commuter_wave, SimTime::from_micros(0),
                  SimTime::from_micros(3'600'000'000), /*fraction=*/1.0, /*cell_index=*/0);
  for (int minute = 1; minute <= 30 && field.population() > 0; ++minute) {
    const SimTime now = SimTime::from_micros(static_cast<std::int64_t>(minute) * 60'000'000);
    field.step(now);
    (void)field.apply(now);
  }
  EXPECT_EQ(field.population(), 0u);
  EXPECT_EQ(field.exits_total(), 40u);
  std::vector<mobility::RoamingExit> exits;
  field.drain_exits(exits);
  std::size_t fallback_cqi = 0;
  for (const mobility::RoamingExit& exit : exits) fallback_cqi += exit.cqi == 10 ? 1 : 0;
  EXPECT_GE(fallback_cqi, 20u) << "a UE detached elsewhere exits with the fallback CQI";
  // The operator UEs never moved and are the only UEs left.
  EXPECT_EQ(ran.attached_ues(PlmnId{1}), operators.size());
  for (std::size_t k = 0; k < operators.size(); ++k) {
    EXPECT_EQ(ran.ue_cell(operators[k]), operator_cells[k]);
  }
}

TEST(MobilityField, WalkProducesHandoversDeterministically) {
  FieldFixture a(2, 60);
  FieldFixture b(2, 60);
  std::uint64_t ho_a = 0, ho_b = 0;
  for (int minute = 1; minute <= 30; ++minute) {
    ho_a += a.epoch(minute).successes;
    ho_b += b.epoch(minute).successes;
  }
  EXPECT_GT(ho_a, 0u) << "a 30-minute walk must cross cell boundaries";
  EXPECT_EQ(ho_a, ho_b) << "same seed, same walk, same handovers";
  EXPECT_EQ(a.ran.handover_totals().attempts, b.ran.handover_totals().attempts);
  // A different seed walks differently.
  FieldFixture c(2, 60, /*seed=*/8);
  std::uint64_t ho_c = 0;
  for (int minute = 1; minute <= 30; ++minute) ho_c += c.epoch(minute).successes;
  EXPECT_NE(ho_a, ho_c);
}

TEST(MobilityField, StadiumStormPullsUesTowardTheFocusCell) {
  FieldFixture fx(2, 100);
  fx.field->add_storm(mobility::StormKind::stadium_ingress, SimTime::from_micros(0),
                      SimTime::from_micros(3'600'000'000), /*fraction=*/0.8,
                      /*cell_index=*/5);
  EXPECT_EQ(fx.field->storm_count(), 1u);
  for (int minute = 1; minute <= 60; ++minute) (void)fx.epoch(minute);
  // The focus cell holds far more than the uniform share (200/16 ≈ 12).
  const ran::Cell& focus = fx.ran.cell_at(5);
  EXPECT_GT(focus.attached_total(), 60u);
}

// ------------------------------------- fused step vs row-order reference

/// What one step() hands on: the pending batch and the region exits.
struct StepOutput {
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> requests;
  std::vector<std::tuple<std::uint64_t, int, std::int64_t, int>> exits;

  bool operator==(const StepOutput&) const = default;
};

StepOutput take_output(mobility::Field& field) {
  StepOutput out;
  for (const ran::HandoverRequest& req : field.pending_handovers()) {
    out.requests.emplace_back(req.ue.value(), req.slot, req.target);
  }
  std::vector<mobility::RoamingExit> exits;
  field.drain_exits(exits);
  for (const mobility::RoamingExit& exit : exits) {
    out.exits.emplace_back(exit.plmn, exit.cqi, exit.y_mm, exit.side);
  }
  return out;
}

/// Step `fx` to `now` and build, from the rows before and after the
/// move, what a plain scan in row order must gather: a request for every
/// live row whose nearest cell changed, an exit for every live row past
/// a border that has a neighbour. Returns {field output, reference}.
std::pair<StepOutput, StepOutput> step_against_reference(FieldFixture& fx, SimTime now,
                                                         std::uint32_t region_index,
                                                         std::uint32_t region_count) {
  struct Before {
    mobility::Field::RowView row;
    std::uint32_t slot = 0;
    int cqi = 10;
  };
  const mobility::Field& field = *fx.field;
  std::vector<Before> before(field.row_count());
  for (std::size_t r = 0; r < before.size(); ++r) {
    before[r].row = field.row(r);
    if (!before[r].row.live) continue;
    before[r].slot = fx.ran.ue_slot(before[r].row.ue);
    const std::optional<ran::Cqi> cqi = fx.ran.ue_cqi(before[r].row.ue);
    before[r].cqi = cqi.has_value() ? cqi->index() : 10;
  }
  fx.field->step(now);

  const bool east_ok = region_index + 1 < region_count;
  const bool west_ok = region_index > 0;
  const mobility::CellGrid& grid = field.grid();
  StepOutput reference;
  for (std::size_t r = 0; r < before.size(); ++r) {
    if (!before[r].row.live) continue;
    const mobility::Field::RowView after = field.row(r);
    const int side = east_ok && after.x >= grid.width() ? 1 : (west_ok && after.x < 0.0 ? -1 : 0);
    if (side != 0) {
      reference.exits.emplace_back(before[r].row.plmn.value(), before[r].cqi,
                                   std::llround(after.y * 1000.0), side);
      continue;
    }
    const auto next = static_cast<std::uint32_t>(grid.nearest_cell(after.x, after.y));
    if (next != before[r].row.cell) {
      reference.requests.emplace_back(before[r].row.ue.value(), before[r].slot, next);
    }
  }
  return {take_output(*fx.field), reference};
}

// The fused move-and-gather pass writes each range's requests and exit
// rows into its own buffer slices and joins them in range order. At
// 12k UEs (12 ranges) with holes from a drained slice, rows reused by a
// respawn, and commuters leaving across the east border (west region)
// or the west border (east region), the batch and the exits must be the
// same with no pool and with pools of 1, 2 and 4, and must equal a plain
// row-order scan.
TEST(MobilityField, FusedStepMatchesRowOrderReferenceAtAnyPoolSize) {
  constexpr std::size_t kThreads[] = {0, 1, 2, 4};
  for (const std::uint32_t region_index : {0u, 1u}) {
    SCOPED_TRACE("region_index " + std::to_string(region_index));
    std::vector<std::unique_ptr<FieldFixture>> fields;
    for (const std::size_t threads : kThreads) {
      fields.push_back(std::make_unique<FieldFixture>(3, 4000, /*seed=*/7, threads,
                                                      region_index, /*region_count=*/2));
      fields.back()->field->add_storm(mobility::StormKind::commuter_wave,
                                      SimTime::from_micros(0),
                                      SimTime::from_micros(3'600'000'000), /*fraction=*/0.3,
                                      /*cell_index=*/0);
    }
    std::size_t requests = 0;
    std::size_t exits = 0;
    std::size_t holes_seen = 0;
    for (int minute = 1; minute <= 8; ++minute) {
      if (minute == 3) {
        // PLMN 2's slice tears down: its rows become holes mid-column.
        const std::vector<PlmnId> live{PlmnId{1}, PlmnId{3}};
        for (auto& fx : fields) fx->field->sync_population(live);
      }
      if (minute == 5) {
        // It comes back: the respawn reuses the freed rows LIFO.
        for (auto& fx : fields) {
          ASSERT_TRUE(fx->ran.install_plmn(PlmnId{2}).ok());
          fx->field->sync_population(fx->plmns);
        }
      }
      const SimTime now = SimTime::from_micros(static_cast<std::int64_t>(minute) * 60'000'000);
      std::optional<StepOutput> serial;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        SCOPED_TRACE("threads " + std::to_string(kThreads[f]) + ", minute " +
                     std::to_string(minute));
        FieldFixture& fx = *fields[f];
        holes_seen += fx.field->row_count() - fx.field->population();
        const auto [output, reference] = step_against_reference(fx, now, region_index, 2);
        EXPECT_TRUE(output == reference) << "requests " << output.requests.size() << " vs "
                                         << reference.requests.size() << ", exits "
                                         << output.exits.size() << " vs "
                                         << reference.exits.size();
        if (!serial) {
          serial = output;
          requests += output.requests.size();
          exits += output.exits.size();
        } else {
          EXPECT_TRUE(output == *serial);
        }
        (void)fx.field->apply(now);
      }
    }
    EXPECT_GE(fields.front()->field->row_count(), 12'000u);
    EXPECT_GT(requests, 0u);
    EXPECT_GT(exits, 0u) << "the commuter wave must carry UEs over the border";
    EXPECT_GT(holes_seen, 0u);
  }
}

// ----------------------------------------------- apply_handovers path

TEST(RanHandover, BatchMovesUesAndCountsOutcomes) {
  ran::RanController ran;
  ran.add_cell(ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ran.add_cell(ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ran.add_cell(ran::Cell(CellId{3}, "c", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ASSERT_TRUE(ran.set_cell_active(CellId{3}, false).ok());
  const PlmnId plmn{1};
  ASSERT_TRUE(ran.install_plmn(plmn).ok());
  const Result<UeId> ue = ran.attach_ue_at(CellId{1}, plmn, ran::Cqi{10});
  ASSERT_TRUE(ue.ok());
  const std::uint32_t slot = ran.ue_slot(ue.value());
  ASSERT_NE(slot, ran::RanController::kNoUeSlot);
  EXPECT_EQ(ran.ue_slot(UeId{999}), ran::RanController::kNoUeSlot);

  // Targets are cell indices (add order): a = 0, b = 1, c = 2.
  const std::vector<ran::HandoverRequest> batch{
      {ue.value(), slot, 1},                   // moves
      {ue.value(), slot, 1},                   // already there -> drop
      {UeId{999}, ran.ue_slot(UeId{999}), 1},  // unknown UE -> drop
      {ue.value(), slot, 77},                  // unknown cell -> drop
      {ue.value(), slot, 2},                   // cell c is down -> drop
  };
  std::vector<std::uint8_t> outcomes(batch.size(), 0xff);
  const ran::HandoverStats stats =
      ran.apply_handovers(batch, SimTime::from_micros(1), outcomes);
  EXPECT_EQ(stats.attempts, 5u);
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(stats.drops, 4u);
  EXPECT_EQ(outcomes[0], 1u);
  EXPECT_EQ(outcomes[1], 0u);
  EXPECT_EQ(outcomes[2], 0u);
  EXPECT_EQ(outcomes[3], 0u);
  EXPECT_EQ(outcomes[4], 0u);
  EXPECT_EQ(ran.ue_cell(ue.value()), CellId{2});
  // The UE keeps its reported CQI across the move, and its slot.
  EXPECT_EQ(ran.ue_cqi(ue.value()), ran::Cqi{10});
  EXPECT_EQ(ran.ue_slot(ue.value()), slot);
  EXPECT_EQ(ran.handover_totals().attempts, 5u);
}

TEST(RanHandover, StaleSlotIsDroppedAndLeavesTheNewOwnerInPlace) {
  ran::RanController ran;
  ran.add_cell(ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ran.add_cell(ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  const PlmnId plmn{1};
  ASSERT_TRUE(ran.install_plmn(plmn).ok());
  ASSERT_TRUE(ran.set_allocation(plmn, DataRate::mbps(40.0)).ok());

  // UE A takes a slot and detaches; UE B's attach reuses that slot.
  const Result<UeId> a = ran.attach_ue_at(CellId{1}, plmn, ran::Cqi{9});
  ASSERT_TRUE(a.ok());
  const std::uint32_t slot = ran.ue_slot(a.value());
  ASSERT_TRUE(ran.detach_ue(a.value()).ok());
  EXPECT_FALSE(ran.ue_attached(a.value()));
  const Result<UeId> b = ran.attach_ue_at(CellId{1}, plmn, ran::Cqi{12});
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(ran.ue_slot(b.value()), slot) << "the slot must be reused for the test to bite";

  const int reserved_a = ran.cell_at(0).reservation_of(plmn).value;
  const int reserved_b = ran.cell_at(1).reservation_of(plmn).value;
  const std::vector<ran::HandoverRequest> stale{{a.value(), slot, 1}};
  std::vector<std::uint8_t> outcomes(1, 0xff);
  const ran::HandoverStats stats =
      ran.apply_handovers(stale, SimTime::from_micros(1), outcomes);
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(outcomes[0], 0u);
  // B stays in its cell with its PRBs.
  EXPECT_EQ(ran.ue_cell(b.value()), CellId{1});
  EXPECT_EQ(ran.ue_cqi(b.value()), ran::Cqi{12});
  EXPECT_EQ(ran.cell_at(0).attached_total(), 1u);
  EXPECT_EQ(ran.cell_at(1).attached_total(), 0u);
  EXPECT_EQ(ran.cell_at(0).reservation_of(plmn).value, reserved_a);
  EXPECT_EQ(ran.cell_at(1).reservation_of(plmn).value, reserved_b);
}

// A handover reads the source broadcast position from the UE's row and
// reuses it on the target. A cell added after a PLMN removal broadcasts
// in another order (the reused index slot puts the new PLMN first), so
// there the target position must be looked up.
TEST(RanHandover, TargetWithAnotherBroadcastOrderAttachesUnderTheSamePlmn) {
  ran::RanController ran;
  ran.add_cell(ran::Cell(CellId{1}, "a", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  for (const std::uint64_t p : {1u, 2u, 3u}) ASSERT_TRUE(ran.install_plmn(PlmnId{p}).ok());
  ASSERT_TRUE(ran.remove_plmn(PlmnId{1}).ok());
  ASSERT_TRUE(ran.install_plmn(PlmnId{4}).ok());
  ran.add_cell(ran::Cell(CellId{2}, "b", ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  ASSERT_EQ(ran.cell_at(0).broadcast_index(PlmnId{2}), 0u);
  ASSERT_NE(ran.cell_at(1).broadcast_index(PlmnId{2}), 0u)
      << "the cells must broadcast in different orders for the test to bite";
  ASSERT_TRUE(ran.set_allocation(PlmnId{2}, DataRate::mbps(40.0)).ok());

  const Result<UeId> ue = ran.attach_ue_at(CellId{1}, PlmnId{2}, ran::Cqi{11});
  ASSERT_TRUE(ran.attach_ue_at(CellId{2}, PlmnId{4}, ran::Cqi{6}).ok());
  ASSERT_TRUE(ue.ok());
  const std::vector<ran::HandoverRequest> batch{{ue.value(), ran.ue_slot(ue.value()), 1}};
  const int reserved = ran.cell_at(0).reservation_of(PlmnId{2}).value +
                       ran.cell_at(1).reservation_of(PlmnId{2}).value;
  EXPECT_EQ(ran.apply_handovers(batch, SimTime::from_micros(1)).successes, 1u);
  const ran::Cell& b = ran.cell_at(1);
  EXPECT_EQ(b.attached_count(PlmnId{2}), 1u);
  EXPECT_EQ(b.attached_count(PlmnId{4}), 1u);
  EXPECT_EQ(b.mean_cqi(PlmnId{2}, ran::Cqi{1}), ran::Cqi{11});
  EXPECT_EQ(b.mean_cqi(PlmnId{4}, ran::Cqi{1}), ran::Cqi{6});
  EXPECT_EQ(b.reservation_of(PlmnId{4}).value, 0) << "PLMN 4 holds no allocation";
  EXPECT_EQ(ran.cell_at(0).reservation_of(PlmnId{2}).value + b.reservation_of(PlmnId{2}).value,
            reserved);
}

// ------------------------------------------------ zero-alloc contract

TEST(MobilityAlloc, SteadyStateStepAndApplyAllocateNothing) {
  for (const std::size_t threads : {0u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    // 4800 UEs on 16 cells, five ranges: every epoch hands over.
    FieldFixture fx(3, 1600, /*seed=*/7, threads);
    // Warm-up: grow the transition buffers and controller scratch to
    // their high-water marks.
    for (int minute = 1; minute <= 60; ++minute) (void)fx.epoch(minute);
    AllocationCounter counter;
    std::uint64_t handovers = 0;
    for (int minute = 61; minute <= 80; ++minute) handovers += fx.epoch(minute).successes;
    EXPECT_GT(handovers, 0u) << "the guard must observe real handover work";
    EXPECT_EQ(counter.count(), 0u)
        << "steady-state Field::step + Field::apply must not touch the heap";
  }
}

// The region epoch around step and apply — the live-slice set, the
// speed classes and sync_population — allocates nothing once the
// populations are spawned, serial and with the testbed's 4-wide pool.
TEST(MobilityAlloc, SteadyStateRegionStepMobilityAllocatesNothing) {
  Result<scenario::Scenario> parsed = scenario::parse_scenario(R"({
    "name": "region_alloc", "seed": 5, "duration_hours": 1, "topology": "fig2",
    "mobility": {"cell_spacing_m": 400, "ues_per_slice": 600,
                 "speed_classes": {"automotive": 14, "embb_video": 3}}
  })");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::OrchestratorConfig config;
    config.epoch_threads = threads;
    scenario::RegionIdentity identity;
    identity.seed = 5;
    scenario::Region region(core::make_testbed(5, config), parsed.value(), identity);
    ASSERT_NE(region.field(), nullptr);
    for (const traffic::Vertical vertical :
         {traffic::Vertical::automotive, traffic::Vertical::embb_video}) {
      core::SliceSpec spec = core::SliceSpec::from_profile(traffic::profile_for(vertical),
                                                           Duration::hours(1000.0));
      spec.expected_throughput = DataRate::mbps(4.0);
      (void)region.orchestrator().submit(spec, std::make_unique<traffic::ConstantTraffic>(2.0));
    }
    core::Testbed& tb = region.testbed();
    tb.simulator.run_for(Duration::minutes(30.0));
    ASSERT_EQ(region.orchestrator().summary().active_slices, 2u);

    SimTime now = tb.simulator.now();
    {
      // The first region epoch spawns both populations: the counter
      // must see it, or the zero below proves nothing.
      AllocationCounter counter;
      now = now + Duration::minutes(1.0);
      region.step_mobility(now);
      EXPECT_GT(counter.count(), 0u);
    }
    ASSERT_EQ(region.field()->population(), 1200u);
    for (int minute = 0; minute < 60; ++minute) {
      now = now + Duration::minutes(1.0);
      region.step_mobility(now);
    }
    const std::uint64_t before = tb.ran.handover_totals().successes;
    AllocationCounter counter;
    for (int minute = 0; minute < 20; ++minute) {
      now = now + Duration::minutes(1.0);
      region.step_mobility(now);
    }
    EXPECT_GT(tb.ran.handover_totals().successes, before);
    EXPECT_EQ(counter.count(), 0u) << "steady-state Region::step_mobility must not allocate";
  }
}

// --------------------------------------------- fig2 scenario parity

constexpr const char* kFig2Mobility = R"({
  "name": "mobility_fig2",
  "seed": 11,
  "duration_hours": 6,
  "topology": "fig2",
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 2.0, "min_duration_hours": 2, "max_duration_hours": 5},
  "mobility": {
    "cell_spacing_m": 400,
    "ues_per_slice": 30,
    "speed_classes": {"automotive": 14, "cloud_gaming": 0.9},
    "storms": [
      {"kind": "stadium_ingress", "at_hours": 1, "duration_minutes": 60,
       "fraction": 0.6, "cell": "b"},
      {"kind": "stadium_egress", "at_hours": 2.5, "duration_minutes": 45,
       "fraction": 0.6, "cell": "b"}
    ]
  },
  "targets": {"min_admission_rate": 0.1}
})";

scenario::Scenario parse_fig2() {
  Result<scenario::Scenario> parsed = scenario::parse_scenario(kFig2Mobility);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  return parsed.ok() ? std::move(parsed.value()) : scenario::Scenario{};
}

scenario::Scorecard run_fig2(scenario::RunOptions options,
                             scenario::Scenario scenario = parse_fig2()) {
  scenario::ScenarioRunner runner(std::move(scenario), options);
  Result<scenario::Scorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return card.ok() ? std::move(card.value()) : scenario::Scorecard{};
}

TEST(MobilityScenario, ScorecardCarriesHandoverCounters) {
  const scenario::Scorecard card = run_fig2({});
  EXPECT_TRUE(card.mobility_enabled);
  EXPECT_GT(card.handover_attempts, 0u);
  EXPECT_EQ(card.handover_attempts, card.handover_successes + card.handover_drops);
  EXPECT_NE(card.serialize().find("\"mobility\""), std::string::npos);
}

TEST(MobilityScenario, ThreadCountDoesNotChangeTheScorecard) {
  scenario::RunOptions one, three, four;
  one.epoch_threads = 1;
  three.epoch_threads = 3;
  four.epoch_threads = 4;
  const std::string serial = run_fig2(one).serialize();
  EXPECT_EQ(serial, run_fig2(three).serialize());
  EXPECT_EQ(serial, run_fig2(four).serialize());
}

TEST(MobilityScenario, RecordedRunReplaysToTheSameScorecard) {
  const std::string path = testing::TempDir() + "/mobility_replay.journal";
  scenario::RunOptions recording;
  recording.record_path = path;
  const std::string original = run_fig2(recording).serialize();

  Result<scenario::Scenario> replayed = scenario::load_recording(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_FALSE(replayed.value().generate_arrivals);
  EXPECT_TRUE(replayed.value().mobility.enabled)
      << "the journal must preserve the mobility block";

  scenario::RunOptions threaded;
  threaded.epoch_threads = 3;
  EXPECT_EQ(run_fig2(threaded, std::move(replayed.value())).serialize(), original);
  std::remove(path.c_str());
}

// ------------------------------------------- metro roaming parity

constexpr const char* kMetroMobility = R"({
  "name": "mobility_metro",
  "seed": 17,
  "duration_hours": 6,
  "topology": "metro",
  "federation": {
    "regions": 2,
    "cells_per_region": 4,
    "edge_dcs_per_region": 1,
    "hosts_per_dc": 2,
    "backbone": "ring",
    "backbone_gbps": 40
  },
  "orchestrator": {"monitoring_period_minutes": 5, "overbooking": {"enabled": true}},
  "workload": {"arrivals_per_hour": 3.0, "min_duration_hours": 2, "max_duration_hours": 5},
  "mobility": {
    "cell_spacing_m": 400,
    "ues_per_slice": 40,
    "speed_classes": {"automotive": 14},
    "storms": [
      {"kind": "commuter_wave", "at_hours": 1, "duration_minutes": 120, "fraction": 0.6},
      {"kind": "stadium_ingress", "at_hours": 3.5, "duration_minutes": 60,
       "fraction": 0.5, "cell": "c2", "region": "r1"}
    ]
  },
  "targets": {"min_admission_rate": 0.1}
})";

scenario::Scenario parse_metro() {
  Result<scenario::Scenario> parsed = scenario::parse_scenario(kMetroMobility);
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().message);
  return parsed.ok() ? std::move(parsed.value()) : scenario::Scenario{};
}

federation::FederatedScorecard run_metro(federation::FederatedRunOptions options,
                                         scenario::Scenario scenario = parse_metro()) {
  federation::FederatedRunner runner(std::move(scenario), options);
  Result<federation::FederatedScorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return card.ok() ? std::move(card.value()) : federation::FederatedScorecard{};
}

TEST(MobilityFederation, CommuterWaveRoamsAcrossRegionsDeterministically) {
  federation::FederatedRunOptions one;
  one.epoch_threads = 1;
  const federation::FederatedScorecard card = run_metro(one);
  EXPECT_TRUE(card.mobility_enabled);
  EXPECT_GT(card.handover_successes, 0u) << "intra-region handovers must happen";
  EXPECT_GT(card.roam_attempts, 0u) << "the commuter wave must reach the border";
  EXPECT_GT(card.roam_admitted, 0u) << "the neighbour region must re-attach roamers";
  ASSERT_EQ(card.regions.size(), 2u);

  federation::FederatedRunOptions four;
  four.epoch_threads = 4;
  EXPECT_EQ(run_metro(four).serialize(), card.serialize());
}

TEST(MobilityFederation, SocketTransportMatchesInProcess) {
  // Roamers cross the bus as columnar tick replies and ingress bodies;
  // a loopback socket must carry them byte for byte.
  const auto run = [](bool socket) {
    federation::FederatedRunOptions options;
    options.socket_transport = socket;
    federation::FederatedRunner runner(parse_metro(), options);
    Result<federation::FederatedScorecard> card = runner.run();
    EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
    return std::pair{card.ok() ? card.value().serialize() : std::string(), runner.bus().stats()};
  };
  const auto [inproc_card, inproc_stats] = run(false);
  const auto [socket_card, socket_stats] = run(true);
  EXPECT_NE(inproc_card.find("\"roam_admitted\""), std::string::npos);
  EXPECT_EQ(inproc_card, socket_card);
  ASSERT_EQ(inproc_stats.size(), socket_stats.size());
  for (const auto& [service, stats] : inproc_stats) {
    ASSERT_TRUE(socket_stats.contains(service)) << service;
    const net::BusStats& other = socket_stats.at(service);
    EXPECT_EQ(stats.requests, other.requests) << service;
    EXPECT_EQ(stats.responses_ok, other.responses_ok) << service;
    EXPECT_EQ(stats.responses_error, other.responses_error) << service;
    EXPECT_EQ(stats.bytes_tx, other.bytes_tx) << service;
    EXPECT_EQ(stats.bytes_rx, other.bytes_rx) << service;
  }
}

TEST(MobilityFederation, RecordedMetroRunReplaysToTheSameScorecard) {
  const std::string path = testing::TempDir() + "/mobility_metro_replay.journal";
  federation::FederatedRunOptions recording;
  recording.record_path = path;
  const std::string original = run_metro(recording).serialize();

  Result<scenario::Scenario> replayed = scenario::load_recording(path);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_FALSE(replayed.value().generate_arrivals);
  EXPECT_TRUE(replayed.value().mobility.enabled);

  federation::FederatedRunOptions threaded;
  threaded.epoch_threads = 3;
  EXPECT_EQ(run_metro(threaded, std::move(replayed.value())).serialize(), original);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slices
