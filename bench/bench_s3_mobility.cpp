// Experiment S3 — mobility & handover scalability: how fast can the
// mobility Field walk a city's UE population, and how fast does the
// RAN controller absorb the resulting handover batches? The epoch loop
// budget already pays for serving (S2); mobility adds one
// fused move-and-gather pass (pool-sharded, each range writing its own
// request and exit slices), a serial join of those slices in range
// order, and one allocation-free apply_handovers pass, and this bench
// keeps that addition honest at 10k..1M UEs.
//
// BM_MobilityStep/<ues>/<threads>
//                      — one mobility epoch over `ues` UEs on a
//                        128-cell grid: Field::step (fused waypoint
//                        move + gather, `threads`-wide pool; 1 =
//                        serial; then the range-order join) followed by
//                        Field::apply (the handover
//                        batch through the controller). Time advances
//                        one minute per iteration, so the handover mix
//                        matches the scenario engine's cadence.
//                        items/s = UE-steps per second.
// Both apply benches build their batches the way the Field does: each
// request carries the UE's slot in the controller's UE index and the
// target's cell index, so they time the addressed apply — a slot-key
// check, an active-flag read, the two-byte row move and the O(1)
// reservation migration through inline Cell calls, with no UE or cell
// id lookup and no PLMN scan per request.
//
// BM_HandoverApply/<batch>
//                      — apply_handovers alone: a prepared batch of
//                        `batch` UEs ping-ponged between two cells
//                        (every request succeeds, PRB reservation
//                        migration included). items/s = handovers per
//                        second; this is the worst case where every UE
//                        in a cell crosses at once (stadium storm).
// BM_HandoverApplyMetro/<batch>
//                      — apply_handovers in the shape metro_commuter_100k
//                        applies: 4 cells, 3 PLMNs holding reservations,
//                        `batch` UEs whose targets come from a seeded
//                        draw over all cells (never the serving one, as
//                        the Field only requests real crossings). Every
//                        UE moves every iteration along a precomputed
//                        closed tour, so every request succeeds.
//                        items/s = handovers per second.
// BM_PlmnWithdrawPopulated/<ues>
//                      — a slice's PLMN going on and off the air in a
//                        populated region: 4 cells with `ues` UEs
//                        attached under 3 PLMNs, and each iteration
//                        runs install_plmn then remove_plmn of a fourth,
//                        empty PLMN (an admission's rollback, or a
//                        drained slice's teardown). UE rows hold their
//                        PLMN's stable slot, so a withdrawal touches no
//                        UE row and the time should be flat in `ues`.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "mobility/field.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

constexpr std::size_t kCells = 128;
constexpr std::size_t kPlmns = 6;  // broadcast-list capacity per cell

/// 128-cell RAN with six allocated PLMNs and a mobility Field animating
/// ~`ues` UEs (ues/6 per slice), population spawned once up front.
struct MobilitySystem {
  ran::RanController ran;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<mobility::Field> field;
  std::vector<PlmnId> plmns;
  std::int64_t now_us = 0;

  MobilitySystem(std::size_t ues, std::size_t threads) {
    for (std::size_t c = 0; c < kCells; ++c) {
      ran.add_cell(ran::Cell(CellId{c + 1}, "cell-" + std::to_string(c),
                             ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
    }
    for (std::size_t p = 0; p < kPlmns; ++p) {
      const PlmnId plmn{p + 1};
      if (!ran.install_plmn(plmn)) std::abort();
      if (!ran.set_allocation(plmn, DataRate::mbps(200.0))) std::abort();
      plmns.push_back(plmn);
    }
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

    mobility::FieldConfig config;
    config.seed = 20206;
    config.ues_per_slice = std::max<std::size_t>(ues / kPlmns, 1);
    field = std::make_unique<mobility::Field>(config, &ran, pool.get());
    field->sync_population(plmns);
  }

  /// One scenario-cadence mobility epoch: move everyone one minute and
  /// hand over the boundary crossers.
  ran::HandoverStats epoch() {
    now_us += 60'000'000;
    const SimTime now = SimTime::from_micros(now_us);
    field->step(now);
    return field->apply(now);
  }
};

void print_experiment() {
  std::printf("\nS3: mobility & handover scalability — moving-UE data plane\n");
  std::printf("(128-cell grid, 6 PLMNs; waypoint walk at one-minute epochs)\n");
  std::printf("see the google-benchmark tables: BM_MobilityStep/<ues>/<threads>,\n"
              "BM_HandoverApply/<batch>, BM_HandoverApplyMetro/<batch>,\n"
              "BM_PlmnWithdrawPopulated/<ues>\n");
  std::printf("expected shape: the fused move-and-gather pass is linear in UEs and\n"
              "shards across the pool; the range join and handover apply stay sequential\n"
              "but touch only the crossing UEs, so step cost is dominated by the walk. The apply\n"
              "path is allocation-free — BM_HandoverApply is pure per-request work\n"
              "(row moves + PRB reservation migration), the stadium-storm worst case.\n\n");
}

void BM_MobilityStep(benchmark::State& state) {
  MobilitySystem sys(static_cast<std::size_t>(state.range(0)),
                     static_cast<std::size_t>(state.range(1)));
  // Warm one epoch outside the timed loop: the first step seeds the
  // waypoints and sizes the reusable batch buffers.
  (void)sys.epoch();
  std::uint64_t handovers = 0;
  for (auto _ : state) {
    handovers += sys.epoch().successes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.field->population()));
  state.counters["population"] = static_cast<double>(sys.field->population());
  state.counters["ho_per_epoch"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(handovers) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MobilityStep)
    ->Args({10'000, 1})
    ->Args({100'000, 1})
    ->Args({1'000'000, 1})
    ->Args({100'000, 4})
    ->Args({1'000'000, 4})
    ->Unit(benchmark::kMicrosecond);

void BM_HandoverApply(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  ran::RanController ran;
  ran.add_cell(ran::Cell(CellId{1}, "cell-a", ran::Bandwidth::mhz20,
                         ran::SharingPolicy::pooled));
  ran.add_cell(ran::Cell(CellId{2}, "cell-b", ran::Bandwidth::mhz20,
                         ran::SharingPolicy::pooled));
  const PlmnId plmn{1};
  if (!ran.install_plmn(plmn)) std::abort();
  // Two mhz20 cells bound the PLMN-wide allocation; 50 Mb/s leaves PRBs
  // free on the target so the per-UE reservation migration exercises
  // its clamp path without starving.
  if (!ran.set_allocation(plmn, DataRate::mbps(50.0))) std::abort();

  std::vector<ran::HandoverRequest> to_b, to_a;
  to_b.reserve(batch);
  to_a.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    Result<UeId> ue = ran.attach_ue_at(CellId{1}, plmn, ran::Cqi{10});
    if (!ue) std::abort();
    const std::uint32_t slot = ran.ue_slot(ue.value());
    to_b.push_back(ran::HandoverRequest{ue.value(), slot, 1});
    to_a.push_back(ran::HandoverRequest{ue.value(), slot, 0});
  }

  std::int64_t now_us = 0;
  bool forward = true;
  // Warm one apply per direction: sizes the internal outcome scratch.
  (void)ran.apply_handovers(to_b, SimTime::from_micros(now_us += 1000));
  (void)ran.apply_handovers(to_a, SimTime::from_micros(now_us += 1000));
  for (auto _ : state) {
    const auto& requests = forward ? to_b : to_a;
    const ran::HandoverStats stats =
        ran.apply_handovers(requests, SimTime::from_micros(now_us += 1000));
    if (stats.successes != batch) std::abort();
    forward = !forward;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_HandoverApply)->Arg(1'000)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_HandoverApplyMetro(benchmark::State& state) {
  constexpr std::size_t kMetroCells = 4;
  constexpr std::size_t kMetroPlmns = 3;
  constexpr std::size_t kTourLength = 8;  // batches per closed tour
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  ran::RanController ran;
  for (std::size_t c = 0; c < kMetroCells; ++c) {
    ran.add_cell(ran::Cell(CellId{c + 1}, "c" + std::to_string(c), ran::Bandwidth::mhz20,
                           ran::SharingPolicy::pooled));
  }
  for (std::size_t p = 0; p < kMetroPlmns; ++p) {
    const PlmnId plmn{p + 1};
    if (!ran.install_plmn(plmn)) std::abort();
    // 3 x 20 Mb/s fills about half of the four cells' PRBs, so the
    // migration has room on every target.
    if (!ran.set_allocation(plmn, DataRate::mbps(20.0))) std::abort();
  }

  // batches[r] moves every UE to its r-th stop; the last stop is the
  // UE's start, so the batches cycle. Each stop leaves the current cell
  // for one of the other three, and the last one lands on the start.
  Rng rng(0x5E3Du);
  const auto draw_cell = [&](std::size_t not_a, std::size_t not_b) {
    std::size_t c;
    do {
      c = static_cast<std::size_t>(rng.uniform_int(0, kMetroCells - 1));
    } while (c == not_a || c == not_b);
    return c;
  };
  std::vector<std::vector<ran::HandoverRequest>> batches(kTourLength);
  for (auto& requests : batches) requests.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t start = static_cast<std::size_t>(rng.uniform_int(0, kMetroCells - 1));
    const PlmnId plmn{1 + i % kMetroPlmns};
    Result<UeId> ue = ran.attach_ue_at(CellId{start + 1}, plmn, ran::Cqi{10});
    if (!ue) std::abort();
    const std::uint32_t slot = ran.ue_slot(ue.value());
    std::size_t at = start;
    for (std::size_t r = 0; r + 1 < kTourLength; ++r) {
      at = r + 2 == kTourLength ? draw_cell(at, start) : draw_cell(at, at);
      batches[r].push_back(
          ran::HandoverRequest{ue.value(), slot, static_cast<std::uint32_t>(at)});
    }
    batches[kTourLength - 1].push_back(
        ran::HandoverRequest{ue.value(), slot, static_cast<std::uint32_t>(start)});
  }

  std::int64_t now_us = 0;
  // Warm one full tour: sizes the internal outcome scratch.
  for (const auto& requests : batches) {
    (void)ran.apply_handovers(requests, SimTime::from_micros(now_us += 1000));
  }
  std::size_t r = 0;
  for (auto _ : state) {
    const ran::HandoverStats stats =
        ran.apply_handovers(batches[r], SimTime::from_micros(now_us += 1000));
    if (stats.successes != batch) std::abort();
    r = (r + 1) % kTourLength;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_HandoverApplyMetro)->Arg(1'000)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_PlmnWithdrawPopulated(benchmark::State& state) {
  constexpr std::size_t kRegionCells = 4;
  constexpr std::size_t kAttachedPlmns = 3;
  const std::size_t ues = static_cast<std::size_t>(state.range(0));
  ran::RanController ran;
  for (std::size_t c = 0; c < kRegionCells; ++c) {
    ran.add_cell(ran::Cell(CellId{c + 1}, "c" + std::to_string(c), ran::Bandwidth::mhz20,
                           ran::SharingPolicy::pooled));
  }
  for (std::size_t p = 0; p < kAttachedPlmns; ++p) {
    if (!ran.install_plmn(PlmnId{p + 1})) std::abort();
  }
  for (std::size_t i = 0; i < ues; ++i) {
    if (!ran.attach_ue(PlmnId{1 + i % kAttachedPlmns}, ran::Cqi{10})) std::abort();
  }
  const PlmnId transient{kAttachedPlmns + 1};
  for (auto _ : state) {
    if (!ran.install_plmn(transient)) std::abort();
    if (!ran.remove_plmn(transient)) std::abort();
  }
  state.counters["ues"] = static_cast<double>(ues);
}
BENCHMARK(BM_PlmnWithdrawPopulated)->Arg(1'000)->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
