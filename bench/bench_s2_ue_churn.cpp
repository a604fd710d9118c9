// Experiment S2 — UE-churn scalability of the RAN data plane: how fast
// can the controller absorb attach/detach churn, and what does one
// serving epoch cost at a million attached UEs? This is the workload
// the dense slot-indexed containers (common/dense_map.hpp) target:
// city-scale deployments see hundreds of thousands of active UEs with
// Poisson session churn on top, and the epoch loop must still close in
// control-loop time.
//
// BM_UeChurn/<ues>       — steady-state Poisson churn at `ues` active
//                          UEs: each batch detaches Poisson(k) random
//                          UEs and attaches the same number, keeping
//                          the population stationary. items/s = UE
//                          attach+detach pairs per second.
// BM_EpochServe/<ues>/<threads>
//                        — one epoch of demand serving over `ues`
//                          attached UEs across 128 cells, through the
//                          SoA epoch kernel (arena scratch, cells in
//                          ranges of 128 on a `threads`-wide pool;
//                          1 = serial). 128 cells are one range, so
//                          every thread count serves on the calling
//                          thread. Serving reads each cell's
//                          running per-PLMN UE counts, never a UE row,
//                          so its cost is O(cells x PLMNs) and only the
//                          1M population is swept.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"

namespace {

using namespace slices;
using namespace slices::bench;

constexpr std::size_t kCells = 128;
constexpr std::size_t kPlmns = 6;  // broadcast-list capacity per cell

/// 128-cell RAN with all six PLMNs installed and allocated, and `ues`
/// UEs attached round-robin over the PLMNs.
struct ChurnSystem {
  ran::RanController ran;
  std::vector<PlmnId> plmns;
  std::vector<UeId> live;  ///< attached UEs, for uniform random eviction
  Rng rng{20205};

  explicit ChurnSystem(std::size_t ues) {
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
    live.reserve(ues);
    for (std::size_t i = 0; i < ues; ++i) attach_one();
  }

  void attach_one() {
    const PlmnId plmn = plmns[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kPlmns) - 1))];
    const ran::Cqi cqi{static_cast<int>(rng.uniform_int(3, 15))};
    Result<UeId> ue = ran.attach_ue(plmn, cqi);
    if (!ue) std::abort();
    live.push_back(ue.value());
  }

  void detach_one() {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const UeId ue = live[pick];
    live[pick] = live.back();
    live.pop_back();
    if (!ran.detach_ue(ue)) std::abort();
  }
};

void print_experiment() {
  std::printf("\nS2: UE-churn scalability — dense slot-indexed UE/flow data plane\n");
  std::printf("(128 cells, 6 PLMNs; population held stationary under Poisson churn)\n");
  std::printf("see the google-benchmark tables: BM_UeChurn/<ues>, BM_EpochServe/<ues>/<threads>\n");
  std::printf("expected shape: churn cost is O(1) per attach/detach pair and flat in the\n"
              "population; epoch serving is O(cells x PLMNs), flat in attached UEs,\n"
              "and serial at any pool width: 128 cells are one pool range.\n\n");
}

void BM_UeChurn(benchmark::State& state) {
  ChurnSystem sys(static_cast<std::size_t>(state.range(0)));
  // Mean churn batch: ~32 session ends (and as many starts) per epoch
  // tick — a Poisson process thinned to the benchmark's batch cadence.
  constexpr double kMeanBatch = 32.0;
  std::int64_t pairs = 0;
  for (auto _ : state) {
    std::int64_t batch = sys.rng.poisson(kMeanBatch);
    if (batch < 1) batch = 1;
    for (std::int64_t i = 0; i < batch; ++i) {
      sys.detach_one();
      sys.attach_one();
    }
    pairs += batch;
  }
  state.SetItemsProcessed(pairs);
  state.counters["active_ues"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_UeChurn)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(500000)
    ->Unit(benchmark::kMicrosecond);

void BM_EpochServe(benchmark::State& state) {
  ChurnSystem sys(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    sys.ran.set_thread_pool(pool.get());
  }
  std::vector<std::pair<PlmnId, DataRate>> demands;
  for (const PlmnId plmn : sys.plmns) demands.emplace_back(plmn, DataRate::mbps(150.0));
  std::vector<ran::RanServeReport> reports;
  SimTime now = SimTime::origin();
  for (auto _ : state) {
    now = now + Duration::minutes(15.0);
    sys.ran.serve_epoch(demands, now, reports);
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["active_ues"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_EpochServe)
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Args({1000000, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
