// Experiment R1 — durability costs of the state store (docs/persistence.md):
// write-ahead journal append throughput (records/s and bytes/s, with and
// without per-append fsync) and cold-recovery time as a function of
// journal length (1k / 10k / 100k events), i.e. how long the
// orchestrator's substrate state takes to come back after a crash.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common.hpp"
#include "store/store.hpp"

namespace {

using namespace slices;
namespace fs = std::filesystem;

fs::path bench_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("slices_bench_r1_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A representative journal payload: the shape (and roughly the size) of
/// the orchestrator's "admit" operation.
json::Object sample_event(std::uint64_t n) {
  json::Value op;
  op["op"] = "admit";
  op["t_us"] = static_cast<double>(n) * 1e6;
  op["slice"] = static_cast<double>(n % 977 + 1);
  op["reserved_bps"] = 25.0e6 + static_cast<double>(n % 64) * 1e5;
  op["activates_at_us"] = static_cast<double>(n) * 1e6 + 4.2e6;
  op["next_plmn"] = static_cast<double>(n % 977 + 2);
  json::Value embedding;
  embedding["plmn"] = static_cast<double>(n % 977 + 1);
  embedding["datacenter"] = 1.0;
  embedding["edge_stack"] = false;
  json::Array paths;
  paths.emplace_back(static_cast<double>(2 * n + 1));
  paths.emplace_back(static_cast<double>(2 * n + 2));
  embedding["paths"] = json::Value(std::move(paths));
  op["embedding"] = std::move(embedding);
  return std::move(op.as_object());
}

/// Build (once per length) a journal of `records` synthesized events and
/// return its directory.
const fs::path& prepared_journal(std::uint64_t records) {
  static std::map<std::uint64_t, fs::path> cache;
  auto it = cache.find(records);
  if (it != cache.end()) return it->second;
  const fs::path dir = bench_dir("cold_" + std::to_string(records));
  store::StateStore writer(store::StoreConfig{.directory = dir.string()});
  if (!writer.open().ok()) std::abort();
  for (std::uint64_t n = 0; n < records; ++n) {
    if (!writer.append(sample_event(n)).ok()) std::abort();
  }
  return cache.emplace(records, dir).first->second;
}

void print_experiment() {
  std::printf("\nR1: durable state store — journal append throughput and cold recovery\n");
  std::printf("see the google-benchmark table below (run with --benchmark_format=json\n"
              "for machine-readable output):\n");
  std::printf("  BM_JournalAppend          buffered appends (bytes/s = journal bandwidth)\n");
  std::printf("  BM_JournalAppendFsync     with per-append fsync (the durability knob)\n");
  std::printf("  BM_ColdRecovery/<events>  StateStore::open() over a 1k/10k/100k journal\n");
  std::printf("expected shape: appends are sequential-write bound; recovery is linear\n"
              "in journal length, which is what snapshots + compaction bound.\n\n");
}

void append_loop(benchmark::State& state, bool fsync_on_append) {
  const fs::path dir = bench_dir(fsync_on_append ? "append_fsync" : "append");
  store::StateStore store(
      store::StoreConfig{.directory = dir.string(), .fsync_on_append = fsync_on_append});
  if (!store.open().ok()) std::abort();
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.append(sample_event(n++)));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(store.journal_bytes()));
  fs::remove_all(dir);
}

void BM_JournalAppend(benchmark::State& state) { append_loop(state, false); }
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMicrosecond);

void BM_JournalAppendFsync(benchmark::State& state) { append_loop(state, true); }
BENCHMARK(BM_JournalAppendFsync)->Unit(benchmark::kMicrosecond);

void BM_ColdRecovery(benchmark::State& state) {
  const fs::path& dir = prepared_journal(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    store::StateStore store(store::StoreConfig{.directory = dir.string()});
    if (!store.open().ok()) std::abort();
    benchmark::DoNotOptimize(store.recovered().events.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ColdRecovery)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
