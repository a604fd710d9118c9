// Determinism of the parallel epoch pipeline: running the testbed with
// a single-threaded epoch loop and with a worker pool must produce
// bit-identical results — the same OrchestratorSummary, the same
// telemetry series, and the same durable journal — for the same seed.
// This is the contract that lets operators turn on epoch_threads
// without invalidating reproducibility of experiments.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/testbed.hpp"
#include "json/value.hpp"
#include "ran/cell.hpp"
#include "ran/controller.hpp"
#include "store/crc32.hpp"
#include "store/store.hpp"
#include "telemetry/trace.hpp"
#include "traffic/verticals.hpp"
#include "transport/controller.hpp"
#include "transport/topology.hpp"

namespace slices::core {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  // Keyed by pid: several tests run run_scenario(1), and ctest -j runs
  // them in parallel processes — a shared path would let one test
  // remove_all the directory out from under another's open store.
  const fs::path dir = fs::temp_directory_path() /
                       ("slices_determinism_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

/// Everything observable a run produces.
struct RunResult {
  OrchestratorSummary summary;
  std::string state_json;      ///< serialized orchestrator state
  std::string telemetry_json;  ///< serialized full registry snapshot
  std::string journal_bytes;   ///< raw journal.wal contents
  std::string trace_json;      ///< Chrome trace export (sim-clock spans)
};

/// One full scenario: admission of three verticals, activation, several
/// monitoring epochs with overbooking adaptation, one early terminate
/// and one natural expiry — enough to touch every journaled op and both
/// active and inactive cell branches.
RunResult run_scenario(std::size_t epoch_threads) {
  // Tracing stays *enabled* for the whole scenario: spans carry
  // sim-clock timestamps (wall clock off), so the exported trace must
  // be as bit-stable as the journal.
  telemetry::trace::set_enabled(true);
  telemetry::trace::set_wall_clock(false);
  telemetry::trace::clear();

  const fs::path dir = fresh_dir("threads_" + std::to_string(epoch_threads));
  store::StateStore store(store::StoreConfig{.directory = dir.string()});
  EXPECT_TRUE(store.open().ok());

  OrchestratorConfig config;
  config.epoch_threads = epoch_threads;
  auto tb = make_testbed(/*seed=*/77, config);
  tb->orchestrator->attach_store(&store);

  const auto submit = [&](traffic::Vertical v, double hours, std::uint64_t seed) {
    return tb->orchestrator->submit(
        SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(hours)),
        traffic::make_traffic(v, Rng(seed)));
  };
  const SliceId video = submit(traffic::Vertical::embb_video, 12.0, 7).slice;
  (void)submit(traffic::Vertical::iot_metering, 2.0, 11);  // expires mid-run
  tb->simulator.run_for(Duration::hours(1.0));
  const SliceId gaming = submit(traffic::Vertical::cloud_gaming, 12.0, 13).slice;
  tb->simulator.run_for(Duration::hours(3.0));

  // Early terminate one slice so the terminate/release path is covered.
  if (const SliceRecord* record = tb->orchestrator->find_slice(gaming);
      record != nullptr && record->is_live()) {
    EXPECT_TRUE(tb->orchestrator->terminate(gaming).ok());
  }
  tb->simulator.run_for(Duration::hours(2.0));
  EXPECT_NE(tb->orchestrator->find_slice(video), nullptr);

  RunResult out;
  out.summary = tb->orchestrator->summary();
  out.state_json = json::serialize(tb->orchestrator->state_json());
  out.telemetry_json = json::serialize(tb->registry.snapshot());
  telemetry::trace::Tracer::instance().export_chrome_json(out.trace_json);
  EXPECT_GT(telemetry::trace::Tracer::instance().span_count(), 0u);
  telemetry::trace::set_enabled(false);
  tb.reset();  // orchestrator released before its store
  out.journal_bytes = read_file(dir / "journal.wal");
  EXPECT_FALSE(out.journal_bytes.empty());
  fs::remove_all(dir);
  return out;
}

void expect_identical(const RunResult& base, const RunResult& other) {
  EXPECT_EQ(base.summary.active_slices, other.summary.active_slices);
  EXPECT_EQ(base.summary.installing_slices, other.summary.installing_slices);
  EXPECT_EQ(base.summary.admitted_total, other.summary.admitted_total);
  EXPECT_EQ(base.summary.rejected_total, other.summary.rejected_total);
  EXPECT_EQ(base.summary.contracted_total.bits_per_second(),
            other.summary.contracted_total.bits_per_second());
  EXPECT_EQ(base.summary.reserved_total.bits_per_second(),
            other.summary.reserved_total.bits_per_second());
  EXPECT_EQ(base.summary.multiplexing_gain, other.summary.multiplexing_gain);
  EXPECT_EQ(base.summary.earned.as_cents(), other.summary.earned.as_cents());
  EXPECT_EQ(base.summary.penalties.as_cents(), other.summary.penalties.as_cents());
  EXPECT_EQ(base.summary.net.as_cents(), other.summary.net.as_cents());
  EXPECT_EQ(base.summary.violation_epochs, other.summary.violation_epochs);
  EXPECT_EQ(base.summary.reconfigurations, other.summary.reconfigurations);
  EXPECT_EQ(base.state_json, other.state_json);
  EXPECT_EQ(base.telemetry_json, other.telemetry_json);
  EXPECT_EQ(base.journal_bytes, other.journal_bytes);
  EXPECT_EQ(base.trace_json, other.trace_json);
}

TEST(Determinism, PoolOfFourMatchesSingleThread) {
  const RunResult serial = run_scenario(1);
  const RunResult pooled = run_scenario(4);
  expect_identical(serial, pooled);
}

TEST(Determinism, OddPoolSizeMatchesSingleThread) {
  // A pool size that does not divide the cell count exercises uneven
  // work stealing across the shard boundary.
  const RunResult serial = run_scenario(1);
  const RunResult pooled = run_scenario(3);
  expect_identical(serial, pooled);
}

TEST(Determinism, RepeatedRunIsBitStable) {
  // Same seed, same pool size: the scenario itself must be a pure
  // function of the seed (guards against hidden wall-clock or address
  // dependent behaviour leaking into results).
  const RunResult a = run_scenario(2);
  const RunResult b = run_scenario(2);
  expect_identical(a, b);
}

// --- Recorded digests -------------------------------------------------------
//
// The epoch kernels' output is pinned by digests recorded from the pre-SoA
// reference paths (per-cell std::vector scratch and std::map reductions in
// the RAN and transport controllers), which produced byte-identical output
// to the kernels when the digests were taken. A digest is the CRC-32 of a
// scorecard plus its byte length. A mismatch prints the actual digest:
// re-recording one is a deliberate edit of the digest literals below, made
// only by a change that means to alter what an epoch serves (or, for the
// state digest alone, the layout of the durable-state document).

/// CRC-32 and byte length.
using Digest = std::pair<std::uint32_t, std::size_t>;

/// EXPECT that `bytes` digest to `recorded`, printing the actual digest.
void expect_digest(std::string_view bytes, const Digest& recorded, std::string_view what) {
  const Digest actual{store::crc32(bytes), bytes.size()};
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{0x%08x, %zu}", static_cast<unsigned>(actual.first),
                actual.second);
  EXPECT_EQ(actual, recorded) << "actual digest of " << what << ": " << buf;
}

/// The summary fields expect_identical compares, as text; doubles as hex
/// bit patterns so the digest pins them exactly.
std::string summary_card(const OrchestratorSummary& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "active=%zu installing=%zu admitted=%llu rejected=%llu contracted=%a "
                "reserved=%a gain=%a earned=%lld penalties=%lld net=%lld violations=%llu "
                "reconfigurations=%llu\n",
                s.active_slices, s.installing_slices,
                static_cast<unsigned long long>(s.admitted_total),
                static_cast<unsigned long long>(s.rejected_total),
                s.contracted_total.bits_per_second(), s.reserved_total.bits_per_second(),
                s.multiplexing_gain, static_cast<long long>(s.earned.as_cents()),
                static_cast<long long>(s.penalties.as_cents()),
                static_cast<long long>(s.net.as_cents()),
                static_cast<unsigned long long>(s.violation_epochs),
                static_cast<unsigned long long>(s.reconfigurations));
  return buf;
}

void expect_recorded(const RunResult& run) {
  expect_digest(summary_card(run.summary), {0x77e88455, 196}, "summary");
  expect_digest(run.state_json, {0x577b5bf8, 862}, "state");
  expect_digest(run.telemetry_json, {0x84dbe580, 5267}, "telemetry");
  expect_digest(run.journal_bytes, {0x9e337f4b, 7673}, "journal");
  expect_digest(run.trace_json, {0x35d91423, 71749}, "trace");
}

TEST(Determinism, KernelMatchesRecordedDigestsSingleThread) {
  expect_recorded(run_scenario(1));
}

TEST(Determinism, KernelMatchesRecordedDigestsPooled) {
  for (const std::size_t threads : {std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_recorded(run_scenario(threads));
  }
}

// RAN scorecard at population scale: a controller with tens of cells
// and 10k/100k attached UEs (with detach holes in the columns) must
// produce the recorded serve reports and telemetry at every pool size.
// This is the scorecard the 1M-UE bench relies on.
std::string ran_scorecard(std::size_t n_ues, std::size_t threads, std::size_t n_cells = 24) {
  telemetry::MonitorRegistry registry;
  ran::RanController ran(&registry);
  for (std::size_t i = 0; i < n_cells; ++i) {
    ran.add_cell(ran::Cell(CellId{i + 1}, "cell-" + std::to_string(i),
                           ran::Bandwidth::mhz20, ran::SharingPolicy::pooled));
  }
  constexpr std::size_t kPlmns = 5;
  std::vector<PlmnId> plmns;
  for (std::size_t p = 0; p < kPlmns; ++p) {
    const PlmnId plmn{900 + p};
    EXPECT_TRUE(ran.install_plmn(plmn).ok());
    EXPECT_TRUE(ran.set_allocation(plmn, DataRate::mbps(40.0)).ok());
    plmns.push_back(plmn);
  }

  Rng rng(2026);
  std::vector<UeId> attached;
  attached.reserve(n_ues);
  for (std::size_t i = 0; i < n_ues; ++i) {
    const PlmnId plmn = plmns[rng.uniform_int(0, kPlmns - 1)];
    const ran::Cqi cqi{static_cast<int>(rng.uniform_int(1, 15))};
    const Result<UeId> ue = ran.attach_ue(plmn, cqi);
    EXPECT_TRUE(ue.ok());
    attached.push_back(ue.value());
  }
  // Punch holes: detach ~10% so the SoA free-list/row-reuse machinery
  // is exercised, then attach a fresh batch into the recycled rows.
  for (std::size_t i = 0; i < n_ues / 10; ++i) {
    const std::size_t victim = rng.uniform_int(0, attached.size() - 1);
    (void)ran.detach_ue(attached[victim]);
    attached[victim] = attached.back();
    attached.pop_back();
  }
  for (std::size_t i = 0; i < n_ues / 20; ++i) {
    const PlmnId plmn = plmns[rng.uniform_int(0, kPlmns - 1)];
    (void)ran.attach_ue(plmn, ran::Cqi{static_cast<int>(rng.uniform_int(1, 15))});
  }

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    ran.set_thread_pool(pool.get());
  }

  std::string card;
  std::vector<std::pair<PlmnId, DataRate>> demands;
  std::vector<ran::RanServeReport> reports;
  for (int epoch = 0; epoch < 4; ++epoch) {
    demands.clear();
    for (std::size_t p = 0; p < kPlmns; ++p) {
      demands.emplace_back(plmns[p], DataRate::mbps(20.0 + 13.0 * static_cast<double>(p) +
                                                    5.0 * epoch));
    }
    ran.serve_epoch(demands, SimTime::from_seconds(epoch * 1.0), reports);
    for (const ran::RanServeReport& r : reports) {
      card += std::to_string(r.plmn.value()) + ":";
      // Hex bit patterns — EQ on these is bit-exactness, not almost-equality.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a/%a/%a;", r.demand.bits_per_second(),
                    r.served.bits_per_second(), r.unserved.bits_per_second());
      card += buf;
    }
    card += "\n";
  }
  card += json::serialize(registry.snapshot());
  return card;
}

TEST(Determinism, RanParity10kUes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_digest(ran_scorecard(10'000, threads), {0xed31f1a3, 12103}, "10k-UE RAN scorecard");
  }
}

TEST(Determinism, RanParityAcrossSeveralCellRanges) {
  // 24 cells serve in one pool range; 300 span three, so the pool
  // really splits the cells phase and must still match the serial run.
  const std::string serial = ran_scorecard(10'000, 1, 300);
  for (const std::size_t threads : {std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(ran_scorecard(10'000, threads, 300), serial);
  }
}

TEST(Determinism, RanParity100kUes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_digest(ran_scorecard(100'000, threads), {0x93c47de1, 12214},
                  "100k-UE RAN scorecard");
  }
}

// --- Transport kernel scorecard ---------------------------------------------
//
// The SoA transport serve kernel must produce the recorded report stream
// at every pool size, over a fading s-m-t / s-t substrate that forces
// scaling and reroutes.

struct TransportSubstrate {
  double mmwave_mbps;  ///< s-m
  double uwave_mbps;   ///< m-t
  double fiber_mbps;   ///< s-t
  std::uint64_t seed;
  std::uint64_t paths;  ///< path i belongs to slice 1 + i % 9
  double reserve_mbps;
  double demand_mbps;
  int epochs;
  bool registry;  ///< publish telemetry and append its snapshot
};

/// 160 paths over a wide substrate, with telemetry.
constexpr TransportSubstrate kWideSubstrate{10000.0, 8000.0, 6000.0, 55, 160, 25.0, 20.0, 60, true};
/// 4 paths loading a narrow substrate for 500 epochs, no telemetry.
constexpr TransportSubstrate kFadingSubstrate{1000.0, 800.0, 600.0, 77,   4,
                                              120.0,  100.0, 500,   false};

std::string transport_scorecard(const TransportSubstrate& sub, std::size_t threads) {
  telemetry::MonitorRegistry registry;
  transport::Topology topo;
  const NodeId s = topo.add_node("s", transport::NodeKind::enb_gateway);
  const NodeId m = topo.add_node("m", transport::NodeKind::openflow_switch);
  const NodeId t = topo.add_node("t", transport::NodeKind::core_gateway);
  topo.add_link(s, m, transport::LinkTechnology::mmwave, DataRate::mbps(sub.mmwave_mbps),
                Duration::millis(1.0));
  topo.add_link(m, t, transport::LinkTechnology::uwave, DataRate::mbps(sub.uwave_mbps),
                Duration::millis(1.0));
  topo.add_link(s, t, transport::LinkTechnology::fiber, DataRate::mbps(sub.fiber_mbps),
                Duration::millis(4.0));
  transport::TransportController tc(std::move(topo), Rng(sub.seed),
                                    sub.registry ? &registry : nullptr);

  std::vector<std::pair<PathId, DataRate>> demands;
  for (std::uint64_t i = 0; i < sub.paths; ++i) {
    const Result<PathId> path =
        tc.allocate_path(SliceId{1 + i % 9}, s, t, DataRate::mbps(sub.reserve_mbps),
                         Duration::millis(20.0));
    EXPECT_TRUE(path.ok());
    demands.emplace_back(path.value(), DataRate::mbps(sub.demand_mbps));
  }
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    tc.set_thread_pool(pool.get());
  }

  std::string card;
  std::vector<transport::PathServeReport> reports;
  for (int epoch = 0; epoch < sub.epochs; ++epoch) {
    tc.serve_epoch(demands, SimTime::from_seconds(epoch * 1.0), reports);
    for (const transport::PathServeReport& r : reports) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%llu/%llu:%a/%lld/%d%d;",
                    static_cast<unsigned long long>(r.path.value()),
                    static_cast<unsigned long long>(r.slice.value()),
                    r.served.bits_per_second(),
                    static_cast<long long>(r.experienced_delay.as_micros()),
                    r.delay_violated ? 1 : 0, r.degraded ? 1 : 0);
      card += buf;
    }
    card += "\n";
  }
  card += "reroutes=" + std::to_string(tc.reroutes()) + "\n";
  if (sub.registry) card += json::serialize(registry.snapshot());
  return card;
}

TEST(Determinism, TransportParityAcrossPoolSizes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_digest(transport_scorecard(kWideSubstrate, threads), {0x81c05bd5, 292555},
                  "transport scorecard");
  }
}

TEST(Determinism, TransportFadingSubstrateMatchesRecordedDigest) {
  expect_digest(transport_scorecard(kFadingSubstrate, 1), {0x612b30f5, 52543},
                "fading transport scorecard");
}

}  // namespace
}  // namespace slices::core
