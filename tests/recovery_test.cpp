// Crash-recovery replay on the full Fig. 2 testbed: the round-trip
// property state(orchestrator) == state(recover(snapshot + journal)) —
// including after a torn tail write — plus timer resurrection, the
// RAN PRB-map regression and the /store REST endpoints
// (docs/persistence.md).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "core/testbed.hpp"
#include "store/store.hpp"
#include "traffic/model.hpp"

namespace slices {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("slices_recovery_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::SliceSpec spec_for(traffic::Vertical vertical, double hours, double mbps) {
  core::SliceSpec spec =
      core::SliceSpec::from_profile(traffic::profile_for(vertical), Duration::hours(hours));
  spec.expected_throughput = DataRate::mbps(mbps);
  return spec;
}

/// Drive a testbed through a busy stretch of life: admits (with demand
/// workloads), epochs with accrual + overbooking, a resize, a rejection
/// and an operator teardown. Returns after ~2h of simulated time.
void exercise(core::Testbed& tb) {
  const SliceId first =
      tb.orchestrator
          ->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0),
                   std::make_unique<traffic::ConstantTraffic>(12.0))
          .slice;
  tb.orchestrator->submit(spec_for(traffic::Vertical::automotive, 12.0, 15.0),
                          std::make_unique<traffic::ConstantTraffic>(6.0));
  const SliceId doomed =
      tb.orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 6.0, 5.0)).slice;
  tb.simulator.run_for(Duration::minutes(40.0));  // install + two epochs

  ASSERT_TRUE(tb.orchestrator->terminate(doomed).ok());

  // A request the substrate cannot possibly fit -> journaled reject.
  ASSERT_EQ(tb.orchestrator->submit(spec_for(traffic::Vertical::embb_video, 1.0, 1e6)).state,
            core::SliceState::rejected);

  ASSERT_TRUE(tb.orchestrator->resize_slice(first, DataRate::mbps(25.0)).ok());
  tb.simulator.run_for(Duration::minutes(80.0));
}

struct StoredTestbed {
  std::unique_ptr<core::Testbed> tb;
  std::unique_ptr<store::StateStore> store;
};

StoredTestbed make_stored_testbed(std::uint64_t seed, const std::string& directory,
                                  std::size_t snapshot_every = 0,
                                  const core::OrchestratorConfig& config = {}) {
  StoredTestbed out;
  out.tb = core::make_testbed(seed, config);
  out.store = std::make_unique<store::StateStore>(
      store::StoreConfig{.directory = directory, .snapshot_every_records = snapshot_every},
      &out.tb->registry);
  EXPECT_TRUE(out.store->open().ok());
  out.tb->orchestrator->attach_store(out.store.get());
  return out;
}

TEST(Recovery, JournalReplayReproducesStateExactly) {
  const fs::path dir = fresh_dir("roundtrip");
  std::string before;
  {
    StoredTestbed live = make_stored_testbed(71, dir.string());
    exercise(*live.tb);
    before = json::serialize(live.tb->orchestrator->state_json());
  }  // crash: process gone, only the journal survives

  StoredTestbed revived = make_stored_testbed(71, dir.string());
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats.value().had_snapshot);
  EXPECT_GT(stats.value().events_replayed, 0u);
  EXPECT_EQ(stats.value().reinstall_failures, 0u);
  EXPECT_EQ(json::serialize(revived.tb->orchestrator->state_json()), before);
}

TEST(Recovery, SnapshotPlusJournalTailReproducesStateExactly) {
  const fs::path dir = fresh_dir("snapshot_tail");
  std::string before;
  {
    StoredTestbed live = make_stored_testbed(72, dir.string());
    live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0),
                                  std::make_unique<traffic::ConstantTraffic>(12.0));
    live.tb->simulator.run_for(Duration::minutes(40.0));
    ASSERT_TRUE(live.tb->orchestrator->snapshot_now().ok());
    // Post-snapshot life lands in the journal tail.
    live.tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 12.0, 15.0),
                                  std::make_unique<traffic::ConstantTraffic>(6.0));
    live.tb->simulator.run_for(Duration::minutes(40.0));
    before = json::serialize(live.tb->orchestrator->state_json());
  }

  StoredTestbed revived = make_stored_testbed(72, dir.string());
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().had_snapshot);
  EXPECT_GT(stats.value().events_replayed, 0u);
  EXPECT_EQ(json::serialize(revived.tb->orchestrator->state_json()), before);
}

TEST(Recovery, TornTailWriteStillReproducesStateExactly) {
  const fs::path dir = fresh_dir("torn_tail");
  std::string before;
  {
    StoredTestbed live = make_stored_testbed(73, dir.string());
    exercise(*live.tb);
    before = json::serialize(live.tb->orchestrator->state_json());
  }
  // The crash tore the record being appended: half a frame at the tail.
  {
    std::ofstream out(dir / "journal.wal", std::ios::binary | std::ios::app);
    const char partial[] = {0x33, 0x02, 0x00, 0x00, 0x7f, 0x01};
    out.write(partial, sizeof(partial));
  }

  StoredTestbed revived = make_stored_testbed(73, dir.string());
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().journal_truncated);
  EXPECT_EQ(stats.value().reinstall_failures, 0u);
  EXPECT_EQ(json::serialize(revived.tb->orchestrator->state_json()), before);
}

TEST(Recovery, InstallingSliceActivatesAndActiveSliceExpiresAfterRecovery) {
  const fs::path dir = fresh_dir("timers");
  SimTime activates_at;
  SimTime ends_at;
  SliceId installing_id;
  SliceId active_id;
  {
    StoredTestbed live = make_stored_testbed(74, dir.string());
    const SliceId s1 =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 2.0, 20.0)).slice;
    live.tb->simulator.run_for(Duration::seconds(30.0));
    const SliceId s2 =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 3.0, 10.0)).slice;
    // s2 is still installing when the process dies.
    const core::SliceRecord* active = live.tb->orchestrator->find_slice(s1);
    const core::SliceRecord* installing = live.tb->orchestrator->find_slice(s2);
    ASSERT_EQ(active->state, core::SliceState::active);
    ASSERT_EQ(installing->state, core::SliceState::installing);
    active_id = active->id;
    ends_at = active->ends_at;
    installing_id = installing->id;
    activates_at = installing->activates_at;
  }

  StoredTestbed revived = make_stored_testbed(74, dir.string());
  ASSERT_TRUE(revived.tb->orchestrator->recover_from_store().ok());
  const core::SliceRecord* installing = revived.tb->orchestrator->find_slice(installing_id);
  ASSERT_NE(installing, nullptr);
  EXPECT_EQ(installing->state, core::SliceState::installing);

  // The resurrected activation timer fires at the journaled instant.
  revived.tb->simulator.run_until(activates_at);
  EXPECT_EQ(installing->state, core::SliceState::active);
  EXPECT_EQ(installing->active_at, activates_at);

  // And the active slice still expires exactly on schedule.
  revived.tb->simulator.run_until(ends_at);
  EXPECT_EQ(revived.tb->orchestrator->find_slice(active_id), nullptr);
  EXPECT_EQ(revived.tb->orchestrator->summary().expired_total, 1u);
}

// Regression for the RAN controller's promise that "existing
// reservations stay installed and resume on recovery"
// (src/ran/controller.hpp): after a store-driven recovery the
// re-installed per-cell PRB maps must match the pre-failure
// reservations exactly.
TEST(Recovery, ReinstalledPrbMapsMatchPreFailureReservations) {
  const fs::path dir = fresh_dir("prb_maps");
  std::map<PlmnId, std::map<CellId, PrbCount>> before;
  {
    StoredTestbed live = make_stored_testbed(75, dir.string());
    live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
    live.tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 12.0, 15.0));
    live.tb->simulator.run_for(Duration::seconds(30.0));
    for (const auto& [slice, record] : live.tb->orchestrator->slices()) {
      ASSERT_EQ(record.state, core::SliceState::active);
      const ran::RanAllocation* alloc = live.tb->ran.find_allocation(record.embedding.plmn);
      ASSERT_NE(alloc, nullptr);
      before.emplace(record.embedding.plmn, alloc->per_cell);
    }
    ASSERT_EQ(before.size(), 2u);
  }

  StoredTestbed revived = make_stored_testbed(75, dir.string());
  ASSERT_TRUE(revived.tb->orchestrator->recover_from_store().ok());
  for (const auto& [plmn, per_cell] : before) {
    const ran::RanAllocation* alloc = revived.tb->ran.find_allocation(plmn);
    ASSERT_NE(alloc, nullptr);
    EXPECT_EQ(alloc->per_cell, per_cell) << "PRB map diverged for PLMN " << plmn.value();
  }
}

TEST(Recovery, TransportPathsKeepTheirIdsAndReservations) {
  const fs::path dir = fresh_dir("path_ids");
  std::vector<PathId> paths;
  DataRate reserved;
  {
    StoredTestbed live = make_stored_testbed(76, dir.string());
    const SliceId slice =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0)).slice;
    live.tb->simulator.run_for(Duration::seconds(30.0));
    const core::SliceRecord* record = live.tb->orchestrator->find_slice(slice);
    paths = record->embedding.paths;
    reserved = record->reserved;
    ASSERT_FALSE(paths.empty());
  }

  StoredTestbed revived = make_stored_testbed(76, dir.string());
  ASSERT_TRUE(revived.tb->orchestrator->recover_from_store().ok());
  const transport::PathReservation* path = revived.tb->transport->find_path(paths.front());
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->reserved, reserved);
  // New allocations never collide with the restored ids.
  const Result<PathId> fresh = revived.tb->transport->allocate_path(
      SliceId{999}, revived.tb->ran_gateway, revived.tb->core_gateway, DataRate::mbps(1.0),
      Duration::millis(50.0));
  ASSERT_TRUE(fresh.ok());
  for (const PathId old : paths) EXPECT_NE(fresh.value(), old);
}

/// The stage named by the audit of `slice`'s recovery termination.
std::string terminated_stage(const core::Orchestrator& orch, SliceId slice) {
  for (const core::Event& event : orch.events().after(0)) {
    if (event.slice != slice || event.kind != core::EventKind::slice_terminated) continue;
    const json::Object fields = event.fields();
    if (fields.contains("stage")) return fields.at("stage").as_string();
  }
  return "";
}

// Regression: a recovered record that repeats a live slice's PLMN or
// path id fails its reinstall with a conflict, and the failure must not
// free that id from under the slice that holds it.
class DuplicateIdReinstall : public ::testing::TestWithParam<bool /*duplicate the path*/> {};

TEST_P(DuplicateIdReinstall, FailedReinstallFreesOnlyWhatItInstalled) {
  const bool duplicate_path = GetParam();
  const fs::path dir = fresh_dir(duplicate_path ? "dup_path" : "dup_plmn");
  SliceId survivor_id;
  SliceId duplicate_id;
  core::Embedding survivor;
  std::vector<PathId> duplicate_paths;  ///< the second slice's own paths
  std::map<CellId, PrbCount> survivor_prbs;
  json::Object tampered;
  {
    StoredTestbed live = make_stored_testbed(83, dir.string());
    const SliceId s1 =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0)).slice;
    const SliceId s2 =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 15.0)).slice;
    live.tb->simulator.run_for(Duration::seconds(30.0));
    const core::SliceRecord* first = live.tb->orchestrator->find_slice(s1);
    const core::SliceRecord* second = live.tb->orchestrator->find_slice(s2);
    ASSERT_EQ(first->state, core::SliceState::active);
    ASSERT_EQ(second->state, core::SliceState::active);
    survivor_id = first->id;
    duplicate_id = second->id;
    survivor = first->embedding;
    duplicate_paths = second->embedding.paths;
    survivor_prbs = live.tb->ran.find_allocation(survivor.plmn)->per_cell;

    // A damaged journal re-admits the second slice under one of the
    // first slice's ids.
    json::Object embedding;
    const PlmnId plmn = duplicate_path ? second->embedding.plmn : survivor.plmn;
    const PathId path = duplicate_path ? survivor.paths.front() : second->embedding.paths.front();
    embedding.emplace("plmn", static_cast<double>(plmn.value()));
    embedding.emplace("datacenter", static_cast<double>(second->embedding.datacenter.value()));
    embedding.emplace("paths", json::Array{json::Value(static_cast<double>(path.value()))});
    embedding.emplace("edge_stack", second->embedding.edge_stack.has_value());
    tampered.emplace("op", std::string("admit"));
    tampered.emplace("slice", static_cast<double>(duplicate_id.value()));
    tampered.emplace("reserved_bps", second->reserved.bits_per_second());
    tampered.emplace("activates_at_us",
                     static_cast<double>(live.tb->simulator.now().as_micros() + 1'000'000));
    tampered.emplace("embedding", json::Value(std::move(embedding)));
    tampered.emplace("t_us", static_cast<double>(live.tb->simulator.now().as_micros()));
  }
  {
    store::StateStore raw(store::StoreConfig{.directory = dir.string()});
    ASSERT_TRUE(raw.open().ok());
    ASSERT_TRUE(raw.append(std::move(tampered)).ok());
  }

  StoredTestbed revived = make_stored_testbed(83, dir.string());
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().reinstall_failures, 1u);
  EXPECT_EQ(stats.value().reinstalled, 1u);

  // The survivor still holds its PLMN, PRBs and path.
  const core::Testbed& tb = *revived.tb;
  EXPECT_TRUE(tb.ran.plmn_installed(survivor.plmn));
  const ran::RanAllocation* alloc = tb.ran.find_allocation(survivor.plmn);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(alloc->per_cell, survivor_prbs);
  for (const PathId path : survivor.paths) {
    const transport::PathReservation* reservation = tb.transport->find_path(path);
    ASSERT_NE(reservation, nullptr);
    EXPECT_EQ(reservation->slice, survivor_id);
  }
  EXPECT_NE(tb.epc->find(survivor_id), nullptr);

  // The duplicate is terminated and holds nothing.
  EXPECT_EQ(tb.orchestrator->find_slice(duplicate_id), nullptr);
  EXPECT_EQ(tb.orchestrator->summary().terminated_total, 1u);
  for (const PathId path : duplicate_paths) EXPECT_EQ(tb.transport->find_path(path), nullptr);
  EXPECT_EQ(tb.epc->find(duplicate_id), nullptr);
  EXPECT_EQ(tb.epc->instance_count(), 1u);
  EXPECT_EQ(terminated_stage(*tb.orchestrator, duplicate_id),
            duplicate_path ? "access_leg" : "plmn_install");
}

INSTANTIATE_TEST_SUITE_P(Recovery, DuplicateIdReinstall, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "DuplicatePath" : "DuplicatePlmn");
                         });

// The last stage fails only on recovery: a fresh admission places the
// EPC and the edge service on one host that fits both, but a recovered
// slice keeps its datacenter after the capacity there moved. Every
// earlier stage is released again.
TEST(Recovery, ReinstallFailingAtEdgeStackReleasesEveryEarlierStage) {
  const fs::path dir = fresh_dir("edge_stack");
  SliceId slice;
  std::vector<PathId> paths;
  {
    StoredTestbed live = make_stored_testbed(84, dir.string());
    slice =
        live.tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 12.0, 10.0)).slice;
    live.tb->simulator.run_for(Duration::seconds(30.0));
    const core::SliceRecord* record = live.tb->orchestrator->find_slice(slice);
    ASSERT_EQ(record->state, core::SliceState::active);
    ASSERT_EQ(record->embedding.paths.size(), 2u);
    ASSERT_TRUE(record->embedding.edge_stack.has_value());
    paths = record->embedding.paths;
  }

  // While the orchestrator was down, other tenants took the edge hosts
  // down to 6 free vCPUs each: the EPC (5 vCPUs) still fits, the
  // 8-vCPU edge service no longer does.
  StoredTestbed revived = make_stored_testbed(84, dir.string());
  core::Testbed& tb = *revived.tb;
  cloud::StackTemplate filler;
  filler.name = "filler";
  filler.resources = {{"a", cloud::Flavor{"f", ComputeCapacity{26.0, 1024.0, 10.0}}},
                      {"b", cloud::Flavor{"f", ComputeCapacity{26.0, 1024.0, 10.0}}}};
  ASSERT_TRUE(tb.cloud.create_stack(tb.edge_dc, filler).ok());
  const std::size_t stacks_before = tb.cloud.engine().stack_count();
  std::vector<double> residual_before;
  for (const transport::Link& link : tb.transport->topology().links()) {
    residual_before.push_back(tb.transport->residual(link).bits_per_second());
  }

  const Result<core::RecoveryStats> stats = tb.orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().reinstall_failures, 1u);
  EXPECT_EQ(terminated_stage(*tb.orchestrator, slice), "edge_stack");
  EXPECT_EQ(tb.orchestrator->find_slice(slice), nullptr);
  EXPECT_EQ(tb.orchestrator->summary().terminated_total, 1u);

  EXPECT_EQ(tb.cloud.engine().stack_count(), stacks_before);
  EXPECT_EQ(tb.epc->instance_count(), 0u);
  for (const PathId path : paths) EXPECT_EQ(tb.transport->find_path(path), nullptr);
  std::vector<double> residual_after;
  for (const transport::Link& link : tb.transport->topology().links()) {
    residual_after.push_back(tb.transport->residual(link).bits_per_second());
  }
  EXPECT_EQ(residual_after, residual_before);
  for (const CellId cell : {tb.cell_a, tb.cell_b}) {
    EXPECT_EQ(tb.ran.find_cell(cell)->broadcast_count(), 0u);
    EXPECT_EQ(tb.ran.find_cell(cell)->reserved_prbs().value, 0);
  }
}

TEST(Recovery, AutoSnapshotCadenceCutsSnapshotsDuringOperation) {
  const fs::path dir = fresh_dir("auto_snapshot");
  StoredTestbed live = make_stored_testbed(77, dir.string(), /*snapshot_every=*/4);
  exercise(*live.tb);
  EXPECT_GT(live.store->snapshots_written(), 0u);
  // The journal only holds the short tail since the last snapshot.
  EXPECT_LT(live.store->journal_records(), 4u + 1u);
}

TEST(Recovery, RestEndpointsDriveTheStore) {
  const fs::path dir = fresh_dir("rest");
  StoredTestbed live = make_stored_testbed(78, dir.string());
  live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
  live.tb->simulator.run_for(Duration::seconds(30.0));

  const Result<json::Value> status =
      live.tb->bus.get_json("orchestrator", "/store/status");
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status.value().find("open")->as_bool());
  EXPECT_GT(status.value().find("journal")->find("records")->as_number(), 0.0);

  const Result<json::Value> snap =
      live.tb->bus.call_json("orchestrator", net::Method::post, "/store/snapshot", json::Value(nullptr));
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(snap.value().find("snapshot_seq")->as_number(), 0.0);

  // More journaled life, then a second snapshot at a higher sequence —
  // the first snapshot file becomes compactable.
  live.tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 12.0, 15.0));
  live.tb->simulator.run_for(Duration::seconds(30.0));
  ASSERT_TRUE(
      live.tb->bus.call_json("orchestrator", net::Method::post, "/store/snapshot", json::Value(nullptr)).ok());
  const Result<json::Value> compact =
      live.tb->bus.call_json("orchestrator", net::Method::post, "/store/compact", json::Value(nullptr));
  ASSERT_TRUE(compact.ok());
  EXPECT_GT(compact.value().find("bytes_reclaimed")->as_number(), 0.0);

  // Restoring into an orchestrator that already holds state is refused.
  const Result<json::Value> restore =
      live.tb->bus.call_json("orchestrator", net::Method::post, "/store/restore", json::Value(nullptr));
  ASSERT_FALSE(restore.ok());
  EXPECT_EQ(restore.error().code, Errc::conflict);

  // Without a store attached the endpoints answer 503, not a crash.
  auto bare = core::make_testbed(79);
  const Result<json::Value> none =
      bare->bus.get_json("orchestrator", "/store/status");
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, Errc::unavailable);
}

TEST(Recovery, RestRestoreRebuildsStateOnFreshTestbed) {
  const fs::path dir = fresh_dir("rest_restore");
  std::string before;
  {
    StoredTestbed live = make_stored_testbed(80, dir.string());
    live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
    live.tb->simulator.run_for(Duration::seconds(30.0));
    before = json::serialize(live.tb->orchestrator->state_json());
  }
  StoredTestbed revived = make_stored_testbed(80, dir.string());
  const Result<json::Value> restored =
      revived.tb->bus.call_json("orchestrator", net::Method::post, "/store/restore", json::Value(nullptr));
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(restored.value().find("reinstall_failures")->as_number(), 0.0);
  EXPECT_EQ(json::serialize(revived.tb->orchestrator->state_json()), before);

  const Result<json::Value> status =
      revived.tb->bus.get_json("orchestrator", "/store/status");
  ASSERT_TRUE(status.ok());
  ASSERT_NE(status.value().find("last_recovery"), nullptr);
  EXPECT_DOUBLE_EQ(
      status.value().find("last_recovery")->find("reinstall_failures")->as_number(), 0.0);
}

TEST(Recovery, EveryLifecycleStateRecoversToTheLiveSummaryAndCapacity) {
  // Batched admission, so a request submitted between auctions is still
  // pending when the process dies.
  core::OrchestratorConfig config;
  config.admission_window = Duration::minutes(30.0);
  const fs::path dir = fresh_dir("every_state");
  core::OrchestratorSummary live_summary;
  DataRate live_capacity;
  {
    StoredTestbed live = make_stored_testbed(82, dir.string(), 0, config);
    core::Orchestrator& orch = *live.tb->orchestrator;
    const SliceId active = orch.submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0),
                                       std::make_unique<traffic::ConstantTraffic>(12.0))
                               .slice;
    (void)orch.submit(spec_for(traffic::Vertical::automotive, 1.0, 10.0),
                      std::make_unique<traffic::ConstantTraffic>(9.0));
    const SliceId terminated = orch.submit(spec_for(traffic::Vertical::iot_metering, 6.0, 5.0),
                                           std::make_unique<traffic::ConstantTraffic>(2.0))
                                   .slice;
    // Batched: every verdict is pending until the auction.
    ASSERT_EQ(orch.submit(spec_for(traffic::Vertical::embb_video, 1.0, 1e6)).state,
              core::SliceState::pending);
    live.tb->simulator.run_for(Duration::minutes(40.0));  // one auction
    ASSERT_TRUE(orch.terminate(terminated).ok());
    live.tb->simulator.run_for(Duration::hours(3.0));  // 3h40: between auctions
    const core::SubmitVerdict pending =
        orch.submit(spec_for(traffic::Vertical::automotive, 2.0, 10.0));
    ASSERT_EQ(pending.state, core::SliceState::pending);

    // Two open records; the expired, terminated and rejected slices
    // left their counts in the totals.
    ASSERT_EQ(orch.slices().size(), 2u);
    ASSERT_EQ(orch.find_slice(active)->state, core::SliceState::active);
    ASSERT_EQ(orch.find_slice(pending.slice)->state, core::SliceState::pending);
    live_summary = orch.summary();
    ASSERT_EQ(live_summary.expired_total, 1u);
    ASSERT_EQ(live_summary.terminated_total, 1u);
    ASSERT_EQ(live_summary.rejected_total, 1u);
    live_capacity = orch.sellable_capacity();
  }

  StoredTestbed revived = make_stored_testbed(82, dir.string(), 0, config);
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_TRUE(stats.ok());
  // The five requests: two open records recovered, three closed ones
  // counted in the totals below.
  EXPECT_EQ(stats.value().records_recovered, 2u);
  EXPECT_EQ(stats.value().reinstall_failures, 0u);
  const core::OrchestratorSummary s = revived.tb->orchestrator->summary();
  EXPECT_EQ(s.active_slices, live_summary.active_slices);
  EXPECT_EQ(s.installing_slices, live_summary.installing_slices);
  EXPECT_EQ(s.admitted_total, live_summary.admitted_total);
  EXPECT_EQ(s.rejected_total, live_summary.rejected_total);
  EXPECT_EQ(s.contracted_total, live_summary.contracted_total);
  EXPECT_EQ(s.reserved_total, live_summary.reserved_total);
  EXPECT_EQ(s.multiplexing_gain, live_summary.multiplexing_gain);
  EXPECT_EQ(s.earned, live_summary.earned);
  EXPECT_EQ(s.penalties, live_summary.penalties);
  EXPECT_EQ(s.net, live_summary.net);
  EXPECT_EQ(s.violation_epochs, live_summary.violation_epochs);
  EXPECT_EQ(s.reconfigurations, live_summary.reconfigurations);
  EXPECT_EQ(s.expired_total, live_summary.expired_total);
  EXPECT_EQ(s.terminated_total, live_summary.terminated_total);
  EXPECT_EQ(s.served_epochs, live_summary.served_epochs);
  EXPECT_EQ(revived.tb->orchestrator->sellable_capacity(), live_capacity);
}

// The highest ids belong to closed slices — one closed before the
// snapshot, one rejected in the journal tail after it — so no open
// record names them. Recovery must still never hand them out again.
TEST(Recovery, ClosedSlicesIdsAreNotReusedAfterRecovery) {
  const fs::path dir = fresh_dir("id_reuse");
  core::SubmitVerdict rejected;
  {
    StoredTestbed live = make_stored_testbed(85, dir.string());
    core::Orchestrator& orch = *live.tb->orchestrator;
    (void)orch.submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
    const SliceId ended = orch.submit(spec_for(traffic::Vertical::iot_metering, 6.0, 5.0)).slice;
    live.tb->simulator.run_for(Duration::seconds(30.0));
    ASSERT_TRUE(orch.terminate(ended).ok());
    ASSERT_TRUE(orch.snapshot_now().ok());
    rejected = orch.submit(spec_for(traffic::Vertical::embb_video, 1.0, 1e6));
    ASSERT_EQ(rejected.state, core::SliceState::rejected);
    ASSERT_EQ(orch.slices().size(), 1u);
    ASSERT_LT(orch.slices().begin()->first, ended);
  }

  core::SubmitVerdict fresh;
  {
    StoredTestbed revived = make_stored_testbed(85, dir.string());
    core::Orchestrator& orch = *revived.tb->orchestrator;
    const Result<core::RecoveryStats> stats = orch.recover_from_store();
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().had_snapshot);
    EXPECT_EQ(stats.value().records_recovered, 1u);
    fresh = orch.submit(spec_for(traffic::Vertical::iot_metering, 2.0, 5.0));
    EXPECT_EQ(fresh.slice, SliceId{rejected.slice.value() + 1});
    EXPECT_EQ(fresh.request, RequestId{rejected.request.value() + 1});
    // Close it too and cut a snapshot with an empty tail: now only the
    // snapshot's allocators know the highest ids.
    ASSERT_TRUE(orch.terminate(fresh.slice).ok());
    ASSERT_TRUE(orch.snapshot_now().ok());
  }

  StoredTestbed again = make_stored_testbed(85, dir.string());
  ASSERT_TRUE(again.tb->orchestrator->recover_from_store().ok());
  const core::SubmitVerdict next =
      again.tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 2.0, 5.0));
  EXPECT_EQ(next.slice, SliceId{fresh.slice.value() + 1});
  EXPECT_EQ(next.request, RequestId{fresh.request.value() + 1});
}

// A snapshot in the layout that kept closed records has no id
// allocators: recovery refuses it instead of loading closed records as
// open ones.
TEST(Recovery, SnapshotWithoutIdAllocatorsIsNotRead) {
  const fs::path dir = fresh_dir("old_layout");
  {
    StoredTestbed live = make_stored_testbed(86, dir.string());
    (void)live.tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
    json::Value state = live.tb->orchestrator->state_json();
    state.as_object().erase("next_slice");
    state.as_object().erase("next_request");
    json::Object wrapped;
    wrapped.emplace("t_us", 0.0);
    wrapped.emplace("data", std::move(state));
    ASSERT_TRUE(live.store->write_snapshot(json::Value{std::move(wrapped)}).ok());
  }
  StoredTestbed revived = make_stored_testbed(86, dir.string());
  const Result<core::RecoveryStats> stats = revived.tb->orchestrator->recover_from_store();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, Errc::invalid_argument);
  EXPECT_TRUE(revived.tb->orchestrator->slices().empty());
}

// A damaged snapshot whose allocators lag behind its own open records:
// recovery still keeps the allocators past every restored id, so the
// next submit never draws a live slice's id.
TEST(Recovery, LaggingSnapshotAllocatorsStayPastRestoredRecords) {
  const fs::path dir = fresh_dir("lagging_ids");
  core::SubmitVerdict second;
  {
    StoredTestbed live = make_stored_testbed(87, dir.string());
    core::Orchestrator& orch = *live.tb->orchestrator;
    (void)orch.submit(spec_for(traffic::Vertical::embb_video, 24.0, 30.0));
    second = orch.submit(spec_for(traffic::Vertical::iot_metering, 24.0, 5.0));
    ASSERT_EQ(orch.slices().size(), 2u);
    json::Value state = orch.state_json();
    state.as_object().insert_or_assign("next_slice", 1.0);
    state.as_object().insert_or_assign("next_request", 1.0);
    json::Object wrapped;
    wrapped.emplace("t_us", 0.0);
    wrapped.emplace("data", std::move(state));
    ASSERT_TRUE(live.store->write_snapshot(json::Value{std::move(wrapped)}).ok());
  }
  StoredTestbed revived = make_stored_testbed(87, dir.string());
  core::Orchestrator& orch = *revived.tb->orchestrator;
  ASSERT_TRUE(orch.recover_from_store().ok());
  ASSERT_EQ(orch.slices().size(), 2u);
  const core::SubmitVerdict next = orch.submit(spec_for(traffic::Vertical::iot_metering, 2.0, 5.0));
  EXPECT_EQ(next.slice, SliceId{second.slice.value() + 1});
  EXPECT_EQ(next.request, RequestId{second.request.value() + 1});
  EXPECT_EQ(orch.slices().size(), 3u);
}

TEST(Recovery, WithoutStoreAttachedRecoveryIsUnavailable) {
  auto tb = core::make_testbed(81);
  const Result<core::RecoveryStats> stats = tb->orchestrator->recover_from_store();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, Errc::unavailable);
}

}  // namespace
}  // namespace slices
