// End-to-end tests of the orchestrator on the Fig. 2 testbed: admission,
// multi-domain embedding with rollback, lifecycle, overbooking effects,
// SLA accounting and the dashboard REST API.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/testbed.hpp"
#include "traffic/model.hpp"
#include "traffic/verticals.hpp"

namespace slices::core {
namespace {

SliceSpec spec_for(traffic::Vertical v, double hours) {
  return SliceSpec::from_profile(traffic::profile_for(v), Duration::hours(hours));
}

std::unique_ptr<traffic::TrafficModel> workload_for(traffic::Vertical v, std::uint64_t seed) {
  return traffic::make_traffic(v, Rng(seed));
}

TEST(Orchestrator, AdmitInstallActivateExpireLifecycle) {
  auto tb = make_testbed(1);
  const SubmitVerdict verdict = tb->orchestrator->submit(
      spec_for(traffic::Vertical::embb_video, 2.0),
      workload_for(traffic::Vertical::embb_video, 7));
  EXPECT_EQ(verdict.state, SliceState::installing);

  const SliceRecord* record = tb->orchestrator->find_slice(verdict.slice);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->state, SliceState::installing);
  const Embedding embedding = record->embedding;  // the record goes when it expires

  // Domains are configured immediately; the slice is serving only after
  // the install timeline elapses.
  EXPECT_TRUE(tb->ran.plmn_installed(record->embedding.plmn));
  EXPECT_NE(tb->ran.find_allocation(record->embedding.plmn), nullptr);
  ASSERT_EQ(record->embedding.paths.size(), 1u);
  EXPECT_NE(tb->transport->find_path(record->embedding.paths.front()), nullptr);
  EXPECT_NE(tb->epc->find(record->id), nullptr);

  tb->simulator.run_for(Duration::seconds(30.0));
  EXPECT_EQ(record->state, SliceState::active);
  EXPECT_EQ(tb->epc->find(record->id)->state, epc::EpcState::active);

  // Runs to expiry; everything is released and the record leaves.
  tb->simulator.run_for(Duration::hours(3.0));
  EXPECT_EQ(tb->orchestrator->find_slice(verdict.slice), nullptr);
  EXPECT_TRUE(tb->orchestrator->slices().empty());
  EXPECT_EQ(tb->orchestrator->summary().expired_total, 1u);
  EXPECT_FALSE(tb->ran.plmn_installed(embedding.plmn));
  EXPECT_EQ(tb->epc->find(verdict.slice), nullptr);
  EXPECT_EQ(tb->ran.find_cell(tb->cell_a)->reserved_prbs().value, 0);
  EXPECT_EQ(tb->transport->flow_table().size(), 0u);
}

TEST(Orchestrator, InstallTimelineMatchesDemoScale) {
  auto tb = make_testbed(2);
  (void)tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 1.0));
  const InstallTimeline timeline = tb->orchestrator->last_install_timeline();
  // "After few seconds" — dominated by the EPC stack deployment.
  EXPECT_GT(timeline.total(), Duration::seconds(5.0));
  EXPECT_LT(timeline.total(), Duration::seconds(60.0));
  EXPECT_GT(timeline.epc_deploy, timeline.plmn_install);
  EXPECT_GT(timeline.epc_deploy, timeline.path_setup);
}

TEST(Orchestrator, RejectsWhenRadioExhaustedAndRollsBackCleanly) {
  OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = make_testbed(3, config);

  // Fill the RAN: each 20 MHz cell at CQI 10 carries ~41 Mb/s.
  const double total = tb->ran.total_capacity().as_mbps();
  SliceSpec big = spec_for(traffic::Vertical::embb_video, 4.0);
  big.expected_throughput = DataRate::mbps(total * 0.7);
  ASSERT_EQ(tb->orchestrator->submit(big).state, SliceState::installing);

  const std::size_t stacks_before = tb->cloud.engine().stack_count();
  const int prbs_before = tb->ran.find_cell(tb->cell_a)->reserved_prbs().value +
                          tb->ran.find_cell(tb->cell_b)->reserved_prbs().value;

  SliceSpec second = spec_for(traffic::Vertical::embb_video, 4.0);
  second.expected_throughput = DataRate::mbps(total * 0.7);
  const SubmitVerdict rejected = tb->orchestrator->submit(second);
  EXPECT_EQ(rejected.state, SliceState::rejected);
  EXPECT_EQ(tb->orchestrator->find_slice(rejected.slice), nullptr);

  // Rollback: no partial state left anywhere.
  EXPECT_EQ(tb->cloud.engine().stack_count(), stacks_before);
  EXPECT_EQ(tb->ran.find_cell(tb->cell_a)->reserved_prbs().value +
                tb->ran.find_cell(tb->cell_b)->reserved_prbs().value,
            prbs_before);
  const OrchestratorSummary summary = tb->orchestrator->summary();
  EXPECT_EQ(summary.admitted_total, 1u);
  EXPECT_EQ(summary.rejected_total, 1u);
}

// --- Rollback per embedding stage -------------------------------------------
//
// A failure at any stage after the PLMN install must leave the substrate
// exactly as it was before the request, consume the request's PLMN code
// (the next admission gets the one after) and name the failing stage in
// the slice_rejected audit. A fresh admission cannot fail at the edge
// stack: placement only picks a datacenter with one host that fits the
// EPC and the edge service together. recovery_test covers that stage.

/// Everything an embedding touches, for before/after comparison.
struct Substrate {
  std::vector<std::vector<PlmnId>> broadcast;  ///< installed PLMNs, per cell
  std::vector<int> reserved_prbs;              ///< per cell
  std::vector<double> residual_bps;            ///< per link
  std::size_t flows = 0;                       ///< installed flow rules
  std::size_t stacks = 0;
  std::size_t epcs = 0;

  bool operator==(const Substrate&) const = default;
};

Substrate substrate_of(const Testbed& tb) {
  Substrate out;
  for (const CellId cell : {tb.cell_a, tb.cell_b}) {
    const ran::Cell& on_air = *tb.ran.find_cell(cell);
    std::vector<PlmnId>& list = out.broadcast.emplace_back();
    for (std::size_t i = 0; i < on_air.broadcast_count(); ++i) list.push_back(on_air.broadcast_at(i));
    out.reserved_prbs.push_back(tb.ran.find_cell(cell)->reserved_prbs().value);
  }
  for (const transport::Link& link : tb.transport->topology().links()) {
    out.residual_bps.push_back(tb.transport->residual(link).bits_per_second());
  }
  out.flows = tb.transport->flow_table().size();
  out.stacks = tb.cloud.engine().stack_count();
  out.epcs = tb.epc->instance_count();
  return out;
}

struct StageFault {
  EmbedStage stage;
  /// Break the testbed or the request so that embedding `slice` fails
  /// at `stage`; undone by `clear` (may be null).
  void (*inject)(Testbed& tb, SliceSpec& spec, SliceId slice);
  void (*clear)(Testbed& tb);
};

void PrintTo(const StageFault& fault, std::ostream* os) { *os << to_string(fault.stage); }

class StageRollback : public ::testing::TestWithParam<StageFault> {};

TEST_P(StageRollback, FailureLeavesSubstrateUntouched) {
  const StageFault& fault = GetParam();
  OrchestratorConfig config;
  // No edge-to-core path meets this bound: every breakout leg fails.
  // The core-placed eMBB requests below never need one.
  config.breakout_delay_bound = Duration::micros(1);
  auto tb = make_testbed(31, config);

  // A mostly idle background slice that overbooking has shrunk.
  SliceSpec idle = spec_for(traffic::Vertical::embb_video, 24.0);
  idle.expected_throughput = DataRate::mbps(30.0);
  const SliceRecord* background = tb->orchestrator->find_slice(
      tb->orchestrator->submit(idle, std::make_unique<traffic::ConstantTraffic>(2.0)).slice);
  tb->simulator.run_for(Duration::hours(6.0));
  ASSERT_EQ(background->state, SliceState::active);
  ASSERT_LT(background->reserved, background->spec.expected_throughput);
  const SliceId request_slice{background->id.value() + 1};

  SliceSpec small = spec_for(traffic::Vertical::embb_video, 4.0);
  small.expected_throughput = DataRate::mbps(10.0);

  SliceSpec failing = small;
  fault.inject(*tb, failing, request_slice);
  const Substrate before = substrate_of(*tb);

  const SubmitVerdict rejected = tb->orchestrator->submit(failing);
  ASSERT_EQ(rejected.slice, request_slice);
  EXPECT_EQ(rejected.state, SliceState::rejected);
  EXPECT_EQ(tb->orchestrator->find_slice(request_slice), nullptr);
  EXPECT_EQ(tb->orchestrator->summary().rejected_total, 1u);
  EXPECT_EQ(substrate_of(*tb), before);

  const Event* verdict = nullptr;
  for (const Event& event : tb->orchestrator->events().after(0)) {
    if (event.slice == request_slice) verdict = &event;
  }
  ASSERT_NE(verdict, nullptr);
  ASSERT_EQ(verdict->kind, EventKind::slice_rejected);
  const json::Object fields = verdict->fields();
  ASSERT_TRUE(fields.contains("stage"));
  EXPECT_EQ(fields.at("stage").as_string(), to_string(fault.stage));
  EXPECT_EQ(fields.at("reason").as_string(), verdict->detail());

  // The rejected request consumed its PLMN code.
  if (fault.clear != nullptr) fault.clear(*tb);
  const SubmitVerdict next = tb->orchestrator->submit(small);
  ASSERT_EQ(next.state, SliceState::installing);
  EXPECT_EQ(tb->orchestrator->find_slice(next.slice)->embedding.plmn.value(),
            background->embedding.plmn.value() + 2);
}

void set_dcs_available(Testbed& tb, bool available) {
  ASSERT_TRUE(tb.cloud.set_datacenter_available(tb.edge_dc, available).ok());
  ASSERT_TRUE(tb.cloud.set_datacenter_available(tb.core_dc, available).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Stages, StageRollback,
    ::testing::Values(
        StageFault{EmbedStage::prb_allocation,
                   [](Testbed& tb, SliceSpec& spec, SliceId) {
                     // Sellable capacity counts the background slice's
                     // reclaimable contract on top of the radio headroom
                     // its shrink already freed: a request between the
                     // two passes the policy and fails at the PRBs.
                     const double sellable = tb.orchestrator->sellable_capacity().as_mbps();
                     ASSERT_GT(sellable - tb.ran.available_capacity().as_mbps(), 2.0);
                     spec.expected_throughput = DataRate::mbps(std::floor(sellable) - 1.0);
                   },
                   nullptr},
        StageFault{EmbedStage::placement,
                   [](Testbed& tb, SliceSpec&, SliceId) { set_dcs_available(tb, false); },
                   [](Testbed& tb) { set_dcs_available(tb, true); }},
        StageFault{EmbedStage::access_leg,
                   [](Testbed&, SliceSpec& spec, SliceId) {
                     spec.max_latency = Duration::micros(1);
                   },
                   nullptr},
        StageFault{EmbedStage::breakout_leg,
                   [](Testbed&, SliceSpec& spec, SliceId) {
                     spec = spec_for(traffic::Vertical::automotive, 4.0);
                   },
                   nullptr},
        StageFault{EmbedStage::epc_deploy,
                   [](Testbed& tb, SliceSpec&, SliceId slice) {
                     // A stale EPC instance already holds the slice's id.
                     ASSERT_TRUE(tb.epc->deploy(slice, tb.core_dc, DataRate::mbps(1.0)).ok());
                   },
                   nullptr}),
    [](const ::testing::TestParamInfo<StageFault>& info) {
      return std::string(to_string(info.param.stage));
    });

TEST(Orchestrator, EdgeRequirementRejectsWhenEdgeFull) {
  auto tb = make_testbed(4);
  // Exhaust the edge DC (64 vCPUs over two 32-vCPU hosts).
  cloud::StackTemplate filler;
  filler.name = "filler";
  filler.resources = {{"a", cloud::Flavor{"f", ComputeCapacity{30.0, 1024.0, 10.0}}},
                      {"b", cloud::Flavor{"f", ComputeCapacity{30.0, 1024.0, 10.0}}}};
  ASSERT_TRUE(tb->cloud.create_stack(tb->edge_dc, filler).ok());

  // Automotive requires the edge; it must be rejected now.
  EXPECT_EQ(tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 2.0)).state,
            SliceState::rejected);

  // A core-eligible vertical still gets in.
  EXPECT_EQ(tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 2.0)).state,
            SliceState::installing);
}

TEST(Orchestrator, LatencyBoundSelectsDatacenterAndPath) {
  auto tb = make_testbed(5);
  const SliceRecord* record = tb->orchestrator->find_slice(
      tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 2.0)).slice);
  ASSERT_EQ(record->state, SliceState::installing);
  EXPECT_EQ(record->embedding.datacenter, tb->edge_dc);
  const transport::PathReservation* path =
      tb->transport->find_path(record->embedding.paths.front());
  ASSERT_NE(path, nullptr);
  EXPECT_LE(path->route.total_delay, record->spec.max_latency);
}

TEST(Orchestrator, EdgePlacementGetsBreakoutLeg) {
  auto tb = make_testbed(17);
  // Automotive requires the edge -> two transport legs: access at the
  // contract rate, breakout to the core at the configured fraction.
  const SliceRecord* record = tb->orchestrator->find_slice(
      tb->orchestrator->submit(spec_for(traffic::Vertical::automotive, 2.0)).slice);
  ASSERT_EQ(record->state, SliceState::installing);
  ASSERT_EQ(record->embedding.paths.size(), 2u);

  const transport::PathReservation* access =
      tb->transport->find_path(record->embedding.paths[0]);
  const transport::PathReservation* breakout =
      tb->transport->find_path(record->embedding.paths[1]);
  ASSERT_NE(access, nullptr);
  ASSERT_NE(breakout, nullptr);
  EXPECT_EQ(access->dst, tb->edge_gateway);
  EXPECT_EQ(breakout->src, tb->edge_gateway);
  EXPECT_EQ(breakout->dst, tb->core_gateway);
  EXPECT_DOUBLE_EQ(access->reserved.as_mbps(), record->spec.expected_throughput.as_mbps());
  EXPECT_DOUBLE_EQ(
      breakout->reserved.as_mbps(),
      record->spec.expected_throughput.as_mbps() *
          tb->orchestrator->config().edge_breakout_fraction);

  // Core placements keep a single leg.
  const SliceId core_slice =
      tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 2.0)).slice;
  EXPECT_EQ(tb->orchestrator->find_slice(core_slice)->embedding.paths.size(), 1u);

  // Teardown releases both legs.
  const std::vector<PathId> edge_paths = record->embedding.paths;
  ASSERT_TRUE(tb->orchestrator->terminate(record->id).ok());
  for (const PathId path : edge_paths) EXPECT_EQ(tb->transport->find_path(path), nullptr);
}

TEST(Orchestrator, TerminateReleasesEarly) {
  auto tb = make_testbed(6);
  const SliceId slice = tb->orchestrator
                            ->submit(spec_for(traffic::Vertical::embb_video, 10.0),
                                     workload_for(traffic::Vertical::embb_video, 3))
                            .slice;
  tb->simulator.run_for(Duration::minutes(60.0));
  ASSERT_EQ(tb->orchestrator->find_slice(slice)->state, SliceState::active);

  ASSERT_TRUE(tb->orchestrator->terminate(slice).ok());
  EXPECT_EQ(tb->orchestrator->find_slice(slice), nullptr);
  EXPECT_EQ(tb->orchestrator->summary().terminated_total, 1u);
  EXPECT_EQ(tb->epc->find(slice), nullptr);
  EXPECT_EQ(tb->ran.find_cell(tb->cell_a)->reserved_prbs().value, 0);
  // A closed slice is gone: a second teardown finds nothing.
  EXPECT_EQ(tb->orchestrator->terminate(slice).error().code, Errc::not_found);
  EXPECT_EQ(tb->orchestrator->terminate(SliceId{999}).error().code, Errc::not_found);
}

TEST(Orchestrator, OverbookingShrinksReservationsOfIdleSlices) {
  OrchestratorConfig config;
  config.overbooking.warmup_observations = 4;
  auto tb = make_testbed(7, config);

  // A slice that contracts 60 Mb/s but offers ~6.
  SliceSpec spec = spec_for(traffic::Vertical::embb_video, 48.0);
  const SliceRecord* record = tb->orchestrator->find_slice(
      tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(6.0)).slice);
  ASSERT_EQ(record->state, SliceState::installing);

  tb->simulator.run_for(Duration::hours(8.0));
  ASSERT_EQ(record->state, SliceState::active);
  EXPECT_LT(record->reserved, record->spec.expected_throughput * 0.5);
  EXPECT_GT(tb->orchestrator->summary().multiplexing_gain, 1.5);
}

TEST(Orchestrator, ParallelEpochServingMatchesSingleThreaded) {
  // Same scenario at epoch_threads 1 and 4 — the pooled epoch path must
  // produce bit-identical aggregates (the contract determinism_test pins
  // network-wide; this is the orchestrator-level spot check, and the
  // scenario TSan runs to race-check the sharded serving).
  const auto run = [](std::size_t threads) {
    OrchestratorConfig config;
    config.overbooking.warmup_observations = 4;
    config.epoch_threads = threads;
    auto tb = make_testbed(11, config);
    for (std::uint64_t i = 0; i < 3; ++i) {
      SliceSpec spec = spec_for(traffic::Vertical::embb_video, 24.0);
      spec.expected_throughput = DataRate::mbps(10.0);
      (void)tb->orchestrator->submit(
          spec, workload_for(traffic::Vertical::embb_video, 100 + i));
      tb->simulator.run_for(Duration::hours(1.0));
    }
    tb->simulator.run_for(Duration::hours(12.0));
    return tb->orchestrator->summary();
  };

  const OrchestratorSummary solo = run(1);
  const OrchestratorSummary pooled = run(4);
  EXPECT_EQ(solo.active_slices, pooled.active_slices);
  EXPECT_EQ(solo.admitted_total, pooled.admitted_total);
  EXPECT_EQ(solo.reserved_total, pooled.reserved_total);
  EXPECT_EQ(solo.earned, pooled.earned);
  EXPECT_EQ(solo.penalties, pooled.penalties);
  EXPECT_EQ(solo.violation_epochs, pooled.violation_epochs);
  EXPECT_EQ(solo.reconfigurations, pooled.reconfigurations);
}

TEST(Orchestrator, OverbookingAdmitsMoreSlicesThanPeakReservation) {
  const auto count_admitted = [](bool overbooking) {
    OrchestratorConfig config;
    config.overbooking.enabled = overbooking;
    config.overbooking.warmup_observations = 4;
    auto tb = make_testbed(8, config);

    // Lightly loaded long-lived slices contracting most of the RAN.
    std::size_t admitted = 0;
    for (int i = 0; i < 8; ++i) {
      SliceSpec spec = spec_for(traffic::Vertical::embb_video, 72.0);
      spec.expected_throughput = DataRate::mbps(20.0);
      if (tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(2.0))
              .state != SliceState::rejected) {
        ++admitted;
      }
      // Give the broker time to learn before the next request arrives.
      tb->simulator.run_for(Duration::hours(3.0));
    }
    return admitted;
  };

  const std::size_t with_ob = count_admitted(true);
  const std::size_t without_ob = count_admitted(false);
  EXPECT_GT(with_ob, without_ob);
  // With overbooking the radio is no longer binding; the MOCN broadcast
  // list (6 PLMNs per cell, the slice<->PLMN mapping of the demo) is.
  EXPECT_EQ(with_ob, 6u);
  // Without overbooking the ~69 Mb/s RAN fits only three 20 Mb/s peaks.
  EXPECT_EQ(without_ob, 3u);
}

TEST(Orchestrator, SlaViolationsAreChargedWhenDemandExceedsService) {
  OrchestratorConfig config;
  // Aggressive overbooking with zero safety to force violations.
  config.overbooking.risk_quantile = 0.0;
  config.overbooking.floor_fraction = 0.01;
  config.overbooking.warmup_observations = 4;
  config.overbooking.headroom = 1.0;
  auto tb = make_testbed(9, config);

  // Bursty e-health traffic is unforecastable: quiet then spiking.
  const SliceRecord* record =
      tb->orchestrator->find_slice(tb->orchestrator
                                       ->submit(spec_for(traffic::Vertical::ehealth, 48.0),
                                                workload_for(traffic::Vertical::ehealth, 17))
                                       .slice);
  ASSERT_EQ(record->state, SliceState::installing);

  tb->simulator.run_for(Duration::hours(47.0));
  const OrchestratorSummary summary = tb->orchestrator->summary();
  EXPECT_GT(summary.violation_epochs, 0u);
  EXPECT_GT(summary.penalties, Money::zero());
  EXPECT_EQ(summary.penalties,
            record->spec.penalty_per_violation * static_cast<double>(summary.violation_epochs));
  // The demo's economics: gains should still dominate penalties here.
  EXPECT_GT(summary.net, Money::zero());
}

TEST(Orchestrator, RevenueAccruesPerActiveHour) {
  auto tb = make_testbed(10);
  SliceSpec spec = spec_for(traffic::Vertical::iot_metering, 4.0);
  const SliceId slice =
      tb->orchestrator->submit(spec, workload_for(traffic::Vertical::iot_metering, 5)).slice;
  tb->simulator.run_for(Duration::hours(6.0));
  const OrchestratorSummary summary = tb->orchestrator->summary();
  ASSERT_EQ(summary.expired_total, 1u);
  // The expired slice's ledger entry is gone; the totals keep its books.
  EXPECT_EQ(tb->orchestrator->ledger().find(slice), nullptr);
  // ~4 h at the profile price, +- one epoch of accrual skew.
  const double expected = traffic::profile_for(traffic::Vertical::iot_metering).price_per_hour * 4.0;
  EXPECT_NEAR(summary.earned.as_units(), expected, expected * 0.10);
}

TEST(Orchestrator, RestDashboardApi) {
  auto tb = make_testbed(11);

  // Submit through the REST facade, exactly like the demo dashboard.
  json::Value request;
  request["vertical"] = "ehealth";
  request["duration_hours"] = 2.0;
  request["price_per_hour"] = 99.0;
  const Result<json::Value> created =
      tb->bus.call_json("orchestrator", net::Method::post, "/slices", request);
  ASSERT_TRUE(created.ok()) << created.error().message;
  EXPECT_EQ(created.value().find("state")->as_string(), "installing");
  const auto slice_id =
      static_cast<std::uint64_t>(created.value().find("slice")->as_number());

  const Result<json::Value> listed = tb->bus.get_json("orchestrator", "/slices");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().find("slices")->as_array().size(), 1u);

  const Result<json::Value> one =
      tb->bus.get_json("orchestrator", "/slices/" + std::to_string(slice_id));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().find("vertical")->as_string(), "ehealth");
  EXPECT_DOUBLE_EQ(one.value().find("contracted_mbps")->as_number(), 10.0);

  const Result<json::Value> report = tb->bus.get_json("orchestrator", "/report");
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report.value().find("admitted_total")->as_number(), 1.0);

  // Terminate over REST; the closed slice is no longer listed.
  ASSERT_TRUE(tb->bus.call_json("orchestrator", net::Method::del,
                                "/slices/" + std::to_string(slice_id),
                                json::Value(nullptr)).ok());
  EXPECT_EQ(tb->bus.get_json("orchestrator", "/slices/" + std::to_string(slice_id))
                .error()
                .code,
            Errc::not_found);

  // Unknown vertical and unknown slice produce proper errors.
  json::Value bad;
  bad["vertical"] = "underwater-basket-weaving";
  bad["duration_hours"] = 1.0;
  EXPECT_FALSE(tb->bus.call_json("orchestrator", net::Method::post, "/slices", bad).ok());
  EXPECT_FALSE(tb->bus.get_json("orchestrator", "/slices/424242").ok());
}

TEST(Orchestrator, RejectedSubmissionReturns409OverRest) {
  OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = make_testbed(12, config);

  json::Value request;
  request["vertical"] = "embb_video";
  request["duration_hours"] = 2.0;
  request["throughput_mbps"] = 100000.0;  // impossible
  const Result<net::Response> resp = tb->bus.call(
      "orchestrator", net::Request{net::Method::post, "/slices", {}, json::serialize(request)});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, net::Status::conflict);
  // The verdict names the rejected request, whose record is already gone.
  const Result<json::Value> body = json::parse(resp.value().body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().find("state")->as_string(), "rejected");
  const auto slice = static_cast<std::uint64_t>(body.value().find("slice")->as_number());
  EXPECT_EQ(tb->orchestrator->find_slice(SliceId{slice}), nullptr);
  EXPECT_EQ(tb->orchestrator->summary().rejected_total, 1u);
}

TEST(Orchestrator, RestSliceRoutesAnswerForOpenSlices) {
  auto tb = make_testbed(23);
  const SliceId open = tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 8.0)).slice;
  const SliceId ended =
      tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 8.0)).slice;
  SliceSpec impossible = spec_for(traffic::Vertical::embb_video, 8.0);
  impossible.expected_throughput = DataRate::mbps(100000.0);
  const SliceId rejected = tb->orchestrator->submit(impossible).slice;
  tb->simulator.run_for(Duration::minutes(30.0));
  ASSERT_TRUE(tb->orchestrator->terminate(ended).ok());
  const auto path = [](SliceId slice, const char* suffix = "") {
    return "/slices/" + std::to_string(slice.value()) + suffix;
  };

  // GET /slices lists the open records only.
  const Result<json::Value> listed = tb->bus.get_json("orchestrator", "/slices");
  ASSERT_TRUE(listed.ok());
  const json::Array& rows = listed.value().find("slices")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows.front().find("slice")->as_number(), static_cast<double>(open.value()));
  EXPECT_EQ(rows.front().find("state")->as_string(), "active");

  // GET /slices/{id} answers 404 once a slice closed.
  EXPECT_TRUE(tb->bus.get_json("orchestrator", path(open)).ok());
  for (const SliceId closed : {ended, rejected}) {
    const Result<json::Value> one = tb->bus.get_json("orchestrator", path(closed));
    ASSERT_FALSE(one.ok());
    EXPECT_EQ(one.error().code, Errc::not_found);
  }

  // The audit of an open slice carries its state and history.
  const Result<json::Value> live = tb->bus.get_json("orchestrator", path(open, "/audit"));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().find("state")->as_string(), "active");
  const json::Array& live_events = live.value().find("events")->as_array();
  ASSERT_FALSE(live_events.empty());
  EXPECT_EQ(live_events.back().find("kind")->as_string(), "slice_active");

  // A closed slice's audit is answered from the event ring.
  const Result<json::Value> gone = tb->bus.get_json("orchestrator", path(ended, "/audit"));
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().find("state")->as_string(), "closed");
  const json::Array& trail = gone.value().find("events")->as_array();
  ASSERT_GE(trail.size(), 4u);  // submitted, admitted, active, ..., terminated
  EXPECT_EQ(trail.front().find("kind")->as_string(), "request_submitted");
  EXPECT_EQ(trail.back().find("kind")->as_string(), "slice_terminated");

  // An id no slice ever had: 404 (as for a closed slice whose events
  // left the ring).
  const Result<json::Value> unknown =
      tb->bus.get_json("orchestrator", path(SliceId{424242}, "/audit"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, Errc::not_found);
}

/// Every instrument name in a domain's /metrics document.
std::set<std::string> metric_keys(Testbed& tb, const char* domain) {
  const Result<json::Value> doc = tb.bus.get_json(domain, "/metrics");
  EXPECT_TRUE(doc.ok()) << domain;
  std::set<std::string> keys;
  if (!doc.ok()) return keys;
  for (const char* kind : {"counters", "gauges", "histograms", "series"}) {
    const json::Value* section = doc.value().find(kind);
    if (section == nullptr || !section->is_object()) continue;
    for (const auto& [name, unused] : section->as_object()) keys.insert(name);
  }
  return keys;
}

bool has_key_with_prefix(const telemetry::MonitorRegistry& registry, const std::string& prefix) {
  const json::Value snap = registry.snapshot(prefix);
  for (const auto& [kind, section] : snap.as_object()) {
    if (!section.as_object().empty()) return true;
  }
  return false;
}

TEST(Orchestrator, MonitoringPollsDomainsOverRest) {
  auto tb = make_testbed(13);
  const SliceId slice = tb->orchestrator
                            ->submit(spec_for(traffic::Vertical::embb_video, 4.0),
                                     workload_for(traffic::Vertical::embb_video, 1))
                            .slice;
  tb->simulator.run_for(Duration::hours(1.0));
  const SliceRecord* record = tb->orchestrator->find_slice(slice);
  ASSERT_EQ(record->state, SliceState::active);
  // The epochs read the serve reports in-process: nothing polled the
  // domains over the bus.
  for (const auto& [service, stats] : tb->bus.stats()) EXPECT_EQ(stats.requests, 0u) << service;

  // An operator's GET /metrics on each domain sees what the epochs
  // recorded for this slice.
  const auto has_prefix = [](const std::set<std::string>& keys, const std::string& prefix) {
    const auto it = keys.lower_bound(prefix);
    return it != keys.end() && it->starts_with(prefix);
  };
  EXPECT_TRUE(has_prefix(metric_keys(*tb, "ran"),
                         "ran.plmn." + std::to_string(record->embedding.plmn.value()) + "."));
  EXPECT_TRUE(has_prefix(
      metric_keys(*tb, "transport"),
      "transport.path." + std::to_string(record->embedding.paths.front().value()) + "."));
  EXPECT_TRUE(metric_keys(*tb, "cloud").contains(
      "cloud.dc." + std::to_string(record->embedding.datacenter.value()) + ".vcpu_used"));
  for (const char* domain : {"ran", "transport", "cloud"}) {
    EXPECT_EQ(tb->bus.stats().at(domain).responses_error, 0u) << domain;
  }
}

TEST(Orchestrator, EndedSlicesLeaveNoInstrumentsBehind) {
  auto tb = make_testbed(22);
  // One empty epoch registers the domain-wide instruments.
  tb->simulator.run_for(Duration::minutes(20.0));
  const std::set<std::string> ran_before = metric_keys(*tb, "ran");
  const std::set<std::string> transport_before = metric_keys(*tb, "transport");

  struct Admitted {
    SliceId slice;
    std::string slice_prefix;
    std::string plmn_prefix;
    std::vector<std::string> path_prefixes;
  };
  std::vector<Admitted> admitted;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SliceSpec spec = spec_for(traffic::Vertical::embb_video, 1.0);
    spec.expected_throughput = DataRate::mbps(10.0);
    const SubmitVerdict verdict =
        tb->orchestrator->submit(spec, workload_for(traffic::Vertical::embb_video, 40 + i));
    ASSERT_EQ(verdict.state, SliceState::installing);
    const SliceRecord* record = tb->orchestrator->find_slice(verdict.slice);
    Admitted a{verdict.slice, "slice." + std::to_string(record->id.value()) + ".",
               "ran.plmn." + std::to_string(record->embedding.plmn.value()) + ".", {}};
    for (const PathId path : record->embedding.paths) {
      a.path_prefixes.push_back("transport.path." + std::to_string(path.value()) + ".");
    }
    admitted.push_back(std::move(a));
  }

  // While the slices serve, every one of them is instrumented.
  tb->simulator.run_for(Duration::minutes(40.0));
  for (const Admitted& a : admitted) {
    ASSERT_EQ(tb->orchestrator->find_slice(a.slice)->state, SliceState::active);
    EXPECT_TRUE(has_key_with_prefix(tb->registry, a.slice_prefix)) << a.slice_prefix;
    EXPECT_TRUE(has_key_with_prefix(tb->registry, a.plmn_prefix)) << a.plmn_prefix;
    for (const std::string& p : a.path_prefixes) {
      EXPECT_TRUE(has_key_with_prefix(tb->registry, p)) << p;
    }
  }

  tb->simulator.run_for(Duration::hours(2.0));
  for (const Admitted& a : admitted) {
    ASSERT_EQ(tb->orchestrator->find_slice(a.slice), nullptr);
    EXPECT_FALSE(has_key_with_prefix(tb->registry, a.slice_prefix)) << a.slice_prefix;
    EXPECT_FALSE(has_key_with_prefix(tb->registry, a.plmn_prefix)) << a.plmn_prefix;
    for (const std::string& p : a.path_prefixes) {
      EXPECT_FALSE(has_key_with_prefix(tb->registry, p)) << p;
    }
  }
  EXPECT_EQ(metric_keys(*tb, "ran"), ran_before);
  EXPECT_EQ(metric_keys(*tb, "transport"), transport_before);
  // The totals outlive the slices.
  EXPECT_EQ(tb->orchestrator->summary().expired_total, admitted.size());
  EXPECT_GT(tb->orchestrator->summary().earned, Money{});
}

TEST(Orchestrator, BatchedAdmissionAuctionsPendingRequests) {
  OrchestratorConfig config;
  config.admission_window = Duration::hours(1.0);
  config.admission_policy = "knapsack_revenue";
  config.overbooking.enabled = false;
  auto tb = make_testbed(15, config);

  // Three requests that cannot all fit (~69 Mb/s RAN): a low-value fat
  // one and two high-value ones. The knapsack auction must prefer value,
  // not arrival order.
  SliceSpec cheap_fat = spec_for(traffic::Vertical::embb_video, 10.0);
  cheap_fat.expected_throughput = DataRate::mbps(60.0);
  cheap_fat.price_per_hour = Money::units(1.0);
  const SubmitVerdict fat = tb->orchestrator->submit(cheap_fat);

  SliceSpec valuable_a = spec_for(traffic::Vertical::cloud_gaming, 10.0);
  valuable_a.expected_throughput = DataRate::mbps(30.0);
  const SubmitVerdict a = tb->orchestrator->submit(valuable_a);

  SliceSpec valuable_b = spec_for(traffic::Vertical::automotive, 10.0);
  valuable_b.expected_throughput = DataRate::mbps(20.0);
  const SliceId b = tb->orchestrator->submit(valuable_b).slice;

  // Nothing is decided before the auction fires.
  EXPECT_EQ(fat.state, SliceState::pending);
  EXPECT_EQ(a.state, SliceState::pending);
  EXPECT_EQ(tb->orchestrator->find_slice(fat.slice)->state, SliceState::pending);

  tb->simulator.run_for(Duration::hours(1.5));
  EXPECT_EQ(tb->orchestrator->find_slice(fat.slice), nullptr);  // lost the auction
  EXPECT_EQ(tb->orchestrator->summary().rejected_total, 1u);
  EXPECT_EQ(tb->orchestrator->find_slice(a.slice)->state, SliceState::active);
  EXPECT_EQ(tb->orchestrator->find_slice(b)->state, SliceState::active);

  // An FCFS broker on the same sequence admits the fat request first
  // and starves the valuable pair.
  OrchestratorConfig fcfs_config = config;
  fcfs_config.admission_policy = "fcfs";
  auto tb2 = make_testbed(15, fcfs_config);
  const SliceId fat2 = tb2->orchestrator->submit(cheap_fat).slice;
  const SliceId a2 = tb2->orchestrator->submit(valuable_a).slice;
  (void)tb2->orchestrator->submit(valuable_b);
  tb2->simulator.run_for(Duration::hours(1.5));
  EXPECT_EQ(tb2->orchestrator->find_slice(fat2)->state, SliceState::active);
  EXPECT_EQ(tb2->orchestrator->find_slice(a2), nullptr);
  EXPECT_EQ(tb2->orchestrator->summary().rejected_total, 2u);
}

TEST(Orchestrator, PatientRequestsWaitForCapacity) {
  OrchestratorConfig config;
  config.admission_window = Duration::hours(1.0);
  config.admission_patience = Duration::hours(8.0);
  config.overbooking.enabled = false;
  auto tb = make_testbed(18, config);

  // A short-lived but very valuable slice fills the RAN (the auction
  // must prefer it); a patient second request loses the first auctions
  // but lands once the first slice expires.
  SliceSpec big = spec_for(traffic::Vertical::embb_video, 2.0);
  big.expected_throughput = DataRate::mbps(50.0);
  big.price_per_hour = Money::units(1000.0);
  (void)tb->orchestrator->submit(big);

  SliceSpec waiting = spec_for(traffic::Vertical::cloud_gaming, 4.0);
  waiting.expected_throughput = DataRate::mbps(40.0);
  const SliceId patient = tb->orchestrator->submit(waiting).slice;

  tb->simulator.run_for(Duration::hours(1.5));
  // First auction happened: the big slice is in, the patient one queued.
  EXPECT_EQ(tb->orchestrator->find_slice(patient)->state, SliceState::pending);

  tb->simulator.run_for(Duration::hours(3.0));  // big slice expired at ~2 h
  EXPECT_EQ(tb->orchestrator->find_slice(patient)->state, SliceState::active);

  // Without patience the same sequence rejects immediately.
  OrchestratorConfig impatient = config;
  impatient.admission_patience = Duration::zero();
  auto tb2 = make_testbed(18, impatient);
  (void)tb2->orchestrator->submit(big);
  const SliceId bounced = tb2->orchestrator->submit(waiting).slice;
  tb2->simulator.run_for(Duration::hours(1.5));
  EXPECT_EQ(tb2->orchestrator->find_slice(bounced), nullptr);
  EXPECT_EQ(tb2->orchestrator->summary().rejected_total, 1u);
}

TEST(Orchestrator, PatienceDeadlineEventuallyRejects) {
  OrchestratorConfig config;
  config.admission_window = Duration::hours(1.0);
  config.admission_patience = Duration::hours(3.0);
  config.overbooking.enabled = false;
  auto tb = make_testbed(19, config);

  SliceSpec big = spec_for(traffic::Vertical::embb_video, 100.0);  // never expires
  big.expected_throughput = DataRate::mbps(50.0);
  (void)tb->orchestrator->submit(big);
  SliceSpec waiting = spec_for(traffic::Vertical::cloud_gaming, 4.0);
  waiting.expected_throughput = DataRate::mbps(40.0);
  const SliceId doomed = tb->orchestrator->submit(waiting).slice;

  tb->simulator.run_for(Duration::hours(2.5));
  EXPECT_EQ(tb->orchestrator->find_slice(doomed)->state, SliceState::pending);
  tb->simulator.run_for(Duration::hours(2.0));  // patience exceeded
  EXPECT_EQ(tb->orchestrator->find_slice(doomed), nullptr);
  EXPECT_EQ(tb->orchestrator->summary().rejected_total, 1u);
}

TEST(Orchestrator, InstallJitterVariesTimelines) {
  auto tb = make_testbed(16);
  std::set<std::int64_t> totals;
  for (int i = 0; i < 5; ++i) {
    const SubmitVerdict verdict =
        tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 1.0));
    ASSERT_EQ(verdict.state, SliceState::installing);
    totals.insert(tb->orchestrator->last_install_timeline().total().as_micros());
    ASSERT_TRUE(tb->orchestrator->terminate(verdict.slice).ok());
  }
  EXPECT_GT(totals.size(), 1u);  // jitter produces distinct timelines
}

TEST(Orchestrator, OverbookingShrinksBothTransportLegsProportionally) {
  OrchestratorConfig config;
  config.overbooking.warmup_observations = 4;
  auto tb = make_testbed(20, config);

  // Edge-placed slice (two legs) with near-idle demand.
  SliceSpec spec = spec_for(traffic::Vertical::automotive, 48.0);
  const SliceRecord* record = tb->orchestrator->find_slice(
      tb->orchestrator->submit(spec, std::make_unique<traffic::ConstantTraffic>(2.0)).slice);
  ASSERT_EQ(record->embedding.paths.size(), 2u);

  tb->simulator.run_for(Duration::hours(6.0));
  ASSERT_EQ(record->state, SliceState::active);
  ASSERT_LT(record->reserved, record->spec.expected_throughput * 0.5);  // shrunk

  const transport::PathReservation* access =
      tb->transport->find_path(record->embedding.paths[0]);
  const transport::PathReservation* breakout =
      tb->transport->find_path(record->embedding.paths[1]);
  EXPECT_NEAR(access->reserved.as_mbps(), record->reserved.as_mbps(), 1e-6);
  EXPECT_NEAR(breakout->reserved.as_mbps(),
              record->reserved.as_mbps() * tb->orchestrator->config().edge_breakout_fraction,
              1e-6);
}

TEST(Orchestrator, MonitoringSurvivesControllerLoss) {
  auto tb = make_testbed(21);
  (void)tb->orchestrator->submit(spec_for(traffic::Vertical::iot_metering, 12.0),
                                 workload_for(traffic::Vertical::iot_metering, 2));
  tb->simulator.run_for(Duration::hours(1.0));

  // The RAN controller's REST endpoint vanishes mid-run (crash). The
  // orchestration loop must keep running: serving and SLA accounting
  // continue.
  const Money earned_before = tb->orchestrator->summary().earned;
  tb->bus.unregister_service("ran");
  tb->simulator.run_for(Duration::hours(3.0));

  const OrchestratorSummary summary = tb->orchestrator->summary();
  EXPECT_EQ(summary.active_slices, 1u);
  EXPECT_GT(summary.earned, earned_before);
}

TEST(Orchestrator, SummaryGainIsOneWithoutOverbooking) {
  OrchestratorConfig config;
  config.overbooking.enabled = false;
  auto tb = make_testbed(14, config);
  (void)tb->orchestrator->submit(spec_for(traffic::Vertical::embb_video, 12.0),
                                 std::make_unique<traffic::ConstantTraffic>(1.0));
  tb->simulator.run_for(Duration::hours(6.0));
  const OrchestratorSummary summary = tb->orchestrator->summary();
  EXPECT_EQ(summary.active_slices, 1u);
  EXPECT_NEAR(summary.multiplexing_gain, 1.0, 1e-9);
}

}  // namespace
}  // namespace slices::core
