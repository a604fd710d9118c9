// Tests for the slice-template catalog and the scenario orchestrator block.

#include <gtest/gtest.h>

#include "core/catalog.hpp"
#include "core/testbed.hpp"
#include "scenario/scenario.hpp"

namespace slices::core {
namespace {

// --- SliceCatalog -----------------------------------------------------------

TEST(SliceCatalog, BuiltinCoversEveryVertical) {
  const SliceCatalog catalog = SliceCatalog::builtin();
  EXPECT_EQ(catalog.size(), traffic::all_verticals().size());
  for (const traffic::Vertical v : traffic::all_verticals()) {
    EXPECT_NE(catalog.find(traffic::to_string(v)), nullptr);
  }
}

TEST(SliceCatalog, InstantiateUsesProfileDefaults) {
  const SliceCatalog catalog = SliceCatalog::builtin();
  const Result<SliceSpec> spec = catalog.instantiate("automotive", Duration::hours(6.0));
  ASSERT_TRUE(spec.ok());
  const traffic::VerticalProfile profile = traffic::profile_for(traffic::Vertical::automotive);
  EXPECT_DOUBLE_EQ(spec.value().expected_throughput.as_mbps(),
                   profile.expected_throughput_mbps);
  EXPECT_EQ(spec.value().max_latency, profile.max_latency);
  EXPECT_EQ(spec.value().duration, Duration::hours(6.0));
  EXPECT_TRUE(spec.value().needs_edge);
}

TEST(SliceCatalog, UnknownTemplateIsNotFound) {
  const SliceCatalog catalog = SliceCatalog::builtin();
  EXPECT_EQ(catalog.instantiate("nope").error().code, Errc::not_found);
}

TEST(SliceCatalog, NamesSortedAndPutReplaces) {
  SliceCatalog catalog;
  catalog.put(SliceTemplate{.name = "b"});
  catalog.put(SliceTemplate{.name = "a"});
  catalog.put(SliceTemplate{.name = "b",
                            .vertical = traffic::Vertical::ehealth,
                            .default_duration = Duration::hours(3.0)});
  EXPECT_EQ(catalog.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog.find("b")->vertical, traffic::Vertical::ehealth);
  EXPECT_EQ(catalog.find("b")->default_duration, Duration::hours(3.0));
  EXPECT_EQ(catalog.size(), 2u);
}

// --- catalog over the orchestrator REST API ----------------------------------

TEST(SliceCatalog, TemplateSubmissionOverRest) {
  auto tb = make_testbed(81);

  // The built-in catalog is browsable.
  const Result<json::Value> listed = tb->bus.get_json("orchestrator", "/templates");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed.value().find("templates")->as_array().size(),
            traffic::all_verticals().size());

  // Request by template name, with an explicit duration.
  json::Value request;
  request["template"] = "iot_metering";
  request["duration_hours"] = 8.0;
  const Result<json::Value> created =
      tb->bus.call_json("orchestrator", net::Method::post, "/slices", request);
  ASSERT_TRUE(created.ok()) << created.error().message;
  const auto slice =
      SliceId{static_cast<std::uint64_t>(created.value().find("slice")->as_number())};
  const SliceRecord* record = tb->orchestrator->find_slice(slice);
  ASSERT_NE(record, nullptr);
  EXPECT_DOUBLE_EQ(
      record->spec.expected_throughput.as_mbps(),
      traffic::profile_for(traffic::Vertical::iot_metering).expected_throughput_mbps);
  EXPECT_EQ(record->spec.duration, Duration::hours(8.0));

  // Unknown template -> 404 semantics.
  json::Value bad;
  bad["template"] = "platinum";
  EXPECT_FALSE(tb->bus.call_json("orchestrator", net::Method::post, "/slices", bad).ok());
}

// --- the scenario "orchestrator" block ---------------------------------------

/// Parses `block` as the orchestrator block of a minimal scenario.
Result<OrchestratorConfig> orchestrator_block(const std::string& block) {
  const Result<scenario::Scenario> parsed =
      scenario::parse_scenario(R"({"name": "config", "orchestrator": )" + block + "}");
  if (!parsed.ok()) return parsed.error();
  return parsed.value().orchestrator;
}

TEST(ConfigIo, EmptyObjectGivesDefaults) {
  const Result<OrchestratorConfig> config = orchestrator_block("{}");
  ASSERT_TRUE(config.ok());
  const OrchestratorConfig defaults;
  EXPECT_EQ(config.value().monitoring_period, defaults.monitoring_period);
  EXPECT_EQ(config.value().admission_policy, defaults.admission_policy);
  EXPECT_EQ(config.value().overbooking.enabled, defaults.overbooking.enabled);
}

TEST(ConfigIo, FullDocumentRoundTrips) {
  const char* doc = R"({
    "monitoring_period_minutes": 5,
    "admission_policy": "greedy_revenue",
    "admission_window_hours": 2,
    "sla_tolerance": 0.1,
    "edge_breakout_fraction": 0.5,
    "overbooking": {
      "enabled": true, "risk_quantile": 0.9, "horizon": 8,
      "floor_fraction": 0.2, "headroom": 1.1,
      "warmup_observations": 16, "season_length": 288,
      "estimator": "holt_winters"
    }})";
  const Result<OrchestratorConfig> config = orchestrator_block(doc);
  ASSERT_TRUE(config.ok()) << config.error().message;
  EXPECT_EQ(config.value().monitoring_period, Duration::minutes(5.0));
  EXPECT_EQ(config.value().admission_policy, "greedy_revenue");
  EXPECT_EQ(config.value().admission_window, Duration::hours(2.0));
  EXPECT_DOUBLE_EQ(config.value().sla_tolerance, 0.1);
  EXPECT_DOUBLE_EQ(config.value().edge_breakout_fraction, 0.5);
  EXPECT_DOUBLE_EQ(config.value().overbooking.risk_quantile, 0.9);
  EXPECT_EQ(config.value().overbooking.horizon, 8u);
  EXPECT_EQ(config.value().overbooking.season_length, 288u);
  EXPECT_EQ(config.value().overbooking.estimator, EstimatorKind::holt_winters);

  // The canonical form carries the block through unchanged.
  scenario::Scenario s;
  s.name = "config";
  s.orchestrator = config.value();
  const Result<scenario::Scenario> again =
      scenario::parse_scenario(scenario::serialize_scenario(s));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again.value().orchestrator.monitoring_period, config.value().monitoring_period);
  EXPECT_EQ(again.value().orchestrator.admission_window, config.value().admission_window);
  EXPECT_EQ(again.value().orchestrator.overbooking.warmup_observations, 16u);
  EXPECT_EQ(again.value().orchestrator.overbooking.estimator, EstimatorKind::holt_winters);
}

class ConfigIoRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(ConfigIoRejects, BadDocuments) {
  const Result<OrchestratorConfig> config = orchestrator_block(GetParam());
  ASSERT_FALSE(config.ok()) << "accepted: " << GetParam();
  // Field errors name the block; malformed JSON names a line and column.
  const std::string& message = config.error().message;
  EXPECT_TRUE(message.find("orchestrator") != std::string::npos ||
              message.find("line ") != std::string::npos)
      << message;
}

INSTANTIATE_TEST_SUITE_P(
    Bad, ConfigIoRejects,
    ::testing::Values(
        "[]",                                                  // not an object
        "{bad json",                                           // malformed
        R"({"typo_key": 1})",                                  // unknown key
        R"({"monitoring_period_minutes": 0})",                 // non-positive
        R"({"monitoring_period_minutes": -5})",
        R"({"admission_policy": "coin-flip"})",                // unknown policy
        R"({"sla_tolerance": 1.5})",                           // out of domain
        R"({"edge_breakout_fraction": 2.0})",
        R"({"overbooking": {"risk_quantile": 1.5}})",
        R"({"overbooking": {"horizon": 0}})",
        R"({"overbooking": {"estimator": "crystal-ball"}})",
        R"({"overbooking": {"typo": true}})",
        R"({"overbooking": {"season_length": 1}})"));

}  // namespace
}  // namespace slices::core
