// Golden scorecards: every scenarios/*.json, run at epoch_threads 1 and
// 4, must serialize byte-for-byte to its checked-in tests/golden/ file,
// and so must the replay of a recording of its 1-thread run. These pin
// the scored behaviour of both scenario drivers (fig2 and metro) and
// their shared recorder path, so refactors of the shared region and
// score code cannot drift silently.
// A golden changes only with a deliberate behaviour change: regenerate
// it with `scenario_runner run scenarios/<name>.json --threads 1 --quiet
// --out tests/golden/<name>.json`.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "federation/runner.hpp"
#include "scenario/recorder.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace slices {
namespace {

const std::filesystem::path kSourceDir = SLICES_SOURCE_DIR;

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kSourceDir / "scenarios")) {
    if (entry.path().extension() == ".json") names.push_back(entry.path().stem().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string run_scorecard(const scenario::Scenario& loaded, std::size_t threads,
                          const std::string& record_path = {}) {
  if (loaded.topology == "metro") {
    federation::FederatedRunOptions options;
    options.epoch_threads = threads;
    options.record_path = record_path;
    federation::FederatedRunner runner(loaded, options);
    const Result<federation::FederatedScorecard> card = runner.run();
    EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
    return card.ok() ? card.value().serialize() : std::string();
  }
  scenario::RunOptions options;
  options.epoch_threads = threads;
  options.record_path = record_path;
  scenario::ScenarioRunner runner(loaded, options);
  const Result<scenario::Scorecard> card = runner.run();
  EXPECT_TRUE(card.ok()) << (card.ok() ? "" : card.error().message);
  return card.ok() ? card.value().serialize() : std::string();
}

Result<scenario::Scenario> load_scenario(const std::string& name) {
  return scenario::load_scenario_file((kSourceDir / "scenarios" / (name + ".json")).string());
}

std::filesystem::path golden_path(const std::string& name) {
  return kSourceDir / "tests" / "golden" / (name + ".json");
}

class GoldenScorecard
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(GoldenScorecard, MatchesCheckedInFile) {
  const auto& [name, threads] = GetParam();
  const Result<scenario::Scenario> loaded = load_scenario(name);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_TRUE(std::filesystem::exists(golden_path(name))) << "no golden scorecard " << name;
  EXPECT_EQ(run_scorecard(loaded.value(), threads), read_file(golden_path(name)));
}

class GoldenReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenReplay, RecordedRunReplaysToCheckedInFile) {
  const std::string& name = GetParam();
  const Result<scenario::Scenario> loaded = load_scenario(name);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  const std::string golden = read_file(golden_path(name));
  const std::string journal = ::testing::TempDir() + "/golden_" + name + ".journal";
  std::filesystem::remove(journal);

  EXPECT_EQ(run_scorecard(loaded.value(), 1, journal), golden) << "recording run";
  const Result<scenario::Scenario> replay = scenario::load_recording(journal);
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  EXPECT_FALSE(replay.value().generate_arrivals);
  EXPECT_EQ(run_scorecard(replay.value(), 1), golden) << "replay";
  std::filesystem::remove(journal);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, GoldenScorecard,
    ::testing::Combine(::testing::ValuesIn(scenario_names()),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const ::testing::TestParamInfo<GoldenScorecard::ParamType>& info) {
      return std::get<0>(info.param) + "_threads" + std::to_string(std::get<1>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenReplay, ::testing::ValuesIn(scenario_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace slices
