// Tests for the session-level UE population process.

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "core/ue_population.hpp"

namespace slices::core {
namespace {

struct Fixture {
  std::unique_ptr<Testbed> tb = make_testbed(71);
  const SliceRecord* record = nullptr;

  Fixture() {
    record = tb->orchestrator->find_slice(
        tb->orchestrator
            ->submit(SliceSpec::from_profile(traffic::profile_for(traffic::Vertical::embb_video),
                                             Duration::hours(48.0)))
            .slice);
    tb->simulator.run_for(Duration::seconds(30.0));  // activate
  }

  UePopulationConfig config(double arrivals_per_hour = 60.0) const {
    UePopulationConfig c;
    c.arrivals_per_hour = arrivals_per_hour;
    c.mean_holding = Duration::minutes(30.0);
    return c;
  }
};

TEST(UePopulation, ReachesOfferedLoadEquilibrium) {
  Fixture f;
  // 60/h x 0.5h holding => ~30 UEs in steady state (M/M/inf).
  UePopulation population(&f.tb->simulator, &f.tb->ran, f.tb->epc.get(), f.record->id,
                          f.record->embedding.plmn, f.config(), Rng(5));
  population.start();
  f.tb->simulator.run_for(Duration::hours(8.0));
  EXPECT_GT(population.total_arrivals(), 400u);
  EXPECT_EQ(population.total_blocked(), 0u);
  EXPECT_NEAR(static_cast<double>(population.active_ues()), 30.0, 12.0);
  EXPECT_EQ(f.tb->ran.attached_ues(f.record->embedding.plmn), population.active_ues());
  EXPECT_EQ(f.tb->epc->find(f.record->id)->attached_ues, population.active_ues());
}

TEST(UePopulation, BlockedWhileEpcDeploying) {
  auto tb = make_testbed(72);
  const SliceRecord* record = tb->orchestrator->find_slice(
      tb->orchestrator
          ->submit(SliceSpec::from_profile(traffic::profile_for(traffic::Vertical::embb_video),
                                           Duration::hours(48.0)))
          .slice);
  ASSERT_EQ(record->state, SliceState::installing);

  // A very eager population that starts during the install window.
  UePopulationConfig config;
  config.arrivals_per_hour = 3600.0;  // one per second
  UePopulation population(&tb->simulator, &tb->ran, tb->epc.get(), record->id,
                          record->embedding.plmn, config, Rng(9));
  population.start();
  // The install timeline runs ~11 s; stay safely inside it while giving
  // the 1-per-second arrival stream time to hit the deploying EPC.
  const Duration install = tb->orchestrator->last_install_timeline().total();
  tb->simulator.run_for(install - Duration::seconds(2.0));
  EXPECT_GT(population.total_blocked(), 0u);
  EXPECT_EQ(population.active_ues(), 0u);

  tb->simulator.run_for(Duration::minutes(2.0));  // now active
  EXPECT_GT(population.active_ues(), 0u);
  population.stop();
}

TEST(UePopulation, StopDetachesEveryone) {
  Fixture f;
  UePopulation population(&f.tb->simulator, &f.tb->ran, f.tb->epc.get(), f.record->id,
                          f.record->embedding.plmn, f.config(), Rng(11));
  population.start();
  f.tb->simulator.run_for(Duration::hours(2.0));
  ASSERT_GT(population.active_ues(), 0u);

  population.stop();
  EXPECT_EQ(population.active_ues(), 0u);
  EXPECT_EQ(f.tb->ran.attached_ues(f.record->embedding.plmn), 0u);
  EXPECT_EQ(f.tb->epc->find(f.record->id)->attached_ues, 0u);

  // No further arrivals after stop.
  const std::uint64_t arrivals = population.total_arrivals();
  f.tb->simulator.run_for(Duration::hours(1.0));
  EXPECT_EQ(population.total_arrivals(), arrivals);
}

TEST(UePopulation, DeterministicForSameSeed) {
  const auto run = [] {
    Fixture f;
    UePopulation population(&f.tb->simulator, &f.tb->ran, f.tb->epc.get(), f.record->id,
                            f.record->embedding.plmn, f.config(), Rng(13));
    population.start();
    f.tb->simulator.run_for(Duration::hours(4.0));
    return std::tuple{population.total_arrivals(), population.total_departures(),
                      population.active_ues()};
  };
  EXPECT_EQ(run(), run());
}

TEST(UePopulation, StartIsIdempotent) {
  Fixture f;
  UePopulation population(&f.tb->simulator, &f.tb->ran, f.tb->epc.get(), f.record->id,
                          f.record->embedding.plmn, f.config(), Rng(15));
  population.start();
  population.start();  // must not double-schedule arrivals
  f.tb->simulator.run_for(Duration::hours(1.0));
  // ~60 arrivals expected for one stream; a double stream would be ~120.
  EXPECT_NEAR(static_cast<double>(population.total_arrivals()), 60.0, 30.0);
}

}  // namespace
}  // namespace slices::core
