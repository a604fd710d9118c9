// Unit tests for the slice model, lifecycle FSM and revenue ledger.

#include <gtest/gtest.h>

#include "core/revenue.hpp"
#include "core/slice.hpp"

namespace slices::core {
namespace {

TEST(SliceSpec, FromProfileCopiesSlaTerms) {
  const traffic::VerticalProfile profile = traffic::profile_for(traffic::Vertical::automotive);
  const SliceSpec spec = SliceSpec::from_profile(profile, Duration::hours(6.0));
  EXPECT_EQ(spec.vertical, traffic::Vertical::automotive);
  EXPECT_EQ(spec.duration, Duration::hours(6.0));
  EXPECT_DOUBLE_EQ(spec.expected_throughput.as_mbps(), profile.expected_throughput_mbps);
  EXPECT_EQ(spec.max_latency, profile.max_latency);
  EXPECT_EQ(spec.price_per_hour, Money::units(profile.price_per_hour));
  EXPECT_TRUE(spec.needs_edge);
}

TEST(SliceSpec, GrossRevenueIsPriceTimesHours) {
  SliceSpec spec;
  spec.price_per_hour = Money::units(30.0);
  spec.duration = Duration::hours(24.0);
  EXPECT_EQ(spec.gross_revenue(), Money::units(720.0));
}

TEST(SliceState, NamesAreStable) {
  EXPECT_EQ(to_string(SliceState::pending), "pending");
  EXPECT_EQ(to_string(SliceState::installing), "installing");
  EXPECT_EQ(to_string(SliceState::active), "active");
  EXPECT_EQ(to_string(SliceState::expired), "expired");
}

TEST(RevenueLedger, AccruesPerSlice) {
  RevenueLedger ledger;
  ledger.accrue(SliceId{1}, Money::units(40.0), Duration::minutes(30.0));
  ledger.accrue(SliceId{1}, Money::units(40.0), Duration::minutes(30.0));
  ledger.accrue(SliceId{2}, Money::units(10.0), Duration::hours(1.0));
  EXPECT_EQ(ledger.find(SliceId{1})->earned, Money::units(40.0));
  EXPECT_EQ(ledger.find(SliceId{2})->earned, Money::units(10.0));
  EXPECT_EQ(ledger.total_earned(), Money::units(50.0));
  EXPECT_EQ(ledger.find(SliceId{3}), nullptr);
}

TEST(RevenueLedger, PenaltiesReduceNet) {
  RevenueLedger ledger;
  ledger.accrue(SliceId{1}, Money::units(100.0), Duration::hours(1.0));
  ledger.charge_violation(SliceId{1}, Money::units(15.0));
  ledger.charge_violation(SliceId{1}, Money::units(15.0));
  EXPECT_EQ(ledger.find(SliceId{1})->violation_epochs, 2u);
  EXPECT_EQ(ledger.find(SliceId{1})->net(), Money::units(70.0));
  EXPECT_EQ(ledger.total_penalties(), Money::units(30.0));
  EXPECT_EQ(ledger.net_revenue(), Money::units(70.0));
  EXPECT_EQ(ledger.total_violation_epochs(), 2u);

  // A closed slice's entry goes; the totals keep it.
  ledger.erase(SliceId{1});
  EXPECT_EQ(ledger.find(SliceId{1}), nullptr);
  EXPECT_EQ(ledger.net_revenue(), Money::units(70.0));
  EXPECT_EQ(ledger.total_violation_epochs(), 2u);
}

TEST(SliceRecord, IsLiveOnlyWhileInstallingOrActive) {
  SliceRecord record;
  for (const auto& [state, live] :
       {std::pair{SliceState::pending, false}, {SliceState::rejected, false},
        {SliceState::installing, true}, {SliceState::active, true},
        {SliceState::expired, false}, {SliceState::terminated, false}}) {
    record.state = state;
    EXPECT_EQ(record.is_live(), live) << to_string(state);
  }
}

}  // namespace
}  // namespace slices::core
