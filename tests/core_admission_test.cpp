// Unit + property tests for admission-control policies, including a
// brute-force optimality check of the knapsack policy on random
// instances.

#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "common/rng.hpp"
#include "core/admission.hpp"

namespace slices::core {
namespace {

CandidateRequest candidate(std::uint64_t id, double mbps, double total_price) {
  CandidateRequest c;
  c.id = RequestId{id};
  c.spec.expected_throughput = DataRate::mbps(mbps);
  c.spec.duration = Duration::hours(1.0);
  c.spec.price_per_hour = Money::units(total_price);  // 1 h => gross == price
  return c;
}

double admitted_value(const std::vector<RequestId>& admitted,
                      const std::vector<CandidateRequest>& candidates) {
  double value = 0.0;
  for (const RequestId id : admitted) {
    for (const CandidateRequest& c : candidates) {
      if (c.id == id) value += c.spec.gross_revenue().as_units();
    }
  }
  return value;
}

double admitted_weight(const std::vector<RequestId>& admitted,
                       const std::vector<CandidateRequest>& candidates) {
  double weight = 0.0;
  for (const RequestId id : admitted) {
    for (const CandidateRequest& c : candidates) {
      if (c.id == id) weight += c.spec.expected_throughput.as_mbps();
    }
  }
  return weight;
}

TEST(FcfsPolicy, AdmitsInArrivalOrder) {
  const std::vector<CandidateRequest> candidates = {
      candidate(1, 30.0, 10.0), candidate(2, 30.0, 100.0), candidate(3, 30.0, 200.0)};
  const FcfsPolicy policy;
  const auto admitted = policy.select(candidates, DataRate::mbps(60.0));
  // FCFS takes the first two regardless of their low value.
  EXPECT_EQ(admitted, (std::vector<RequestId>{RequestId{1}, RequestId{2}}));
}

TEST(FcfsPolicy, SkipsTooLargeButKeepsGoing) {
  const std::vector<CandidateRequest> candidates = {
      candidate(1, 50.0, 10.0), candidate(2, 80.0, 10.0), candidate(3, 10.0, 10.0)};
  const FcfsPolicy policy;
  const auto admitted = policy.select(candidates, DataRate::mbps(60.0));
  EXPECT_EQ(admitted, (std::vector<RequestId>{RequestId{1}, RequestId{3}}));
}

TEST(GreedyRevenuePolicy, PrefersValueDensity) {
  const std::vector<CandidateRequest> candidates = {
      candidate(1, 50.0, 50.0),   // density 1
      candidate(2, 10.0, 40.0),   // density 4
      candidate(3, 20.0, 40.0)};  // density 2
  const GreedyRevenuePolicy policy;
  const auto admitted = policy.select(candidates, DataRate::mbps(30.0));
  EXPECT_EQ(admitted, (std::vector<RequestId>{RequestId{2}, RequestId{3}}));
}

TEST(KnapsackRevenuePolicy, BeatsGreedyOnClassicTrap) {
  // Greedy-by-density takes the small dense item and wastes capacity;
  // the optimum is the two larger items.
  const std::vector<CandidateRequest> candidates = {
      candidate(1, 6.0, 60.0),    // density 10
      candidate(2, 5.0, 45.0),    // density 9
      candidate(3, 5.0, 45.0)};   // density 9
  const KnapsackRevenuePolicy knapsack;
  const GreedyRevenuePolicy greedy;
  const DataRate capacity = DataRate::mbps(10.0);
  EXPECT_DOUBLE_EQ(admitted_value(knapsack.select(candidates, capacity), candidates), 90.0);
  EXPECT_DOUBLE_EQ(admitted_value(greedy.select(candidates, capacity), candidates), 60.0);
}

TEST(KnapsackRevenuePolicy, ZeroCapacityAdmitsNothing) {
  const std::vector<CandidateRequest> candidates = {candidate(1, 1.0, 5.0)};
  EXPECT_TRUE(KnapsackRevenuePolicy{}.select(candidates, DataRate::zero()).empty());
  EXPECT_TRUE(KnapsackRevenuePolicy{}.select({}, DataRate::mbps(100.0)).empty());
}

TEST(MakePolicy, FactoryByName) {
  EXPECT_NE(make_policy("fcfs"), nullptr);
  EXPECT_NE(make_policy("greedy_revenue"), nullptr);
  EXPECT_NE(make_policy("knapsack_revenue"), nullptr);
  EXPECT_EQ(make_policy("nonsense"), nullptr);
  EXPECT_EQ(make_policy("fcfs")->name(), "fcfs");
}

// --- property sweeps over random instances -------------------------------------

struct PolicyCase {
  const char* label;
  std::unique_ptr<AdmissionPolicy> (*make)();
};

// Print the label, not the raw bytes: gtest puts GetParam() into the test
// name, and pointer bytes would make that name change from run to run.
void PrintTo(const PolicyCase& c, std::ostream* os) { *os << c.label; }

class AllPolicies : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(AllPolicies, NeverExceedsCapacityAndNeverDuplicates) {
  Rng rng(1234);
  const std::unique_ptr<AdmissionPolicy> policy = GetParam().make();
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<CandidateRequest> candidates;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) {
      candidates.push_back(candidate(static_cast<std::uint64_t>(i + 1),
                                     rng.uniform(1.0, 40.0), rng.uniform(1.0, 300.0)));
    }
    const double capacity_mbps = rng.uniform(0.0, 120.0);
    const auto admitted = policy->select(candidates, DataRate::mbps(capacity_mbps));

    EXPECT_LE(admitted_weight(admitted, candidates), capacity_mbps + 1e-9);
    std::set<std::uint64_t> unique;
    for (const RequestId id : admitted) EXPECT_TRUE(unique.insert(id.value()).second);
    for (const RequestId id : admitted) {
      EXPECT_LE(id.value(), static_cast<std::uint64_t>(n));
      EXPECT_GE(id.value(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, AllPolicies,
    ::testing::Values(
        PolicyCase{"fcfs",
                   [] { return std::unique_ptr<AdmissionPolicy>(new FcfsPolicy()); }},
        PolicyCase{"greedy",
                   [] { return std::unique_ptr<AdmissionPolicy>(new GreedyRevenuePolicy()); }},
        PolicyCase{"knapsack",
                   [] {
                     return std::unique_ptr<AdmissionPolicy>(new KnapsackRevenuePolicy());
                   }}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) { return info.param.label; });

TEST(KnapsackRevenuePolicy, MatchesBruteForceOnRandomInstances) {
  Rng rng(99);
  const KnapsackRevenuePolicy policy;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<CandidateRequest> candidates;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < n; ++i) {
      // Integer weights so the Mb/s discretization is exact.
      candidates.push_back(candidate(static_cast<std::uint64_t>(i + 1),
                                     static_cast<double>(rng.uniform_int(1, 20)),
                                     static_cast<double>(rng.uniform_int(1, 100))));
    }
    const int capacity = static_cast<int>(rng.uniform_int(0, 60));

    // Brute force over all subsets.
    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      double weight = 0.0;
      double value = 0.0;
      for (int i = 0; i < n; ++i) {
        if ((mask >> i) & 1) {
          weight += candidates[static_cast<std::size_t>(i)].spec.expected_throughput.as_mbps();
          value += candidates[static_cast<std::size_t>(i)].spec.gross_revenue().as_units();
        }
      }
      if (weight <= capacity && value > best) best = value;
    }

    const auto admitted = policy.select(candidates, DataRate::mbps(capacity));
    EXPECT_NEAR(admitted_value(admitted, candidates), best, 1e-6)
        << "trial " << trial << " capacity " << capacity;
  }
}

TEST(PolicyOrdering, KnapsackAtLeastGreedyAtLeastFcfsOnValue) {
  Rng rng(777);
  const FcfsPolicy fcfs;
  const GreedyRevenuePolicy greedy;
  const KnapsackRevenuePolicy knapsack;
  int greedy_wins = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<CandidateRequest> candidates;
    for (int i = 0; i < 10; ++i) {
      candidates.push_back(candidate(static_cast<std::uint64_t>(i + 1),
                                     static_cast<double>(rng.uniform_int(1, 30)),
                                     static_cast<double>(rng.uniform_int(1, 200))));
    }
    const DataRate capacity = DataRate::mbps(static_cast<double>(rng.uniform_int(10, 80)));
    const double v_fcfs = admitted_value(fcfs.select(candidates, capacity), candidates);
    const double v_greedy = admitted_value(greedy.select(candidates, capacity), candidates);
    const double v_knap = admitted_value(knapsack.select(candidates, capacity), candidates);
    EXPECT_GE(v_knap + 1e-9, v_greedy);
    if (v_greedy >= v_fcfs) ++greedy_wins;
  }
  // Greedy is not *always* above FCFS pointwise, but should dominate
  // overwhelmingly on random instances.
  EXPECT_GE(greedy_wins, 90);
}

}  // namespace
}  // namespace slices::core
