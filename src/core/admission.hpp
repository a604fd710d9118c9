#pragma once
// Admission-control policies.
//
// The orchestrator "applies admission control policies based on a
// revenue maximization strategy" (paper §1, citing the 5G network slice
// broker). A policy ranks a batch of pending requests against the radio
// capacity the orchestrator believes is available (physical free
// capacity plus whatever the overbooking engine can reclaim) and selects
// the subset to admit. Radio throughput is the binding dimension in the
// testbed; transport and compute feasibility are enforced afterwards by
// the embedder, which may still bounce an admitted request.

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "core/slice.hpp"

namespace slices::core {

/// A pending request as seen by a policy.
struct CandidateRequest {
  RequestId id;
  SliceSpec spec;
};

/// Strategy interface: choose which candidates to admit within
/// `capacity` (sum of admitted expected throughputs must fit).
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// Returns the ids to admit, in admission order.
  [[nodiscard]] virtual std::vector<RequestId> select(
      std::span<const CandidateRequest> candidates, DataRate capacity) const = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// First-come-first-served: admit in arrival order while capacity lasts.
/// The baseline a plain NFV orchestrator implements.
class FcfsPolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::vector<RequestId> select(std::span<const CandidateRequest> candidates,
                                              DataRate capacity) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "fcfs"; }
};

/// Greedy revenue density: sort by gross revenue per Mb/s, admit while
/// capacity lasts. Near-optimal and O(n log n).
class GreedyRevenuePolicy final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::vector<RequestId> select(std::span<const CandidateRequest> candidates,
                                              DataRate capacity) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "greedy_revenue"; }
};

/// Exact 0/1 knapsack over Mb/s-discretized capacity maximizing gross
/// revenue — the revenue-maximization strategy of the paper. Capacity is
/// clamped to `max_capacity_mbps` cells to bound the DP table.
class KnapsackRevenuePolicy final : public AdmissionPolicy {
 public:
  explicit KnapsackRevenuePolicy(int max_capacity_mbps = 4096)
      : max_capacity_mbps_(max_capacity_mbps) {}

  [[nodiscard]] std::vector<RequestId> select(std::span<const CandidateRequest> candidates,
                                              DataRate capacity) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "knapsack_revenue"; }

 private:
  int max_capacity_mbps_;
};

/// The names make_policy() accepts.
inline constexpr std::string_view kPolicyNames[] = {"fcfs", "greedy_revenue",
                                                    "knapsack_revenue"};

/// Factory by name (one of kPolicyNames); nullptr for any other name.
[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(std::string_view name);

}  // namespace slices::core
