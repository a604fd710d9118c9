#pragma once
// Network-slice request model and lifecycle.
//
// The demo dashboard "provides multiple options for requesting network
// slices: the slice time duration, the maximum latency allowed, the
// expected throughput, the price willing to be paid ... and finally the
// penalty expected in case of SLA violation". SliceSpec carries exactly
// those knobs (plus the compute footprint and edge requirement the E2E
// embedding needs); SliceRecord tracks the admitted slice through its
// lifecycle and holds its per-domain allocation handles.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "traffic/verticals.hpp"

namespace slices::core {

/// What a tenant asks for — the dashboard form of the demo.
struct SliceSpec {
  std::string tenant_name;
  traffic::Vertical vertical = traffic::Vertical::embb_video;
  Duration duration;                      ///< slice time duration
  Duration max_latency;                   ///< maximum end-to-end latency allowed
  DataRate expected_throughput;           ///< contracted throughput
  ComputeCapacity edge_compute;           ///< service footprint beyond the EPC
  Money price_per_hour;                   ///< price willing to be paid
  Money penalty_per_violation;            ///< per-violation-epoch charge
  bool needs_edge = false;                ///< latency forces edge placement

  /// Build a spec from a vertical profile (the dashboard's presets).
  [[nodiscard]] static SliceSpec from_profile(const traffic::VerticalProfile& profile,
                                              Duration duration);

  /// Revenue if the slice runs to completion with zero violations.
  [[nodiscard]] Money gross_revenue() const noexcept {
    return price_per_hour * duration.as_hours();
  }
};

/// Lifecycle of a request/slice.
enum class SliceState {
  pending,     ///< submitted, not yet decided
  rejected,    ///< admission declined
  installing,  ///< admitted; domains being configured (the "few seconds")
  active,      ///< serving traffic
  expired,     ///< ran to the end of its duration
  terminated,  ///< torn down early (operator action)
};

[[nodiscard]] std::string_view to_string(SliceState s) noexcept;

/// Handles into each domain for an embedded slice.
struct Embedding {
  PlmnId plmn;                         ///< RAN slice identity (MOCN mapping)
  std::vector<PathId> paths;           ///< transport reservations
  DatacenterId datacenter;             ///< where the EPC/stack landed
  std::optional<StackId> edge_stack;   ///< the vertical's own edge service
};

/// The domain stages of an embedding, in install order. A slice's
/// resources are released in the reverse order, and a failed embedding
/// names the stage that failed (the `stage` of its slice_rejected audit).
enum class EmbedStage {
  plmn_install,    ///< RAN: dynamic PLMN install
  prb_allocation,  ///< RAN: PRB reservation for the contract
  placement,       ///< cloud: datacenter for the EPC + edge service
  access_leg,      ///< transport: RAN gateway -> datacenter path
  breakout_leg,    ///< transport: edge -> core path (edge placements only)
  epc_deploy,      ///< the slice's virtualized core
  edge_stack,      ///< the vertical's own edge service (when it has one)
};
inline constexpr std::size_t kEmbedStageCount = 7;
static_assert(static_cast<std::size_t>(EmbedStage::edge_stack) + 1 == kEmbedStageCount);

[[nodiscard]] std::string_view to_string(EmbedStage s) noexcept;

/// An admitted (or pending/rejected) slice as the orchestrator sees it.
struct SliceRecord {
  SliceId id;
  RequestId request;
  SliceSpec spec;
  SliceState state = SliceState::pending;
  SimTime submitted_at;
  SimTime activates_at;   ///< scheduled end of installation (installing state)
  SimTime active_at;      ///< when it started serving (if it did)
  SimTime ends_at;        ///< scheduled expiry (active_at + duration)
  Embedding embedding;    ///< valid in installing/active states
  DataRate reserved;      ///< current (possibly overbooked-down) reservation

  // SLA accounting.
  std::uint64_t violation_epochs = 0;
  std::uint64_t served_epochs = 0;

  [[nodiscard]] bool is_live() const noexcept {
    return state == SliceState::installing || state == SliceState::active;
  }
};

}  // namespace slices::core
