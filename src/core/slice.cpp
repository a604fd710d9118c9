#include "core/slice.hpp"

namespace slices::core {

SliceSpec SliceSpec::from_profile(const traffic::VerticalProfile& profile, Duration duration) {
  SliceSpec spec;
  spec.tenant_name = profile.label;
  spec.vertical = profile.vertical;
  spec.duration = duration;
  spec.max_latency = profile.max_latency;
  spec.expected_throughput = DataRate::mbps(profile.expected_throughput_mbps);
  spec.edge_compute = profile.edge_compute;
  spec.price_per_hour = Money::units(profile.price_per_hour);
  spec.penalty_per_violation = Money::units(profile.penalty_per_violation);
  spec.needs_edge = profile.needs_edge;
  return spec;
}

std::string_view to_string(SliceState s) noexcept {
  switch (s) {
    case SliceState::pending: return "pending";
    case SliceState::rejected: return "rejected";
    case SliceState::installing: return "installing";
    case SliceState::active: return "active";
    case SliceState::expired: return "expired";
    case SliceState::terminated: return "terminated";
  }
  return "?";
}

std::string_view to_string(EmbedStage s) noexcept {
  switch (s) {
    case EmbedStage::plmn_install: return "plmn_install";
    case EmbedStage::prb_allocation: return "prb_allocation";
    case EmbedStage::placement: return "placement";
    case EmbedStage::access_leg: return "access_leg";
    case EmbedStage::breakout_leg: return "breakout_leg";
    case EmbedStage::epc_deploy: return "epc_deploy";
    case EmbedStage::edge_stack: return "edge_stack";
  }
  return "?";
}

}  // namespace slices::core
