#pragma once
// OpenFlow-style flow state.
//
// Installing a transport path for a slice materializes as one flow rule
// per traversed node, matching on the slice id and forwarding out of the
// chosen link — the programmable-switch reconfiguration the testbed
// performs on its PF5240. The flow table is the ground truth a real
// switch would hold; the controller keeps it consistent with its path
// reservations, and tests assert that consistency.

#include <cstdint>
#include <vector>

#include "common/dense_map.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"

namespace slices::transport {

/// One forwarding rule: on `node`, traffic of `slice` goes out `out_link`.
struct FlowRule {
  FlowRuleId id;
  NodeId node;
  SliceId slice;
  LinkId out_link;
  std::uint32_t priority = 100;
};

/// The network-wide flow state (per-node tables keyed together).
class FlowTable {
 public:
  /// Install a rule. Errors: conflict when (node, slice) already has one
  /// — a slice's traffic must have exactly one next hop per node.
  [[nodiscard]] Result<FlowRuleId> install(NodeId node, SliceId slice, LinkId out_link,
                                           std::uint32_t priority = 100);

  /// Remove one rule by id. Errors: not_found.
  [[nodiscard]] Result<void> remove(FlowRuleId id);

  /// Remove all rules of a slice (path teardown); returns removed count.
  std::size_t remove_slice(SliceId slice);

  /// Look up the forwarding decision for `slice` at `node`.
  [[nodiscard]] const FlowRule* lookup(NodeId node, SliceId slice) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }

 private:
  /// Secondary index key: the (node, slice) pair the uniqueness rule is
  /// stated over. Hashed whole; never iterated, so only lookups matter.
  struct NodeSliceKey {
    NodeId node{NodeId::invalid()};
    SliceId slice{SliceId::invalid()};
    friend constexpr bool operator==(NodeSliceKey, NodeSliceKey) noexcept = default;
  };
  struct NodeSliceTraits {
    [[nodiscard]] static constexpr NodeSliceKey invalid() noexcept { return {}; }
    [[nodiscard]] static constexpr std::uint64_t hash(NodeSliceKey k) noexcept {
      return dense_mix64(k.node.value() ^ dense_mix64(k.slice.value()));
    }
  };

  DenseIdMap<FlowRuleId, FlowRule> rules_;
  /// (node, slice) -> rule id, making install-time conflict checks and
  /// forwarding lookups O(1) instead of full-table scans.
  DenseIdMap<NodeSliceKey, FlowRuleId, NodeSliceTraits> by_endpoint_;
  IdAllocator<FlowRuleTag> ids_;
};

}  // namespace slices::transport
