#include "transport/flow_table.hpp"

namespace slices::transport {

Result<FlowRuleId> FlowTable::install(NodeId node, SliceId slice, LinkId out_link,
                                      std::uint32_t priority) {
  const NodeSliceKey key{node, slice};
  if (by_endpoint_.contains(key))
    return make_error(Errc::conflict, "flow rule for this slice already on node");
  const FlowRuleId id = ids_.next();
  rules_.insert(id, FlowRule{id, node, slice, out_link, priority});
  by_endpoint_.insert(key, id);
  return id;
}

Result<void> FlowTable::remove(FlowRuleId id) {
  const FlowRule* rule = rules_.find(id);
  if (rule == nullptr) return make_error(Errc::not_found, "unknown flow rule");
  by_endpoint_.erase(NodeSliceKey{rule->node, rule->slice});
  rules_.erase(id);
  return {};
}

std::size_t FlowTable::remove_slice(SliceId slice) {
  std::vector<FlowRuleId> doomed;
  for (const auto& [id, rule] : rules_) {
    if (rule.slice == slice) doomed.push_back(id);
  }
  for (const FlowRuleId id : doomed) {
    const FlowRule* rule = rules_.find(id);
    by_endpoint_.erase(NodeSliceKey{rule->node, rule->slice});
    rules_.erase(id);
  }
  return doomed.size();
}

const FlowRule* FlowTable::lookup(NodeId node, SliceId slice) const noexcept {
  const FlowRuleId* id = by_endpoint_.find(NodeSliceKey{node, slice});
  return id == nullptr ? nullptr : rules_.find(*id);
}

}  // namespace slices::transport
