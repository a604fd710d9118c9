#pragma once
// Strong identifier types used across all domains of the orchestration
// stack. Every entity that crosses a module boundary (slices, cells,
// PLMNs, transport nodes/links, hosts, VMs, Heat stacks, UEs, requests)
// is addressed by a distinct, non-convertible integer id so that, e.g.,
// a CellId can never be passed where a HostId is expected.

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace slices {

/// CRTP-free tagged id: a 64-bit handle distinguished by its Tag type.
/// Ids are orderable and hashable so they can key std:: containers.
template <typename Tag>
class Id {
 public:
  /// Sentinel value used by `invalid()`; never allocated by makers.
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  constexpr Id() noexcept = default;
  constexpr explicit Id(std::uint64_t v) noexcept : value_(v) {}

  /// An id that compares unequal to every allocated id.
  [[nodiscard]] static constexpr Id invalid() noexcept { return Id{kInvalid}; }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != kInvalid; }

  friend constexpr auto operator<=>(Id, Id) noexcept = default;

  friend std::ostream& operator<<(std::ostream& os, Id id) {
    return os << id.value_;
  }

 private:
  std::uint64_t value_ = kInvalid;
};

/// Monotonic id allocator; one instance per id space.
template <typename Tag>
class IdAllocator {
 public:
  [[nodiscard]] Id<Tag> next() noexcept { return Id<Tag>{next_++}; }

  /// The value the next next() returns, for durable-state dumps.
  [[nodiscard]] std::uint64_t peek() const noexcept { return next_; }

  /// Ensure future next() calls return ids strictly above `id` —
  /// crash-recovery replay restores entities under their original ids
  /// and must keep the allocator ahead of everything restored.
  void advance_past(Id<Tag> id) noexcept {
    if (id.valid() && id.value() >= next_) next_ = id.value() + 1;
  }

 private:
  std::uint64_t next_ = 1;  // 0 is reserved for fixtures / well-known ids
};

struct SliceTag {};
struct RequestTag {};
struct PlmnTag {};
struct CellTag {};
struct UeTag {};
struct NodeTag {};
struct LinkTag {};
struct PathTag {};
struct FlowRuleTag {};
struct DatacenterTag {};
struct HostTag {};
struct VmTag {};
struct StackTag {};
struct TenantTag {};

using SliceId = Id<SliceTag>;           ///< An admitted end-to-end network slice.
using RequestId = Id<RequestTag>;       ///< A slice request (admitted or not).
using PlmnId = Id<PlmnTag>;             ///< Public Land Mobile Network id a slice is mapped to.
using CellId = Id<CellTag>;             ///< One eNB cell in the RAN.
using UeId = Id<UeTag>;                 ///< A user equipment.
using NodeId = Id<NodeTag>;             ///< A transport-network node (switch/router/radio head).
using LinkId = Id<LinkTag>;             ///< A directed transport link.
using PathId = Id<PathTag>;             ///< An installed transport path reservation.
using FlowRuleId = Id<FlowRuleTag>;     ///< An OpenFlow-style rule installed on a node.
using DatacenterId = Id<DatacenterTag>; ///< An edge or core datacenter.
using HostId = Id<HostTag>;             ///< A compute host inside a datacenter.
using VmId = Id<VmTag>;                 ///< A virtual machine.
using StackId = Id<StackTag>;           ///< A Heat-style orchestration stack.
using TenantId = Id<TenantTag>;         ///< The vertical/tenant owning slice requests.

}  // namespace slices

namespace std {
template <typename Tag>
struct hash<slices::Id<Tag>> {
  size_t operator()(slices::Id<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
