#pragma once
// Revenue accounting: the "gains vs. penalties" the demo dashboard shows.
//
// Slice income accrues per active hour at the contracted price; SLA
// violations charge the tenant-declared penalty per violation epoch.
// Everything is exact fixed-point Money.

#include <cstdint>
#include <map>
#include <utility>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace slices::core {

/// Per-slice revenue breakdown.
struct SliceLedgerEntry {
  Money earned;
  Money penalties;
  std::uint64_t violation_epochs = 0;

  [[nodiscard]] Money net() const noexcept { return earned - penalties; }
};

/// The operator's books: one entry per open slice, and totals over
/// every slice ever booked, kept as the entries change (cents add
/// exactly, in any order).
class RevenueLedger {
 public:
  /// Accrue income for `active_time` of slice runtime at `price_per_hour`.
  void accrue(SliceId slice, Money price_per_hour, Duration active_time) {
    add_earned(slice, price_per_hour * active_time.as_hours());
  }

  /// Charge one violation epoch at the slice's declared penalty.
  void charge_violation(SliceId slice, Money penalty) {
    SliceLedgerEntry& entry = entries_[slice];
    entry.penalties += penalty;
    ++entry.violation_epochs;
    totals_.penalties += penalty;
    ++totals_.violation_epochs;
  }

  /// Crash-recovery replay: re-apply an exact earned amount journaled at
  /// the original accrual (avoids re-deriving price x hours, which could
  /// round differently).
  void add_earned(SliceId slice, Money amount) {
    entries_[slice].earned += amount;
    totals_.earned += amount;
  }

  /// A slice closed: drop its entry. The totals keep what it earned
  /// and paid.
  void erase(SliceId slice) { entries_.erase(slice); }

  /// Crash-recovery snapshot load: install the books wholesale — the
  /// open slices' entries and the totals over every slice ever booked.
  void restore(std::map<SliceId, SliceLedgerEntry> entries, SliceLedgerEntry totals) {
    entries_ = std::move(entries);
    totals_ = totals;
  }

  [[nodiscard]] const SliceLedgerEntry* find(SliceId slice) const noexcept {
    const auto it = entries_.find(slice);
    return it == entries_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] Money total_earned() const noexcept { return totals_.earned; }
  [[nodiscard]] Money total_penalties() const noexcept { return totals_.penalties; }
  [[nodiscard]] Money net_revenue() const noexcept { return totals_.net(); }
  [[nodiscard]] std::uint64_t total_violation_epochs() const noexcept {
    return totals_.violation_epochs;
  }

  [[nodiscard]] const std::map<SliceId, SliceLedgerEntry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::map<SliceId, SliceLedgerEntry> entries_;
  SliceLedgerEntry totals_;
};

}  // namespace slices::core
