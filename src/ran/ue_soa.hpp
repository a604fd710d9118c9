#pragma once
// Structure-of-arrays store for the per-cell attached-UE population.
//
// A UE row is two bytes, each in its own contiguous byte column: the
// PLMN's slot in the owning cell and the reported CQI. A handover's row
// move writes two bytes per cell. The PLMN byte is the slot the cell
// keeps fixed for as long as it broadcasts that PLMN (ran/cell.hpp), so
// no row is rewritten when another PLMN is withdrawn.
//
// The store keeps no UE identity and no liveness column. A hole — an
// erased row — is marked by CQI byte 0: Cqi asserts 1..15, so 0 is
// never a real CQI, and a column reader masks on `cqi != 0`. The
// store is row-addressed: insert hands back the row, and the owner
// (RanController, whose UE record holds {plmn, cell, row}) addresses
// every later read and erase by that row. Row discipline is
// bit-compatible with DenseIdMap's slot discipline: rows are assigned in
// insertion order with erased rows reused LIFO, and iteration is
// ascending row order skipping holes. A given attach/detach history
// therefore yields the same rows and visit order as an AoS DenseIdMap
// would (pinned by the randomized diff test in dense_map_test).

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "ran/phy.hpp"

namespace slices::ran {

class UeSoa {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Insert a row and return it. `plmn_slot` is the cell's stable slot
  /// of the UE's PLMN (< kMaxBroadcastPlmns).
  std::uint32_t insert(std::uint8_t plmn_slot, Cqi cqi) {
    std::uint32_t row;
    if (!free_.empty()) {
      row = free_.back();
      free_.pop_back();
    } else {
      row = static_cast<std::uint32_t>(cqi_.size());
      plmn_.push_back(0);
      cqi_.push_back(0);
    }
    plmn_[row] = plmn_slot;
    cqi_[row] = static_cast<std::uint8_t>(cqi.index());
    ++size_;
    return row;
  }

  /// Erase a live row: its CQI byte becomes 0 (the hole mark) and the
  /// row goes on a LIFO free list (same reuse order as DenseIdMap slots).
  void erase(std::uint32_t row) noexcept {
    assert(live(row));
    cqi_[row] = 0;
    free_.push_back(row);
    --size_;
  }

  // --- Column access ------------------------------------------------------

  /// A row is live while its CQI byte is non-zero.
  [[nodiscard]] bool live(std::uint32_t row) const noexcept { return cqi_[row] != 0; }
  [[nodiscard]] std::uint8_t plmn_slot_at(std::uint32_t row) const noexcept {
    return plmn_[row];
  }
  /// CQI of live row `row`.
  [[nodiscard]] Cqi cqi_at(std::uint32_t row) const noexcept { return Cqi{cqi_[row]}; }

  /// Raw columns, one byte per row (live rows and holes), so their size
  /// bounds row iteration. cqi values are the CQI index (1..15) on live
  /// rows and 0 on holes; a hole's plmn byte is stale.
  [[nodiscard]] std::span<const std::uint8_t> cqi_column() const noexcept { return cqi_; }
  [[nodiscard]] std::span<const std::uint8_t> plmn_column() const noexcept { return plmn_; }

 private:
  std::vector<std::uint8_t> plmn_;  ///< row -> the cell's slot of the UE's PLMN
  std::vector<std::uint8_t> cqi_;   ///< row -> CQI index 1..15; 0 marks a hole
  std::vector<std::uint32_t> free_; ///< LIFO reusable rows
  std::size_t size_ = 0;
};

}  // namespace slices::ran
