#pragma once
// Structure-of-arrays store for the per-cell attached-UE population.
//
// The epoch hot loops touch exactly three UE attributes — identity,
// broadcast-PLMN membership and reported CQI — and they touch them for
// every attached UE, every epoch (the CQI random walk). Each attribute
// lives in its own contiguous column, so the wander loop streams a byte
// array and the batched serve loops index dense rows.
//
// The store is row-addressed and keeps no id index of its own: insert
// hands back the row, and the owner (RanController, whose UE record
// holds {plmn, cell, row}) addresses every later read, update and erase
// by that row. Row discipline is bit-compatible with DenseIdMap's slot
// discipline: rows are assigned in insertion order with erased rows
// reused LIFO, and iteration is ascending row order skipping holes. A
// given attach/detach history therefore yields the same visit order —
// and so the same wander RNG consumption — as an AoS DenseIdMap would
// (pinned by the randomized diff test in dense_map_test).

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "ran/phy.hpp"

namespace slices::ran {

class UeSoa {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Total rows (live + holes); the bound for row iteration.
  [[nodiscard]] std::size_t row_count() const noexcept { return ue_.size(); }

  /// Insert a row and return it. `plmn_index` is the position of the
  /// UE's PLMN in the cell's broadcast list (kept index-coded so serve
  /// loops never hash). The caller owns id uniqueness.
  std::uint32_t insert(UeId ue, std::uint8_t plmn_index, Cqi cqi) {
    std::uint32_t row;
    if (!free_.empty()) {
      row = free_.back();
      free_.pop_back();
    } else {
      row = static_cast<std::uint32_t>(ue_.size());
      ue_.push_back(UeId::invalid());
      plmn_.push_back(0);
      cqi_.push_back(0);
      live_.push_back(0);
    }
    ue_[row] = ue;
    plmn_[row] = plmn_index;
    cqi_[row] = static_cast<std::uint8_t>(cqi.index());
    live_[row] = 1;
    ++size_;
    return row;
  }

  /// Erase a live row. The freed row goes on a LIFO free list (same
  /// reuse order as DenseIdMap slots).
  void erase(std::uint32_t row) noexcept {
    assert(live(row));
    ue_[row] = UeId::invalid();
    live_[row] = 0;
    free_.push_back(row);
    --size_;
  }

  void clear() noexcept {
    ue_.clear();
    plmn_.clear();
    cqi_.clear();
    live_.clear();
    free_.clear();
    size_ = 0;
  }

  /// Pre-size the columns for `n` UEs.
  void reserve(std::size_t n) {
    ue_.reserve(n);
    plmn_.reserve(n);
    cqi_.reserve(n);
    live_.reserve(n);
  }

  // --- Column access (row validity: live(row) / ue_at(row).valid()) -------

  [[nodiscard]] bool live(std::uint32_t row) const noexcept { return ue_[row].valid(); }
  [[nodiscard]] UeId ue_at(std::uint32_t row) const noexcept { return ue_[row]; }
  [[nodiscard]] std::uint8_t plmn_index_at(std::uint32_t row) const noexcept {
    return plmn_[row];
  }
  [[nodiscard]] Cqi cqi_at(std::uint32_t row) const noexcept { return Cqi{cqi_[row]}; }

  void set_cqi(std::uint32_t row, Cqi cqi) noexcept {
    cqi_[row] = static_cast<std::uint8_t>(cqi.index());
  }
  /// Re-point a row at another broadcast-list position (PLMN withdrawal
  /// compaction).
  void set_plmn_index(std::uint32_t row, std::uint8_t plmn_index) noexcept {
    plmn_[row] = plmn_index;
  }

  /// Raw columns for the batched kernels. cqi values are the CQI index
  /// (1..15); rows where live() is false hold stale bytes — consult the
  /// ue column.
  [[nodiscard]] const std::uint8_t* cqi_column() const noexcept { return cqi_.data(); }
  [[nodiscard]] std::uint8_t* cqi_column() noexcept { return cqi_.data(); }
  [[nodiscard]] const std::uint8_t* plmn_column() const noexcept { return plmn_.data(); }
  /// 1 for live rows, 0 for holes — the branchless wander kernel masks
  /// with this byte instead of consulting the 8-byte ue column.
  [[nodiscard]] const std::uint8_t* live_column() const noexcept { return live_.data(); }

 private:
  std::vector<UeId> ue_;            ///< row -> UE id; invalid() marks a hole
  std::vector<std::uint8_t> plmn_;  ///< row -> index into the broadcast list
  std::vector<std::uint8_t> cqi_;   ///< row -> CQI index 1..15
  std::vector<std::uint8_t> live_;  ///< row -> 1 when live (mask column)
  std::vector<std::uint32_t> free_; ///< LIFO reusable rows
  std::size_t size_ = 0;
};

}  // namespace slices::ran
