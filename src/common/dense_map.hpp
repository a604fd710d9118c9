#pragma once
// Dense slot-indexed id containers for the per-UE / per-flow data plane.
//
// The orchestrator's hot paths (attach/detach churn, the per-epoch
// demand scans) used to walk node-based red-black trees; every lookup
// chased pointers and every insert allocated. `DenseIdMap` replaces
// them with an open-addressed index over a contiguous slot arena:
//
//  * O(1) insert / erase / lookup (amortized; linear probing with
//    backward-shift deletion, so no tombstone decay);
//  * stable handles — values never move once constructed. The slot
//    arena is a `StableVector` (chunked, pointer-stable growth), so a
//    `T*` from find()/insert() survives any number of later inserts;
//  * deterministic iteration in *slot order*: ascending slot index,
//    i.e. insertion order with erased slots reused LIFO. Slot order is
//    a pure function of the operation history, never of key hashes or
//    addresses — which is what lets the epoch loop iterate UEs while
//    consuming a seeded RNG and still honour the bit-identical results
//    contract pinned by determinism_test (see docs/architecture.md,
//    "Data-plane containers").
//
// Keys default to the strong `Id<Tag>` types via `DenseKeyTraits`;
// other key types (e.g. the flow table's (node, slice) pair) plug in a
// custom traits type providing `invalid()` and `hash()`.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ids.hpp"

namespace slices {

/// splitmix64 finalizer: ids are near-sequential, so the index needs a
/// real mixer to spread them over the probe table.
[[nodiscard]] constexpr std::uint64_t dense_mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key requirements for DenseIdMap: an `invalid()` sentinel (marks free
/// slots; never inserted) and a well-mixed `hash()`.
template <typename Key>
struct DenseKeyTraits;

template <typename Tag>
struct DenseKeyTraits<Id<Tag>> {
  [[nodiscard]] static constexpr Id<Tag> invalid() noexcept { return Id<Tag>::invalid(); }
  [[nodiscard]] static constexpr std::uint64_t hash(Id<Tag> id) noexcept {
    return dense_mix64(id.value());
  }
};

/// Chunked vector: grows in fixed-size blocks so existing elements
/// never move (pointer/reference stability under growth). Elements are
/// default-constructed a block at a time; T must be default- and
/// move-constructible. Index access is two loads (block, offset) — the
/// blocks are contiguous runs, so sequential walks stay cache-friendly.
template <typename T, std::size_t BlockSize = 256>
class StableVector {
  static_assert(BlockSize > 0 && (BlockSize & (BlockSize - 1)) == 0,
                "BlockSize must be a power of two");

 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return blocks_[i / BlockSize][i & (BlockSize - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return blocks_[i / BlockSize][i & (BlockSize - 1)];
  }

  /// Append a default-constructed element and return its index.
  std::size_t push_slot() {
    if (size_ == blocks_.size() * BlockSize) {
      blocks_.push_back(std::make_unique<T[]>(BlockSize));
    }
    return size_++;
  }

  void clear() noexcept {
    blocks_.clear();
    size_ = 0;
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

/// Open-addressed map from a strong id to a value, with stable value
/// addresses and deterministic slot-order iteration. See file header
/// for the full contract.
template <typename Key, typename T, typename Traits = DenseKeyTraits<Key>>
class DenseIdMap {
 public:
  /// One arena slot. Free slots carry `Traits::invalid()` as key and a
  /// default-constructed value; iteration skips them. The two public
  /// members make range-for structured bindings read like the old map
  /// code: `for (auto& [ue, rec] : ues_)`.
  struct Slot {
    Key key{Traits::invalid()};
    T value{};
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  DenseIdMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool contains(Key key) const noexcept { return find_slot(key) != kNoSlot; }

  [[nodiscard]] T* find(Key key) noexcept {
    const std::uint32_t slot = find_slot(key);
    return slot == kNoSlot ? nullptr : &slots_[slot].value;
  }
  [[nodiscard]] const T* find(Key key) const noexcept {
    const std::uint32_t slot = find_slot(key);
    return slot == kNoSlot ? nullptr : &slots_[slot].value;
  }

  /// Insert; returns nullptr (and leaves the map unchanged) when the
  /// key is already present.
  T* insert(Key key, T value) {
    assert(key != Traits::invalid());
    if (contains(key)) return nullptr;
    return &emplace_new(key, std::move(value));
  }

  /// Insert or overwrite; returns the stored value.
  T& insert_or_assign(Key key, T value) {
    assert(key != Traits::invalid());
    if (T* existing = find(key)) {
      *existing = std::move(value);
      return *existing;
    }
    return emplace_new(key, std::move(value));
  }

  /// Erase; returns false when the key was absent. When `taken` is
  /// non-null the erased value is moved into it, so a lookup-then-erase
  /// costs one probe. The freed slot is pushed on a LIFO free list and
  /// reused by the next insert, so slot assignment stays a pure
  /// function of the operation history.
  bool erase(Key key, T* taken = nullptr) {
    const std::size_t mask = index_.empty() ? 0 : index_.size() - 1;
    if (index_.empty()) return false;
    std::size_t pos = Traits::hash(key) & mask;
    while (true) {
      const std::uint32_t slot = index_[pos];
      if (slot == kNoSlot) return false;
      if (slots_[slot].key == key) {
        slots_[slot].key = Traits::invalid();
        if (taken != nullptr) *taken = std::move(slots_[slot].value);
        slots_[slot].value = T{};  // release payload resources now
        free_.push_back(slot);
        index_backward_shift_erase(pos);
        --size_;
        return true;
      }
      pos = (pos + 1) & mask;
    }
  }

  void clear() noexcept {
    slots_.clear();
    index_.clear();
    free_.clear();
    size_ = 0;
  }

  /// Pre-size the probe table for `n` keys (avoids rehashing mid-burst).
  void reserve(std::size_t n) {
    std::size_t cap = kMinIndexSize;
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > index_.size()) rehash(cap);
  }

  /// Slot index of `key`, or kNoSlot. Slot indices are stable until the
  /// key is erased; `slot_at` turns one back into the stored pair.
  [[nodiscard]] std::uint32_t slot_of(Key key) const noexcept { return find_slot(key); }
  [[nodiscard]] Slot& slot_at(std::uint32_t slot) noexcept { return slots_[slot]; }
  [[nodiscard]] const Slot& slot_at(std::uint32_t slot) const noexcept { return slots_[slot]; }
  /// Total arena slots (live + free); the upper bound for slot indices.
  [[nodiscard]] std::size_t slot_count() const noexcept { return slots_.size(); }

  // --- Iteration: ascending slot index, skipping free slots ---------------

  template <bool Const>
  class Iterator {
   public:
    using Map = std::conditional_t<Const, const DenseIdMap, DenseIdMap>;
    using reference = std::conditional_t<Const, const Slot&, Slot&>;

    Iterator(Map* map, std::size_t pos) noexcept : map_(map), pos_(pos) { skip_free(); }

    reference operator*() const noexcept { return map_->slots_[pos_]; }
    Iterator& operator++() noexcept {
      ++pos_;
      skip_free();
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.pos_ == b.pos_;
    }

   private:
    void skip_free() noexcept {
      while (pos_ < map_->slots_.size() && !(map_->slots_[pos_].key != Traits::invalid())) {
        ++pos_;
      }
    }
    Map* map_;
    std::size_t pos_;
  };

  [[nodiscard]] Iterator<false> begin() noexcept { return {this, 0}; }
  [[nodiscard]] Iterator<false> end() noexcept { return {this, slots_.size()}; }
  [[nodiscard]] Iterator<true> begin() const noexcept { return {this, 0}; }
  [[nodiscard]] Iterator<true> end() const noexcept { return {this, slots_.size()}; }

 private:
  static constexpr std::size_t kMinIndexSize = 16;

  [[nodiscard]] std::uint32_t find_slot(Key key) const noexcept {
    if (index_.empty()) return kNoSlot;
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = Traits::hash(key) & mask;
    while (true) {
      const std::uint32_t slot = index_[pos];
      if (slot == kNoSlot) return kNoSlot;
      if (slots_[slot].key == key) return slot;
      pos = (pos + 1) & mask;
    }
  }

  T& emplace_new(Key key, T&& value) {
    if ((size_ + 1) * 4 > index_.size() * 3) {
      rehash(index_.empty() ? kMinIndexSize : index_.size() * 2);
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.push_slot());
    }
    Slot& s = slots_[slot];
    s.key = key;
    s.value = std::move(value);
    index_insert(slot);
    ++size_;
    return s.value;
  }

  void index_insert(std::uint32_t slot) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = Traits::hash(slots_[slot].key) & mask;
    while (index_[pos] != kNoSlot) pos = (pos + 1) & mask;
    index_[pos] = slot;
  }

  /// Knuth's algorithm R: close the probe-chain hole left at `pos` by
  /// shifting back any later entry whose home position cannot reach its
  /// current cell once the hole exists. No tombstones, so load factor
  /// tracks live keys exactly.
  void index_backward_shift_erase(std::size_t pos) noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    index_[hole] = kNoSlot;
    std::size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask;
      const std::uint32_t slot = index_[probe];
      if (slot == kNoSlot) return;
      const std::size_t home = Traits::hash(slots_[slot].key) & mask;
      // Move unless home lies cyclically within (hole, probe].
      const bool movable = hole <= probe ? (home <= hole || home > probe)
                                         : (home <= hole && home > probe);
      if (movable) {
        index_[hole] = slot;
        index_[probe] = kNoSlot;
        hole = probe;
      }
    }
  }

  void rehash(std::size_t new_size) {
    index_.assign(new_size, kNoSlot);
    const std::size_t mask = new_size - 1;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].key == Traits::invalid()) continue;
      std::size_t pos = Traits::hash(slots_[i].key) & mask;
      while (index_[pos] != kNoSlot) pos = (pos + 1) & mask;
      index_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  StableVector<Slot> slots_;         ///< arena; values never move
  std::vector<std::uint32_t> index_; ///< open-addressed key -> slot
  std::vector<std::uint32_t> free_;  ///< LIFO reusable slots
  std::size_t size_ = 0;
};

}  // namespace slices
