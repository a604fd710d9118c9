#pragma once
// Monotonic per-epoch arena for hot-loop scratch.
//
// The epoch kernel (RanController::serve_epoch and friends) needs
// a handful of flat scratch arrays whose sizes depend on the current
// cell/PLMN counts. Allocating them per epoch would put malloc on the
// hottest path in the system; keeping one named member per array makes
// the scratch set rigid. The Arena splits the difference: callers bump-
// allocate typed arrays out of one contiguous block, and `reset()`
// rewinds the cursor without releasing the block — after a warm-up
// epoch has grown the block to the high-water mark, every later epoch
// allocates nothing (the property epoch_alloc_test pins).
//
// Only trivially-destructible element types are accepted: reset() never
// runs destructors, it just forgets.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

namespace slices {

class Arena {
 public:
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Allocate a value-initialized array of `n` Ts. The span is valid
  /// until the next reset(). May fall back to a heap allocation (and
  /// grow the block for the next epoch) when the block is exhausted —
  /// steady state never hits that path.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    std::size_t offset = (cursor_ + alignof(T) - 1) & ~(alignof(T) - 1);
    if (offset + bytes > capacity_) {
      grow(offset + bytes);
      offset = (cursor_ + alignof(T) - 1) & ~(alignof(T) - 1);
    }
    T* data = reinterpret_cast<T*>(block_.get() + offset);
    cursor_ = offset + bytes;
    if (cursor_ > high_water_) high_water_ = cursor_;
    for (std::size_t i = 0; i < n; ++i) new (data + i) T{};
    return {data, n};
  }

  /// Rewind the cursor; capacity is kept so the next epoch reuses the
  /// same block.
  void reset() noexcept { cursor_ = 0; }

  /// Grow the block up front so later alloc_array calls cannot malloc.
  void reserve(std::size_t bytes) {
    if (bytes > capacity_) grow(bytes);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  void grow(std::size_t needed) {
    assert(cursor_ == 0 || needed > capacity_);
    std::size_t next = capacity_ == 0 ? 4096 : capacity_ * 2;
    while (next < needed) next *= 2;
    auto block = std::make_unique<std::byte[]>(next);
    // Live spans from the old block would dangle, so growth is only
    // legal while nothing allocated this epoch is still in use — the
    // kernel allocates everything up front, right after reset().
    if (cursor_ != 0) {
      for (std::size_t i = 0; i < cursor_; ++i) block[i] = block_[i];
    }
    block_ = std::move(block);
    capacity_ = next;
  }

  std::unique_ptr<std::byte[]> block_;
  std::size_t capacity_ = 0;
  std::size_t cursor_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace slices
