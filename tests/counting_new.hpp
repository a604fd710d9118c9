#pragma once
// Counting global allocator for the zero-allocation tests
// (epoch_alloc_test, mobility_test).
//
// Replaces every form of global operator new and delete: plain, array,
// nothrow, sized and aligned. Each new counts one allocation while an
// AllocationCounter is alive, on any thread, and every form allocates
// with malloc or aligned_alloc and releases with free, so no pair of
// them can mismatch. A form left to the library would escape the count
// (libstdc++'s stable_sort takes its buffer through the nothrow form)
// and, freed through a replaced delete, trip AddressSanitizer's
// alloc-dealloc check.
//
// The replacements are ordinary definitions, as the standard requires:
// include this header from exactly one source file of a test binary,
// and keep that binary to itself.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace slices {
namespace counting_new {

inline std::atomic<std::uint64_t> allocations{0};
inline std::atomic<bool> counting{false};

inline void* allocate(std::size_t size, std::size_t alignment) noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return rounded < size ? nullptr : std::aligned_alloc(alignment, rounded);
}

inline void* allocate_or_throw(std::size_t size, std::size_t alignment) {
  void* p = allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace counting_new

/// RAII window during which global allocations are counted.
class AllocationCounter {
 public:
  AllocationCounter() {
    counting_new::allocations.store(0, std::memory_order_relaxed);
    counting_new::counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationCounter() { counting_new::counting.store(false, std::memory_order_relaxed); }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  [[nodiscard]] std::uint64_t count() const {
    return counting_new::allocations.load(std::memory_order_relaxed);
  }
};

}  // namespace slices

void* operator new(std::size_t size) {
  return slices::counting_new::allocate_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  return slices::counting_new::allocate_or_throw(size, 0);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return slices::counting_new::allocate(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return slices::counting_new::allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return slices::counting_new::allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return slices::counting_new::allocate_or_throw(size, static_cast<std::size_t>(alignment));
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return slices::counting_new::allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return slices::counting_new::allocate(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
