// 64-byte-aligned storage for tensors and workspaces.  Cache-line (and
// AVX-512-ready) alignment lets the vector kernels start on an aligned
// lane boundary and keeps rows from straddling lines at the matrix head.
// Alignment is a performance property only: kernels use unaligned loads,
// so nothing about numerical behaviour depends on it.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace eefei::ml {

inline constexpr std::size_t kTensorAlignment = 64;

/// Minimal C++17 allocator handing out 64-byte-aligned blocks via the
/// aligned operator new.  Stateless: all instances are interchangeable.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kTensorAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kTensorAlignment});
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// The storage type of Workspace buffers.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

}  // namespace eefei::ml
