#pragma once

// 64-byte-aligned std::vector for codec scratch buffers.
//
// The AVX2 predict/quantize rows ("compressors/simd_kernels.h") store four
// codes at a time into the thread-local `codes` scratch, and the sharded
// entropy decoder writes disjoint shard slices of one buffer from multiple
// threads. The rows use unaligned loads and stores, so alignment is a speed
// matter, never a correctness one. A 64-byte base alignment guarantees (a)
// a row that starts at a multiple of four codes never splits a 16-byte
// store across cache lines and (b) shard boundaries rounded to the vector
// width never false-share a line between lanes. std::allocator only
// guarantees alignof(T), so the scratch vectors use this allocator instead;
// AlignedVec<T> is drop-in for std::vector<T> everywhere the codecs used one
// (ScratchGuard / trim_scratch are templates and keep working).

#include <cstddef>
#include <new>
#include <vector>

namespace mrc {

/// One x86 cache line; also the widest vector (AVX-512) register width, so
/// it stays valid if the kernels ever grow a 512-bit path.
inline constexpr std::size_t kScratchAlign = 64;

template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kScratchAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kScratchAlign});
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose data() is always 64-byte aligned.
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace mrc
