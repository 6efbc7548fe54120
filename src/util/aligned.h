// A minimal over-aligned allocator for STL containers.
//
// PathLabeling keeps its dense label matrix in a
// std::vector<DistT, AlignedAllocator<DistT, 32>> whose storage starts on
// a 32-byte boundary; with the padded row stride (a multiple of 16 DistT
// lanes = 32 bytes) every row starts aligned. The layout is kept because
// shrinking it moves the matrix across glibc's dynamic mmap threshold and
// slows loading (see kLabelRowLaneAlign in core/labeling.h), not for any
// vector load.

#ifndef QBS_UTIL_ALIGNED_H_
#define QBS_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>

namespace qbs {

template <typename T, std::size_t Alignment>
class AlignedAllocator {
  static_assert(Alignment >= alignof(T), "alignment below natural");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not pow2");

 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

}  // namespace qbs

#endif  // QBS_UTIL_ALIGNED_H_
