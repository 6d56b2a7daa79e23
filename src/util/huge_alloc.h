// Standard allocator that backs large arrays with transparent huge pages.
//
// The cache index, the LRU slot array, the coherence directory and the FTL
// map are flat arrays that every simulated block access probes at a random
// offset. At paper scale they reach hundreds of MiB, and through 4 KiB pages
// nearly every probe is also a TLB miss. Allocations of at least
// kHugePageThreshold bytes are therefore rounded up to whole 2 MiB pages,
// 2 MiB-aligned, and marked MADV_HUGEPAGE so the kernel can map them with
// huge pages even when THP runs in "madvise" mode. Smaller allocations go
// through plain operator new untouched, so small caches pay nothing.
//
// Allocate and deallocate pick the same path from the same byte count, which
// std::vector guarantees by passing the allocated capacity back.
#ifndef FLASHSIM_SRC_UTIL_HUGE_ALLOC_H_
#define FLASHSIM_SRC_UTIL_HUGE_ALLOC_H_

#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace flashsim {

inline constexpr size_t kHugePageBytes = size_t{2} << 20;
inline constexpr size_t kHugePageThreshold = size_t{4} << 20;

// Bytes actually reserved for a request of `bytes`: rounded up to whole huge
// pages at or above the threshold, unchanged below it.
constexpr size_t HugePageRoundedBytes(size_t bytes) {
  return bytes < kHugePageThreshold ? bytes
                                    : (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageThreshold) {
      return static_cast<T*>(::operator new(bytes));
    }
    const size_t rounded = HugePageRoundedBytes(bytes);
    void* p = std::aligned_alloc(kHugePageBytes, rounded);
    if (p == nullptr) {
      throw std::bad_alloc();
    }
#if defined(MADV_HUGEPAGE)
    ::madvise(p, rounded, MADV_HUGEPAGE);  // advisory: failure just means 4 KiB pages
#endif
    return static_cast<T*>(p);
  }

  void deallocate(T* p, size_t n) {
    if (n * sizeof(T) < kHugePageThreshold) {
      ::operator delete(p);
    } else {
      std::free(p);
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const {
    return true;
  }
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_HUGE_ALLOC_H_
