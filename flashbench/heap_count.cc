// Per-thread heap accounting for the traced driver (flashbench_traced).
//
// Replaces the global operator new/delete with malloc/free plus two
// thread-local counters: bytes currently live that this thread allocated
// and the high-water mark since the last reset. A sweep point runs start to
// finish on one worker thread, so the peak minus the live bytes at the
// point's start is the heap that point's Simulation occupied — the
// per-point footprint behind core.resident_mib, unconfounded by the points
// other workers run at the same time. Usable sizes are counted, so the
// figure is what malloc actually handed out.
//
// Only the traced executable links this file; the untraced timings run on
// the toolchain's own allocator entry points.
#include "heap_count.h"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace flashbench {
namespace {

thread_local int64_t live_bytes = 0;
thread_local int64_t peak_bytes = 0;

void* Allocate(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  if (live_bytes > peak_bytes) {
    peak_bytes = live_bytes;
  }
  return p;
}

void Release(void* p) {
  if (p == nullptr) {
    return;
  }
  live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

int64_t ThreadHeapLive() { return live_bytes; }

int64_t ThreadHeapPeak() { return peak_bytes; }

void ResetThreadHeapPeak() { peak_bytes = live_bytes; }

}  // namespace flashbench

void* operator new(size_t size) { return flashbench::Allocate(size); }
void* operator new[](size_t size) { return flashbench::Allocate(size); }
void operator delete(void* p) noexcept { flashbench::Release(p); }
void operator delete[](void* p) noexcept { flashbench::Release(p); }
void operator delete(void* p, size_t) noexcept { flashbench::Release(p); }
void operator delete[](void* p, size_t) noexcept { flashbench::Release(p); }
