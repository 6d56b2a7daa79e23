// Per-thread heap counters; defined by heap_count.cc, which only the traced
// driver links (see heap_count.cc for what is counted).
#ifndef FLASHBENCH_HEAP_COUNT_H_
#define FLASHBENCH_HEAP_COUNT_H_

#include <cstdint>

namespace flashbench {

// Bytes this thread allocated through operator new that are still live.
int64_t ThreadHeapLive();
// High-water mark of ThreadHeapLive() since the last reset.
int64_t ThreadHeapPeak();
void ResetThreadHeapPeak();

}  // namespace flashbench

#endif  // FLASHBENCH_HEAP_COUNT_H_
