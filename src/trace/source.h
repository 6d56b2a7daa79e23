// Trace sources: anything that yields a stream of TraceRecords.
//
// The simulator consumes traces through this interface so that file-backed
// traces (SNIA-style conversions) and the synthetic generator are
// interchangeable. Sources are streamed — multi-terabyte traces never need
// to exist in memory or on disk at once.
#ifndef FLASHSIM_SRC_TRACE_SOURCE_H_
#define FLASHSIM_SRC_TRACE_SOURCE_H_

#include <vector>

#include "src/trace/record.h"

namespace flashsim {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  // Produces the next record; returns false at end of trace.
  virtual bool Next(TraceRecord* record) = 0;

  // Restarts the stream from the beginning (same records again).
  virtual void Rewind() = 0;

  // Optional upper-bound estimate of how many records the stream will
  // yield, so consumers can pre-size per-thread backlogs; 0 = unknown.
  virtual uint64_t SizeHint() const { return 0; }

  // Where the first malformed entry the stream skipped was: its line number
  // in a text trace, its record number in a binary one; 0 if none so far.
  // Replay front ends check it after the run and refuse to report metrics
  // from a partly parsed trace.
  virtual uint64_t error_line() const { return 0; }
};

// In-memory source, mainly for tests and tiny examples.
class VectorTraceSource : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  bool Next(TraceRecord* record) override {
    if (pos_ >= records_.size()) {
      return false;
    }
    *record = records_[pos_++];
    return true;
  }

  void Rewind() override { pos_ = 0; }

  uint64_t SizeHint() const override { return records_.size(); }

 private:
  std::vector<TraceRecord> records_;
  size_t pos_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_SOURCE_H_
