// Fast trace ingestion (DESIGN.md §13): the replay front ends that feed the
// simulator at memory speed instead of one stdio call per record.
//
//   MmapTraceSource   — binary traces, the whole file mapped read-only;
//                       Next is a pointer walk over the 22-byte records
//                       (zero copies, zero syscalls after setup) and
//                       SizeHint is exact, so the engine pre-sizes its
//                       backlogs without guessing.
//   BufferedTextTraceSource — text traces through one big fread block
//                       buffer instead of per-line fgets. Reproduces
//                       fgets(256) chunking exactly, so long lines split
//                       (and mis-parse, and count) identically to the
//                       streaming reader.
//
// Both decode through src/trace/codec.h — the same bytes accept or reject
// identically in every reader (tests/trace_fuzz_test.cc holds them to
// record-for-record equality against FileTraceSource).
#ifndef FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
#define FLASHSIM_SRC_TRACE_FAST_SOURCE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/record.h"
#include "src/trace/source.h"

namespace flashsim {

// Binary-format reader over a read-only memory mapping. Records with fields
// out of range are skipped (first one noted in error_line(), counted in
// records, matching FileTraceSource); a trailing partial record is ignored.
class MmapTraceSource : public TraceSource {
 public:
  // Returns nullptr (and fills *error) if the file cannot be opened, is not
  // binary format, or cannot be mapped. An empty record region (magic-only
  // file) is valid and yields no records.
  static std::unique_ptr<MmapTraceSource> Open(const std::string& path, std::string* error);

  ~MmapTraceSource() override;

  MmapTraceSource(const MmapTraceSource&) = delete;
  MmapTraceSource& operator=(const MmapTraceSource&) = delete;

  bool Next(TraceRecord* record) override;
  void Rewind() override;
  // Exact record count (valid + skipped-invalid) — an upper bound on what
  // Next will deliver, which is what pre-sizing wants.
  uint64_t SizeHint() const override { return num_records_; }

  uint64_t records_read() const { return records_read_; }
  uint64_t error_line() const override { return error_line_; }

 private:
  MmapTraceSource(void* map, size_t map_size, size_t num_records);

  void* map_ = nullptr;
  size_t map_size_ = 0;
  const unsigned char* data_ = nullptr;  // first record, past the magic
  size_t num_records_ = 0;
  size_t cursor_ = 0;  // next record index
  uint64_t records_read_ = 0;
  uint64_t error_line_ = 0;
};

// Text-format reader that drains the file through a 1 MiB block buffer.
// Parse behavior (including fgets's 255-byte line chunking) is identical to
// FileTraceSource's text path by construction: lines are re-chunked from
// the block buffer and handed to the same shared parser.
class BufferedTextTraceSource : public TraceSource {
 public:
  static std::unique_ptr<BufferedTextTraceSource> Open(const std::string& path,
                                                       std::string* error);

  ~BufferedTextTraceSource() override;

  BufferedTextTraceSource(const BufferedTextTraceSource&) = delete;
  BufferedTextTraceSource& operator=(const BufferedTextTraceSource&) = delete;

  bool Next(TraceRecord* record) override;
  void Rewind() override;

  uint64_t records_read() const { return records_read_; }
  uint64_t error_line() const override { return error_line_; }

 private:
  explicit BufferedTextTraceSource(std::FILE* file);

  // Emulates fgets(line, 256, file_) against the block buffer: delivers up
  // to 255 chars ending at a newline (included) or at the 255-char cap,
  // NUL-terminated. Returns false at end of input.
  bool NextLine(char* line);
  void Refill();

  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  size_t pos_ = 0;  // read cursor into buf_
  size_t len_ = 0;  // valid bytes in buf_
  bool eof_ = false;
  uint64_t records_read_ = 0;
  uint64_t line_ = 0;
  uint64_t error_line_ = 0;
};

// Opens the fastest reader for the file's format: mmap for binary (falling
// back to the streaming FileTraceSource if mapping fails, e.g. on a pipe),
// block-buffered for text. Drop-in for FileTraceSource::Open.
std::unique_ptr<TraceSource> OpenTraceSource(const std::string& path, std::string* error);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_FAST_SOURCE_H_
