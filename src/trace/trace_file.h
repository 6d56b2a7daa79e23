// Trace file reader and writer in two formats:
//
//   Text ("fsim-text v1"): one record per line,
//     <R|W> <host> <thread> <file> <block> <count> [w]
//   with '#' comments and blank lines ignored; the trailing "w" marks warmup
//   records. Easy to write converters for SNIA/Mercury-style traces.
//
//   Binary ("FSIMB1\n" magic): packed little-endian records, 22 bytes each —
//   compact enough to store multi-hundred-million-record traces.
//
// The byte layouts and validation rules live in src/trace/codec.h.
#ifndef FLASHSIM_SRC_TRACE_TRACE_FILE_H_
#define FLASHSIM_SRC_TRACE_TRACE_FILE_H_

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/record.h"
#include "src/trace/source.h"

namespace flashsim {

enum class TraceFormat {
  kText,
  kBinary,
};

// The reader's block size: every fread asks for this many bytes.
inline constexpr size_t kTraceReadBlockBytes = 1 << 20;

class FileTraceSource;

// Opens a trace file or pipe (DESIGN.md §13). Returns nullptr and fills
// *error if the path cannot be opened.
std::unique_ptr<FileTraceSource> OpenTraceSource(const std::string& path, std::string* error);

// Streams records from a trace through one block buffer. The format comes
// from the first block (binary magic vs. anything else = text), so the
// input is read once, front to back: pipes work like files.
//
//   Text: lines split on '\n' only, each handed whole to ParseTraceTextLine.
//   A line too long for the buffer is a comment if its first non-blank byte
//   is '#', and malformed otherwise.
//   Binary: 22-byte records; a trailing partial record is ignored.
//
// Malformed lines or records are skipped; error_line() names the first one.
class FileTraceSource : public TraceSource {
 public:
  ~FileTraceSource() override;

  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  bool Next(TraceRecord* record) override;
  // Restarts from the first record; aborts on input that cannot seek (a pipe).
  void Rewind() override;
  // Binary traces in a regular file: the exact record count (valid and
  // invalid). Otherwise 0, unknown.
  uint64_t SizeHint() const override { return size_hint_; }
  uint64_t error_line() const override { return error_line_; }

  TraceFormat format() const { return format_; }

 private:
  friend std::unique_ptr<FileTraceSource> OpenTraceSource(const std::string& path,
                                                          std::string* error);
  // Reads the first block and sniffs the format from it.
  explicit FileTraceSource(std::FILE* file);

  // Moves the unread bytes to the front of the buffer and fills the rest.
  void Refill();
  bool NextText(TraceRecord* record);
  bool NextBinary(TraceRecord* record);
  // Consumes the rest of a line that filled the whole buffer.
  void SkipOverlongLine();

  std::FILE* file_ = nullptr;
  TraceFormat format_ = TraceFormat::kText;
  uint64_t size_hint_ = 0;
  // One spare byte past the block, so a final line without '\n' can be
  // NUL-terminated in place.
  std::vector<char> buf_;
  size_t pos_ = 0;  // read cursor into buf_
  size_t len_ = 0;  // valid bytes in buf_
  bool eof_ = false;
  uint64_t entry_ = 0;  // lines (text) or records (binary) consumed
  uint64_t error_line_ = 0;
};

// Writes records to a trace file in the chosen format.
class TraceFileWriter {
 public:
  static std::unique_ptr<TraceFileWriter> Create(const std::string& path, TraceFormat format,
                                                 std::string* error);

  ~TraceFileWriter();

  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void Write(const TraceRecord& record);
  // Flushes and closes; returns false on I/O error.
  bool Close();

  uint64_t records_written() const { return records_written_; }

 private:
  TraceFileWriter(std::FILE* file, TraceFormat format);

  std::FILE* file_ = nullptr;
  TraceFormat format_ = TraceFormat::kText;
  uint64_t records_written_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_TRACE_TRACE_FILE_H_
