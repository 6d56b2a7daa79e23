// Trace file reader/writer in two formats:
//
//   Text ("fsim-text v1"): one record per line,
//     <R|W> <host> <thread> <file> <block> <count> [w]
//   with '#' comments and blank lines ignored; the trailing "w" marks warmup
//   records. Easy to write converters for SNIA/Mercury-style traces.
//
//   Binary ("FSIMB1\n" magic): packed little-endian records, 22 bytes each —
//   compact enough to store multi-hundred-million-record traces.
#ifndef FLASHSIM_SRC_TRACE_TRACE_FILE_H_
#define FLASHSIM_SRC_TRACE_TRACE_FILE_H_

#include <cstdio>
#include <memory>
#include <string>

#include "src/trace/record.h"
#include "src/trace/source.h"

namespace flashsim {

enum class TraceFormat {
  kText,
  kBinary,
};

// Streams records from a trace file. Detects the format from the file
// header (binary magic vs. anything else = text).
class FileTraceSource : public TraceSource {
 public:
  // Returns nullptr (and fills *error) if the file cannot be opened/parsed.
  static std::unique_ptr<FileTraceSource> Open(const std::string& path, std::string* error);

  ~FileTraceSource() override;

  FileTraceSource(const FileTraceSource&) = delete;
  FileTraceSource& operator=(const FileTraceSource&) = delete;

  bool Next(TraceRecord* record) override;
  void Rewind() override;

  TraceFormat format() const { return format_; }
  uint64_t records_read() const { return records_read_; }
  uint64_t error_line() const override { return error_line_; }

 private:
  FileTraceSource(std::FILE* file, TraceFormat format, long data_offset);

  bool NextText(TraceRecord* record);
  bool NextBinary(TraceRecord* record);

  std::FILE* file_ = nullptr;
  TraceFormat format_ = TraceFormat::kText;
  long data_offset_ = 0;
  uint64_t records_read_ = 0;
  uint64_t line_ = 0;
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
