#include "src/trace/trace_file.h"

#include <charconv>
#include <cstring>

#include "src/trace/codec.h"
#include "src/util/assert.h"

namespace flashsim {

namespace {

// Byte layout and validation live in src/trace/codec.h, shared with the
// fast readers in fast_source.cc.
constexpr size_t kBinaryMagicLen = kTraceBinaryMagicLen;
constexpr size_t kBinaryRecordSize = kTraceBinaryRecordSize;

}  // namespace

// ----------------------------------------------------------------------------
// FileTraceSource

std::unique_ptr<FileTraceSource> FileTraceSource::Open(const std::string& path,
                                                       std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return nullptr;
  }
  char magic[kBinaryMagicLen];
  const size_t got = std::fread(magic, 1, kBinaryMagicLen, file);
  TraceFormat format = TraceFormat::kText;
  long data_offset = 0;
  if (got == kBinaryMagicLen && std::memcmp(magic, kTraceBinaryMagic, kBinaryMagicLen) == 0) {
    format = TraceFormat::kBinary;
    data_offset = static_cast<long>(kBinaryMagicLen);
  } else {
    std::rewind(file);
  }
  return std::unique_ptr<FileTraceSource>(new FileTraceSource(file, format, data_offset));
}

FileTraceSource::FileTraceSource(std::FILE* file, TraceFormat format, long data_offset)
    : file_(file), format_(format), data_offset_(data_offset) {}

FileTraceSource::~FileTraceSource() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

bool FileTraceSource::Next(TraceRecord* record) {
  const bool ok = format_ == TraceFormat::kText ? NextText(record) : NextBinary(record);
  if (ok) {
    ++records_read_;
  }
  return ok;
}

bool FileTraceSource::NextText(TraceRecord* record) {
  char line[256];
  while (std::fgets(line, sizeof(line), file_) != nullptr) {
    ++line_;
    switch (ParseTraceTextLine(line, record)) {
      case TextLineResult::kSkip:
        continue;
      case TextLineResult::kMalformed:
        if (error_line_ == 0) {
          error_line_ = line_;
        }
        continue;  // Tolerate malformed lines; record where the first one was.
      case TextLineResult::kRecord:
        return true;
    }
  }
  return false;
}

bool FileTraceSource::NextBinary(TraceRecord* record) {
  unsigned char buf[kBinaryRecordSize];
  for (;;) {
    const size_t got = std::fread(buf, 1, kBinaryRecordSize, file_);
    if (got != kBinaryRecordSize) {
      return false;
    }
    if (DecodeTraceRecord(buf, record)) {
      return true;
    }
    if (error_line_ == 0) {
      error_line_ = records_read_ + 1;
    }
  }
}

void FileTraceSource::Rewind() {
  std::fseek(file_, data_offset_, SEEK_SET);
  records_read_ = 0;
  line_ = 0;
}

// ----------------------------------------------------------------------------
// TraceFileWriter

std::unique_ptr<TraceFileWriter> TraceFileWriter::Create(const std::string& path,
                                                         TraceFormat format, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot create trace file: " + path;
    }
    return nullptr;
  }
  if (format == TraceFormat::kBinary) {
    std::fwrite(kTraceBinaryMagic, 1, kBinaryMagicLen, file);
  } else {
    std::fputs("# fsim-text v1: <R|W> <host> <thread> <file> <block> <count> [w]\n", file);
  }
  return std::unique_ptr<TraceFileWriter>(new TraceFileWriter(file, format));
}

TraceFileWriter::TraceFileWriter(std::FILE* file, TraceFormat format)
    : file_(file), format_(format) {}

TraceFileWriter::~TraceFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void TraceFileWriter::Write(const TraceRecord& record) {
  FLASHSIM_CHECK(file_ != nullptr);
  if (format_ == TraceFormat::kBinary) {
    unsigned char buf[kBinaryRecordSize];
    EncodeTraceRecord(record, buf);
    std::fwrite(buf, 1, kBinaryRecordSize, file_);
  } else {
    // "<R|W> <host> <thread> <file> <block> <count>[ w]\n", formatted by hand:
    // a uint64_t takes at most 20 digits, so a line is at most 1 + 5 * 21 + 3
    // bytes.
    char line[112];
    char* p = line;
    *p++ = record.op == TraceOp::kWrite ? 'W' : 'R';
    const auto put = [&p](uint64_t value) {
      *p++ = ' ';
      p = std::to_chars(p, p + 20, value).ptr;
    };
    put(record.host);
    put(record.thread);
    put(record.file_id);
    put(record.block);
    put(record.block_count);
    if (record.warmup) {
      *p++ = ' ';
      *p++ = 'w';
    }
    *p++ = '\n';
    std::fwrite(line, 1, static_cast<size_t>(p - line), file_);
  }
  ++records_written_;
}

bool TraceFileWriter::Close() {
  if (file_ == nullptr) {
    return true;
  }
  const bool ok = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  return ok && closed;
}

}  // namespace flashsim
