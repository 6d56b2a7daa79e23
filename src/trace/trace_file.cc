#include "src/trace/trace_file.h"

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cstring>

#include "src/trace/codec.h"
#include "src/util/assert.h"

namespace flashsim {

// ----------------------------------------------------------------------------
// FileTraceSource

std::unique_ptr<FileTraceSource> OpenTraceSource(const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return nullptr;
  }
  return std::unique_ptr<FileTraceSource>(new FileTraceSource(file));
}

FileTraceSource::FileTraceSource(std::FILE* file)
    : file_(file), buf_(kTraceReadBlockBytes + 1) {
  Refill();
  if (len_ >= kTraceBinaryMagicLen &&
      std::memcmp(buf_.data(), kTraceBinaryMagic, kTraceBinaryMagicLen) == 0) {
    format_ = TraceFormat::kBinary;
    pos_ = kTraceBinaryMagicLen;
    struct stat st;
    if (::fstat(::fileno(file_), &st) == 0 && S_ISREG(st.st_mode)) {
      size_hint_ = (static_cast<uint64_t>(st.st_size) - kTraceBinaryMagicLen) /
                   kTraceBinaryRecordSize;
    }
  }
}

FileTraceSource::~FileTraceSource() { std::fclose(file_); }

void FileTraceSource::Refill() {
  const size_t avail = len_ - pos_;
  std::memmove(buf_.data(), buf_.data() + pos_, avail);
  pos_ = 0;
  len_ = avail;
  const size_t want = kTraceReadBlockBytes - len_;
  const size_t got = std::fread(buf_.data() + len_, 1, want, file_);
  len_ += got;
  // fread returns short only at end of input or on an error; stop either way.
  eof_ = got < want;
}

bool FileTraceSource::Next(TraceRecord* record) {
  return format_ == TraceFormat::kText ? NextText(record) : NextBinary(record);
}

bool FileTraceSource::NextText(TraceRecord* record) {
  for (;;) {
    char* const line = buf_.data() + pos_;
    char* end = static_cast<char*>(std::memchr(line, '\n', len_ - pos_));
    if (end == nullptr) {
      if (!eof_) {
        if (pos_ == 0 && len_ == kTraceReadBlockBytes) {
          SkipOverlongLine();
        } else {
          Refill();
        }
        continue;
      }
      if (pos_ == len_) {
        return false;
      }
      end = buf_.data() + len_;  // the last line has no '\n'
    }
    // The parser stops at a NUL exactly where it would stop at the '\n'.
    *end = '\0';
    pos_ = std::min(static_cast<size_t>(end - buf_.data()) + 1, len_);
    ++entry_;
    switch (ParseTraceTextLine(line, record)) {
      case TextLineResult::kSkip:
        continue;
      case TextLineResult::kMalformed:
        if (error_line_ == 0) {
          error_line_ = entry_;
        }
        continue;  // Tolerate malformed lines; record where the first one was.
      case TextLineResult::kRecord:
        return true;
    }
  }
}

void FileTraceSource::SkipOverlongLine() {
  ++entry_;
  const char* first = buf_.data();
  const char* const stop = first + len_;
  while (first < stop && (*first == ' ' || *first == '\t')) {
    ++first;
  }
  if ((first == stop || *first != '#') && error_line_ == 0) {
    error_line_ = entry_;
  }
  for (;;) {
    const char* end = static_cast<const char*>(std::memchr(buf_.data(), '\n', len_));
    if (end != nullptr) {
      pos_ = static_cast<size_t>(end - buf_.data()) + 1;
      return;
    }
    pos_ = len_;
    if (eof_) {
      return;
    }
    Refill();
  }
}

bool FileTraceSource::NextBinary(TraceRecord* record) {
  for (;;) {
    if (len_ - pos_ < kTraceBinaryRecordSize) {
      if (eof_) {
        return false;  // a trailing partial record is ignored
      }
      Refill();  // a record straddling the block boundary is carried over
      continue;
    }
    const auto* bytes = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
    pos_ += kTraceBinaryRecordSize;
    ++entry_;
    if (DecodeTraceRecord(bytes, record)) {
      return true;
    }
    if (error_line_ == 0) {
      error_line_ = entry_;
    }
  }
}

void FileTraceSource::Rewind() {
  const bool seekable = std::fseek(file_, 0, SEEK_SET) == 0;
  FLASHSIM_CHECK(seekable);
  pos_ = 0;
  len_ = 0;
  eof_ = false;
  entry_ = 0;
  error_line_ = 0;
  Refill();
  if (format_ == TraceFormat::kBinary) {
    pos_ = kTraceBinaryMagicLen;
  }
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
    std::fwrite(kTraceBinaryMagic, 1, kTraceBinaryMagicLen, file);
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
    unsigned char buf[kTraceBinaryRecordSize];
    EncodeTraceRecord(record, buf);
    std::fwrite(buf, 1, kTraceBinaryRecordSize, file_);
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
