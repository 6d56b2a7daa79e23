#include "src/trace/csv_import.h"

#include <cstring>
#include <fstream>
#include <strings.h>
#include <map>

#include "src/util/assert.h"

namespace flashsim {

namespace {

// Splits a CSV line in place; returns the number of fields found (up to
// max_fields). Quotes are not handled — block traces don't use them.
int SplitCsv(char* line, char* fields[], int max_fields) {
  int count = 0;
  char* cursor = line;
  while (count < max_fields) {
    fields[count++] = cursor;
    char* comma = std::strchr(cursor, ',');
    if (comma == nullptr) {
      break;
    }
    *comma = '\0';
    cursor = comma + 1;
  }
  // Trim the '\r' of a CRLF line ending from the last field.
  char* last = fields[count - 1];
  const size_t len = std::strlen(last);
  if (len > 0 && last[len - 1] == '\r') {
    last[len - 1] = '\0';
  }
  return count;
}

bool ParseOp(const char* text, TraceOp* op) {
  if (strncasecmp(text, "read", 4) == 0 || (text[0] == 'R' && text[1] == '\0') ||
      (text[0] == 'r' && text[1] == '\0')) {
    *op = TraceOp::kRead;
    return true;
  }
  if (strncasecmp(text, "write", 5) == 0 || (text[0] == 'W' && text[1] == '\0') ||
      (text[0] == 'w' && text[1] == '\0')) {
    *op = TraceOp::kWrite;
    return true;
  }
  return false;
}

}  // namespace

CsvImportResult ImportBlockCsv(const std::string& csv_path, const CsvImportOptions& options,
                               std::vector<TraceRecord>* records) {
  FLASHSIM_CHECK(records != nullptr);
  FLASHSIM_CHECK(options.block_bytes > 0);
  CsvImportResult result;
  std::ifstream file(csv_path);
  if (!file) {
    result.error = "cannot open CSV trace: " + csv_path;
    return result;
  }

  std::map<std::string, uint16_t> host_ids;      // hostname -> host
  std::map<std::string, uint32_t> volume_ids;    // hostname:disk -> file id
  const size_t start_index = records->size();

  // Lines split on '\n' only and have no length cap, so a long row is one
  // row and line_number counts the file's real lines.
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    if (options.max_records != 0 && result.imported >= options.max_records) {
      break;
    }
    char* fields[8];
    const int n = SplitCsv(line.data(), fields, 8);
    if (n < 6) {
      if (line_number > 1) {  // a short first line is likely the header
        ++result.skipped;
        if (result.first_bad_line == 0) {
          result.first_bad_line = line_number;
        }
      }
      continue;
    }
    TraceOp op;
    char* end = nullptr;
    const unsigned long long offset = std::strtoull(fields[4], &end, 10);
    const bool offset_ok = end != fields[4];
    const unsigned long long size = std::strtoull(fields[5], &end, 10);
    const bool size_ok = end != fields[5] && size > 0;
    if (!ParseOp(fields[3], &op) || !offset_ok || !size_ok) {
      // Header lines land here too ("timestamp,hostname,...").
      if (line_number > 1 || !offset_ok) {
        if (line_number > 1) {
          ++result.skipped;
          if (result.first_bad_line == 0) {
            result.first_bad_line = line_number;
          }
        }
      }
      continue;
    }

    const std::string hostname = fields[1];
    const std::string volume = hostname + ":" + std::string(fields[2]);
    auto [host_it, host_new] =
        host_ids.emplace(hostname, static_cast<uint16_t>(host_ids.size()));
    auto [volume_it, volume_new] =
        volume_ids.emplace(volume, static_cast<uint32_t>(volume_ids.size()));

    const uint64_t first_block = offset / options.block_bytes;
    // Reject rows whose byte range overflows uint64 or whose block span falls
    // outside what a BlockKey/TraceRecord can represent.
    const bool range_overflows = offset > UINT64_MAX - (size - 1);
    const uint64_t last_block = range_overflows ? 0 : (offset + size - 1) / options.block_bytes;
    if (range_overflows || last_block > kMaxBlockInFile ||
        last_block - first_block + 1 > 0xffffffffULL) {
      ++result.skipped;
      if (result.first_bad_line == 0) {
        result.first_bad_line = line_number;
      }
      continue;
    }

    TraceRecord record;
    record.op = op;
    record.host = host_it->second;
    record.thread = 0;  // block traces carry no thread ids
    record.file_id = volume_it->second;
    record.block = first_block;
    record.block_count = static_cast<uint32_t>(last_block - first_block + 1);
    records->push_back(record);
    ++result.imported;
  }

  // Flag the leading fraction as warmup.
  const uint64_t warmup_count =
      static_cast<uint64_t>(options.warmup_fraction * static_cast<double>(result.imported));
  for (uint64_t i = 0; i < warmup_count; ++i) {
    (*records)[start_index + i].warmup = true;
  }
  return result;
}

}  // namespace flashsim
