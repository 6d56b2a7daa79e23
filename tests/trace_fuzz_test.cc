// Deterministic fuzz of the trace import surfaces: the text/binary trace
// file readers and the CSV block-trace importer. Inputs are valid streams
// mutated with truncation, duplication (repeated headers included), bit
// flips, and adversarial numeric fields. The properties checked:
//
//   - no crash, hang, or sanitizer report on any input;
//   - every record that does come back is in range (MakeBlockKey's
//     contract: file_id <= kMaxFileId, block + count - 1 <= kMaxBlockInFile,
//     count >= 1) — malformed rows are skipped and reported via
//     error_line()/skipped, never half-parsed into aliasing keys;
//   - well-formed prefixes of truncated files still parse;
//   - the block-buffered reader delivers exactly the records and the first
//     malformed line of a longhand model (split on '\n' and sscanf each
//     line; decode each 22-byte chunk), on mutated traces larger than its
//     buffer;
//   - the hand-written text parser (ParseTraceTextLine) agrees with the
//     sscanf call it replaced on every line, malformed ones included.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "src/trace/codec.h"
#include "src/trace/csv_import.h"
#include "src/trace/trace_file.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

class TraceFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "flashsim_trace_fuzz";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& bytes) {
    const std::string path = (dir_ / name).string();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    return path;
  }

  // Reads every record, checking the range contract on each.
  uint64_t DrainChecked(const std::string& path) {
    std::string error;
    auto source = OpenTraceSource(path, &error);
    EXPECT_NE(source, nullptr) << error;
    TraceRecord r;
    uint64_t n = 0;
    while (source->Next(&r)) {
      ++n;
      EXPECT_GE(r.block_count, 1u);
      EXPECT_LE(r.file_id, kMaxFileId);
      EXPECT_LE(r.block, kMaxBlockInFile);
      EXPECT_LE(r.block + r.block_count - 1, kMaxBlockInFile);
    }
    return n;
  }

  // The reader against LonghandRead: 100 rounds of one mutation on `small`,
  // then 12 rounds of MutateMultiBlock on `large` (header_bytes is its
  // format header, kept when the body is re-appended).
  void ExpectReaderMatchesModelOnMutations(const std::string& small, const std::string& large,
                                           size_t header_bytes, uint64_t seed);

  std::filesystem::path dir_;
};

std::string ValidTextTrace(uint64_t records, uint64_t seed) {
  Rng rng(seed);
  std::string text = "# fsim-text v1: <R|W> <host> <thread> <file> <block> <count> [w]\n";
  for (uint64_t i = 0; i < records; ++i) {
    char line[128];
    std::snprintf(line, sizeof(line), "%c %u %u %u %llu %u\n",
                  rng.NextBool(0.5) ? 'R' : 'W', static_cast<unsigned>(rng.NextBounded(4)),
                  static_cast<unsigned>(rng.NextBounded(8)),
                  static_cast<unsigned>(rng.NextBounded(100)),
                  static_cast<unsigned long long>(rng.NextBounded(1 << 20)),
                  static_cast<unsigned>(1 + rng.NextBounded(8)));
    text += line;
  }
  return text;
}

std::string ValidBinaryTrace(uint64_t records, uint64_t seed) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "flashsim_fuzz_bin_seed.trace").string();
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, nullptr);
  Rng rng(seed);
  for (uint64_t i = 0; i < records; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.5) ? TraceOp::kRead : TraceOp::kWrite;
    r.host = static_cast<uint16_t>(rng.NextBounded(4));
    r.thread = static_cast<uint16_t>(rng.NextBounded(8));
    r.file_id = static_cast<uint32_t>(rng.NextBounded(100));
    r.block = rng.NextBounded(1 << 20);
    r.block_count = static_cast<uint32_t>(1 + rng.NextBounded(8));
    writer->Write(r);
  }
  writer->Close();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  std::filesystem::remove(path);
  return bytes;
}

std::string Mutate(std::string bytes, Rng& rng) {
  switch (rng.NextBounded(4)) {
    case 0:  // truncate
      bytes.resize(rng.NextBounded(bytes.size() + 1));
      break;
    case 1: {  // duplicate a chunk (repeats headers/partial records)
      const size_t start = rng.NextBounded(bytes.size());
      const size_t len = rng.NextBounded(bytes.size() - start) + 1;
      bytes.insert(rng.NextBounded(bytes.size()), bytes.substr(start, len));
      break;
    }
    case 2: {  // flip bits
      for (int flips = 0; flips < 8 && !bytes.empty(); ++flips) {
        bytes[rng.NextBounded(bytes.size())] ^=
            static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    }
    default: {  // splice random garbage
      std::string garbage;
      for (uint64_t i = 0; i < 1 + rng.NextBounded(64); ++i) {
        garbage.push_back(static_cast<char>(rng.NextBounded(256)));
      }
      bytes.insert(rng.NextBounded(bytes.size() + 1), garbage);
      break;
    }
  }
  return bytes;
}

TEST_F(TraceFuzzTest, TextMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidTextTrace(200, 3);
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("text.trace", Mutate(valid, rng));
    DrainChecked(path);
  }
}

TEST_F(TraceFuzzTest, BinaryMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidBinaryTrace(200, 4);
  Rng rng(18);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("bin.trace", Mutate(valid, rng));
    DrainChecked(path);
  }
}

TEST_F(TraceFuzzTest, TruncatedTextKeepsWellFormedPrefix) {
  const std::string valid = ValidTextTrace(100, 5);
  // Cut mid-line: everything before the cut line still parses.
  const std::string path = WriteFile("trunc.trace", valid.substr(0, valid.size() / 2));
  EXPECT_GT(DrainChecked(path), 0u);
}

TEST_F(TraceFuzzTest, TextAdversarialFieldsAreSkippedNotTruncated) {
  // count that overflows uint32, block+count crossing kMaxBlockInFile,
  // file id and block beyond their packed widths, zero count, 2^64-1.
  const std::string path = WriteFile(
      "adv.trace",
      "R 0 0 1 0 4294967296\n"                   // count 2^32: uint32 overflow
      "R 0 0 1 0 18446744073709551615\n"         // count 2^64-1
      "R 0 0 1 1099511627775 2\n"                // block+count-1 > kMaxBlockInFile
      "R 0 0 16777216 0 1\n"                     // file_id > kMaxFileId
      "R 0 0 1 1099511627776 1\n"                // block > kMaxBlockInFile
      "R 0 0 1 0 0\n"                            // zero count
      "R 65536 0 1 0 1\n"                        // host > uint16
      "W 1 2 3 4 5\n");                          // the one valid line
  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr);
  TraceRecord r;
  uint64_t n = 0;
  while (source->Next(&r)) {
    ++n;
    EXPECT_EQ(r.op, TraceOp::kWrite);
    EXPECT_EQ(r.block, 4u);
    EXPECT_EQ(r.block_count, 5u);
  }
  EXPECT_EQ(n, 1u);
  EXPECT_GT(source->error_line(), 0u);
}

TEST_F(TraceFuzzTest, BinaryRecordsWithOutOfRangeFieldsAreSkipped) {
  // Hand-build records that are structurally valid (22 bytes, op <= 1) but
  // carry out-of-range fields the decoder must reject.
  std::string bytes("FSIMB1\n");
  auto append_record = [&bytes](uint32_t file_id, uint64_t block, uint32_t count) {
    unsigned char rec[22] = {0};
    rec[0] = 0;  // read
    for (int i = 0; i < 4; ++i) rec[6 + i] = static_cast<unsigned char>(file_id >> (8 * i));
    for (int i = 0; i < 8; ++i) rec[10 + i] = static_cast<unsigned char>(block >> (8 * i));
    for (int i = 0; i < 4; ++i) rec[18 + i] = static_cast<unsigned char>(count >> (8 * i));
    bytes.append(reinterpret_cast<char*>(rec), sizeof(rec));
  };
  append_record(kMaxFileId + 1, 0, 1);         // file_id out of range
  append_record(1, kMaxBlockInFile + 1, 1);    // block out of range
  append_record(1, kMaxBlockInFile, 2);        // block span out of range
  append_record(1, 0, 0);                      // zero count
  append_record(7, 42, 3);                     // valid
  const std::string path = WriteFile("ranges.trace", bytes);
  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr);
  TraceRecord r;
  ASSERT_TRUE(source->Next(&r));
  EXPECT_EQ(r.file_id, 7u);
  EXPECT_EQ(r.block, 42u);
  EXPECT_EQ(r.block_count, 3u);
  EXPECT_FALSE(source->Next(&r));
  EXPECT_GT(source->error_line(), 0u);
}

// ---------------------------------------------------------------------------
// Parser identity: ParseTraceTextLine against the sscanf parser it replaced,
// kept here as the reference. Every line a reader can hand the parser — any
// bytes, at most 255 chars, NUL-terminated — must give the same result kind
// and, for records, the same fields; malformed and skipped lines must leave
// the record untouched.

TextLineResult ReferenceParseTraceTextLine(const char* line, TraceRecord* record) {
  const char* p = line;
  while (*p == ' ' || *p == '\t') {
    ++p;
  }
  if (*p == '\0' || *p == '\n' || *p == '#') {
    return TextLineResult::kSkip;
  }
  char op_char = 0;
  unsigned long long host = 0;
  unsigned long long thread = 0;
  unsigned long long file_id = 0;
  unsigned long long block = 0;
  unsigned long long count = 0;
  char warm[8] = {0};
  const int n = std::sscanf(p, " %c %llu %llu %llu %llu %llu %7s", &op_char, &host, &thread,
                            &file_id, &block, &count, warm);
  const bool op_ok = op_char == 'R' || op_char == 'W' || op_char == 'r' || op_char == 'w';
  if (n < 6 || !op_ok || count == 0 || count > 0xffffffffULL || host > 0xffff ||
      thread > 0xffff || file_id > kMaxFileId || block > kMaxBlockInFile ||
      block + count - 1 > kMaxBlockInFile) {
    return TextLineResult::kMalformed;
  }
  record->op = (op_char == 'W' || op_char == 'w') ? TraceOp::kWrite : TraceOp::kRead;
  record->host = static_cast<uint16_t>(host);
  record->thread = static_cast<uint16_t>(thread);
  record->file_id = static_cast<uint32_t>(file_id);
  record->block = block;
  record->block_count = static_cast<uint32_t>(count);
  record->warmup = n == 7 && warm[0] == 'w';
  return TextLineResult::kRecord;
}

// A record no parser produces (count 0), so an untouched one is visible.
TraceRecord SentinelRecord() {
  TraceRecord r;
  r.op = TraceOp::kWrite;
  r.warmup = true;
  r.host = 0xabcd;
  r.thread = 0x1234;
  r.file_id = 0xfedcba;
  r.block = 0x0123456789ULL;
  r.block_count = 0;
  return r;
}

std::string Printable(const std::string& line) {
  std::string out;
  for (const unsigned char c : line) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\x%02x", c);
      out += esc;
    }
  }
  return out;
}

// Returns the kind both parsers agree on (after EXPECTing that they agree).
TextLineResult ExpectParsersAgree(const std::string& line, TraceRecord* parsed = nullptr) {
  SCOPED_TRACE("line \"" + Printable(line) + "\"");
  TraceRecord want = SentinelRecord();
  TraceRecord got = SentinelRecord();
  const TextLineResult want_kind = ReferenceParseTraceTextLine(line.c_str(), &want);
  const TextLineResult got_kind = ParseTraceTextLine(line.c_str(), &got);
  EXPECT_EQ(static_cast<int>(got_kind), static_cast<int>(want_kind));
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.warmup, want.warmup);
  EXPECT_EQ(got.host, want.host);
  EXPECT_EQ(got.thread, want.thread);
  EXPECT_EQ(got.file_id, want.file_id);
  EXPECT_EQ(got.block, want.block);
  EXPECT_EQ(got.block_count, want.block_count);
  if (parsed != nullptr) {
    *parsed = got;
  }
  return got_kind;
}

// Splits bytes into lines the way the reader does: on '\n' only, each line
// keeping its '\n' (the last one may have none).
std::vector<std::string> SplitLines(const std::string& bytes) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t nl = bytes.find('\n', pos);
    const size_t end = nl == std::string::npos ? bytes.size() : nl + 1;
    lines.push_back(bytes.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

// A line assembled from the pieces the parser has to get right: every
// scanf whitespace char, signs, leading zeros, 20+-digit numbers, values at
// and past every range limit, glued op chars, and warm-up tokens.
std::string RandomTextLine(Rng& rng) {
  static const char* const kSpaces[] = {" ", " ", " ", "\t", "\r", "\v", "\f", "\n", "  ", ""};
  static const char* const kOps[] = {"R", "W", "r", "w", "x", "#", "0", "-", "RW", ""};
  static const char* const kNumbers[] = {
      "0", "1", "7", "-0", "+7", "-1", "+", "-", "--1", "+-1", "0x10", "00000000000000000000042",
      "65535", "65536", "16777215", "16777216", "1099511627775", "1099511627776",
      "4294967295", "4294967296", "18446744073709551615", "18446744073709551616",
      "-18446744073709551615", "-18446744073709551616", "99999999999999999999999",
      "-99999999999999999999999", "-184467440737095516150", "-184467440737095516159", "12a",
      "1.5", "x"};
  static const char* const kTails[] = {"", "w", "warm", "x", "wx", "W", " w", "#w", "7", "\xff"};
  std::string line;
  line += kSpaces[rng.NextBounded(std::size(kSpaces))];
  line += kOps[rng.NextBounded(std::size(kOps))];
  const uint64_t fields = rng.NextBounded(8);
  for (uint64_t i = 0; i < fields; ++i) {
    line += kSpaces[rng.NextBounded(std::size(kSpaces))];
    line += rng.NextBool(0.5) ? kNumbers[rng.NextBounded(std::size(kNumbers))]
                              : std::to_string(rng.NextBounded(1 + rng.NextBounded(4096)));
  }
  line += kSpaces[rng.NextBounded(std::size(kSpaces))];
  line += kTails[rng.NextBounded(std::size(kTails))];
  if (rng.NextBool(0.7)) {
    line += "\n";
  }
  return line;
}

TEST(TraceTextParserTest, HandcraftedLinesMatchSscanf) {
  const std::string kLong(250, ' ');
  const std::vector<std::string> lines = {
      "", "\n", "# comment\n", "   \t# indented comment\n", "\t\n", "\r\n", "\v\n", "\f\n",
      "\v# hidden comment\n", "R 0 0 1 2 3\n", "W 1 2 3 4 5 w\n", "r 1 2 3 4 5\n",
      "w 1 2 3 4 5\n", "x 1 2 3 4 5\n", "R 0 0 1 -0 +7\n", "R -0 +0 +1 -0 +1\n",
      "R 0 0 1 0 -18446744073709551615\n", "R -18446744073709551615 0 1 0 1\n",
      "R 0 0 1 0 -18446744073709551616\n", "R 0 0 1 0 -1\n",
      "R 0 0 1 0 00000000000000000000000000007\n", "R 0 0 1 0 99999999999999999999\n",
      "R 0 0 1 0 -99999999999999999999\n", "R 0 0 1 0 184467440737095516150\n",
      "R 0 0 1 0 -184467440737095516150\n", "R 18446744073709551616 0 1 2 3\n",
      "R 0 0 1 18446744073709551617 1\n",
      "R\t0\t0\t1\t2\t3\n", "R\r0\r0\r1\r2\r3\r\n", "R\v0\v0\v1\v2\v3\vw\n",
      "R\f0\f0\f1\f2\f3\fwarm\n", "\rR 0 0 1 2 3\n", "R 0 0 1 2 3\r\n", "R 0 0 1 2 3 \r w\n",
      "R12 0 1 2 3\n", "W7 0 1 2 3 w\n", "R 0 0 1 2 3 w\n", "R 0 0 1 2 3 warm\n",
      "R 0 0 1 2 3 x\n", "R 0 0 1 2 3w\n", "R 0 0 1 2 3 #w\n", "R 0 0 1 2 3 \xff\n",
      "R 0 0 1 2\n", "R 0 0 1 2 +\n", "R 0 0 1 2 -\n", "R 0 0 1 2 0x3\n", "R 0 0 1 2 3.5\n",
      "R - 0 1 2 3\n", "R 0 0 1 2 3", "R", "W 1", "R 65535 65535 16777215 1099511627775 1\n",
      "R 65536 0 1 0 1\n", "R 0 65536 1 0 1\n", "R 0 0 16777216 0 1\n",
      "R 0 0 1 1099511627776 1\n", "R 0 0 1 1099511627775 2\n", "R 0 0 1 0 4294967295\n",
      "R 0 0 1 0 4294967296\n", "R 0 0 1 0 0\n",
      // Lines past 255 bytes, and the pieces fgets(, 256,) would cut them into.
      kLong + "R 0 0 1 2 3\n", (kLong + "R 0 0 1 2 3\n").substr(0, 255),
      (kLong + "R 0 0 1 2 3\n").substr(255), std::string(255, '9'), std::string(255, ' '),
      "R 0 0 1 2 " + std::string(245, '0'), std::string(300, ' '),
      std::string("R 0 0 1 2 ").append(245, '0').append("3\n"),
      std::string("#").append(300, 'c').append("\n"),
  };
  for (const std::string& line : lines) {
    ExpectParsersAgree(line);
  }
  // A few exact values, so agreement is not agreement on a wrong reading.
  TraceRecord r;
  ASSERT_EQ(ExpectParsersAgree("R 0 0 1 -0 +7\n", &r), TextLineResult::kRecord);
  EXPECT_EQ(r.block, 0u);
  EXPECT_EQ(r.block_count, 7u);
  ASSERT_EQ(ExpectParsersAgree("R 0 0 1 0 -18446744073709551615\n", &r),
            TextLineResult::kRecord);
  EXPECT_EQ(r.block_count, 1u);
  ASSERT_EQ(ExpectParsersAgree("R12 0 1 2 3\n", &r), TextLineResult::kRecord);
  EXPECT_EQ(r.host, 12u);
  EXPECT_EQ(r.thread, 0u);
  EXPECT_EQ(r.file_id, 1u);
  EXPECT_EQ(r.block, 2u);
  EXPECT_EQ(r.block_count, 3u);
  ASSERT_EQ(ExpectParsersAgree("W\v1\f2\r3\t4 5 warm\n", &r), TextLineResult::kRecord);
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_TRUE(r.warmup);
  ASSERT_EQ(ExpectParsersAgree("R 1 2 3 4 5 x\n", &r), TextLineResult::kRecord);
  EXPECT_FALSE(r.warmup);
  EXPECT_EQ(ExpectParsersAgree("R 0 0 1 0 99999999999999999999\n"), TextLineResult::kMalformed);
  // Saturation happens before the sign: -(2^64-1) with one more digit is
  // 2^64-1, not the wrapped 1 the digits seen before the overflow give.
  EXPECT_EQ(ExpectParsersAgree("R 0 0 1 0 -184467440737095516150\n"),
            TextLineResult::kMalformed);
  EXPECT_EQ(ExpectParsersAgree("\v# hidden comment\n"), TextLineResult::kMalformed);
}

TEST(TraceTextParserTest, RandomLinesMatchSscanf) {
  Rng rng(31);
  for (int i = 0; i < 50000; ++i) {
    ExpectParsersAgree(RandomTextLine(rng));
    if (HasFailure()) {
      return;  // one diverging line says enough
    }
  }
}

TEST(TraceTextParserTest, MutatedTraceLinesMatchSscanf) {
  const std::string valid = ValidTextTrace(200, 32);
  Rng rng(33);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = Mutate(valid, rng);
    if (round % 3 == 0) {
      // Warm-up records and glued op chars, then mutated like the rest.
      bytes = Mutate(bytes + "W 1 2 3 4 5 w\nR9 8 7 6 5 warm\nw 0 0 0 0 1 x\n", rng);
    }
    for (const std::string& line : SplitLines(bytes)) {
      ExpectParsersAgree(line);
    }
    if (HasFailure()) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Reader vs a longhand model: the model splits the bytes on '\n' and runs
// the sscanf reference per line (text), or decodes each 22-byte chunk after
// the magic (binary), numbering lines or records from 1.

struct ModelRead {
  std::vector<TraceRecord> records;
  uint64_t error_line = 0;
};

ModelRead LonghandRead(const std::string& bytes) {
  ModelRead model;
  uint64_t entry = 0;
  const auto note = [&](bool ok, const TraceRecord& r) {
    ++entry;
    if (ok) {
      model.records.push_back(r);
    } else if (model.error_line == 0) {
      model.error_line = entry;
    }
  };
  if (bytes.compare(0, kTraceBinaryMagicLen, kTraceBinaryMagic) == 0) {
    for (size_t off = kTraceBinaryMagicLen; off + kTraceBinaryRecordSize <= bytes.size();
         off += kTraceBinaryRecordSize) {
      TraceRecord r;
      note(DecodeTraceRecord(reinterpret_cast<const unsigned char*>(bytes.data() + off), &r),
           r);
    }
    return model;
  }
  for (const std::string& line : SplitLines(bytes)) {
    TraceRecord r;
    const TextLineResult kind = ReferenceParseTraceTextLine(line.c_str(), &r);
    if (kind != TextLineResult::kSkip) {
      note(kind == TextLineResult::kRecord, r);
    } else {
      ++entry;
    }
  }
  return model;
}

std::vector<TraceRecord> Drain(TraceSource& source) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  while (source.Next(&r)) {
    records.push_back(r);
  }
  return records;
}

void ExpectMatchesModel(const std::string& path, const std::string& bytes) {
  std::string error;
  auto source = OpenTraceSource(path, &error);
  ASSERT_NE(source, nullptr) << error;
  const ModelRead model = LonghandRead(bytes);
  const std::vector<TraceRecord> got = Drain(*source);
  ASSERT_EQ(got.size(), model.records.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], model.records[i]) << "record " << i;
  }
  EXPECT_EQ(source->error_line(), model.error_line);
}

// Three stacked mutations, then (if a truncation shrank it) the valid body
// appended again: every trace spans more than one read block, so lines and
// records straddle refills.
constexpr uint64_t kMultiBlockRecords = (kTraceReadBlockBytes / 20) * 5 / 4;

std::string MutateMultiBlock(const std::string& valid, size_t header_bytes, Rng& rng) {
  std::string bytes = Mutate(Mutate(Mutate(valid, rng), rng), rng);
  if (bytes.size() <= kTraceReadBlockBytes) {
    bytes += valid.substr(header_bytes);
  }
  return bytes;
}

void TraceFuzzTest::ExpectReaderMatchesModelOnMutations(const std::string& small,
                                                        const std::string& large,
                                                        size_t header_bytes, uint64_t seed) {
  ASSERT_GT(large.size(), kTraceReadBlockBytes);
  Rng rng(seed);
  for (int round = 0; round < 112; ++round) {
    const std::string bytes =
        round < 100 ? Mutate(small, rng) : MutateMultiBlock(large, header_bytes, rng);
    ExpectMatchesModel(WriteFile("model.trace", bytes), bytes);
    if (HasFailure()) {
      return;
    }
  }
}

TEST_F(TraceFuzzTest, TextReaderMatchesLonghandModel) {
  ExpectReaderMatchesModelOnMutations(ValidTextTrace(200, 21),
                                      ValidTextTrace(kMultiBlockRecords, 21), 0, 22);
}

TEST_F(TraceFuzzTest, BinaryReaderMatchesLonghandModel) {
  ExpectReaderMatchesModelOnMutations(ValidBinaryTrace(200, 23),
                                      ValidBinaryTrace(kMultiBlockRecords, 23),
                                      kTraceBinaryMagicLen, 24);
}

TEST_F(TraceFuzzTest, BinaryReaderEdgeCases) {
  std::string error;
  // Zero-length file: no magic, so it reads as an empty text trace.
  {
    auto source = OpenTraceSource(WriteFile("empty.trace", ""), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->format(), TraceFormat::kText);
    EXPECT_EQ(source->SizeHint(), 0u);
    TraceRecord r;
    EXPECT_FALSE(source->Next(&r));
    EXPECT_EQ(source->error_line(), 0u);
  }
  // Magic-only: valid, zero records, exact SizeHint.
  {
    auto source = OpenTraceSource(WriteFile("magic.trace", "FSIMB1\n"), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->format(), TraceFormat::kBinary);
    EXPECT_EQ(source->SizeHint(), 0u);
    TraceRecord r;
    EXPECT_FALSE(source->Next(&r));
  }
  // Unaligned tail: one whole record plus a partial one — the partial tail
  // is ignored.
  {
    const std::string whole = ValidBinaryTrace(2, 25);
    const std::string bytes = whole.substr(0, whole.size() - 10);
    const std::string path = WriteFile("tail.trace", bytes);
    auto source = OpenTraceSource(path, &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->SizeHint(), 1u);
    EXPECT_EQ(Drain(*source).size(), 1u);
    ExpectMatchesModel(path, bytes);
  }
  // SizeHint counts invalid (skipped) records too: it is an upper bound.
  {
    std::string bytes = ValidBinaryTrace(5, 26);
    bytes[kTraceBinaryMagicLen] = 7;  // first record's op byte: invalid
    auto source = OpenTraceSource(WriteFile("hint.trace", bytes), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->SizeHint(), 5u);
    EXPECT_EQ(Drain(*source).size(), 4u);
    EXPECT_EQ(source->error_line(), 1u);
  }
  // A text trace has no size hint.
  {
    auto source = OpenTraceSource(WriteFile("hint.txt", ValidTextTrace(5, 26)), &error);
    ASSERT_NE(source, nullptr) << error;
    EXPECT_EQ(source->SizeHint(), 0u);
  }
}

TEST_F(TraceFuzzTest, ReaderRewindsToIdenticalStreams) {
  std::string error;
  for (const std::string& bytes : {ValidBinaryTrace(50, 27), ValidTextTrace(50, 28)}) {
    auto source = OpenTraceSource(WriteFile("rw.trace", bytes), &error);
    ASSERT_NE(source, nullptr) << error;
    const auto first = Drain(*source);
    ASSERT_EQ(first.size(), 50u);
    source->Rewind();
    EXPECT_EQ(Drain(*source), first);
  }
}

std::string ValidCsv(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string text = "timestamp,hostname,disk,type,offset,size\n";
  for (uint64_t i = 0; i < rows; ++i) {
    char line[160];
    std::snprintf(line, sizeof(line), "%llu,host%u,disk%u,%s,%llu,%u\n",
                  static_cast<unsigned long long>(i),
                  static_cast<unsigned>(rng.NextBounded(3)),
                  static_cast<unsigned>(rng.NextBounded(2)),
                  rng.NextBool(0.5) ? "Read" : "Write",
                  static_cast<unsigned long long>(rng.NextBounded(1 << 28)),
                  static_cast<unsigned>(512 * (1 + rng.NextBounded(64))));
    text += line;
  }
  return text;
}

TEST_F(TraceFuzzTest, CsvMutationsNeverCrashOrEmitBadRecords) {
  const std::string valid = ValidCsv(200, 6);
  Rng rng(19);
  for (int round = 0; round < 200; ++round) {
    const std::string path = WriteFile("fuzz.csv", Mutate(valid, rng));
    std::vector<TraceRecord> records;
    const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
    EXPECT_TRUE(result.error.empty());
    for (const TraceRecord& r : records) {
      EXPECT_GE(r.block_count, 1u);
      EXPECT_LE(r.block, kMaxBlockInFile);
      EXPECT_LE(r.block + r.block_count - 1, kMaxBlockInFile);
    }
  }
}

TEST_F(TraceFuzzTest, CsvAdversarialNumericFieldsAreSkipped) {
  // offset + size - 1 overflows uint64; offset alone maps past
  // kMaxBlockInFile; a size spanning more than 2^32 blocks.
  const std::string path = WriteFile(
      "adv.csv",
      "timestamp,hostname,disk,type,offset,size\n"
      "1,h,d,Read,18446744073709551615,4096\n"
      "2,h,d,Read,18446744073709551615,1\n"
      "3,h,d,Write,9007199254740992000,512\n"
      "4,h,d,Read,0,18446744073709551615\n"
      "5,h,d,Read,4096,4096\n");
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
  EXPECT_TRUE(result.error.empty());
  ASSERT_EQ(result.imported, 1u);
  EXPECT_EQ(result.skipped, 4u);
  EXPECT_EQ(result.first_bad_line, 2u);
  EXPECT_EQ(records[0].block, 1u);
  EXPECT_EQ(records[0].block_count, 1u);
}

TEST_F(TraceFuzzTest, CsvDuplicatedHeaderRowsAreCountedSkipped) {
  const std::string path = WriteFile(
      "dup.csv",
      "timestamp,hostname,disk,type,offset,size\n"
      "1,h,d,Read,0,4096\n"
      "timestamp,hostname,disk,type,offset,size\n"
      "2,h,d,Write,4096,4096\n");
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(result.imported, 2u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.first_bad_line, 3u);
}

}  // namespace
}  // namespace flashsim
