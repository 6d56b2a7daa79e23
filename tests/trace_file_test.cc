#include "src/trace/trace_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace flashsim {
namespace {

class TraceFileTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/flashsim_" + name;
  }

  std::vector<TraceRecord> SampleRecords(int n) {
    std::vector<TraceRecord> records;
    Rng rng(7);
    for (int i = 0; i < n; ++i) {
      TraceRecord r;
      r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
      r.warmup = i < n / 2;
      r.host = static_cast<uint16_t>(rng.NextBounded(4));
      r.thread = static_cast<uint16_t>(rng.NextBounded(8));
      r.file_id = static_cast<uint32_t>(rng.NextBounded(1000));
      r.block = rng.NextBounded(1ULL << 39);
      r.block_count = static_cast<uint32_t>(rng.NextBounded(16)) + 1;
      records.push_back(r);
    }
    return records;
  }
};

TEST_F(TraceFileTest, BinaryRoundTrip) {
  const std::string path = TempPath("binary.trace");
  const auto records = SampleRecords(1000);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto& r : records) {
    writer->Write(r);
  }
  EXPECT_TRUE(writer->Close());

  auto reader = FileTraceSource::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->format(), TraceFormat::kBinary);
  TraceRecord r;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader->Next(&r)) << i;
    ASSERT_EQ(r, records[i]) << i;
  }
  EXPECT_FALSE(reader->Next(&r));
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextRoundTrip) {
  const std::string path = TempPath("text.trace");
  const auto records = SampleRecords(500);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kText, &error);
  ASSERT_NE(writer, nullptr) << error;
  for (const auto& r : records) {
    writer->Write(r);
  }
  EXPECT_TRUE(writer->Close());

  auto reader = FileTraceSource::Open(path, &error);
  ASSERT_NE(reader, nullptr) << error;
  EXPECT_EQ(reader->format(), TraceFormat::kText);
  TraceRecord r;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(reader->Next(&r)) << i;
    ASSERT_EQ(r, records[i]) << i;
  }
  EXPECT_FALSE(reader->Next(&r));
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextWriterMatchesPrintfFormat) {
  // The writer formats lines by hand; they must be byte-identical to the
  // "%c %u %u %u %llu %u%s\n" printf format the text trace was defined by,
  // at the extremes of every field as well as on ordinary records.
  std::vector<TraceRecord> records = SampleRecords(200);
  TraceRecord zero;
  zero.block_count = 0;
  TraceRecord max;
  max.op = TraceOp::kWrite;
  max.warmup = true;
  max.host = UINT16_MAX;
  max.thread = UINT16_MAX;
  max.file_id = UINT32_MAX;
  max.block = UINT64_MAX;
  max.block_count = UINT32_MAX;
  records.push_back(zero);
  records.push_back(max);
  const std::string path = TempPath("format.trace");
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kText, &error);
  ASSERT_NE(writer, nullptr) << error;
  std::string expected = "# fsim-text v1: <R|W> <host> <thread> <file> <block> <count> [w]\n";
  for (const TraceRecord& r : records) {
    writer->Write(r);
    char line[128];
    std::snprintf(line, sizeof(line), "%c %u %u %u %llu %u%s\n",
                  r.op == TraceOp::kWrite ? 'W' : 'R', r.host, r.thread, r.file_id,
                  static_cast<unsigned long long>(r.block), r.block_count,
                  r.warmup ? " w" : "");
    expected += line;
  }
  ASSERT_TRUE(writer->Close());
  std::string written;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    written.append(buf, got);
  }
  std::fclose(f);
  EXPECT_EQ(written, expected);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, RewindRestartsStream) {
  const std::string path = TempPath("rewind.trace");
  const auto records = SampleRecords(10);
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr);
  for (const auto& r : records) {
    writer->Write(r);
  }
  writer->Close();

  auto reader = FileTraceSource::Open(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  while (reader->Next(&r)) {
  }
  reader->Rewind();
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r, records[0]);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextToleratesCommentsAndBlankLines) {
  const std::string path = TempPath("comments.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# a comment\n\n   \nR 0 1 2 3 4\n# more\nW 1 2 3 4 5 w\n", f);
  std::fclose(f);

  std::string error;
  auto reader = FileTraceSource::Open(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kRead);
  EXPECT_EQ(r.host, 0);
  EXPECT_EQ(r.thread, 1);
  EXPECT_EQ(r.file_id, 2u);
  EXPECT_EQ(r.block, 3u);
  EXPECT_EQ(r.block_count, 4u);
  EXPECT_FALSE(r.warmup);
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_TRUE(r.warmup);
  EXPECT_FALSE(reader->Next(&r));
  EXPECT_EQ(reader->error_line(), 0u);
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, TextSkipsMalformedLinesAndReportsFirst) {
  const std::string path = TempPath("malformed.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("R 0 0 1 0 1\nbogus line\nX 0 0 1 0 1\nR 0 0 1 0 0\nW 0 0 2 0 1\n", f);
  std::fclose(f);

  std::string error;
  auto reader = FileTraceSource::Open(path, &error);
  ASSERT_NE(reader, nullptr);
  TraceRecord r;
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.file_id, 1u);
  ASSERT_TRUE(reader->Next(&r));
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_EQ(r.file_id, 2u);
  EXPECT_FALSE(reader->Next(&r));
  EXPECT_EQ(reader->error_line(), 2u);  // "bogus line"
  std::remove(path.c_str());
}

TEST_F(TraceFileTest, MissingFileReportsError) {
  std::string error;
  auto reader = FileTraceSource::Open("/nonexistent/nope.trace", &error);
  EXPECT_EQ(reader, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(TraceFileTest, UnwritablePathReportsError) {
  std::string error;
  auto writer = TraceFileWriter::Create("/nonexistent/dir/out.trace", TraceFormat::kText, &error);
  EXPECT_EQ(writer, nullptr);
  EXPECT_NE(error.find("cannot create"), std::string::npos);
}

TEST_F(TraceFileTest, CountsRecordsWritten) {
  const std::string path = TempPath("count.trace");
  std::string error;
  auto writer = TraceFileWriter::Create(path, TraceFormat::kBinary, &error);
  ASSERT_NE(writer, nullptr);
  TraceRecord r;
  writer->Write(r);
  writer->Write(r);
  EXPECT_EQ(writer->records_written(), 2u);
  writer->Close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flashsim
