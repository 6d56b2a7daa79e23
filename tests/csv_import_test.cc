#include "src/trace/csv_import.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace flashsim {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/flashsim_" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  return path;
}

TEST(CsvImport, ParsesMsrStyleRows) {
  const std::string path = WriteTemp("msr.csv",
                                     "Timestamp,Hostname,DiskNumber,Type,Offset,Size,Latency\n"
                                     "128166372003061629,usr,0,Read,8192,8192,151\n"
                                     "128166372016382155,usr,0,Write,12288,4096,121\n"
                                     "128166372026382245,web,1,Read,0,4096,88\n");
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.warmup_fraction = 0.0;
  const CsvImportResult result = ImportBlockCsv(path, options, &records);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.imported, 3u);
  EXPECT_EQ(result.skipped, 0u);
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].op, TraceOp::kRead);
  EXPECT_EQ(records[0].host, 0);
  EXPECT_EQ(records[0].file_id, 0u);
  EXPECT_EQ(records[0].block, 2u);        // 8192 / 4096
  EXPECT_EQ(records[0].block_count, 2u);  // 8 KB spans two blocks

  EXPECT_EQ(records[1].op, TraceOp::kWrite);
  EXPECT_EQ(records[1].block, 3u);
  EXPECT_EQ(records[1].block_count, 1u);

  // Second hostname gets host 1 and a new volume id.
  EXPECT_EQ(records[2].host, 1);
  EXPECT_EQ(records[2].file_id, 1u);
  std::remove(path.c_str());
}

TEST(CsvImport, UnalignedRangeCoversAllTouchedBlocks) {
  const std::string path = WriteTemp("unaligned.csv",
                                     "t,h,0,Read,4000,5000,0\n");  // bytes 4000..8999
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv(path, CsvImportOptions{}, &records);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].block, 0u);        // starts in block 0
  EXPECT_EQ(records[0].block_count, 3u);  // touches blocks 0, 1, 2
  std::remove(path.c_str());
}

TEST(CsvImport, SkipsMalformedRowsAndReportsFirst) {
  const std::string path = WriteTemp("bad.csv",
                                     "header,row,here\n"
                                     "t,h,0,Read,0,4096,0\n"
                                     "garbage line without commas\n"
                                     "t,h,0,Frobnicate,0,4096,0\n"
                                     "t,h,0,Write,abc,4096,0\n"
                                     "t,h,0,Write,0,0,0\n"
                                     "t,h,0,Write,4096,4096,0\n");
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.warmup_fraction = 0.0;
  const CsvImportResult result = ImportBlockCsv(path, options, &records);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.imported, 2u);
  EXPECT_GE(result.skipped, 3u);
  EXPECT_EQ(result.first_bad_line, 3u);
  std::remove(path.c_str());
}

TEST(CsvImport, LongRowIsOneRecordAndLineNumbersStayReal) {
  // A 1,051-byte row whose ignored latency column ends in text shaped like
  // a second row, placed where a 1 KiB line buffer would cut it. The row
  // must import as one record (no write from hostB appears), and the
  // malformed row after it must be reported at its own line number.
  const std::string head = "t,hostA,0,Read,0,4096,";
  const std::string row = head + std::string(1023 - head.size(), 'x') +
                          "0,hostB,1,Write,8192,4096,10";
  ASSERT_GT(row.size(), 1024u);
  const std::string path = WriteTemp("long.csv", row + "\n"
                                                 "garbage line without commas\n"
                                                 "t,hostA,0,Write,4096,4096,0\n");
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.warmup_fraction = 0.0;
  const CsvImportResult result = ImportBlockCsv(path, options, &records);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.imported, 2u);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.first_bad_line, 2u);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].op, TraceOp::kRead);
  EXPECT_EQ(records[0].block, 0u);
  EXPECT_EQ(records[1].op, TraceOp::kWrite);
  EXPECT_EQ(records[1].block, 1u);
  for (const TraceRecord& record : records) {
    EXPECT_EQ(record.host, 0);
  }
  std::remove(path.c_str());
}

TEST(CsvImport, WarmupFractionFlagsLeadingRecords) {
  std::string content = "h,e,a,d,e,r\n";
  for (int i = 0; i < 10; ++i) {
    content += "t,h,0,Read," + std::to_string(i * 4096) + ",4096,0\n";
  }
  const std::string path = WriteTemp("warm.csv", content);
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.warmup_fraction = 0.3;
  const CsvImportResult result = ImportBlockCsv(path, options, &records);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].warmup, i < 3) << i;
  }
  std::remove(path.c_str());
}

TEST(CsvImport, MaxRecordsCapsTheImport) {
  std::string content;
  for (int i = 0; i < 100; ++i) {
    content += "t,h,0,Read," + std::to_string(i * 4096) + ",4096,0\n";
  }
  const std::string path = WriteTemp("cap.csv", content);
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.max_records = 7;
  const CsvImportResult result = ImportBlockCsv(path, options, &records);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.imported, 7u);
  EXPECT_EQ(records.size(), 7u);
  std::remove(path.c_str());
}

TEST(CsvImport, MissingFileIsAnError) {
  std::vector<TraceRecord> records;
  const CsvImportResult result = ImportBlockCsv("/no/such/file.csv", CsvImportOptions{}, &records);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
}

TEST(CsvImport, ImportedTraceRunsThroughTheSimulatorPath) {
  // End to end: CSV -> records -> VectorTraceSource works like any trace.
  const std::string path = WriteTemp("run.csv",
                                     "t,host,0,Read,0,16384,0\n"
                                     "t,host,0,Write,16384,4096,0\n");
  std::vector<TraceRecord> records;
  CsvImportOptions options;
  options.warmup_fraction = 0.0;
  ASSERT_TRUE(ImportBlockCsv(path, options, &records).ok());
  VectorTraceSource source(std::move(records));
  TraceRecord r;
  ASSERT_TRUE(source.Next(&r));
  EXPECT_EQ(r.block_count, 4u);
  ASSERT_TRUE(source.Next(&r));
  EXPECT_EQ(r.op, TraceOp::kWrite);
  EXPECT_FALSE(source.Next(&r));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flashsim
