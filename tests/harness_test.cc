#include "src/harness/harness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"

namespace flashsim {
namespace {

ExperimentParams SmallParams() {
  // Paper geometry at 1/4096 scale: fast enough to run many points in a
  // unit test while still exercising the full simulation pipeline.
  ExperimentParams params;
  params.scale = 4096;
  params.working_set_gib = 60.0;
  params.filer_tib = 0.25;  // keep the memoized FsModel small
  params.seed = 7;
  return params;
}

// --- Sweep ---------------------------------------------------------------

TEST(Sweep, TwoAxesExpandInDeterministicNestedLoopOrder) {
  Sweep sweep(SmallParams());
  sweep.AddAxis("outer", {{"a", [](ExperimentParams& p) { p.ram_gib = 1.0; }},
                          {"b", [](ExperimentParams& p) { p.ram_gib = 2.0; }}});
  sweep.AddAxis("inner", {{"x", [](ExperimentParams& p) { p.flash_gib = 16.0; }},
                          {"y", [](ExperimentParams& p) { p.flash_gib = 32.0; }},
                          {"z", [](ExperimentParams& p) { p.flash_gib = 64.0; }}});
  ASSERT_EQ(sweep.size(), 6u);

  const std::vector<SweepPoint> points = sweep.Expand();
  ASSERT_EQ(points.size(), 6u);
  // First axis added is outermost (varies slowest), matching the old
  // hand-rolled nested loops.
  const std::vector<std::vector<std::string>> want_labels = {
      {"a", "x"}, {"a", "y"}, {"a", "z"}, {"b", "x"}, {"b", "y"}, {"b", "z"}};
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].labels, want_labels[i]) << "point " << i;
  }
  // Mutators applied: point 4 is ram=b (2 GiB), flash=y (32 GiB).
  EXPECT_DOUBLE_EQ(points[4].params.ram_gib, 2.0);
  EXPECT_DOUBLE_EQ(points[4].params.flash_gib, 32.0);
  // Base params flow through untouched fields.
  EXPECT_EQ(points[4].params.scale, 4096u);

  // Expansion is a pure function of the sweep description.
  const std::vector<SweepPoint> again = sweep.Expand();
  ASSERT_EQ(again.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(again[i].labels, points[i].labels);
  }
}

TEST(Sweep, AppendedPointsRunAfterTheGrid) {
  Sweep sweep(SmallParams());
  sweep.AddAxis("ws", {{"30", [](ExperimentParams& p) { p.working_set_gib = 30.0; }},
                       {"60", [](ExperimentParams& p) { p.working_set_gib = 60.0; }}});
  ExperimentParams baseline = SmallParams();
  baseline.flash_gib = 0.0;
  sweep.AppendPoint({"60", "no_flash"}, baseline);

  const std::vector<SweepPoint> points = sweep.Expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].index, 2u);
  EXPECT_EQ(points[2].label(1), "no_flash");
  EXPECT_DOUBLE_EQ(points[2].params.flash_gib, 0.0);
  // label() is total: out-of-range axes read as empty.
  EXPECT_EQ(points[2].label(5), "");
}

// --- ParallelRunner ------------------------------------------------------

Sweep SmallGrid() {
  Sweep sweep(SmallParams());
  std::vector<Sweep::AxisValue> arch_axis;
  for (Architecture arch : kAllArchitectures) {
    arch_axis.push_back(
        {ArchitectureName(arch), [arch](ExperimentParams& p) { p.arch = arch; }});
  }
  sweep.AddAxis("arch", std::move(arch_axis));
  sweep.AddAxis("ws", {{"30", [](ExperimentParams& p) { p.working_set_gib = 30.0; }},
                       {"60", [](ExperimentParams& p) { p.working_set_gib = 60.0; }}});
  return sweep;
}

TEST(ParallelRunner, FourJobsMatchSerialExactly) {
  const Sweep sweep = SmallGrid();
  const std::vector<ExperimentResult> serial = ParallelRunner(1).Run(sweep);
  const std::vector<ExperimentResult> parallel = ParallelRunner(4).Run(sweep);
  ASSERT_EQ(serial.size(), 6u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Full-fidelity comparison: every counter, accumulator, and histogram
    // bucket, via the JSON snapshot (wall_seconds is deliberately not part
    // of the snapshot — it is the one nondeterministic field).
    EXPECT_EQ(MetricsToJson(parallel[i].metrics).Dump(),
              MetricsToJson(serial[i].metrics).Dump())
        << "point " << i << " diverged under --jobs=4";
  }
}

TEST(ParallelRunner, RunOrderedEmitsInSweepOrder) {
  const Sweep sweep = SmallGrid();
  std::vector<size_t> emitted;
  ParallelRunner(4).RunOrdered(
      sweep.Expand(),
      [](const SweepPoint& point) { return RunExperiment(point.params); },
      [&emitted](const SweepPoint& point, const ExperimentResult&) {
        emitted.push_back(point.index);
      });
  const std::vector<size_t> want = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(emitted, want);
}

TEST(ParallelRunner, MoreJobsThanPointsIsFine) {
  Sweep sweep(SmallParams());
  sweep.AppendPoint({"only"}, SmallParams());
  const std::vector<ExperimentResult> results = ParallelRunner(16).Run(sweep);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].metrics.measured_read_blocks, 0u);
}

// --- JSON sink -----------------------------------------------------------

TEST(Sinks, MetricsRoundTripThroughJson) {
  // A real run populates every interesting field: latency recorders with
  // non-trivial histograms, per-level read counters, stack totals.
  ExperimentParams params = SmallParams();
  params.timing.use_ftl = true;  // exercise the FTL fields too
  const Metrics metrics = RunExperiment(params).metrics;
  ASSERT_GT(metrics.measured_read_blocks, 0u);

  const JsonValue snapshot = MetricsToJson(metrics);
  const std::string text = snapshot.Dump(2);

  // Parse the serialized text back (exercising the parser, not just the
  // in-memory value) and restore.
  const std::optional<JsonValue> reparsed = JsonValue::Parse(text);
  ASSERT_TRUE(reparsed.has_value());
  const std::optional<Metrics> restored = MetricsFromJson(*reparsed);
  ASSERT_TRUE(restored.has_value());

  // The restored struct re-serializes bit-identically...
  EXPECT_EQ(MetricsToJson(*restored).Dump(2), text);
  // ...and the derived quantities agree exactly.
  EXPECT_EQ(restored->measured_read_blocks, metrics.measured_read_blocks);
  EXPECT_EQ(restored->stack_totals.filer_writebacks, metrics.stack_totals.filer_writebacks);
  EXPECT_DOUBLE_EQ(restored->mean_read_us(), metrics.mean_read_us());
  EXPECT_EQ(restored->read_latency.p50_ns(), metrics.read_latency.p50_ns());
  EXPECT_EQ(restored->ftl_enabled, metrics.ftl_enabled);
  EXPECT_DOUBLE_EQ(restored->ftl_write_amplification, metrics.ftl_write_amplification);
}

TEST(Sinks, OldSnapshotWithEngineKeysStillLoads) {
  // tests/golden/partitioned_metrics_snapshot.json is `flashsim_cli --json`
  // output from a build that still had the partitioned engine: it carries
  // the certified_* batch counters and an "engine" block. MetricsFromJson
  // must still restore it, keep every field it knows bit-for-bit, and drop
  // exactly those four keys.
  const std::string path =
      std::string(FLASHSIM_SOURCE_DIR) + "/tests/golden/partitioned_metrics_snapshot.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::optional<JsonValue> old_doc = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(old_doc.has_value());
  const std::optional<Metrics> restored = MetricsFromJson(*old_doc);
  ASSERT_TRUE(restored.has_value());
  EXPECT_GT(restored->trace_records, 0u);

  const JsonValue restored_doc = MetricsToJson(*restored);
  for (const auto& [key, value] : restored_doc.members()) {
    const JsonValue* old_value = old_doc->Get(key);
    ASSERT_NE(old_value, nullptr) << key;
    EXPECT_EQ(old_value->Dump(), value.Dump()) << key;
  }
  std::vector<std::string> dropped;
  for (const auto& [key, value] : old_doc->members()) {
    if (restored_doc.Get(key) == nullptr) {
      dropped.push_back(key);
    }
  }
  EXPECT_EQ(dropped, (std::vector<std::string>{"certified_ram_batched",
                                               "certified_flash_batched",
                                               "certified_write_batched", "engine"}));
}

TEST(Sinks, ShardedMetricsRoundTripThroughJson) {
  // A sharded run additionally populates the per-shard filer snapshots and
  // the stack totals' shard routing vectors; all of it must survive the
  // serialize -> parse -> restore cycle bit-identically.
  ExperimentParams params = SmallParams();
  params.num_filers = 4;
  const Metrics metrics = RunExperiment(params).metrics;
  ASSERT_EQ(metrics.filer_shards.size(), 4u);
  ASSERT_EQ(metrics.stack_totals.shard_reads.size(), 4u);

  const std::string text = MetricsToJson(metrics).Dump(2);
  const std::optional<JsonValue> reparsed = JsonValue::Parse(text);
  ASSERT_TRUE(reparsed.has_value());
  const std::optional<Metrics> restored = MetricsFromJson(*reparsed);
  ASSERT_TRUE(restored.has_value());

  EXPECT_EQ(MetricsToJson(*restored).Dump(2), text);
  ASSERT_EQ(restored->filer_shards.size(), metrics.filer_shards.size());
  for (size_t s = 0; s < metrics.filer_shards.size(); ++s) {
    EXPECT_EQ(restored->filer_shards[s], metrics.filer_shards[s]) << s;
  }
  EXPECT_EQ(restored->stack_totals.shard_reads, metrics.stack_totals.shard_reads);
  EXPECT_EQ(restored->stack_totals.shard_writes, metrics.stack_totals.shard_writes);
}

TEST(Sinks, TableToJsonTypesCells) {
  Table table({"name", "count", "ratio"});
  table.AddRow({"alpha", Table::Cell(static_cast<uint64_t>(42)), Table::Cell(0.25, 2)});
  const JsonValue rows = TableToJson(table);
  ASSERT_EQ(rows.size(), 1u);
  const JsonValue& row = rows.at(0);
  EXPECT_EQ(row.Get("name")->AsString(), "alpha");
  EXPECT_EQ(row.Get("count")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(row.Get("ratio")->AsDouble(), 0.25);
}

TEST(Sinks, TableToJsonKeepsNonFiniteLookingCellsAsStrings) {
  // strtod parses "nan"/"inf"/"infinity" as doubles, but JSON has no
  // representation for them — such cells must stay strings, not turn into
  // an unparseable bare `nan` token.
  Table table({"a", "b", "c", "d"});
  table.AddRow({"nan", "inf", "-inf", "infinity"});
  const JsonValue rows = TableToJson(table);
  ASSERT_EQ(rows.size(), 1u);
  const JsonValue& row = rows.at(0);
  EXPECT_EQ(row.Get("a")->AsString(), "nan");
  EXPECT_EQ(row.Get("b")->AsString(), "inf");
  EXPECT_EQ(row.Get("c")->AsString(), "-inf");
  EXPECT_EQ(row.Get("d")->AsString(), "infinity");
  // The emitted document parses back.
  EXPECT_TRUE(JsonValue::Parse(rows.Dump()).has_value());
}

TEST(Sinks, JsonStringsEscapeQuotesAndControlCharacters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("label", "say \"hi\",\n\ttab");
  const std::string dumped = obj.Dump();
  const auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Get("label")->AsString(), "say \"hi\",\n\ttab");
}

TEST(Sinks, ParseOutputFormatAcceptsAliases) {
  EXPECT_EQ(ParseOutputFormat("table"), OutputFormat::kAligned);
  EXPECT_EQ(ParseOutputFormat("aligned"), OutputFormat::kAligned);
  EXPECT_EQ(ParseOutputFormat("csv"), OutputFormat::kCsv);
  EXPECT_EQ(ParseOutputFormat("json"), OutputFormat::kJson);
  EXPECT_FALSE(ParseOutputFormat("xml").has_value());
}

// --- JsonValue -----------------------------------------------------------

TEST(Json, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("int", static_cast<int64_t>(-3));
  obj.Set("big", static_cast<uint64_t>(1) << 53);
  obj.Set("pi", 3.141592653589793);
  obj.Set("text", "line\n\"quoted\"");
  obj.Set("flag", true);
  obj.Set("nothing", JsonValue());
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append(2.5);
  arr.Append("three");
  obj.Set("list", std::move(arr));

  for (int indent : {-1, 2}) {
    const std::optional<JsonValue> parsed = JsonValue::Parse(obj.Dump(indent));
    ASSERT_TRUE(parsed.has_value()) << "indent " << indent;
    EXPECT_EQ(parsed->Dump(), obj.Dump()) << "indent " << indent;
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").has_value());
  EXPECT_FALSE(JsonValue::Parse("{").has_value());
  EXPECT_FALSE(JsonValue::Parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonValue::Parse("nul").has_value());
}

// --- FlagParser ----------------------------------------------------------

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return argv;
}

TEST(FlagParser, ParsesRegisteredFlags) {
  uint64_t scale = 128;
  int jobs = 0;
  bool csv = false;
  double ws = 60.0;
  std::string out;
  FlagParser parser;
  parser.AddUint64("scale", "divisor", &scale);
  parser.AddInt("jobs", "threads", &jobs);
  parser.AddBool("csv", "csv output", &csv);
  parser.AddDouble("ws", "working set", &ws);
  parser.AddString("out", "format", &out);

  std::vector<std::string> args = {"bench", "--scale=512", "--jobs=4", "--csv",
                                   "--ws=7.5", "--out=json"};
  std::vector<char*> argv = Argv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(scale, 512u);
  EXPECT_EQ(jobs, 4);
  EXPECT_TRUE(csv);
  EXPECT_DOUBLE_EQ(ws, 7.5);
  EXPECT_EQ(out, "json");
}

TEST(FlagParser, UnknownFlagFailsParse) {
  int jobs = 0;
  FlagParser parser;
  parser.AddInt("jobs", "threads", &jobs);
  std::vector<std::string> args = {"bench", "--bogus=1"};
  std::vector<char*> argv = Argv(args);
  EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagParser, MalformedValueFailsParse) {
  int jobs = 0;
  FlagParser parser;
  parser.AddInt("jobs", "threads", &jobs);
  {
    std::vector<std::string> args = {"bench", "--jobs=abc"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    // A value flag used as a bare switch is malformed too.
    std::vector<std::string> args = {"bench", "--jobs"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
}

TEST(FlagParser, CustomHandlerRejectionFailsParse) {
  FlagParser parser;
  parser.AddCustom("arch", "naive|unified", "architecture",
                   [](const std::string& value) { return value == "naive"; });
  {
    std::vector<std::string> args = {"bench", "--arch=naive"};
    std::vector<char*> argv = Argv(args);
    EXPECT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
  {
    std::vector<std::string> args = {"bench", "--arch=sideways"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  }
}

}  // namespace
}  // namespace flashsim
