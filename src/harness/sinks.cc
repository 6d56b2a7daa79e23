#include "src/harness/sinks.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace flashsim {

std::optional<OutputFormat> ParseOutputFormat(const std::string& name) {
  if (name == "table" || name == "aligned") {
    return OutputFormat::kAligned;
  }
  if (name == "csv") {
    return OutputFormat::kCsv;
  }
  if (name == "json") {
    return OutputFormat::kJson;
  }
  return std::nullopt;
}

const char* OutputFormatName(OutputFormat format) {
  switch (format) {
    case OutputFormat::kAligned:
      return "table";
    case OutputFormat::kCsv:
      return "csv";
    case OutputFormat::kJson:
      return "json";
  }
  return "?";
}

namespace {

// A cell becomes a JSON number only when the whole string parses as one
// ("64", "12.50"); labels like "8G_ram_64G_flash_naive" stay strings.
JsonValue CellToJson(const std::string& cell) {
  if (cell.empty()) {
    return JsonValue(cell);
  }
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return JsonValue(cell);
  }
  // strtod accepts "nan"/"inf" spellings, which are not JSON numbers; keep
  // such cells as strings so the emitted document stays parseable.
  if (!std::isfinite(value)) {
    return JsonValue(cell);
  }
  // Integer-looking cells (no '.', 'e', inf/nan spellings) stay integers.
  if (cell.find_first_not_of("-0123456789") == std::string::npos) {
    const long long as_int = std::strtoll(cell.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') {
      return JsonValue(static_cast<int64_t>(as_int));
    }
  }
  return JsonValue(value);
}

}  // namespace

JsonValue TableToJson(const Table& table) {
  JsonValue rows = JsonValue::Array();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    JsonValue row = JsonValue::Object();
    const std::vector<std::string>& cells = table.row(r);
    for (size_t c = 0; c < table.num_columns() && c < cells.size(); ++c) {
      row.Set(table.header()[c], CellToJson(cells[c]));
    }
    rows.Append(std::move(row));
  }
  return rows;
}

void EmitTable(const Table& table, OutputFormat format, std::ostream& os) {
  switch (format) {
    case OutputFormat::kAligned:
      table.PrintAligned(os);
      break;
    case OutputFormat::kCsv:
      table.PrintCsv(os);
      break;
    case OutputFormat::kJson:
      os << TableToJson(table).Dump(2) << "\n";
      break;
  }
}

namespace {

JsonValue StatsToJson(const StreamingStats& stats) {
  JsonValue json = JsonValue::Object();
  json.Set("count", stats.count());
  json.Set("mean", stats.mean());
  json.Set("m2", stats.raw_m2());
  json.Set("min", stats.raw_min());
  json.Set("max", stats.raw_max());
  json.Set("sum", stats.sum());
  return json;
}

JsonValue RecorderToJson(const LatencyRecorder& recorder) {
  JsonValue json = JsonValue::Object();
  json.Set("stats", StatsToJson(recorder.stats()));
  // Sparse histogram: [[bucket_index, count], ...] — most of the 512
  // buckets are empty.
  JsonValue buckets = JsonValue::Array();
  const auto& raw = recorder.histogram().buckets();
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != 0) {
      JsonValue entry = JsonValue::Array();
      entry.Append(static_cast<int64_t>(i));
      entry.Append(raw[i]);
      buckets.Append(std::move(entry));
    }
  }
  json.Set("histogram", std::move(buckets));
  // Redundant with the state above, but convenient for consumers that just
  // want the summary without replaying the accumulator.
  json.Set("mean_us", recorder.mean_us());
  json.Set("p50_us", static_cast<double>(recorder.p50_ns()) / 1000.0);
  json.Set("p99_us", static_cast<double>(recorder.p99_ns()) / 1000.0);
  return json;
}

bool JsonToStats(const JsonValue& json, StreamingStats* out) {
  const JsonValue* count = json.Get("count");
  const JsonValue* mean = json.Get("mean");
  const JsonValue* m2 = json.Get("m2");
  const JsonValue* min = json.Get("min");
  const JsonValue* max = json.Get("max");
  const JsonValue* sum = json.Get("sum");
  if (count == nullptr || mean == nullptr || m2 == nullptr || min == nullptr ||
      max == nullptr || sum == nullptr) {
    return false;
  }
  *out = StreamingStats::FromState(count->AsUint(), mean->AsDouble(), m2->AsDouble(),
                                   min->AsDouble(), max->AsDouble(), sum->AsDouble());
  return true;
}

bool JsonToRecorder(const JsonValue& json, LatencyRecorder* out) {
  const JsonValue* stats_json = json.Get("stats");
  const JsonValue* buckets_json = json.Get("histogram");
  if (stats_json == nullptr || buckets_json == nullptr) {
    return false;
  }
  StreamingStats stats;
  if (!JsonToStats(*stats_json, &stats)) {
    return false;
  }
  std::array<uint64_t, LatencyHistogram::kNumBuckets> buckets{};
  for (size_t i = 0; i < buckets_json->size(); ++i) {
    const JsonValue& entry = buckets_json->at(i);
    if (entry.size() != 2) {
      return false;
    }
    const uint64_t index = entry.at(0).AsUint();
    if (index >= buckets.size()) {
      return false;
    }
    buckets[index] = entry.at(1).AsUint();
  }
  *out = LatencyRecorder::FromState(stats, LatencyHistogram::FromBuckets(buckets));
  return true;
}

JsonValue CountersToJson(const StackCounters& counters) {
  JsonValue json = JsonValue::Object();
  json.Set("ram_hits", counters.ram_hits);
  json.Set("flash_hits", counters.flash_hits);
  json.Set("filer_reads", counters.filer_reads);
  json.Set("sync_ram_evictions", counters.sync_ram_evictions);
  json.Set("sync_flash_evictions", counters.sync_flash_evictions);
  json.Set("flash_installs", counters.flash_installs);
  json.Set("filer_writebacks", counters.filer_writebacks);
  json.Set("sync_filer_writes", counters.sync_filer_writes);
  json.Set("flash_admission_rejects", counters.flash_admission_rejects);
  // Shard breakdowns exist only for sharded backends; omit them otherwise
  // so single-filer documents stay byte-identical to pre-backend ones.
  const auto append_all = [](const std::vector<uint64_t>& values) {
    JsonValue array = JsonValue::Array();
    for (const uint64_t v : values) {
      array.Append(v);
    }
    return array;
  };
  if (!counters.shard_reads.empty()) {
    json.Set("shard_reads", append_all(counters.shard_reads));
  }
  if (!counters.shard_writes.empty()) {
    json.Set("shard_writes", append_all(counters.shard_writes));
  }
  return json;
}

bool JsonToCounters(const JsonValue& json, StackCounters* out) {
  const auto get = [&json](const char* key, uint64_t* field) {
    const JsonValue* value = json.Get(key);
    if (value == nullptr) {
      return false;
    }
    *field = value->AsUint();
    return true;
  };
  // Absent in snapshots written before the counters existed; default 0.
  get("sync_filer_writes", &out->sync_filer_writes);
  get("flash_admission_rejects", &out->flash_admission_rejects);
  // Shard breakdowns are optional: absent means single filer (empty).
  const auto get_array = [&json](const char* key, std::vector<uint64_t>* field) {
    const JsonValue* value = json.Get(key);
    if (value == nullptr) {
      return;
    }
    field->clear();
    for (size_t i = 0; i < value->size(); ++i) {
      field->push_back(value->at(i).AsUint());
    }
  };
  get_array("shard_reads", &out->shard_reads);
  get_array("shard_writes", &out->shard_writes);
  return get("ram_hits", &out->ram_hits) && get("flash_hits", &out->flash_hits) &&
         get("filer_reads", &out->filer_reads) &&
         get("sync_ram_evictions", &out->sync_ram_evictions) &&
         get("sync_flash_evictions", &out->sync_flash_evictions) &&
         get("flash_installs", &out->flash_installs) &&
         get("filer_writebacks", &out->filer_writebacks);
}

JsonValue ShardToJson(const ShardMetrics& shard) {
  JsonValue json = JsonValue::Object();
  json.Set("fast_reads", shard.fast_reads);
  json.Set("slow_reads", shard.slow_reads);
  json.Set("writes", shard.writes);
  json.Set("queued_requests", shard.queued_requests);
  json.Set("max_wait_ns", static_cast<uint64_t>(shard.max_wait_ns));
  json.Set("busy_ns", static_cast<uint64_t>(shard.busy_ns));
  json.Set("wait_ns", static_cast<uint64_t>(shard.wait_ns));
  json.Set("control_messages", shard.control_messages);
  return json;
}

bool JsonToShard(const JsonValue& json, ShardMetrics* out) {
  const auto get = [&json](const char* key, uint64_t* field) {
    const JsonValue* value = json.Get(key);
    if (value == nullptr) {
      return false;
    }
    *field = value->AsUint();
    return true;
  };
  uint64_t max_wait = 0;
  uint64_t busy = 0;
  uint64_t wait = 0;
  if (!get("fast_reads", &out->fast_reads) || !get("slow_reads", &out->slow_reads) ||
      !get("writes", &out->writes) || !get("queued_requests", &out->queued_requests) ||
      !get("max_wait_ns", &max_wait) || !get("busy_ns", &busy) || !get("wait_ns", &wait)) {
    return false;
  }
  out->max_wait_ns = static_cast<SimDuration>(max_wait);
  out->busy_ns = static_cast<SimDuration>(busy);
  out->wait_ns = static_cast<SimDuration>(wait);
  // Absent in snapshots written before the coherence layer; default 0.
  get("control_messages", &out->control_messages);
  return true;
}

JsonValue CoherenceToJson(const CoherenceCounters& c) {
  JsonValue json = JsonValue::Object();
  json.Set("lookups", c.lookups);
  json.Set("invalidation_messages", c.invalidation_messages);
  json.Set("acks", c.acks);
  json.Set("lease_grants", c.lease_grants);
  json.Set("lease_renewals", c.lease_renewals);
  json.Set("lease_breaks", c.lease_breaks);
  json.Set("dirty_fetches", c.dirty_fetches);
  json.Set("stalled_reads", c.stalled_reads);
  json.Set("stalled_read_ns", c.stalled_read_ns);
  json.Set("stalled_writes", c.stalled_writes);
  json.Set("stalled_write_ns", c.stalled_write_ns);
  return json;
}

bool JsonToCoherence(const JsonValue& json, CoherenceCounters* out) {
  const auto get = [&json](const char* key, uint64_t* field) {
    const JsonValue* value = json.Get(key);
    if (value == nullptr) {
      return false;
    }
    *field = value->AsUint();
    return true;
  };
  return get("lookups", &out->lookups) &&
         get("invalidation_messages", &out->invalidation_messages) &&
         get("acks", &out->acks) && get("lease_grants", &out->lease_grants) &&
         get("lease_renewals", &out->lease_renewals) &&
         get("lease_breaks", &out->lease_breaks) &&
         get("dirty_fetches", &out->dirty_fetches) &&
         get("stalled_reads", &out->stalled_reads) &&
         get("stalled_read_ns", &out->stalled_read_ns) &&
         get("stalled_writes", &out->stalled_writes) &&
         get("stalled_write_ns", &out->stalled_write_ns);
}

}  // namespace

JsonValue MetricsToJson(const Metrics& metrics) {
  JsonValue json = JsonValue::Object();
  json.Set("read_latency", RecorderToJson(metrics.read_latency));
  json.Set("write_latency", RecorderToJson(metrics.write_latency));

  JsonValue levels = JsonValue::Array();
  for (uint64_t blocks : metrics.read_level_blocks) {
    levels.Append(blocks);
  }
  json.Set("read_level_blocks", std::move(levels));

  json.Set("measured_read_blocks", metrics.measured_read_blocks);
  json.Set("measured_write_blocks", metrics.measured_write_blocks);
  json.Set("warmup_blocks", metrics.warmup_blocks);
  json.Set("trace_records", metrics.trace_records);
  json.Set("consistency_writes", metrics.consistency_writes);
  json.Set("invalidating_writes", metrics.invalidating_writes);
  json.Set("invalidations", metrics.invalidations);
  json.Set("invalidation_messages", metrics.invalidation_messages);
  json.Set("coherence_model", CoherenceModelName(metrics.coherence_model));
  if (metrics.coherence.any()) {
    json.Set("coherence", CoherenceToJson(metrics.coherence));
  }
  json.Set("index_rehashes", metrics.index_rehashes);
  json.Set("end_time", static_cast<uint64_t>(metrics.end_time));
  json.Set("filer_fast_reads", metrics.filer_fast_reads);
  json.Set("filer_slow_reads", metrics.filer_slow_reads);
  json.Set("filer_writes", metrics.filer_writes);
  if (!metrics.filer_shards.empty()) {
    JsonValue shards = JsonValue::Array();
    for (const ShardMetrics& shard : metrics.filer_shards) {
      shards.Append(ShardToJson(shard));
    }
    json.Set("filer_shards", std::move(shards));
  }
  json.Set("stack_totals", CountersToJson(metrics.stack_totals));
  json.Set("writebacks_enqueued", metrics.writebacks_enqueued);
  json.Set("writebacks_completed", metrics.writebacks_completed);
  json.Set("writebacks_in_flight", metrics.writebacks_in_flight);
  json.Set("dirty_resident", metrics.dirty_resident);
  json.Set("flash_bytes_written", metrics.flash_bytes_written);
  json.Set("block_bytes", metrics.block_bytes);
  json.Set("ftl_enabled", metrics.ftl_enabled);
  json.Set("ftl_write_amplification", metrics.ftl_write_amplification);
  json.Set("ftl_erases", metrics.ftl_erases);
  json.Set("ftl_gc_relocations", metrics.ftl_gc_relocations);
  return json;
}

std::optional<Metrics> MetricsFromJson(const JsonValue& json) {
  if (json.type() != JsonValue::Type::kObject) {
    return std::nullopt;
  }
  Metrics metrics;
  const JsonValue* read_latency = json.Get("read_latency");
  const JsonValue* write_latency = json.Get("write_latency");
  if (read_latency == nullptr || !JsonToRecorder(*read_latency, &metrics.read_latency) ||
      write_latency == nullptr || !JsonToRecorder(*write_latency, &metrics.write_latency)) {
    return std::nullopt;
  }

  const JsonValue* levels = json.Get("read_level_blocks");
  if (levels == nullptr || levels->size() != metrics.read_level_blocks.size()) {
    return std::nullopt;
  }
  for (size_t i = 0; i < metrics.read_level_blocks.size(); ++i) {
    metrics.read_level_blocks[i] = levels->at(i).AsUint();
  }

  const auto get_u64 = [&json](const char* key, uint64_t* field) {
    const JsonValue* value = json.Get(key);
    if (value == nullptr) {
      return false;
    }
    *field = value->AsUint();
    return true;
  };
  uint64_t end_time = 0;
  const JsonValue* stack_totals = json.Get("stack_totals");
  const JsonValue* ftl_enabled = json.Get("ftl_enabled");
  const JsonValue* ftl_wa = json.Get("ftl_write_amplification");
  if (!get_u64("measured_read_blocks", &metrics.measured_read_blocks) ||
      !get_u64("measured_write_blocks", &metrics.measured_write_blocks) ||
      !get_u64("warmup_blocks", &metrics.warmup_blocks) ||
      !get_u64("trace_records", &metrics.trace_records) ||
      !get_u64("consistency_writes", &metrics.consistency_writes) ||
      !get_u64("invalidating_writes", &metrics.invalidating_writes) ||
      !get_u64("invalidations", &metrics.invalidations) ||
      !get_u64("invalidation_messages", &metrics.invalidation_messages) ||
      !get_u64("end_time", &end_time) ||
      !get_u64("filer_fast_reads", &metrics.filer_fast_reads) ||
      !get_u64("filer_slow_reads", &metrics.filer_slow_reads) ||
      !get_u64("filer_writes", &metrics.filer_writes) || stack_totals == nullptr ||
      !JsonToCounters(*stack_totals, &metrics.stack_totals) || ftl_enabled == nullptr ||
      ftl_wa == nullptr || !get_u64("ftl_erases", &metrics.ftl_erases) ||
      !get_u64("ftl_gc_relocations", &metrics.ftl_gc_relocations)) {
    return std::nullopt;
  }
  // Absent in snapshots written before the counters existed; default 0.
  const JsonValue* rehashes = json.Get("index_rehashes");
  if (rehashes != nullptr) {
    metrics.index_rehashes = rehashes->AsUint();
  }
  // Absent in snapshots written before the coherence layer (and the
  // counters object is omitted when all-zero); defaults are correct.
  if (const JsonValue* model = json.Get("coherence_model"); model != nullptr) {
    const std::optional<CoherenceModel> parsed = ParseCoherenceModel(model->AsString());
    if (!parsed.has_value()) {
      return std::nullopt;
    }
    metrics.coherence_model = *parsed;
  }
  if (const JsonValue* coherence = json.Get("coherence"); coherence != nullptr) {
    if (!JsonToCoherence(*coherence, &metrics.coherence)) {
      return std::nullopt;
    }
  }
  get_u64("writebacks_enqueued", &metrics.writebacks_enqueued);
  get_u64("writebacks_completed", &metrics.writebacks_completed);
  get_u64("writebacks_in_flight", &metrics.writebacks_in_flight);
  get_u64("dirty_resident", &metrics.dirty_resident);
  get_u64("flash_bytes_written", &metrics.flash_bytes_written);
  get_u64("block_bytes", &metrics.block_bytes);
  // Absent in single-filer snapshots and those written before sharding.
  if (const JsonValue* shards = json.Get("filer_shards"); shards != nullptr) {
    for (size_t i = 0; i < shards->size(); ++i) {
      ShardMetrics shard;
      if (!JsonToShard(shards->at(i), &shard)) {
        return std::nullopt;
      }
      metrics.filer_shards.push_back(shard);
    }
  }
  metrics.end_time = static_cast<SimTime>(end_time);
  metrics.ftl_enabled = ftl_enabled->AsBool();
  metrics.ftl_write_amplification = ftl_wa->AsDouble();
  return metrics;
}

namespace {

// Runs `emit` against `path`, or stdout when path is "-".
template <typename Emit>
bool EmitToPath(const std::string& path, std::string* error, Emit emit) {
  if (path == "-") {
    emit(std::cout);
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  emit(out);
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to " + path + " failed";
    }
    return false;
  }
  return true;
}

}  // namespace

bool WriteStatsJsonFile(const std::string& path, const Metrics& metrics,
                        const obs::Telemetry* telemetry, std::string* error) {
  JsonValue json = JsonValue::Object();
  json.Set("metrics", MetricsToJson(metrics));
  if (telemetry != nullptr) {
    json.Set("telemetry", telemetry->StatsJson());
  }
  return EmitToPath(path, error,
                    [&json](std::ostream& os) { os << json.Dump(2) << "\n"; });
}

bool WriteChromeTraceFile(const std::string& path, const obs::Telemetry& telemetry,
                          std::string* error) {
  if (telemetry.trace() == nullptr) {
    if (error != nullptr) {
      *error = "trace export requested but span capture was not armed";
    }
    return false;
  }
  return EmitToPath(path, error,
                    [&telemetry](std::ostream& os) { telemetry.WriteChromeTrace(os); });
}

}  // namespace flashsim
