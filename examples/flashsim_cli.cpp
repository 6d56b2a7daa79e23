// flashsim_cli: the full simulator behind one command line.
//
// Runs a synthetic workload (or a trace file) through any configuration the
// library supports and prints the complete metrics. This is the adoption
// surface for scripting parameter studies that the fixed benches don't
// cover. Flags are handled by the harness's registering parser — run with
// an unknown flag to get the full usage listing.
//
//   flashsim_cli [options]
//     --trace=PATH            replay a trace file instead of generating
//                             (exits 1, naming the first malformed line,
//                             if the trace has one)
//     --arch=naive|lookaside|unified
//     --ram-policy=POL --flash-policy=POL      (s a p1 p5 p15 p30 n)
//     --policy=lru|fifo|clock|slru|lruk        replacement policy zoo
//     --admission=all|flashield                flash admission filter
//     --ram-gib=N --flash-gib=N --ws-gib=N --filer-tib=N
//                             (negative or byte count over 2^64: exit 2)
//     --hosts=N --threads=N --write-pct=N --scale=N --seed=N
//                             (hosts, threads, scale >= 1; hosts <= 4096)
//     --filers=N              filer shards in the storage backend (1..64)
//     --prefetch-pct=N        filer fast-read rate
//     --flash-read-us=N --flash-write-us=N
//     --flash-noise=SIGMA     mean-one lognormal flash latency noise
//     --persistent            doubled flash writes (recoverable cache)
//     --cold                  skip warmup (crashed cache)
//     --ftl                   FTL-backed flash device (GC, erases, TRIM)
//     --coherence=perfect|directory|lease
//     --series-ms=N           print a read-latency time series
//                             (numeric flags reject NaN, infinities and
//                             out-of-range values: exit 2, flag named)
//     --json                  machine-readable full Metrics snapshot
//     --stats_json=PATH       write metrics + telemetry histograms ("-" = stdout)
//     --trace_out=PATH        write a Chrome trace_event JSON (chrome://tracing)
//     --sample_stride=N       sample hit rates / occupancies every N sim-ms
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "src/core/experiment.h"
#include "src/core/simulation.h"
#include "src/harness/harness.h"
#include "src/trace/trace_file.h"
#include "src/util/table.h"
#include "src/util/time_series.h"

using namespace flashsim;

namespace {

struct CliOptions {
  ExperimentParams params;
  std::string trace_path;
  int64_t series_ms = 0;
  bool json = false;
  std::string stats_json_path;
  std::string trace_out_path;
  int64_t sample_stride_ms = 0;
};

// Largest microsecond latency whose nanosecond count fits a SimDuration.
constexpr double kMaxLatencyUs = 9.2e15;
// Largest millisecond count whose nanosecond count fits a SimDuration.
constexpr double kMaxDurationMs = 9.2e12;

void RegisterFlags(FlagParser& parser, CliOptions* options) {
  ExperimentParams& params = options->params;
  parser.AddString("trace", "replay a trace file instead of generating", &options->trace_path);
  parser.AddCustom("arch", "naive|lookaside|unified", "cache architecture",
                   [&params](const std::string& value) {
                     const auto arch = ParseArchitecture(value);
                     if (!arch) {
                       return false;
                     }
                     params.arch = *arch;
                     return true;
                   });
  parser.AddCustom("ram-policy", "POL", "RAM writeback policy (s a p1 p5 p15 p30 n)",
                   [&params](const std::string& value) {
                     const auto policy = ParsePolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.ram_policy = *policy;
                     return true;
                   });
  parser.AddCustom("flash-policy", "POL", "flash writeback policy",
                   [&params](const std::string& value) {
                     const auto policy = ParsePolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.flash_policy = *policy;
                     return true;
                   });
  parser.AddCustom("policy", "lru|fifo|clock|slru|lruk", "cache replacement policy",
                   [&params](const std::string& value) {
                     const auto policy = ParseReplacementPolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.replacement = *policy;
                     return true;
                   });
  parser.AddCustom("admission", "all|flashield",
                   "flash admission policy (lookaside/unified only)",
                   [&params](const std::string& value) {
                     const auto policy = ParseAdmissionPolicy(value);
                     if (!policy) {
                       return false;
                     }
                     params.admission = *policy;
                     return true;
                   });
  parser.AddCustom("coherence", "perfect|directory|lease",
                   "coherence protocol (DESIGN.md \u00a715)",
                   [&params](const std::string& value) {
                     const auto model = ParseCoherenceModel(value);
                     if (!model) {
                       return false;
                     }
                     params.coherence = *model;
                     return true;
                   });
  AddCapacityFlag(parser, "ram-gib", "RAM cache GiB", kGiB, &params.ram_gib);
  AddCapacityFlag(parser, "flash-gib", "flash cache GiB", kGiB, &params.flash_gib);
  AddCapacityFlag(parser, "ws-gib", "working set GiB", kGiB, &params.working_set_gib);
  AddCapacityFlag(parser, "filer-tib", "file server TiB", kTiB, &params.filer_tib);
  parser.AddCustom("write-pct", "N", "write percentage", [&params](const std::string& value) {
    double pct = 0.0;
    if (!ParseInRange(value, 0.0, 100.0, &pct)) {
      return false;
    }
    params.write_fraction = pct / 100.0;
    return true;
  });
  parser.AddCustom("prefetch-pct", "N", "filer fast-read rate (%)",
                   [&params](const std::string& value) {
                     double pct = 0.0;
                     if (!ParseInRange(value, 0.0, 100.0, &pct)) {
                       return false;
                     }
                     params.timing.filer_fast_read_rate = pct / 100.0;
                     return true;
                   });
  parser.AddCustom("flash-read-us", "N", "flash read latency (us)",
                   [&params](const std::string& value) {
                     double us = 0.0;
                     if (!ParseInRange(value, 0.0, kMaxLatencyUs, &us)) {
                       return false;
                     }
                     params.timing.flash_read_ns = static_cast<SimDuration>(us * 1000.0);
                     return true;
                   });
  parser.AddCustom("flash-write-us", "N", "flash write latency (us)",
                   [&params](const std::string& value) {
                     double us = 0.0;
                     if (!ParseInRange(value, 0.0, kMaxLatencyUs, &us)) {
                       return false;
                     }
                     params.timing.flash_write_ns = static_cast<SimDuration>(us * 1000.0);
                     return true;
                   });
  parser.AddInt("hosts", "number of hosts", &params.hosts, 1, Directory::kMaxHosts);
  // The synthetic trace spec carries the thread count as a uint16_t.
  parser.AddInt("threads", "threads per host", &params.threads_per_host, 1,
                std::numeric_limits<uint16_t>::max());
  parser.AddInt("filers", "filer shards in the storage backend", &params.num_filers, 1,
                StorageBackend::kMaxShards);
  parser.AddCustom("flash-noise", "SIGMA",
                   "mean-one lognormal flash latency noise (0 = off)",
                   [&params](const std::string& value) {
                     return ParseInRange(value, 0.0, std::numeric_limits<double>::max(),
                                         &params.timing.flash_noise_sigma);
                   });
  parser.AddUint64("scale", "capacity scale divisor", &params.scale, 1);
  parser.AddUint64("seed", "workload seed", &params.seed);
  parser.AddCustom("series-ms", "N", "read-latency time series window (ms)",
                   [options](const std::string& value) {
                     double ms = 0.0;
                     if (!ParseInRange(value, 0.0, kMaxDurationMs, &ms)) {
                       return false;
                     }
                     options->series_ms = static_cast<int64_t>(ms);
                     return true;
                   });
  parser.AddCustom("persistent", "", "doubled flash writes (recoverable cache)",
                   [&params](const std::string&) {
                     params.timing.persistent_flash = true;
                     return true;
                   });
  parser.AddCustom("cold", "", "skip warmup (crashed cache)", [&params](const std::string&) {
    params.skip_warmup = true;
    return true;
  });
  parser.AddCustom("ftl", "", "FTL-backed flash device", [&params](const std::string&) {
    params.timing.use_ftl = true;
    return true;
  });
  parser.AddBool("json", "print the full Metrics snapshot as JSON", &options->json);
  parser.AddString("stats_json", "write metrics + telemetry JSON to PATH (- = stdout)",
                   &options->stats_json_path);
  parser.AddString("trace_out", "write Chrome trace_event JSON to PATH (- = stdout)",
                   &options->trace_out_path);
  parser.AddCustom("sample_stride", "N", "telemetry sampling stride (sim-ms, 0 = off)",
                   [options](const std::string& value) {
                     double ms = 0.0;
                     if (!ParseInRange(value, 0.0, kMaxDurationMs, &ms)) {
                       return false;
                     }
                     options->sample_stride_ms = static_cast<int64_t>(ms);
                     return true;
                   });
}

void PrintMetrics(const Metrics& m) {
  std::printf("\noperations: %llu (measured blocks: %llu read, %llu write; warmup %llu)\n",
              static_cast<unsigned long long>(m.trace_records),
              static_cast<unsigned long long>(m.measured_read_blocks),
              static_cast<unsigned long long>(m.measured_write_blocks),
              static_cast<unsigned long long>(m.warmup_blocks));
  std::printf("reads : %s\n", m.read_latency.Summary().c_str());
  std::printf("writes: %s\n", m.write_latency.Summary().c_str());
  std::printf("read service: ram %.1f%%  flash %.1f%%  filer %.1f%% "
              "(fast %llu / slow %llu)\n",
              100.0 * m.ram_hit_rate(), 100.0 * m.flash_hit_rate(),
              100.0 * m.filer_read_rate(), static_cast<unsigned long long>(m.filer_fast_reads),
              static_cast<unsigned long long>(m.filer_slow_reads));
  std::printf("writebacks to filer: %llu; sync evictions: %llu ram, %llu flash\n",
              static_cast<unsigned long long>(m.stack_totals.filer_writebacks),
              static_cast<unsigned long long>(m.stack_totals.sync_ram_evictions),
              static_cast<unsigned long long>(m.stack_totals.sync_flash_evictions));
  if (m.filer_shards.size() > 1) {
    for (size_t s = 0; s < m.filer_shards.size(); ++s) {
      const ShardMetrics& shard = m.filer_shards[s];
      std::printf("  shard %zu: %llu reads (%llu fast), %llu writes, "
                  "%llu queued, max wait %.1f us\n",
                  s, static_cast<unsigned long long>(shard.fast_reads + shard.slow_reads),
                  static_cast<unsigned long long>(shard.fast_reads),
                  static_cast<unsigned long long>(shard.writes),
                  static_cast<unsigned long long>(shard.queued_requests),
                  static_cast<double>(shard.max_wait_ns) / 1000.0);
    }
  }
  if (m.consistency_writes > 0) {
    std::printf("consistency: %.1f%% of writes invalidate (%llu invalidations, "
                "%llu protocol messages)\n",
                100.0 * m.invalidation_rate(),
                static_cast<unsigned long long>(m.invalidations),
                static_cast<unsigned long long>(m.invalidation_messages));
  }
  if (m.coherence_model != CoherenceModel::kPerfect) {
    const CoherenceCounters& c = m.coherence;
    std::printf("coherence (%s): %llu lookups, %llu messages, %llu acks, "
                "%llu dirty fetches\n",
                CoherenceModelName(m.coherence_model),
                static_cast<unsigned long long>(c.lookups),
                static_cast<unsigned long long>(c.invalidation_messages),
                static_cast<unsigned long long>(c.acks),
                static_cast<unsigned long long>(c.dirty_fetches));
    if (c.lease_grants + c.lease_renewals + c.lease_breaks > 0) {
      std::printf("leases: %llu grants, %llu renewals, %llu breaks\n",
                  static_cast<unsigned long long>(c.lease_grants),
                  static_cast<unsigned long long>(c.lease_renewals),
                  static_cast<unsigned long long>(c.lease_breaks));
    }
    if (c.stalled_reads + c.stalled_writes > 0) {
      std::printf("protocol stalls: %llu reads (%.1f us avg), %llu writes "
                  "(%.1f us avg)\n",
                  static_cast<unsigned long long>(c.stalled_reads),
                  c.stalled_reads == 0 ? 0.0
                                       : static_cast<double>(c.stalled_read_ns) /
                                             (1000.0 * static_cast<double>(c.stalled_reads)),
                  static_cast<unsigned long long>(c.stalled_writes),
                  c.stalled_writes == 0 ? 0.0
                                        : static_cast<double>(c.stalled_write_ns) /
                                              (1000.0 * static_cast<double>(c.stalled_writes)));
    }
  }
  if (m.ftl_enabled) {
    std::printf("ftl: write amplification %.3f, %llu erases, %llu GC relocations\n",
                m.ftl_write_amplification, static_cast<unsigned long long>(m.ftl_erases),
                static_cast<unsigned long long>(m.ftl_gc_relocations));
  }
  std::printf("simulated time: %.3f s\n", static_cast<double>(m.end_time) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.params.scale = 128;
  FlagParser parser;
  RegisterFlags(parser, &options);
  parser.ParseOrExit(argc, argv);

  std::unique_ptr<TimeSeriesRecorder> series;
  if (options.series_ms > 0) {
    series = std::make_unique<TimeSeriesRecorder>(options.series_ms * kMillisecond);
    options.params.read_latency_series = series.get();
  }

  // Arm telemetry from the output flags: a stats file wants histograms, a
  // trace file wants spans, a stride arms the sampler.
  if (!options.stats_json_path.empty()) {
    options.params.telemetry.histograms = true;
  }
  if (!options.trace_out_path.empty()) {
    options.params.telemetry.spans = true;
  }
  if (options.sample_stride_ms > 0) {
    options.params.telemetry.sample_stride_ns = options.sample_stride_ms * kMillisecond;
  }

  // A "-" output path streams a JSON document to stdout; the human-readable
  // report must stay off it, exactly as with --json.
  const bool quiet = options.json || options.stats_json_path == "-" ||
                     options.trace_out_path == "-";
  if (!quiet) {
    PrintExperimentHeader("flashsim_cli", options.params);
  }
  Metrics metrics;
  std::shared_ptr<obs::Telemetry> telemetry;
  if (!options.trace_path.empty()) {
    std::string error;
    auto source = OpenTraceSource(options.trace_path, &error);
    if (source == nullptr) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    const SimConfig run_config = BuildSimConfig(options.params);
    if (!quiet) {
      std::printf("configuration: %s (trace: %s)\n", run_config.Summary().c_str(),
                  options.trace_path.c_str());
    }
    Simulation sim(run_config);
    if (series != nullptr) {
      sim.set_read_latency_series(series.get());
    }
    metrics = sim.Run(*source);
    if (source->error_line() != 0) {
      std::fprintf(stderr, "%s: malformed trace record at line %llu\n",
                   options.trace_path.c_str(),
                   static_cast<unsigned long long>(source->error_line()));
      return 1;
    }
    telemetry = sim.TakeTelemetry();
  } else {
    const ExperimentResult result = RunExperiment(options.params);
    if (!quiet) {
      std::printf("configuration: %s\n", result.config.Summary().c_str());
    }
    metrics = result.metrics;
    telemetry = result.telemetry;
  }

  if (!options.stats_json_path.empty()) {
    std::string error;
    if (!WriteStatsJsonFile(options.stats_json_path, metrics, telemetry.get(), &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  if (!options.trace_out_path.empty()) {
    std::string error;
    if (telemetry == nullptr ||
        !WriteChromeTraceFile(options.trace_out_path, *telemetry, &error)) {
      std::fprintf(stderr, "%s\n", error.empty() ? "no telemetry collected" : error.c_str());
      return 1;
    }
  }

  if (options.json) {
    std::printf("%s\n", MetricsToJson(metrics).Dump(2).c_str());
    return 0;
  }
  if (quiet) {
    return 0;
  }
  PrintMetrics(metrics);

  if (series != nullptr) {
    std::printf("\nread latency time series (%lld ms windows):\n",
                static_cast<long long>(options.series_ms));
    Table table({"window_start_s", "mean_read_us", "samples"});
    for (size_t w = 0; w < series->num_windows(); ++w) {
      if (series->window(w).count() == 0) {
        continue;
      }
      table.AddRow({Table::Cell(static_cast<double>(series->window_start(w)) / 1e9, 2),
                    Table::Cell(series->WindowMean(w) / 1000.0, 2),
                    Table::Cell(series->window(w).count())});
    }
    table.PrintAligned(std::cout);
  }
  return 0;
}
