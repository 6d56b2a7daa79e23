// flashbench: the benchmark driver for flashsim.
//
// One process runs one workload: cycles of set-up (--setup_reps times) and
// the timed part, at least --min_reps cycles and more while another fits
// in --seconds, checking every point of every repetition.
// run.py builds and launches it and takes the medians; README.md in this
// directory lists the workloads and every metric.
//
//   flashbench --workload=policy_grid|trace_replay|write_sharing --seed=N
//              [--seconds=S --min_reps=R --setup_reps=U] [--tmp_dir=DIR]
//              [--corrupt_point=K] [--pin]
//   flashbench_traced --traced [--spans=PATH] ...   (the per-layer run)
//   flashbench_traced --selftest [--tmp_dir=DIR]
//
// Everything goes through the simulator's public calls, the same ones its
// benches and CLI use: RunExperiment on a ParallelRunner for the sweeps,
// TraceFileWriter / OpenTraceSource / Simulation for the trace replay. The
// traced mode makes RunExperiment's calls itself, with a stopwatch around
// each layer boundary, and must produce the same digests as the untraced
// mode.
//
// Output, on stdout, one JSON object per line:
//   {"rep": r, "point": i, "label": "...", "digest": "<hex>", "error": "..."}
//       each point of repetition r, in sweep order; a non-empty error names
//       the conservation identity the point broke
//   {"rep": r, "wall_s": ..., "cpu_s": ..., "counts": {...}[, "layers": {...}]}
//       after each repetition's points
//   {"summary": {...}}  once, last: set-up median and peak RSS
// run.py also compares each digest with the pinned one (digests.json) and
// counts a point that never printed (a crash) as failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/simulation.h"
#include "src/harness/flags.h"
#include "src/harness/runner.h"
#include "src/harness/sweep.h"
#include "src/trace/fast_source.h"
#include "src/trace/trace_file.h"
#include "src/tracegen/generator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

#ifdef FLASHBENCH_HEAP_COUNT
#include "heap_count.h"
#endif

namespace flashbench {
namespace {

using flashsim::ExperimentParams;
using flashsim::ExperimentResult;
using flashsim::Metrics;
using flashsim::SweepPoint;
using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 4;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::vector<SweepPoint> points;
  int jobs = 1;
  // trace_replay: the single point is written to a text trace in set-up and
  // replayed from it; otherwise points run through RunExperiment.
  bool replay = false;
};

// fig02: 3 architectures x 7 RAM x 7 flash writeback policies, 1 host,
// 80 GB working set, 30% writes.
Workload PolicyGrid(uint64_t seed, uint64_t scale) {
  ExperimentParams base;
  base.scale = scale;
  base.working_set_gib = 80.0;
  base.write_fraction = 0.30;
  base.seed = seed;
  std::vector<flashsim::Sweep::AxisValue> arch_axis;
  for (flashsim::Architecture arch : flashsim::kAllArchitectures) {
    arch_axis.push_back(
        {flashsim::ArchitectureName(arch), [arch](ExperimentParams& p) { p.arch = arch; }});
  }
  std::vector<flashsim::Sweep::AxisValue> ram_axis;
  std::vector<flashsim::Sweep::AxisValue> flash_axis;
  for (flashsim::WritebackPolicy policy : flashsim::kAllWritebackPolicies) {
    ram_axis.push_back({flashsim::PolicyName(policy),
                        [policy](ExperimentParams& p) { p.ram_policy = policy; }});
    flash_axis.push_back({flashsim::PolicyName(policy),
                          [policy](ExperimentParams& p) { p.flash_policy = policy; }});
  }
  flashsim::Sweep sweep(base);
  sweep.AddAxis("arch", std::move(arch_axis))
      .AddAxis("ram_policy", std::move(ram_axis))
      .AddAxis("flash_policy", std::move(flash_axis));
  return {"policy_grid", sweep.Expand(), kWorkers, false};
}

// The write_sharing example's grid: unified, 8 hosts over one shared
// working set; no flash vs 64 GB of flash under each coherence protocol,
// crossed with the write fraction.
Workload WriteSharing(uint64_t seed, uint64_t scale) {
  ExperimentParams base;
  base.scale = scale;
  base.arch = flashsim::Architecture::kUnified;
  base.hosts = 8;
  base.shared_working_set = true;
  base.working_set_gib = 80.0;
  base.seed = seed;
  struct CacheConfig {
    const char* name;
    double flash_gib;
    flashsim::CoherenceModel model;
  };
  const CacheConfig configs[] = {
      {"no_flash", 0.0, flashsim::CoherenceModel::kPerfect},
      {"flash_perfect", 64.0, flashsim::CoherenceModel::kPerfect},
      {"flash_directory", 64.0, flashsim::CoherenceModel::kDirectory},
      {"flash_lease", 64.0, flashsim::CoherenceModel::kLease},
  };
  std::vector<flashsim::Sweep::AxisValue> cache_axis;
  for (const CacheConfig& c : configs) {
    cache_axis.push_back({c.name, [c](ExperimentParams& p) {
                            p.flash_gib = c.flash_gib;
                            p.coherence = c.model;
                          }});
  }
  std::vector<flashsim::Sweep::AxisValue> write_axis;
  for (int write_pct : {0, 10, 20, 40, 60, 80}) {
    write_axis.push_back({std::to_string(write_pct), [write_pct](ExperimentParams& p) {
                            p.write_fraction = write_pct / 100.0;
                          }});
  }
  flashsim::Sweep sweep(base);
  sweep.AddAxis("cache", std::move(cache_axis)).AddAxis("write_pct", std::move(write_axis));
  return {"write_sharing", sweep.Expand(), kWorkers, false};
}

// The paper's baseline point (naive, RAM p1 / flash a, 8 threads, 1 host,
// 80 GB working set, 30% writes), replayed from a text trace.
Workload TraceReplay(uint64_t seed, uint64_t scale) {
  ExperimentParams base;
  base.scale = scale;
  base.seed = seed;
  flashsim::Sweep sweep(base);
  return {"trace_replay", sweep.Expand(), 1, true};
}

// scale 0 selects the workload's own scale; the self-test passes smaller
// workloads (larger divisors).
bool MakeWorkload(const std::string& name, uint64_t seed, uint64_t scale, Workload* out) {
  if (name == "policy_grid") {
    *out = PolicyGrid(seed, scale == 0 ? 512 : scale);
  } else if (name == "trace_replay") {
    *out = TraceReplay(seed, scale == 0 ? 16 : scale);
  } else if (name == "write_sharing") {
    *out = WriteSharing(seed, scale == 0 ? 256 : scale);
  } else {
    return false;
  }
  return true;
}

// The file-server model RunExperiment builds for these params: the same
// size, block size and seed experiment.cc passes to GetFsModel, so set-up
// builds (and memoizes) it ahead of the timed part, and trace_replay
// generates exactly the stream RunExperiment would.
const uint64_t kFsModelSeed = flashsim::Mix64(0xf5ULL);

uint64_t FilerBytes(const ExperimentParams& params) {
  return static_cast<uint64_t>(params.filer_tib * static_cast<double>(flashsim::kTiB) /
                               static_cast<double>(params.scale));
}

const flashsim::FsModel& FsModelFor(const ExperimentParams& params) {
  return flashsim::GetFsModel(FilerBytes(params), flashsim::BuildSimConfig(params).block_bytes,
                              kFsModelSeed);
}

// ---------------------------------------------------------------------------
// Output checks

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

template <typename T>
void Mix(uint64_t& hash, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
}

// FNV-1a over a fixed list of modelled-result fields. Engine-shape fields
// (partition certification counters, index rehashes) are deliberately left
// out: they describe how the simulator ran, not what it simulated.
uint64_t DigestMetrics(const Metrics& m) {
  uint64_t h = kFnvBasis;
  for (const flashsim::LatencyRecorder* r : {&m.read_latency, &m.write_latency}) {
    const flashsim::StreamingStats& s = r->stats();
    Mix(h, s.count());
    Mix(h, s.mean());
    Mix(h, s.raw_m2());
    Mix(h, s.raw_min());
    Mix(h, s.raw_max());
    Mix(h, s.sum());
    for (uint64_t bucket : r->histogram().buckets()) {
      Mix(h, bucket);
    }
  }
  for (uint64_t blocks : m.read_level_blocks) {
    Mix(h, blocks);
  }
  Mix(h, m.measured_read_blocks);
  Mix(h, m.measured_write_blocks);
  Mix(h, m.warmup_blocks);
  Mix(h, m.trace_records);
  const flashsim::StackCounters& c = m.stack_totals;
  for (uint64_t v : {c.ram_hits, c.flash_hits, c.filer_reads, c.sync_ram_evictions,
                     c.sync_flash_evictions, c.flash_installs, c.filer_writebacks,
                     c.sync_filer_writes, c.flash_admission_rejects}) {
    Mix(h, v);
  }
  Mix(h, m.filer_fast_reads);
  Mix(h, m.filer_slow_reads);
  Mix(h, m.filer_writes);
  Mix(h, m.consistency_writes);
  Mix(h, m.invalidating_writes);
  Mix(h, m.invalidations);
  Mix(h, m.invalidation_messages);
  const flashsim::CoherenceCounters& k = m.coherence;
  for (uint64_t v : {k.lookups, k.invalidation_messages, k.acks, k.lease_grants,
                     k.lease_renewals, k.lease_breaks, k.dirty_fetches, k.stalled_reads,
                     k.stalled_read_ns, k.stalled_writes, k.stalled_write_ns}) {
    Mix(h, v);
  }
  Mix(h, m.end_time);
  Mix(h, m.writebacks_enqueued);
  Mix(h, m.writebacks_completed);
  Mix(h, m.writebacks_in_flight);
  Mix(h, m.dirty_resident);
  Mix(h, m.flash_bytes_written);
  return h;
}

// The writeback and block conservation identities (metrics.h, audit.h)
// that must hold for any seed. Returns "" or the first broken identity.
std::string CheckIdentities(const Metrics& m) {
  const flashsim::StackCounters& c = m.stack_totals;
  if (c.filer_writebacks != c.sync_filer_writes + m.writebacks_enqueued) {
    return "filer_writebacks != sync_filer_writes + writebacks_enqueued";
  }
  if (m.writebacks_enqueued != m.writebacks_completed + m.writebacks_in_flight) {
    return "writebacks_enqueued != writebacks_completed + writebacks_in_flight";
  }
  if (m.filer_writes < c.sync_filer_writes + m.writebacks_completed ||
      m.filer_writes > c.sync_filer_writes + m.writebacks_enqueued) {
    return "filer_writes outside sync_filer_writes + writebacks_{completed,enqueued}";
  }
  if (m.filer_fast_reads + m.filer_slow_reads != c.filer_reads) {
    return "filer_fast_reads + filer_slow_reads != filer_reads";
  }
  uint64_t level_blocks = 0;
  for (uint64_t blocks : m.read_level_blocks) {
    level_blocks += blocks;
  }
  if (level_blocks != m.measured_read_blocks) {
    return "sum(read_level_blocks) != measured_read_blocks";
  }
  const uint64_t reads = c.ram_hits + c.flash_hits + c.filer_reads;
  if (reads < m.measured_read_blocks || reads > m.measured_read_blocks + m.warmup_blocks) {
    return "ram_hits + flash_hits + filer_reads outside measured reads + warmup";
  }
  uint64_t shard_reads = 0;
  uint64_t shard_writes = 0;
  for (const flashsim::ShardMetrics& s : m.filer_shards) {
    shard_reads += s.fast_reads + s.slow_reads;
    shard_writes += s.writes;
  }
  if (shard_reads != c.filer_reads || shard_writes != m.filer_writes) {
    return "filer shard totals != filer totals";
  }
  if (m.flash_bytes_written != c.flash_installs * m.block_bytes) {
    return "flash_bytes_written != flash_installs * block_bytes";
  }
  if (m.read_latency.count() + m.write_latency.count() > m.trace_records) {
    return "measured ops > trace_records";
  }
  return "";
}

// Modelled work counts summed over a workload's points; exact for a seed.
struct WorkCounts {
  uint64_t blocks = 0;  // warmup + measured block I/Os
  uint64_t records = 0;
  uint64_t ram_hits = 0;
  uint64_t flash_hits = 0;
  uint64_t flash_installs = 0;
  uint64_t index_rehashes = 0;
  uint64_t filer_reads = 0;
  uint64_t filer_writebacks = 0;
  uint64_t filer_queued = 0;
  uint64_t writebacks_enqueued = 0;
  uint64_t invalidations = 0;
  uint64_t messages = 0;
  uint64_t stalled_ops = 0;
  double end_time_s = 0.0;

  void Add(const Metrics& m) {
    blocks += m.warmup_blocks + m.measured_read_blocks + m.measured_write_blocks;
    records += m.trace_records;
    ram_hits += m.stack_totals.ram_hits;
    flash_hits += m.stack_totals.flash_hits;
    flash_installs += m.stack_totals.flash_installs;
    index_rehashes += m.index_rehashes;
    filer_reads += m.stack_totals.filer_reads;
    filer_writebacks += m.stack_totals.filer_writebacks;
    for (const flashsim::ShardMetrics& s : m.filer_shards) {
      filer_queued += s.queued_requests;
    }
    writebacks_enqueued += m.writebacks_enqueued;
    invalidations += m.invalidations;
    messages += m.coherence.invalidation_messages;
    stalled_ops += m.coherence.stalled_reads + m.coherence.stalled_writes;
    end_time_s += static_cast<double>(m.end_time) / 1e9;
  }
};

// ---------------------------------------------------------------------------
// Host-side measurement

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Small dense thread ids for spans.
int ThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

// A finished span, in microseconds since the process's time origin.
struct Span {
  std::string name;
  int tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::string parent;
  std::string args;  // pre-rendered JSON members, may be empty
};

const Clock::time_point kOrigin = Clock::now();

double Micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kOrigin).count();
}

// Forwards every call to the wrapped source and sums the time spent in
// Next. SizeHint and Rewind are forwarded unchanged, so the simulation
// pre-sizes its backlogs exactly as it would on the bare source.
class TimedSource : public flashsim::TraceSource {
 public:
  explicit TimedSource(flashsim::TraceSource& inner) : inner_(&inner) {}

  bool Next(flashsim::TraceRecord* record) override {
    const Clock::time_point start = Clock::now();
    const bool ok = inner_->Next(record);
    next_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
    records_ += ok ? 1 : 0;
    return ok;
  }
  void Rewind() override { inner_->Rewind(); }
  uint64_t SizeHint() const override { return inner_->SizeHint(); }

  double next_s() const { return static_cast<double>(next_ns_) / 1e9; }
  uint64_t records() const { return records_; }

 private:
  flashsim::TraceSource* inner_;
  int64_t next_ns_ = 0;
  uint64_t records_ = 0;
};

// What the traced run learns about one point, written by the worker that
// ran it and read after the runner has joined.
struct PointTrace {
  int tid = 0;
  Clock::time_point start;
  Clock::time_point end;
  double build_s = 0.0;
  double run_s = 0.0;
  double teardown_s = 0.0;
  double next_s = 0.0;  // source Next time inside run
  uint64_t records = 0;
  uint64_t events = 0;
  double resident_mib = 0.0;
  std::vector<Span> spans;
};

// Runs `fn`, appends a span for it to `spans`, and returns its seconds.
template <typename Fn>
double Timed(std::vector<Span>* spans, const char* name, const std::string& parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  spans->push_back({name, ThreadId(), Micros(start), Micros(end) - Micros(start), parent, ""});
  return std::chrono::duration<double>(end - start).count();
}

// Heap accounting hooks: real in the traced executable, absent otherwise.
int64_t HeapLive() {
#ifdef FLASHBENCH_HEAP_COUNT
  return ThreadHeapLive();
#else
  return 0;
#endif
}
int64_t HeapPeakSinceReset() {
#ifdef FLASHBENCH_HEAP_COUNT
  return ThreadHeapPeak();
#else
  return 0;
#endif
}
void HeapResetPeak() {
#ifdef FLASHBENCH_HEAP_COUNT
  ResetThreadHeapPeak();
#endif
}

// Simulation build / run / teardown with a stopwatch at each boundary.
Metrics TracedSimulate(const ExperimentParams& params, flashsim::TraceSource& source,
                       PointTrace* trace, const std::string& parent) {
  const int64_t heap_start = HeapLive();
  HeapResetPeak();
  TimedSource timed(source);
  std::unique_ptr<flashsim::Simulation> sim;
  Metrics metrics;
  trace->build_s = Timed(&trace->spans, "sim_build", parent, [&] {
    sim = std::make_unique<flashsim::Simulation>(flashsim::BuildSimConfig(params));
  });
  const Clock::time_point run_start = Clock::now();
  metrics = sim->Run(timed);
  const Clock::time_point run_end = Clock::now();
  trace->run_s = std::chrono::duration<double>(run_end - run_start).count();
  trace->next_s = timed.next_s();
  trace->records = timed.records();
  trace->events = sim->events_processed();
  trace->resident_mib = static_cast<double>(HeapPeakSinceReset() - heap_start) / (1 << 20);
  char args[160];
  std::snprintf(args, sizeof(args),
                "\"source_next_us\": %.3f, \"records\": %llu, \"events\": %llu", trace->next_s * 1e6,
                static_cast<unsigned long long>(trace->records),
                static_cast<unsigned long long>(trace->events));
  trace->spans.push_back({"sim_run", ThreadId(), Micros(run_start),
                          Micros(run_end) - Micros(run_start), parent, args});
  trace->teardown_s = Timed(&trace->spans, "sim_teardown", parent, [&] { sim.reset(); });
  return metrics;
}

// RunExperiment's steps, one span each: fs_model (a memo hit once set-up
// has run), source_build, and the Simulation lifecycle above.
ExperimentResult TracedExperiment(const SweepPoint& point, PointTrace* trace) {
  const std::string parent = "point " + std::to_string(point.index);
  ExperimentResult result;
  result.config = flashsim::BuildSimConfig(point.params);
  result.trace_spec = flashsim::BuildTraceSpec(point.params);
  const flashsim::FsModel* fs = nullptr;
  Timed(&trace->spans, "fs_model", parent, [&] { fs = &FsModelFor(point.params); });
  std::unique_ptr<flashsim::SyntheticTraceSource> source;
  Timed(&trace->spans, "source_build", parent, [&] {
    source = std::make_unique<flashsim::SyntheticTraceSource>(*fs, result.trace_spec);
  });
  result.metrics = TracedSimulate(point.params, *source, trace, parent);
  return result;
}

// ---------------------------------------------------------------------------
// Helpers

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "flashbench: %s\n", message.c_str());
  std::exit(1);
}

// Removes a temporary file on every exit path.
struct TempFile {
  std::string path;
  ~TempFile() {
    if (!path.empty()) {
      std::error_code ignored;
      std::filesystem::remove(path, ignored);
    }
  }
};

// ---------------------------------------------------------------------------
// Running a workload

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;
  std::string tmp_dir = ".";
  int64_t corrupt_point = -1;
  // Repetitions: each cycle runs set-up setup_reps times, then the timed
  // part once; at least min_reps cycles run, then more while another still
  // fits in `seconds` (counted from process start).
  int setup_reps = 1;
  int min_reps = 1;
  double seconds = 0.0;
  // Pin mode: trace_replay runs its point through RunExperiment instead of
  // the replay, so the pinned digest is independent of the trace path.
  bool pin = false;
  bool quiet = false;  // no output lines (self-test)
};

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Set-up timings, accumulated over every set-up repetition of a run.
struct SetupResult {
  std::vector<double> setup_s;
  std::vector<double> fs_model_s;
  std::vector<double> trace_write_s;  // writer only, generation excluded
  std::vector<double> gen_next_s;     // SyntheticTraceSource::Next (traced)
  uint64_t gen_records = 0;
  std::vector<Span> spans;
};

// Writes the point's exact SyntheticTraceSource stream, generated from
// `fs`, to `path`. With `timing`, also records the generator's Next time.
void WriteTrace(const flashsim::FsModel& fs, const ExperimentParams& params,
                const std::string& path, flashsim::TraceFormat format, SetupResult* timing) {
  flashsim::SyntheticTraceSource generator(fs, flashsim::BuildTraceSpec(params));
  TimedSource timed(generator);
  flashsim::TraceSource& source =
      timing != nullptr ? static_cast<flashsim::TraceSource&>(timed) : generator;
  std::string error;
  auto writer = flashsim::TraceFileWriter::Create(path, format, &error);
  if (writer == nullptr) {
    Fail("cannot create trace " + path + ": " + error);
  }
  flashsim::TraceRecord record;
  while (source.Next(&record)) {
    writer->Write(record);
  }
  if (!writer->Close()) {
    Fail("cannot write trace " + path);
  }
  if (timing != nullptr) {
    timing->gen_next_s.push_back(timed.next_s());
    timing->gen_records = timed.records();
  }
}

// Runs options.setup_reps set-up repetitions, appending to *result. The
// very first one goes through GetFsModel, which memoizes the model for the
// timed part; later ones rebuild it with the same FsModel constructor and
// the same key. The replay's trace file is rewritten each time (same bytes).
void Setup(const Options& options, const Workload& workload, const std::string& trace_path,
           SetupResult* result) {
  const ExperimentParams& params = workload.points.front().params;
  for (int rep = 0; rep < options.setup_reps; ++rep) {
    const bool first = result->setup_s.empty();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<flashsim::FsModel> rebuilt;
    const flashsim::FsModel* fs = nullptr;
    result->fs_model_s.push_back(Timed(&result->spans, "fs_model", "setup", [&] {
      if (first) {
        fs = &FsModelFor(params);
      } else {
        flashsim::FsModelParams fs_params;
        fs_params.total_bytes = FilerBytes(params);
        fs_params.block_bytes = flashsim::BuildSimConfig(params).block_bytes;
        rebuilt = std::make_unique<flashsim::FsModel>(fs_params, kFsModelSeed);
        fs = rebuilt.get();
      }
    }));
    if (!trace_path.empty()) {
      double write_s = Timed(&result->spans, "trace_write", "setup", [&] {
        WriteTrace(*fs, params, trace_path, flashsim::TraceFormat::kText,
                   options.traced ? result : nullptr);
      });
      if (options.traced) {
        // Generation is tracegen's share; the writer's share is the rest.
        write_s -= result->gen_next_s.back();
      }
      result->trace_write_s.push_back(write_s);
    }
    result->setup_s.push_back(Since(start));
  }
}

// One repetition of the timed part.
struct RepResult {
  std::vector<uint64_t> digests;
  std::vector<std::string> errors;
  WorkCounts counts;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Traced runs only.
  double trace_open_s = 0.0;
  double file_next_s = 0.0;  // replay source Next time
  uint64_t file_records = 0;
  std::vector<PointTrace> traces;
  std::vector<Span> spans;
};

// Checks one point's result and records it.
void Collect(const Options& options, const SweepPoint& point, Metrics metrics,
             RepResult* rep) {
  if (options.corrupt_point == static_cast<int64_t>(point.index)) {
    // Injected-bug seam: one lost writeback completion. Breaks the
    // enqueued == completed + in_flight identity and the digest.
    --metrics.writebacks_completed;
  }
  rep->digests.push_back(DigestMetrics(metrics));
  rep->errors.push_back(CheckIdentities(metrics));
  rep->counts.Add(metrics);
}

RepResult RunRep(const Options& options, const Workload& workload,
                 const std::string& trace_path) {
  RepResult rep;
  const ExperimentParams& params = workload.points.front().params;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  if (!trace_path.empty()) {
    std::unique_ptr<flashsim::TraceSource> source;
    std::string error;
    rep.trace_open_s = Timed(&rep.spans, "trace_open", "workload", [&] {
      source = flashsim::OpenTraceSource(trace_path, &error);
    });
    if (source == nullptr) {
      Fail("cannot open trace " + trace_path + ": " + error);
    }
    Metrics metrics;
    if (options.traced) {
      PointTrace trace;
      trace.tid = ThreadId();
      trace.start = Clock::now();
      metrics = TracedSimulate(params, *source, &trace, "point 0");
      trace.end = Clock::now();
      rep.file_next_s = trace.next_s;
      rep.file_records = trace.records;
      rep.traces.push_back(std::move(trace));
    } else {
      flashsim::Simulation sim(flashsim::BuildSimConfig(params));
      metrics = sim.Run(*source);
    }
    source.reset();
    Collect(options, workload.points.front(), std::move(metrics), &rep);
  } else if (options.traced) {
    rep.traces.resize(workload.points.size());
    flashsim::ParallelRunner(workload.jobs)
        .RunOrdered(
            workload.points,
            [&rep](const SweepPoint& point) {
              PointTrace& trace = rep.traces[point.index];
              trace.tid = ThreadId();
              trace.start = Clock::now();
              ExperimentResult result = TracedExperiment(point, &trace);
              trace.end = Clock::now();
              return result;
            },
            [&](const SweepPoint& point, const ExperimentResult& result) {
              Collect(options, point, result.metrics, &rep);
            });
  } else {
    flashsim::ParallelRunner(workload.jobs)
        .RunOrdered(
            workload.points,
            [](const SweepPoint& point) { return flashsim::RunExperiment(point.params); },
            [&](const SweepPoint& point, const ExperimentResult& result) {
              Collect(options, point, result.metrics, &rep);
            });
  }
  rep.wall_s = Since(start);
  rep.cpu_s = CpuSeconds() - cpu_start;
  rep.spans.push_back({"workload", ThreadId(), Micros(start), rep.wall_s * 1e6, "", ""});
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting

uint64_t WorkloadDigest(const std::vector<uint64_t>& digests) {
  uint64_t h = kFnvBasis;
  for (uint64_t d : digests) {
    Mix(h, d);
  }
  return h;
}

// Per-layer metrics of one traced repetition (README.md lists each with
// its unit and the end-to-end metric it should move).
std::string LayerJson(const Workload& workload, const SetupResult& setup, const RepResult& rep) {
  double point_sum = 0.0;
  double build_s = 0.0;
  double teardown_s = 0.0;
  double run_s = 0.0;
  double run_next_s = 0.0;
  double resident_mib = 0.0;
  uint64_t events = 0;
  uint64_t run_records = 0;
  std::vector<double> point_s;
  Clock::time_point wall_end;
  // A worker goes idle when its last point ends; the first idle worker
  // marks the start of the sweep's tail.
  std::vector<Clock::time_point> last_end;
  for (const PointTrace& t : rep.traces) {
    const double secs = std::chrono::duration<double>(t.end - t.start).count();
    point_s.push_back(secs);
    point_sum += secs;
    build_s += t.build_s;
    teardown_s += t.teardown_s;
    run_s += t.run_s;
    run_next_s += t.next_s;
    run_records += t.records;
    events += t.events;
    resident_mib = std::max(resident_mib, t.resident_mib);
    wall_end = std::max(wall_end, t.end);
    const size_t tid = static_cast<size_t>(t.tid);
    if (last_end.size() <= tid) {
      last_end.resize(tid + 1);
    }
    last_end[tid] = std::max(last_end[tid], t.end);
  }
  Clock::time_point first_idle = wall_end;
  for (const Clock::time_point& end : last_end) {
    if (end != Clock::time_point{}) {
      first_idle = std::min(first_idle, end);
    }
  }
  const double workers = static_cast<double>(
      std::min<size_t>(static_cast<size_t>(workload.jobs), rep.traces.size()));
  const double run_self_s = run_s - run_next_s;
  const double gen_next_s = workload.replay ? Median(setup.gen_next_s) : run_next_s;
  const uint64_t gen_records = workload.replay ? setup.gen_records : run_records;
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  std::string json;
  auto add = [&json](const char* name, double value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", json.empty() ? "" : ", ", name, value);
    json += buf;
  };
  add("harness.point_s_p50", Quantile(point_s, 0.5));
  add("harness.point_s_p90", Quantile(point_s, 0.9));
  add("harness.busy_frac", per(point_sum, workers * rep.wall_s));
  add("harness.tail_s", std::chrono::duration<double>(wall_end - first_idle).count());
  add("tracegen.fs_model_s", Median(setup.fs_model_s));
  add("tracegen.next_s", gen_next_s);
  add("tracegen.records", static_cast<double>(gen_records));
  add("tracegen.ns_per_record", per(gen_next_s * 1e9, static_cast<double>(gen_records)));
  add("trace.write_s", Median(setup.trace_write_s));
  add("trace.open_s", rep.trace_open_s);
  add("trace.next_s", rep.file_next_s);
  add("trace.ns_per_record", per(rep.file_next_s * 1e9, static_cast<double>(rep.file_records)));
  add("core.builds", static_cast<double>(rep.traces.size()));
  add("core.build_s", build_s);
  add("core.teardown_s", teardown_s);
  add("core.resident_mib", resident_mib);
  add("core.run_self_s", run_self_s);
  add("core.events", static_cast<double>(events));
  add("core.ns_per_event", per(run_self_s * 1e9, static_cast<double>(events)));
  add("core.events_per_record",
      per(static_cast<double>(events), static_cast<double>(run_records)));
  return json;
}

std::string CountsJson(const WorkCounts& c) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "\"cache.ram_hits\": %llu, \"cache.flash_hits\": %llu, \"cache.flash_installs\": %llu, "
      "\"cache.index_rehashes\": %llu, \"backend.filer_reads\": %llu, "
      "\"backend.filer_writebacks\": %llu, \"backend.filer_queued\": %llu, "
      "\"device.writebacks_enqueued\": %llu, \"consistency.invalidations\": %llu, "
      "\"consistency.messages\": %llu, \"consistency.stalled_ops\": %llu, "
      "\"sim.end_time_s\": %.17g, \"blocks\": %llu, \"records\": %llu",
      static_cast<unsigned long long>(c.ram_hits), static_cast<unsigned long long>(c.flash_hits),
      static_cast<unsigned long long>(c.flash_installs),
      static_cast<unsigned long long>(c.index_rehashes),
      static_cast<unsigned long long>(c.filer_reads),
      static_cast<unsigned long long>(c.filer_writebacks),
      static_cast<unsigned long long>(c.filer_queued),
      static_cast<unsigned long long>(c.writebacks_enqueued),
      static_cast<unsigned long long>(c.invalidations),
      static_cast<unsigned long long>(c.messages),
      static_cast<unsigned long long>(c.stalled_ops), c.end_time_s,
      static_cast<unsigned long long>(c.blocks), static_cast<unsigned long long>(c.records));
  return buf;
}

void PrintRep(const Options& options, const Workload& workload, const SetupResult& setup,
              int index, const RepResult& rep) {
  for (size_t i = 0; i < rep.digests.size(); ++i) {
    std::string label;
    for (const std::string& part : workload.points[i].labels) {
      label += (label.empty() ? "" : "/") + part;
    }
    std::printf(
        "{\"rep\": %d, \"point\": %zu, \"label\": \"%s\", \"digest\": \"%016llx\", "
        "\"error\": \"%s\"}\n",
        index, i, label.c_str(), static_cast<unsigned long long>(rep.digests[i]),
        rep.errors[i].c_str());
  }
  std::printf(
      "{\"rep\": %d, \"wall_s\": %.17g, \"cpu_s\": %.17g, \"digest\": \"%016llx\", "
      "\"counts\": {%s}",
      index, rep.wall_s, rep.cpu_s, static_cast<unsigned long long>(WorkloadDigest(rep.digests)),
      CountsJson(rep.counts).c_str());
  if (options.traced) {
    std::printf(", \"layers\": {%s}", LayerJson(workload, setup, rep).c_str());
  }
  std::printf("}\n");
  std::fflush(stdout);
}

// Chrome trace_event JSON (chrome://tracing, Perfetto), written once after
// the run so writing never lands inside a timed span.
void WriteSpans(const std::string& path, const SetupResult& setup,
                const std::vector<RepResult>& reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    Fail("cannot write spans to " + path);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  auto emit = [&](const Span& span, int rep) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"rep\": %d, \"parent\": \"%s\"%s%s}}",
                 first ? "" : ",\n", span.name.c_str(), span.tid, span.start_us, span.dur_us,
                 rep, span.parent.c_str(), span.args.empty() ? "" : ", ", span.args.c_str());
    first = false;
  };
  for (const Span& span : setup.spans) {
    emit(span, -1);
  }
  for (size_t r = 0; r < reps.size(); ++r) {
    for (const Span& span : reps[r].spans) {
      emit(span, static_cast<int>(r));
    }
    for (size_t i = 0; i < reps[r].traces.size(); ++i) {
      const PointTrace& t = reps[r].traces[i];
      emit({"point " + std::to_string(i), t.tid, Micros(t.start),
            Micros(t.end) - Micros(t.start), "workload", ""},
           static_cast<int>(r));
      for (const Span& span : t.spans) {
        emit(span, static_cast<int>(r));
      }
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    Fail("cannot write spans to " + path);
  }
}

// Set-up, then the timed repetitions; prints every repetition's points and
// a closing summary unless quiet. Returns the repetitions.
std::vector<RepResult> RunWorkload(const Options& options, const Workload& workload) {
  const Clock::time_point start = Clock::now();
  TempFile trace_file;
  if (workload.replay && !options.pin) {
    trace_file.path = (std::filesystem::path(options.tmp_dir) /
                       ("flashbench-" + workload.name + "-" + std::to_string(options.seed) +
                        ".trace"))
                          .string();
  }
  // Set-up runs before every timed repetition, so its median samples the
  // same stretch of host conditions as the timed part's.
  SetupResult setup;
  std::vector<RepResult> reps;
  double cycles_s = 0.0;
  while (static_cast<int>(reps.size()) < options.min_reps ||
         Since(start) + cycles_s / static_cast<double>(reps.size()) <= options.seconds) {
    const Clock::time_point cycle_start = Clock::now();
    Setup(options, workload, trace_file.path, &setup);
    reps.push_back(RunRep(options, workload, trace_file.path));
    cycles_s += Since(cycle_start);
    if (!options.quiet) {
      PrintRep(options, workload, setup, static_cast<int>(reps.size()) - 1, reps.back());
    }
  }
  if (!options.quiet) {
    if (options.traced && !options.spans_path.empty()) {
      WriteSpans(options.spans_path, setup, reps);
    }
    std::printf(
        "{\"summary\": {\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, \"points\": %zu, "
        "\"reps\": %zu, \"setup_reps\": %zu, \"setup_s\": %.17g, \"peak_rss_mib\": %.17g}}\n",
        workload.name.c_str(), static_cast<unsigned long long>(options.seed),
        options.traced ? "true" : "false", workload.points.size(), reps.size(),
        setup.setup_s.size(), Median(setup.setup_s), PeakRssMib());
  }
  return reps;
}

// ---------------------------------------------------------------------------
// Self-test: the replay round trip, the corruption seam, and traced ==
// untraced, all at small scales.

bool Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "selftest: %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  return ok;
}

size_t Failed(const RepResult& rep) {
  return static_cast<size_t>(
      std::count_if(rep.errors.begin(), rep.errors.end(), [](const std::string& e) {
        return !e.empty();
      }));
}

int SelfTest(const Options& base) {
  bool ok = true;
  Options options = base;
  options.quiet = true;
  options.setup_reps = 1;
  options.min_reps = 1;
  options.seconds = 0.0;

  // A point's SyntheticTraceSource stream, written as a trace and replayed
  // through OpenTraceSource, simulates to RunExperiment's digest.
  ExperimentParams params;
  params.scale = 256;
  params.hosts = 2;
  params.seed = base.seed;
  const uint64_t reference = DigestMetrics(flashsim::RunExperiment(params).metrics);
  for (flashsim::TraceFormat format :
       {flashsim::TraceFormat::kText, flashsim::TraceFormat::kBinary}) {
    const std::string kind = format == flashsim::TraceFormat::kText ? "text" : "binary";
    TempFile file{(std::filesystem::path(base.tmp_dir) / ("flashbench-selftest." + kind))
                      .string()};
    WriteTrace(FsModelFor(params), params, file.path, format, nullptr);
    std::string error;
    auto source = flashsim::OpenTraceSource(file.path, &error);
    if (!Expect(source != nullptr, "open " + kind + " trace " + error)) {
      return 1;
    }
    flashsim::Simulation sim(flashsim::BuildSimConfig(params));
    ok &= Expect(DigestMetrics(sim.Run(*source)) == reference,
                 kind + " replay digest == RunExperiment digest");
  }

  for (const std::string name : {"policy_grid", "write_sharing", "trace_replay"}) {
    Workload workload;
    MakeWorkload(name, base.seed, name == "trace_replay" ? 512 : 8192, &workload);
    options.traced = false;
    options.corrupt_point = -1;
    const RepResult plain = RunWorkload(options, workload).front();
    ok &= Expect(Failed(plain) == 0, name + " clean run has no failed point");
    options.traced = true;
    const RepResult traced = RunWorkload(options, workload).front();
    ok &= Expect(traced.digests == plain.digests, name + " traced digests == untraced");
    // The seam: one corrupted field on one point fails exactly that point.
    options.traced = false;
    const size_t victim = workload.points.size() / 2;
    options.corrupt_point = static_cast<int64_t>(victim);
    const RepResult corrupt = RunWorkload(options, workload).front();
    ok &= Expect(Failed(corrupt) == 1 && !corrupt.errors[victim].empty() &&
                     corrupt.digests[victim] != plain.digests[victim],
                 name + " corrupted point " + std::to_string(victim) + " is caught");
  }
  std::fprintf(stderr, "selftest: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flashbench

int main(int argc, char** argv) {
  using namespace flashbench;
  Options options;
  bool selftest = false;
  flashsim::FlagParser parser;
  parser.AddString("workload", "policy_grid | trace_replay | write_sharing", &options.workload);
  parser.AddUint64("seed", "workload seed", &options.seed);
  parser.AddDouble("seconds", "keep repeating the timed part while it fits in this budget",
                   &options.seconds);
  parser.AddInt("min_reps", "timed repetitions to run at least", &options.min_reps);
  parser.AddInt("setup_reps", "set-up repetitions per cycle (setup_s is their median)",
                &options.setup_reps);
  parser.AddBool("traced", "time each layer boundary (per-layer run)", &options.traced);
  parser.AddString("spans", "write the traced run's spans (Chrome JSON) here",
                   &options.spans_path);
  parser.AddString("tmp_dir", "directory for the replay trace file", &options.tmp_dir);
  parser.AddCustom("corrupt_point", "K", "corrupt point K's metrics (seam check)",
                   [&options](const std::string& v) {
                     char* end = nullptr;
                     options.corrupt_point = std::strtoll(v.c_str(), &end, 10);
                     return !v.empty() && *end == '\0';
                   });
  parser.AddBool("pin", "run trace_replay through RunExperiment (pinning digests)",
                 &options.pin);
  parser.AddBool("selftest", "run the self-test and exit", &selftest);
  parser.ParseOrExit(argc, argv);

#ifndef FLASHBENCH_HEAP_COUNT
  if (options.traced || selftest) {
    Fail("--traced and --selftest need the flashbench_traced executable");
  }
#endif
  if (selftest) {
    return SelfTest(options);
  }
  if (options.setup_reps < 1 || options.min_reps < 1) {
    Fail("--setup_reps and --min_reps must be at least 1");
  }
  Workload workload;
  if (!MakeWorkload(options.workload, options.seed, 0, &workload)) {
    Fail("unknown --workload '" + options.workload + "'");
  }
  RunWorkload(options, workload);
  return 0;
}
