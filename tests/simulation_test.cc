#include "src/core/simulation.h"

#include <gtest/gtest.h>

#include <string>

#include "src/core/experiment.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

SimConfig TinyConfig(int hosts = 1, int threads = 1) {
  SimConfig config;
  config.ram_bytes = 8 * 4096;
  config.flash_bytes = 16 * 4096;
  config.num_hosts = hosts;
  config.threads_per_host = threads;
  config.timing.filer_fast_read_rate = 1.0;  // deterministic
  return config;
}

TraceRecord Op(TraceOp op, uint16_t host, uint16_t thread, uint32_t file, uint64_t block,
               uint32_t count = 1, bool warmup = false) {
  TraceRecord r;
  r.op = op;
  r.host = host;
  r.thread = thread;
  r.file_id = file;
  r.block = block;
  r.block_count = count;
  r.warmup = warmup;
  return r;
}

TEST(Simulation, SingleReadMissTiming) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.trace_records, 1u);
  EXPECT_EQ(m.read_latency.count(), 1u);
  EXPECT_EQ(static_cast<SimDuration>(m.read_latency.mean_ns()), kRemoteRead + kRam);
  EXPECT_EQ(m.measured_read_blocks, 1u);
  EXPECT_EQ(m.read_level_blocks[static_cast<size_t>(HitLevel::kFilerFast)], 1u);
}

TEST(Simulation, RereadHitsRam) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0), Op(TraceOp::kRead, 0, 0, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.read_level_blocks[static_cast<size_t>(HitLevel::kRam)], 1u);
  EXPECT_EQ(m.read_level_blocks[static_cast<size_t>(HitLevel::kFilerFast)], 1u);
}

TEST(Simulation, WarmupRecordsExecuteButAreNotMeasured) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0, 1, /*warmup=*/true),
                            Op(TraceOp::kRead, 0, 0, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.trace_records, 2u);
  EXPECT_EQ(m.read_latency.count(), 1u);
  EXPECT_EQ(m.warmup_blocks, 1u);
  // The warmup read cached the block, so the measured read is a RAM hit.
  EXPECT_EQ(m.read_level_blocks[static_cast<size_t>(HitLevel::kRam)], 1u);
  EXPECT_EQ(static_cast<SimDuration>(m.read_latency.mean_ns()), kRam);
}

TEST(Simulation, MultiBlockOpChainsSequentially) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0, /*count=*/3)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.read_latency.count(), 1u);
  EXPECT_EQ(m.measured_read_blocks, 3u);
  // Three serial miss fetches; network pipelining overlaps request packets
  // with earlier responses, so the op is cheaper than 3 full round trips
  // but costs at least the un-overlappable filer service.
  const auto latency = static_cast<SimDuration>(m.read_latency.mean_ns());
  EXPECT_GT(latency, 2 * kRemoteRead);
  EXPECT_LE(latency, 3 * (kRemoteRead + kRam));
}

TEST(Simulation, SingleThreadSerializesOps) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0), Op(TraceOp::kRead, 0, 0, 1, 5)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.end_time, 2 * (kRemoteRead + kRam));
}

TEST(Simulation, TwoThreadsOverlapOnTheNetwork) {
  Simulation sim(TinyConfig(1, 2));
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0), Op(TraceOp::kRead, 0, 1, 1, 5)});
  const Metrics m = sim.Run(source);
  // Hand-computed interleaving: thread 0's request [0,8200), thread 1's
  // [8200,16400); filer services overlap; thread 1's data packet queues
  // behind thread 0's on the return link: completes at 182136 (+RAM).
  EXPECT_EQ(m.end_time, 182136 + kRam);
  EXPECT_LT(m.end_time, 2 * (kRemoteRead + kRam));  // genuine overlap
}

TEST(Simulation, OutOfRangeHostAndThreadAreClamped) {
  Simulation sim(TinyConfig(1, 1));
  VectorTraceSource source({Op(TraceOp::kRead, 7, 9, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.trace_records, 1u);
  EXPECT_EQ(m.read_latency.count(), 1u);
}

TEST(Simulation, PeriodicSyncerEventuallyFlushesDirtyData) {
  // One write leaves a dirty block; a long stream of reads keeps the
  // simulation alive past the 1-second syncer period, which flushes the
  // block through flash to the filer (flash policy async).
  SimConfig config = TinyConfig();
  config.flash_bytes = 4096 * 4096;  // big enough to avoid evictions
  config.ram_bytes = 4096 * 2048;
  Simulation sim(config);
  std::vector<TraceRecord> ops;
  ops.push_back(Op(TraceOp::kWrite, 0, 0, 1, 0));
  for (uint64_t i = 0; i < 9000; ++i) {
    ops.push_back(Op(TraceOp::kRead, 0, 0, 2, i));  // all misses, ~141 us each
  }
  VectorTraceSource source(std::move(ops));
  const Metrics m = sim.Run(source);
  EXPECT_GT(m.end_time, kSecond);
  EXPECT_EQ(m.filer_writes, 1u);
  EXPECT_EQ(sim.stack(0).DirtyBlocks(), 0u);
}

TEST(Simulation, DirtyDataRemainsIfRunEndsBeforeSyncerFires) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kWrite, 0, 0, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.filer_writes, 0u);
  EXPECT_EQ(sim.stack(0).DirtyBlocks(), 1u);
}

TEST(Simulation, WriteLatencyIsRamSpeedUnderPeriodicPolicy) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kWrite, 0, 0, 1, 0)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), kRam);
}

TEST(Simulation, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    SimConfig config = TinyConfig(2, 4);
    config.timing.filer_fast_read_rate = 0.9;
    Simulation sim(config);
    std::vector<TraceRecord> ops;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
      ops.push_back(Op(rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead,
                       static_cast<uint16_t>(rng.NextBounded(2)),
                       static_cast<uint16_t>(rng.NextBounded(4)), 1, rng.NextBounded(64),
                       static_cast<uint32_t>(rng.NextBounded(3)) + 1));
    }
    VectorTraceSource source(std::move(ops));
    return sim.Run(source);
  };
  const Metrics a = run();
  const Metrics b = run();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.read_latency.count(), b.read_latency.count());
  EXPECT_DOUBLE_EQ(a.read_latency.mean_ns(), b.read_latency.mean_ns());
  EXPECT_DOUBLE_EQ(a.write_latency.mean_ns(), b.write_latency.mean_ns());
  EXPECT_EQ(a.filer_fast_reads, b.filer_fast_reads);
}

TEST(Simulation, InvariantsHoldAfterChurn) {
  SimConfig config = TinyConfig(2, 2);
  Simulation sim(config);
  std::vector<TraceRecord> ops;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    ops.push_back(Op(rng.NextBool(0.4) ? TraceOp::kWrite : TraceOp::kRead,
                     static_cast<uint16_t>(rng.NextBounded(2)),
                     static_cast<uint16_t>(rng.NextBounded(2)), 1, rng.NextBounded(48)));
  }
  VectorTraceSource source(std::move(ops));
  sim.Run(source);
  sim.CheckInvariants();
  EXPECT_GT(sim.events_processed(), 2000u);
}

// Field-exhaustive bit-level metrics comparison, down to the raw Welford
// accumulators (double addition is not associative, so matching mean bits
// proves the exact same dispatch order).
void ExpectMetricsIdentical(const Metrics& a, const Metrics& b, const std::string& label) {
  SCOPED_TRACE(label);
  auto expect_latency_equal = [](const LatencyRecorder& x, const LatencyRecorder& y,
                                 const char* which) {
    SCOPED_TRACE(which);
    EXPECT_EQ(x.stats().count(), y.stats().count());
    EXPECT_EQ(x.stats().mean(), y.stats().mean());
    EXPECT_EQ(x.stats().raw_m2(), y.stats().raw_m2());
    EXPECT_EQ(x.stats().raw_min(), y.stats().raw_min());
    EXPECT_EQ(x.stats().raw_max(), y.stats().raw_max());
    EXPECT_EQ(x.stats().sum(), y.stats().sum());
    EXPECT_EQ(x.histogram().buckets(), y.histogram().buckets());
  };
  expect_latency_equal(a.read_latency, b.read_latency, "read_latency");
  expect_latency_equal(a.write_latency, b.write_latency, "write_latency");
  EXPECT_EQ(a.read_level_blocks, b.read_level_blocks);
  EXPECT_EQ(a.measured_read_blocks, b.measured_read_blocks);
  EXPECT_EQ(a.measured_write_blocks, b.measured_write_blocks);
  EXPECT_EQ(a.warmup_blocks, b.warmup_blocks);
  EXPECT_EQ(a.trace_records, b.trace_records);
  EXPECT_EQ(a.consistency_writes, b.consistency_writes);
  EXPECT_EQ(a.invalidating_writes, b.invalidating_writes);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.index_rehashes, b.index_rehashes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.filer_fast_reads, b.filer_fast_reads);
  EXPECT_EQ(a.filer_slow_reads, b.filer_slow_reads);
  EXPECT_EQ(a.filer_writes, b.filer_writes);
  EXPECT_TRUE(a.stack_totals == b.stack_totals);
  EXPECT_EQ(a.writebacks_enqueued, b.writebacks_enqueued);
  EXPECT_EQ(a.writebacks_completed, b.writebacks_completed);
  EXPECT_EQ(a.writebacks_in_flight, b.writebacks_in_flight);
  EXPECT_EQ(a.dirty_resident, b.dirty_resident);
}

ExperimentParams MultiHostParams() {
  ExperimentParams params;
  params.hosts = 8;
  params.threads_per_host = 4;
  params.scale = 4096;
  params.working_set_gib = 40.0;
  return params;
}

TEST(Simulation, PreSizedMultiHostRunNeverRehashes) {
  // The cache indexes, the directory's holders index and the event heap are
  // all reserved up front, so a multi-host run must finish with zero
  // load-triggered rehashes on every architecture.
  for (const Architecture arch : kAllArchitectures) {
    ExperimentParams params = MultiHostParams();
    params.arch = arch;
    const Metrics m = RunExperiment(params).metrics;
    EXPECT_GT(m.trace_records, 0u) << ArchitectureName(arch);
    EXPECT_EQ(m.index_rehashes, 0u) << ArchitectureName(arch) << ": pre-sizing regressed";
  }
}

TEST(Simulation, AuditorDoesNotPerturbMetrics) {
  // The auditor only reads cache and writer state, so an audited run must
  // match the unaudited one bit for bit (and pass its own audit).
  for (const Architecture arch : kAllArchitectures) {
    ExperimentParams params = MultiHostParams();
    params.arch = arch;
    const Metrics plain = RunExperiment(params).metrics;
    params.audit = true;
    ExpectMetricsIdentical(plain, RunExperiment(params).metrics, ArchitectureName(arch));
  }
}

TEST(SimulationDeathTest, CannotRunTwice) {
  Simulation sim(TinyConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 0, 1, 0)});
  sim.Run(source);
  VectorTraceSource source2({Op(TraceOp::kRead, 0, 0, 1, 0)});
  EXPECT_DEATH(sim.Run(source2), "CHECK failed");
}

}  // namespace
}  // namespace flashsim
