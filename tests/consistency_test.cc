// Multi-host cache consistency (§3.8, §7.9): the simulator invalidates
// stale copies instantly with global knowledge and counts the fraction of
// application block writes requiring invalidation.
#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "tests/stack_test_util.h"

namespace flashsim {
namespace {

SimConfig TwoHostConfig() {
  SimConfig config;
  config.ram_bytes = 8 * 4096;
  config.flash_bytes = 32 * 4096;
  config.num_hosts = 2;
  config.threads_per_host = 1;
  config.timing.filer_fast_read_rate = 1.0;
  return config;
}

TraceRecord Op(TraceOp op, uint16_t host, uint32_t file, uint64_t block, bool warmup = false) {
  TraceRecord r;
  r.op = op;
  r.host = host;
  r.thread = 0;
  r.file_id = file;
  r.block = block;
  r.warmup = warmup;
  return r;
}

TEST(Consistency, RemoteWriteInvalidatesCachedCopy) {
  Simulation sim(TwoHostConfig());
  // Host 0 caches the block (thread events at t=0 run in thread-index
  // order, and each op executes synchronously), then host 1 writes it.
  VectorTraceSource source({Op(TraceOp::kRead, 0, 1, 7), Op(TraceOp::kWrite, 1, 1, 7)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidating_writes, 1u);
  EXPECT_EQ(m.invalidations, 1u);
  EXPECT_EQ(m.consistency_writes, 1u);
  EXPECT_DOUBLE_EQ(m.invalidation_rate(), 1.0);
  EXPECT_FALSE(sim.stack(0).Holds(MakeBlockKey(1, 7)));
  EXPECT_TRUE(sim.stack(1).Holds(MakeBlockKey(1, 7)));
}

TEST(Consistency, WriteToUnsharedBlockNeedsNoInvalidation) {
  Simulation sim(TwoHostConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 1, 7), Op(TraceOp::kWrite, 1, 1, 99)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidating_writes, 0u);
  EXPECT_TRUE(sim.stack(0).Holds(MakeBlockKey(1, 7)));
}

TEST(Consistency, InvalidatedBlockMustBeRefetched) {
  // §7.9: invalidated blocks must be reread from the filer — the source of
  // the read-latency increase in Figs 11/12.
  Simulation sim(TwoHostConfig());
  VectorTraceSource source({
      Op(TraceOp::kRead, 0, 1, 7, /*warmup=*/true),
      Op(TraceOp::kWrite, 1, 1, 7, /*warmup=*/true),
      Op(TraceOp::kRead, 0, 1, 7),  // must go back to the filer
  });
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.read_level_blocks[static_cast<size_t>(HitLevel::kFilerFast)], 1u);
  EXPECT_EQ(static_cast<SimDuration>(m.read_latency.mean_ns()), kRemoteRead + kRam);
}

TEST(Consistency, WarmupWritesAreNotCounted) {
  Simulation sim(TwoHostConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 1, 7, true), Op(TraceOp::kWrite, 1, 1, 7, true)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.consistency_writes, 0u);
  EXPECT_EQ(m.invalidating_writes, 0u);
  // The invalidation itself still happened (correctness, not accounting).
  EXPECT_FALSE(sim.stack(0).Holds(MakeBlockKey(1, 7)));
}

TEST(Consistency, OwnCopyIsNotInvalidated) {
  Simulation sim(TwoHostConfig());
  VectorTraceSource source({Op(TraceOp::kRead, 0, 1, 7), Op(TraceOp::kWrite, 0, 1, 7)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidating_writes, 0u);
  EXPECT_TRUE(sim.stack(0).Holds(MakeBlockKey(1, 7)));
}

TEST(Consistency, DirectoryTracksEvictions) {
  // After a block is naturally evicted, a remote write to it must not count
  // as invalidating.
  SimConfig config = TwoHostConfig();
  config.ram_bytes = 1 * 4096;
  config.flash_bytes = 2 * 4096;
  Simulation sim(config);
  // Host 1's dummy reads keep it busy until well after host 0's third read
  // has evicted block 1 (ops on different hosts run concurrently; each
  // host's own ops are serial).
  VectorTraceSource source({
      Op(TraceOp::kRead, 0, 1, 1),    // cached by host 0
      Op(TraceOp::kRead, 1, 2, 50),   // host 1 busywork (~141 us each)
      Op(TraceOp::kRead, 0, 1, 2),    // cached by host 0
      Op(TraceOp::kRead, 1, 2, 51),
      Op(TraceOp::kRead, 0, 1, 3),    // evicts block 1 from host 0's flash
      Op(TraceOp::kRead, 1, 2, 52),
      Op(TraceOp::kWrite, 1, 1, 1),   // block 1 no longer cached anywhere
  });
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidating_writes, 0u);
}

TEST(Consistency, PerfectModelInvalidatesForFree) {
  // The paper's model (§3.8): three hosts cache the block and the fourth
  // writes it. Every stale copy is counted, but no message goes on the wire
  // and the writer finishes at RAM speed.
  SimConfig config = TwoHostConfig();
  config.num_hosts = 4;
  Simulation sim(config);
  VectorTraceSource source({
      Op(TraceOp::kRead, 0, 1, 7),
      Op(TraceOp::kRead, 1, 1, 7),
      Op(TraceOp::kRead, 2, 1, 7),
      Op(TraceOp::kWrite, 3, 1, 7),
  });
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidations, 3u);
  EXPECT_EQ(m.invalidation_messages, 0u);
  EXPECT_FALSE(m.coherence.any());
  EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), config.timing.ram_access_ns);
}

TEST(Consistency, PerfectModelNonInvalidatingWriteIsFree) {
  const SimConfig config = TwoHostConfig();
  Simulation sim(config);
  VectorTraceSource source({Op(TraceOp::kWrite, 1, 1, 99)});
  const Metrics m = sim.Run(source);
  EXPECT_EQ(m.invalidations, 0u);
  EXPECT_EQ(m.invalidation_messages, 0u);
  EXPECT_FALSE(m.coherence.any());
  EXPECT_EQ(static_cast<SimDuration>(m.write_latency.mean_ns()), config.timing.ram_access_ns);
}

TEST(Consistency, SharedWorkingSetInvalidatesMostWrites) {
  // Both hosts hammer the same small set of blocks with 30% writes; a
  // substantial fraction of writes must invalidate (the Fig 11 effect).
  SimConfig config = TwoHostConfig();
  config.ram_bytes = 64 * 4096;
  config.flash_bytes = 256 * 4096;
  config.threads_per_host = 2;
  Simulation sim(config);
  std::vector<TraceRecord> ops;
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    TraceRecord r;
    r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
    r.host = static_cast<uint16_t>(rng.NextBounded(2));
    r.thread = static_cast<uint16_t>(rng.NextBounded(2));
    r.file_id = 1;
    r.block = rng.NextBounded(128);  // shared working set fits both caches
    r.warmup = i < 4000;
    ops.push_back(r);
  }
  VectorTraceSource source(std::move(ops));
  const Metrics m = sim.Run(source);
  // Once warm, nearly every block is cached by both hosts, so nearly every
  // write invalidates the other host's copy.
  EXPECT_GT(m.invalidation_rate(), 0.5);
  sim.CheckInvariants();
}

TEST(Consistency, NoFlashInvalidationRateIsLower) {
  // §7.9 headline: the big flash cache retains shared blocks far longer
  // than RAM alone, so far more writes require invalidation. Compare the
  // same workload against a RAM-only configuration whose cache is too small
  // to retain the shared set.
  auto run = [](uint64_t flash_bytes) {
    SimConfig config = TwoHostConfig();
    config.ram_bytes = 16 * 4096;
    config.flash_bytes = flash_bytes;
    Simulation sim(config);
    std::vector<TraceRecord> ops;
    Rng rng(17);
    for (int i = 0; i < 30000; ++i) {
      TraceRecord r;
      r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
      r.host = static_cast<uint16_t>(rng.NextBounded(2));
      r.file_id = 1;
      r.block = rng.NextBounded(512);  // working set >> RAM, fits flash
      r.warmup = i < 6000;
      ops.push_back(r);
    }
    VectorTraceSource source(std::move(ops));
    return sim.Run(source).invalidation_rate();
  };
  const double with_flash = run(1024 * 4096);
  const double without_flash = run(0);
  EXPECT_GT(with_flash, 2.0 * without_flash);
}

}  // namespace
}  // namespace flashsim
