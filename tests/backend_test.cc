// Unit coverage for the storage backend (src/backend/): shard-map
// stability, range and distribution across shard counts, the per-shard RNG
// seed split and stream independence, channel routing, and the cross-shard
// conservation sums a full sharded run must satisfy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/backend/storage_backend.h"
#include "src/core/experiment.h"
#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(ShardMap, SingleShardMapsEverythingToZero) {
  TimingModel timing;
  const StorageBackend backend(timing, 1, 1);
  for (BlockKey key = 0; key < 1000; ++key) {
    EXPECT_EQ(backend.ShardOf(key), 0);
  }
}

TEST(ShardMap, StableAcrossRepeatedCalls) {
  TimingModel timing;
  const StorageBackend backend(timing, 8, 1);
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const BlockKey key = rng.Next();
    const int first = backend.ShardOf(key);
    EXPECT_EQ(backend.ShardOf(key), first);
    EXPECT_EQ(backend.ShardOf(key), first);
  }
}

TEST(ShardMap, EveryKeyLandsInRangeAcrossShardCounts) {
  TimingModel timing;
  Rng rng(17);
  std::vector<BlockKey> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(rng.Next());
  }
  for (int count : {1, 2, 3, 8, StorageBackend::kMaxShards}) {
    const StorageBackend backend(timing, count, 1);
    ASSERT_EQ(backend.num_shards(), count);
    for (BlockKey key : keys) {
      const int shard = backend.ShardOf(key);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, count);
    }
  }
}

TEST(ShardMap, ShardCountOutsideOneToMaxIsRefused) {
  TimingModel timing;
  EXPECT_DEATH(StorageBackend(timing, 0, 1), "CHECK failed");
  EXPECT_DEATH(StorageBackend(timing, StorageBackend::kMaxShards + 1, 1), "CHECK failed");
}

TEST(ShardMap, HashSpreadsSequentialKeysEvenly) {
  // Sequential block keys are the common trace shape; the map must not
  // funnel them onto a few shards. Accept ±20% of the ideal split.
  constexpr int kShards = 8;
  constexpr int kKeys = 80000;
  TimingModel timing;
  const StorageBackend backend(timing, kShards, 1);
  std::vector<int> histogram(kShards, 0);
  for (BlockKey key = 0; key < kKeys; ++key) {
    ++histogram[static_cast<size_t>(backend.ShardOf(key))];
  }
  const double ideal = static_cast<double>(kKeys) / kShards;
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_NEAR(histogram[static_cast<size_t>(shard)], ideal, 0.20 * ideal) << shard;
  }
}

TEST(ShardSeed, ShardZeroReproducesLegacyFilerSeed) {
  // The determinism contract (DESIGN.md §11): shard 0 draws from exactly
  // the stream the single-filer simulator has always used.
  for (uint64_t seed : {0ULL, 1ULL, 7ULL, 123456789ULL, ~0ULL}) {
    EXPECT_EQ(ShardSeed(seed, 0), Mix64(seed ^ 0xf11e5ULL)) << seed;
  }
}

TEST(ShardSeed, DistinctShardsGetDistinctSeeds) {
  for (uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    std::vector<uint64_t> seeds;
    for (int shard = 0; shard < StorageBackend::kMaxShards; ++shard) {
      seeds.push_back(ShardSeed(seed, shard));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end()) << seed;
  }
}

TEST(Backend, PerShardRngStreamsAreIndependent) {
  // Two shards of the same backend seed must draw diverging fast/slow
  // sequences, and shard 0 must match a legacy-seeded Filer draw for draw.
  TimingModel timing;
  constexpr uint64_t kSeed = 42;
  Filer shard0(timing, ShardSeed(kSeed, 0));
  Filer shard1(timing, ShardSeed(kSeed, 1));
  Filer legacy(timing, Mix64(kSeed ^ 0xf11e5ULL));
  int divergences = 0;
  for (int i = 0; i < 1000; ++i) {
    bool f0 = false;
    bool f1 = false;
    bool fl = false;
    shard0.Read(0, &f0);
    shard1.Read(0, &f1);
    legacy.Read(0, &fl);
    ASSERT_EQ(f0, fl) << "shard 0 diverged from the legacy stream at draw " << i;
    divergences += (f0 != f1) ? 1 : 0;
  }
  EXPECT_GT(divergences, 0) << "shard 1 mirrors shard 0's stream";
}

TEST(Backend, SingleFilerChannelRoutesEverythingToShardZero) {
  TimingModel timing;
  StorageBackend backend(timing, 1, 1);
  NetworkLink link(timing, 4096);
  StorageService service(link, backend);
  EXPECT_EQ(service.num_shards(), 1);
  for (BlockKey key = 0; key < 100; ++key) {
    EXPECT_EQ(service.ShardOf(key), 0);
  }
  bool fast = false;
  service.Read(0, /*key=*/7, &fast);
  service.Write(0, /*key=*/7);
  EXPECT_EQ(backend.shard(0).reads(), 1u);
  EXPECT_EQ(backend.shard(0).writes(), 1u);
}

// Keyed reads and writes through a 4-shard channel land on exactly the
// shards the backend's map names: each shard's load equals the ShardOf
// tally over the keys sent.
TEST(Backend, ShardLoadMatchesShardOfTally) {
  TimingModel timing;
  constexpr int kShards = 4;
  StorageBackend backend(timing, kShards, 1);
  NetworkLink link(timing, 4096);
  StorageService service(link, backend);
  EXPECT_EQ(service.num_shards(), kShards);

  std::vector<uint64_t> expected_reads(kShards, 0);
  std::vector<uint64_t> expected_writes(kShards, 0);
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const BlockKey key = rng.Next();
    const int shard = backend.ShardOf(key);
    EXPECT_EQ(service.ShardOf(key), shard);
    if (i % 3 == 0) {
      service.Write(0, key);
      ++expected_writes[static_cast<size_t>(shard)];
    } else {
      bool fast = false;
      service.Read(0, key, &fast);
      ++expected_reads[static_cast<size_t>(shard)];
    }
  }
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(expected_reads[static_cast<size_t>(shard)], 0u) << shard;
    EXPECT_GT(expected_writes[static_cast<size_t>(shard)], 0u) << shard;
    EXPECT_EQ(backend.shard(shard).reads(), expected_reads[static_cast<size_t>(shard)])
        << shard;
    EXPECT_EQ(backend.shard(shard).writes(), expected_writes[static_cast<size_t>(shard)])
        << shard;
  }
}

TEST(Backend, AggregatesEqualShardSums) {
  TimingModel timing;
  StorageBackend backend(timing, 3, 9);
  NetworkLink link(timing, 4096);
  StorageService service(link, backend);
  for (BlockKey key = 0; key < 300; ++key) {
    bool fast = false;
    service.Read(0, key, &fast);
    service.Write(0, key);
  }
  uint64_t fast_sum = 0;
  uint64_t slow_sum = 0;
  uint64_t write_sum = 0;
  for (int shard = 0; shard < backend.num_shards(); ++shard) {
    fast_sum += backend.shard(shard).fast_reads();
    slow_sum += backend.shard(shard).slow_reads();
    write_sum += backend.shard(shard).writes();
  }
  EXPECT_EQ(backend.fast_reads(), fast_sum);
  EXPECT_EQ(backend.slow_reads(), slow_sum);
  EXPECT_EQ(backend.reads(), fast_sum + slow_sum);
  EXPECT_EQ(backend.writes(), write_sum);
  EXPECT_EQ(backend.reads(), 300u);
  EXPECT_EQ(backend.writes(), 300u);
}

// Full sharded run with the invariant auditor armed: the per-shard metric
// vector and the per-shard routing counters must both sum back to the
// aggregate filer counters. The auditor itself (AuditGlobal /
// AuditCounters) would abort the run on any cross-shard leak.
TEST(Backend, ShardedSimulationConservesAcrossShards) {
  ExperimentParams params;
  params.scale = 4096;
  params.hosts = 2;
  params.num_filers = 4;
  params.audit = true;
  const ExperimentResult result = RunExperiment(params);
  const Metrics& m = result.metrics;

  ASSERT_EQ(m.filer_shards.size(), 4u);
  uint64_t fast_sum = 0;
  uint64_t slow_sum = 0;
  uint64_t write_sum = 0;
  for (const ShardMetrics& shard : m.filer_shards) {
    fast_sum += shard.fast_reads;
    slow_sum += shard.slow_reads;
    write_sum += shard.writes;
  }
  EXPECT_EQ(fast_sum, m.filer_fast_reads);
  EXPECT_EQ(slow_sum, m.filer_slow_reads);
  EXPECT_EQ(write_sum, m.filer_writes);
  EXPECT_GT(m.filer_fast_reads + m.filer_slow_reads, 0u);

  ASSERT_EQ(m.stack_totals.shard_reads.size(), 4u);
  ASSERT_EQ(m.stack_totals.shard_writes.size(), 4u);
  const uint64_t routed_reads = std::accumulate(m.stack_totals.shard_reads.begin(),
                                                m.stack_totals.shard_reads.end(), uint64_t{0});
  const uint64_t routed_writes =
      std::accumulate(m.stack_totals.shard_writes.begin(), m.stack_totals.shard_writes.end(),
                      uint64_t{0});
  EXPECT_EQ(routed_reads, m.stack_totals.filer_reads);
  EXPECT_EQ(routed_writes, m.stack_totals.filer_writebacks);
}

// A 1-shard run through the same experiment path keeps the shard vector
// empty: the single-filer topology reports exactly what it always did.
TEST(Backend, SingleFilerRunKeepsLegacyMetricsShape) {
  ExperimentParams params;
  params.scale = 4096;
  params.num_filers = 1;
  const ExperimentResult result = RunExperiment(params);
  ASSERT_EQ(result.metrics.filer_shards.size(), 1u);
  EXPECT_EQ(result.metrics.filer_shards[0].fast_reads, result.metrics.filer_fast_reads);
  EXPECT_TRUE(result.metrics.stack_totals.shard_reads.empty());
  EXPECT_TRUE(result.metrics.stack_totals.shard_writes.empty());
}

}  // namespace
}  // namespace flashsim
