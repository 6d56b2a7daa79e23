// Microbenchmarks (google-benchmark) for the simulator's hot components:
// the cache index, LRU chain, samplers, event queue, timeline resources,
// and whole-simulation throughput in blocks per second.
#include <benchmark/benchmark.h>

#include "src/cache/lru_cache.h"
#include "src/core/simulation.h"
#include "src/sim/event_queue.h"
#include "src/sim/resource.h"
#include "src/util/distributions.h"
#include "src/util/flat_hash.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

void BM_FlatHashFindHit(benchmark::State& state) {
  FlatHashMap<uint32_t> map;
  Rng rng(1);
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    map.Insert(Mix64(i), static_cast<uint32_t>(i));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(Mix64(i++ % n)));
  }
}
BENCHMARK(BM_FlatHashFindHit);

void BM_FlatHashInsertErase(benchmark::State& state) {
  FlatHashMap<uint32_t> map;
  uint64_t i = 0;
  for (auto _ : state) {
    map.Insert(Mix64(i), 1);
    map.Erase(Mix64(i));
    ++i;
  }
}
BENCHMARK(BM_FlatHashInsertErase);

void BM_LruInsertEvict(benchmark::State& state) {
  LruBlockCache cache("bench", 65536);
  uint64_t key = 0;
  std::optional<EvictedBlock> evicted;
  for (auto _ : state) {
    cache.Insert(key++, false, &evicted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LruInsertEvict);

void BM_LruTouch(benchmark::State& state) {
  LruBlockCache cache("bench", 65536);
  std::optional<EvictedBlock> evicted;
  for (uint64_t k = 0; k < 65536; ++k) {
    cache.Insert(k, false, &evicted);
  }
  Rng rng(2);
  for (auto _ : state) {
    cache.Touch(cache.Lookup(rng.NextBounded(65536)));
  }
}
BENCHMARK(BM_LruTouch);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(1u << 20, 1.1);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_PoissonSample(benchmark::State& state) {
  PoissonSampler poisson(static_cast<double>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson.Sample(rng));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(1)->Arg(100);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  struct NoopHandler : EventHandler {
    void HandleEvent(SimTime, uint32_t, uint64_t) override {}
  } handler;
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.ScheduleEvent(i, &handler, 0);
    }
    queue.RunToCompletion();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_ResourceAcquire(benchmark::State& state) {
  SimClock clock;
  Resource resource("bench", &clock);
  SimTime t = 0;
  for (auto _ : state) {
    clock.now = t;
    benchmark::DoNotOptimize(resource.Acquire(t, 100));
    t += 150;  // leaves gaps, exercising the interval bookkeeping
  }
}
BENCHMARK(BM_ResourceAcquire);

void BM_SimulationThroughput(benchmark::State& state) {
  // Whole-system throughput: the paper-baseline stack on a uniform block
  // churn; reported as blocks per second of host time.
  uint64_t blocks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SimConfig config;
    config.ram_bytes = 4096ULL * 4096;
    config.flash_bytes = 32768ULL * 4096;
    config.threads_per_host = 8;
    Simulation sim(config);
    std::vector<TraceRecord> ops;
    Rng rng(7);
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      TraceRecord r;
      r.op = rng.NextBool(0.3) ? TraceOp::kWrite : TraceOp::kRead;
      r.thread = static_cast<uint16_t>(rng.NextBounded(8));
      r.file_id = 1;
      r.block = rng.NextBounded(65536);
      ops.push_back(r);
    }
    VectorTraceSource source(std::move(ops));
    state.ResumeTiming();
    const Metrics m = sim.Run(source);
    blocks += m.measured_read_blocks + m.measured_write_blocks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(blocks));
}
BENCHMARK(BM_SimulationThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace flashsim

BENCHMARK_MAIN();
