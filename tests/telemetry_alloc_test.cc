// Proves the telemetry overhead acceptance: with telemetry off (the
// default-constructed SimConfig) a simulation run performs no telemetry
// work at all — the run's allocation count does not grow with trace length
// — and with histograms or the sampler armed, steady-state recording stays
// allocation-free (all registration happens up front, at construction).
//
// Like event_alloc_test, this gets its own binary: the whole binary's
// global operator new/delete are replaced with counting wrappers, and tests
// snapshot the counter around Simulation::Run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/core/simulation.h"
#include "src/sim/sim_time.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flashsim {
namespace {

SimConfig TinyConfig() {
  SimConfig config;
  config.ram_bytes = 64 * 4096;
  config.flash_bytes = 256 * 4096;
  config.num_hosts = 1;
  config.threads_per_host = 2;
  config.timing.filer_fast_read_rate = 1.0;  // deterministic
  return config;
}

// A read/write mix over a working set larger than RAM, so every tier's
// service path (RAM hit, flash hit, filer fetch, writeback) runs.
std::vector<TraceRecord> MakeTrace(uint64_t ops) {
  std::vector<TraceRecord> trace;
  trace.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    TraceRecord r;
    r.op = (i % 8 == 7) ? TraceOp::kWrite : TraceOp::kRead;
    r.host = 0;
    r.thread = static_cast<uint16_t>(i % 2);
    r.file_id = 1;
    r.block = (i * 37) % 512;  // working set 2x RAM capacity
    r.block_count = 1;
    trace.push_back(r);
  }
  return trace;
}

// Allocation count across Run() alone; construction (which may register
// telemetry) is excluded by design — registration is allowed to allocate.
uint64_t RunAllocations(const SimConfig& config, std::vector<TraceRecord> ops,
                        uint64_t* records_out = nullptr) {
  Simulation sim(config);
  VectorTraceSource source(std::move(ops));
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Metrics m = sim.Run(source);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (records_out != nullptr) {
    *records_out = m.trace_records;
  }
  return after - before;
}

TEST(TelemetryAllocation, TelemetryOffRunCostDoesNotScaleWithTraceLength) {
  // If telemetry-off left any per-operation allocation behind, a 4x longer
  // trace would allocate ~4x more. Demand the deltas match exactly: the
  // run's allocations are all one-time warm-up (device maps, ring growth),
  // fully amortized by the shorter run.
  uint64_t short_records = 0;
  uint64_t long_records = 0;
  const uint64_t short_delta =
      RunAllocations(TinyConfig(), MakeTrace(20000), &short_records);
  const uint64_t long_delta =
      RunAllocations(TinyConfig(), MakeTrace(80000), &long_records);
  ASSERT_EQ(short_records, 20000u);
  ASSERT_EQ(long_records, 80000u);
  EXPECT_EQ(long_delta, short_delta)
      << "telemetry-off run allocations grew with trace length";
}

TEST(TelemetryAllocation, HistogramRecordingIsAllocationFree) {
  // Histograms are registered at construction; recording into them on the
  // hot path must not allocate, so an instrumented run's allocation count
  // equals the uninstrumented one's on the same trace.
  const uint64_t off_delta = RunAllocations(TinyConfig(), MakeTrace(20000));
  SimConfig instrumented = TinyConfig();
  instrumented.telemetry.histograms = true;
  const uint64_t hist_delta = RunAllocations(instrumented, MakeTrace(20000));
  EXPECT_EQ(hist_delta, off_delta) << "histogram Record allocated on the hot path";
}

TEST(TelemetryAllocation, MultiShardOffPathStaysAllocationFree) {
  // A sharded backend adds per-shard routing counters and telemetry probes,
  // but none of it may put allocations on the hot path: with num_filers=4
  // and telemetry off, run allocations still must not scale with trace
  // length, and arming histograms (which registers the per-shard filer
  // probes up front) must not change the run-phase count either.
  SimConfig sharded = TinyConfig();
  sharded.num_filers = 4;
  uint64_t short_records = 0;
  uint64_t long_records = 0;
  const uint64_t short_delta = RunAllocations(sharded, MakeTrace(20000), &short_records);
  const uint64_t long_delta = RunAllocations(sharded, MakeTrace(80000), &long_records);
  ASSERT_EQ(short_records, 20000u);
  ASSERT_EQ(long_records, 80000u);
  EXPECT_EQ(long_delta, short_delta)
      << "sharded-backend run allocations grew with trace length";

  SimConfig instrumented = sharded;
  instrumented.telemetry.histograms = true;
  const uint64_t hist_delta = RunAllocations(instrumented, MakeTrace(20000));
  EXPECT_EQ(hist_delta, short_delta)
      << "per-shard filer probes allocated on the hot path";
}

TEST(TelemetryAllocation, SamplerStaysWithinItsReserve) {
  // The sampler reserves room for 1024 rows at construction; a run that
  // takes fewer strides than that must not allocate for sampling either.
  const uint64_t off_delta = RunAllocations(TinyConfig(), MakeTrace(20000));
  SimConfig sampled = TinyConfig();
  sampled.telemetry.sample_stride_ns = 10 * kMillisecond;
  const uint64_t sampler_delta = RunAllocations(sampled, MakeTrace(20000));
  EXPECT_EQ(sampler_delta, off_delta) << "sampling allocated on the hot path";
}

}  // namespace
}  // namespace flashsim
