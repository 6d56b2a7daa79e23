#include "src/core/experiment.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "src/core/simulation.h"
#include "src/util/assert.h"

namespace flashsim {

namespace {

uint64_t ScaledBytes(double gib, uint64_t scale) {
  const double bytes = gib * static_cast<double>(kGiB) / static_cast<double>(scale);
  FLASHSIM_CHECK(CapacityFitsBytes(bytes));
  return static_cast<uint64_t>(bytes);
}

}  // namespace

SimConfig BuildSimConfig(const ExperimentParams& params) {
  FLASHSIM_CHECK(params.scale >= 1);
  SimConfig config;
  config.ram_bytes = ScaledBytes(params.ram_gib, params.scale);
  config.flash_bytes = ScaledBytes(params.flash_gib, params.scale);
  config.num_hosts = params.hosts;
  config.threads_per_host = params.threads_per_host;
  config.num_filers = params.num_filers;
  config.arch = params.arch;
  config.ram_policy = params.ram_policy;
  config.flash_policy = params.flash_policy;
  config.replacement = params.replacement;
  config.admission = params.admission;
  config.collect_mrc = params.collect_mrc;
  config.timing = params.timing;
  config.coherence = params.coherence;
  config.seed = params.seed;
  config.audit_stride = params.audit ? 64 : 0;
  config.telemetry = params.telemetry;
  return config;
}

SyntheticTraceSpec BuildTraceSpec(const ExperimentParams& params) {
  SyntheticTraceSpec spec;
  spec.working_set_bytes =
      ScaledBytes(params.working_set_gib * 1024.0, params.scale * 1024);
  // Guard tiny scaled working sets (e.g. 5 GB / 1024).
  spec.working_set_bytes = std::max<uint64_t>(spec.working_set_bytes, 64 * 4096);
  spec.write_fraction = params.write_fraction;
  spec.num_hosts = static_cast<uint16_t>(params.hosts);
  spec.threads_per_host = static_cast<uint16_t>(params.threads_per_host);
  spec.working_set_io_fraction = params.working_set_io_fraction;
  spec.volume_multiplier = params.volume_multiplier;
  spec.shared_working_set = params.shared_working_set;
  spec.skip_warmup = params.skip_warmup;
  spec.seed = params.seed;
  return spec;
}

const FsModel& GetFsModel(uint64_t total_bytes, uint32_t block_bytes, uint64_t seed) {
  using Key = std::tuple<uint64_t, uint32_t, uint64_t>;
  // The memoization map is the only state RunExperiment shares between
  // concurrent calls (the harness's ParallelRunner runs experiments from
  // many threads), so every lookup-or-build takes the mutex. Holding it
  // across FsModel construction serializes first-builds of the same key —
  // deliberate: two threads must not build the model twice, and a map
  // lookup is trivial next to a simulation run. Entries, once returned, are
  // immutable and never erased, so the reference outlives the lock.
  static std::mutex* mu = new std::mutex();
  static std::map<Key, std::unique_ptr<FsModel>>* cache =
      new std::map<Key, std::unique_ptr<FsModel>>();
  const Key key{total_bytes, block_bytes, seed};
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(key);
  if (it == cache->end()) {
    FsModelParams fs_params;
    fs_params.total_bytes = total_bytes;
    fs_params.block_bytes = block_bytes;
    it = cache->emplace(key, std::make_unique<FsModel>(fs_params, seed)).first;
  }
  return *it->second;
}

ExperimentResult RunExperiment(const ExperimentParams& params) {
  const auto start = std::chrono::steady_clock::now();

  ExperimentResult result;
  result.config = BuildSimConfig(params);
  result.trace_spec = BuildTraceSpec(params);

  const uint64_t filer_bytes = ScaledBytes(params.filer_tib * 1024.0, params.scale);
  // The file server must be larger than any working set sampled from it.
  FLASHSIM_CHECK(filer_bytes / result.config.block_bytes >
                 result.trace_spec.working_set_bytes / result.config.block_bytes);
  const FsModel& fs =
      GetFsModel(filer_bytes, result.config.block_bytes, Mix64(0xf5ULL));

  SyntheticTraceSource source(fs, result.trace_spec);
  Simulation sim(result.config);
  if (params.read_latency_series != nullptr) {
    sim.set_read_latency_series(params.read_latency_series);
  }
  result.metrics = sim.Run(source);
  result.telemetry = sim.TakeTelemetry();

  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

void PrintExperimentHeader(const std::string& title, const ExperimentParams& params) {
  const TimingModel& t = params.timing;
  std::printf("=== %s ===\n", title.c_str());
  std::printf("scale: 1/%llu (capacities divided, timings unchanged)\n",
              static_cast<unsigned long long>(params.scale));
  std::printf("timing (Table 1): ram=%lldns flash_read=%lldns flash_write=%lldns "
              "net=%lldns+%lldns/bit filer fast/slow/write=%lld/%lld/%lldns fast_rate=%.0f%%\n",
              static_cast<long long>(t.ram_access_ns), static_cast<long long>(t.flash_read_ns),
              static_cast<long long>(t.flash_write_ns),
              static_cast<long long>(t.net_packet_base_ns),
              static_cast<long long>(t.net_per_bit_ns),
              static_cast<long long>(t.filer_fast_read_ns),
              static_cast<long long>(t.filer_slow_read_ns),
              static_cast<long long>(t.filer_write_ns), 100.0 * t.filer_fast_read_rate);
}

}  // namespace flashsim
