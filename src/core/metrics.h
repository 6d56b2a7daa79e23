// Simulation metrics.
//
// The governing metric is latency as experienced by the application (§7);
// everything else (hit rates, device busy times, invalidation counts) is
// collected to explain behavior. Warmup-flagged trace records are executed
// but not measured (§4).
#ifndef FLASHSIM_SRC_CORE_METRICS_H_
#define FLASHSIM_SRC_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/cache_stack.h"
#include "src/consistency/coherence.h"
#include "src/sim/sim_time.h"
#include "src/util/stats.h"

namespace flashsim {

// End-of-run snapshot of one filer shard (src/backend/). With one filer
// this is the whole storage side; with N shards the vector exposes the
// per-shard load split and queueing depth behind the aggregate counters.
struct ShardMetrics {
  uint64_t fast_reads = 0;
  uint64_t slow_reads = 0;
  uint64_t writes = 0;
  // Requests that queued behind the shard's full server pool, and the
  // worst such wait — the shard-level saturation signals (§7.7).
  uint64_t queued_requests = 0;
  SimDuration max_wait_ns = 0;
  SimDuration busy_ns = 0;
  SimDuration wait_ns = 0;
  // Coherence control messages this shard serviced (DESIGN.md §15); zero
  // under the default perfect model.
  uint64_t control_messages = 0;

  bool operator==(const ShardMetrics&) const = default;
};

struct Metrics {
  // Application-observed per-operation latency, measured phase only.
  LatencyRecorder read_latency;
  LatencyRecorder write_latency;

  // Per-block read serving level, measured phase only (indexed by HitLevel).
  std::array<uint64_t, 4> read_level_blocks{};
  uint64_t measured_read_blocks = 0;
  uint64_t measured_write_blocks = 0;
  uint64_t warmup_blocks = 0;
  uint64_t trace_records = 0;

  // Cache consistency (§7.9), measured phase only.
  uint64_t consistency_writes = 0;
  uint64_t invalidating_writes = 0;
  uint64_t invalidations = 0;
  // Protocol messages charged to the network (extension; zero under the
  // paper's free-invalidation model). Counted for the whole run.
  uint64_t invalidation_messages = 0;
  // Coherence protocol accounting (DESIGN.md §15): message, lease, and
  // stall totals summed over hosts. All-zero under perfect.
  CoherenceModel coherence_model = CoherenceModel::kPerfect;
  CoherenceCounters coherence;

  // Load-triggered hash rehashes observed across the run's cache/directory
  // indexes. The simulation pre-sizes every index from SimConfig, so this
  // should stay 0; a nonzero value flags a pre-sizing regression.
  uint64_t index_rehashes = 0;

  // End-of-run snapshots.
  SimTime end_time = 0;
  uint64_t filer_fast_reads = 0;
  uint64_t filer_slow_reads = 0;
  uint64_t filer_writes = 0;
  // One entry per filer shard (size == SimConfig::num_filers); the scalar
  // filer_* fields above are always the sums across this vector.
  std::vector<ShardMetrics> filer_shards;
  StackCounters stack_totals;  // summed over hosts

  // Writeback-pipeline accounting, summed over hosts (the conservation
  // identities audited by src/check/audit.h):
  //   stack_totals.filer_writebacks ==
  //       stack_totals.sync_filer_writes + writebacks_enqueued
  //   writebacks_enqueued == writebacks_completed + writebacks_in_flight
  uint64_t writebacks_enqueued = 0;
  uint64_t writebacks_completed = 0;
  uint64_t writebacks_in_flight = 0;  // still queued or on the wire at end
  // Dirty blocks still resident in any cache at end of run (never written
  // back: no application was left to observe the flush).
  uint64_t dirty_resident = 0;

  // Flash endurance (policy-zoo tentpole): total bytes written into the
  // flash medium over the whole run — stack_totals.flash_installs × block
  // size — the quantity an admission filter exists to reduce. block_bytes
  // is copied from the config so derived rates need no second input.
  uint64_t flash_bytes_written = 0;
  uint64_t block_bytes = 0;

  // FTL mode only (timing.use_ftl): device-level aggregates over hosts.
  bool ftl_enabled = false;
  double ftl_write_amplification = 1.0;
  uint64_t ftl_erases = 0;
  uint64_t ftl_gc_relocations = 0;

  double ram_hit_rate() const {
    return Rate(read_level_blocks[static_cast<size_t>(HitLevel::kRam)]);
  }
  double flash_hit_rate() const {
    return Rate(read_level_blocks[static_cast<size_t>(HitLevel::kFlash)]);
  }
  double filer_read_rate() const {
    return Rate(read_level_blocks[static_cast<size_t>(HitLevel::kFilerFast)] +
                read_level_blocks[static_cast<size_t>(HitLevel::kFilerSlow)]);
  }
  // Figs 11/12: % of application block writes requiring invalidation.
  double invalidation_rate() const {
    return consistency_writes == 0 ? 0.0
                                   : static_cast<double>(invalidating_writes) /
                                         static_cast<double>(consistency_writes);
  }

  double mean_read_us() const { return read_latency.mean_us(); }
  double mean_write_us() const { return write_latency.mean_us(); }

  // Cache-level flash write amplification: bytes written into flash per
  // byte the application wrote (measured phase). Distinct from the FTL's
  // device-internal amplification — this one is the caching policy's doing.
  double flash_write_amplification() const {
    const uint64_t app_bytes = measured_write_blocks * block_bytes;
    return app_bytes == 0 ? 0.0 : static_cast<double>(flash_bytes_written) /
                                      static_cast<double>(app_bytes);
  }
  // Flash wear per flash hit served: the endurance price of each read the
  // flash tier absorbed. The policy_zoo ranking metric — a policy dominates
  // when it serves the same hits for fewer bytes written.
  double flash_bytes_per_hit() const {
    return stack_totals.flash_hits == 0
               ? 0.0
               : static_cast<double>(flash_bytes_written) /
                     static_cast<double>(stack_totals.flash_hits);
  }

  std::string Summary() const;

 private:
  double Rate(uint64_t blocks) const {
    return measured_read_blocks == 0
               ? 0.0
               : static_cast<double>(blocks) / static_cast<double>(measured_read_blocks);
  }
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CORE_METRICS_H_
