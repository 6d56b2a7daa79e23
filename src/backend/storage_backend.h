// Storage backend: the filer side of every host's path to storage (§5).
//
// StorageBackend owns N >= 1 independent Filer shards and the one shard
// map, ShardOf(key) = Mix64(key) % N. N == 1 is the paper's deployment —
// one shared filer — and maps every key to shard 0; larger N is the §7.7
// scaling question (filer_scaling, boot_storm --filers). Each shard has its
// own bounded-concurrency service resource and its own RNG stream, split
// deterministically from SimConfig::seed (ShardSeed below), so adding shards
// never perturbs another shard's fast/slow read draws.
//
// StorageService is one host's channel to the backend, bound to the host's
// private network link: request packet out, the owning shard's filer
// service, response packet back. The link is shared by all shards — the
// paper's contention point is the client's network segment, not the filer —
// so sharding relieves filer queueing while the wire stays the wire.
//
// Routing is a pure function of (key, shard count): every host, the
// background writers, the per-shard stack counters and the coherence
// fabric ask the same map, and the cross-shard conservation audit
// (src/check/audit.h) only holds because they always agree.
//
// Determinism contract: shard s of an N-shard backend over seed S always
// draws from Rng(ShardSeed(S, s)), and ShardSeed(S, 0) is the seed the
// single-filer simulator has always used (DESIGN.md §11).
#ifndef FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
#define FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_

#include <cstdint>
#include <vector>

#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/device/timing.h"
#include "src/sim/sim_time.h"
#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace flashsim {

// Deterministic per-shard RNG seed split. Shard 0 reproduces the seed the
// single-filer simulator has used since the first commit (Mix64 of
// seed ^ 0xf11e5); later shards perturb the pre-mix state by the golden
// ratio so streams never collide for distinct shard indices.
inline uint64_t ShardSeed(uint64_t base_seed, int shard) {
  return Mix64((base_seed ^ 0xf11e5ULL) +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(shard));
}

class StorageBackend {
 public:
  // Upper bound on shards per backend, which keeps every shard index
  // representable in the telemetry and JSON schemas.
  static constexpr int kMaxShards = 64;

  StorageBackend(const TimingModel& timing, int num_shards, uint64_t base_seed);

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  // The shard owning `key`; stable for the backend's lifetime.
  int ShardOf(BlockKey key) const {
    if (shards_.size() == 1) {
      return 0;
    }
    return static_cast<int>(Mix64(key) % static_cast<uint64_t>(shards_.size()));
  }

  Filer& shard(int index) {
    FLASHSIM_CHECK(index >= 0 && index < num_shards());
    return shards_[static_cast<size_t>(index)];
  }
  const Filer& shard(int index) const {
    FLASHSIM_CHECK(index >= 0 && index < num_shards());
    return shards_[static_cast<size_t>(index)];
  }

  // Aggregates across shards — the totals the single-filer metrics always
  // reported, preserved shard-count-independently.
  uint64_t fast_reads() const { return Sum(&Filer::fast_reads); }
  uint64_t slow_reads() const { return Sum(&Filer::slow_reads); }
  uint64_t reads() const { return Sum(&Filer::reads); }
  uint64_t writes() const { return Sum(&Filer::writes); }

 private:
  template <typename Getter>
  uint64_t Sum(Getter getter) const {
    uint64_t total = 0;
    for (const Filer& filer : shards_) {
      total += (filer.*getter)();
    }
    return total;
  }

  // Reserved once in the constructor and never resized: channels and
  // probes hold pointers into it.
  std::vector<Filer> shards_;
};

// One host's path to the storage backend. A cache stack's misses and
// writebacks leave the host through exactly one of these; the block key
// picks the filer shard. Borrows the link and backend, which must outlive it.
class StorageService final {
 public:
  StorageService(NetworkLink& link, StorageBackend& backend)
      : link_(&link), backend_(&backend) {}

  // Fetches one block: small request out, filer read, data packet back.
  // Sets *was_fast (may be null) to whether the filer's read-ahead hit.
  SimTime Read(SimTime now, BlockKey key, bool* was_fast) {
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/false);
    const SimTime served = backend_->shard(backend_->ShardOf(key)).Read(at_filer, was_fast);
    return link_->SendToHost(served, /*carries_data=*/true);
  }

  // Writes one block: data packet out, filer write, small ack back.
  SimTime Write(SimTime now, BlockKey key) {
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/true);
    const SimTime served = backend_->shard(backend_->ShardOf(key)).Write(at_filer);
    return link_->SendToHost(served, /*carries_data=*/false);
  }

  int num_shards() const { return backend_->num_shards(); }
  int ShardOf(BlockKey key) const { return backend_->ShardOf(key); }

 private:
  NetworkLink* link_;
  StorageBackend* backend_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
