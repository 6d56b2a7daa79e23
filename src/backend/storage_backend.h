// Storage backends: ownership of the filer side of the host→storage path.
//
// A backend owns the filer service resources behind every host and hands
// each host a StorageService channel bound to that host's private network
// link (Connect). Two backends exist:
//
//   SingleFilerBackend  — exactly the pre-backend simulator: one Filer,
//       every channel is a RemoteStore. num_filers == 1 routes here and is
//       byte-identical to the old hard-wired path (guarded by
//       tests/golden_digest_test.cc).
//   ShardedFilerBackend — N independent Filer shards behind a ShardRouter.
//       Each shard has its own bounded-concurrency service resource and its
//       own RNG stream, split deterministically from SimConfig::seed
//       (ShardSeed below), so adding shards never perturbs another shard's
//       fast/slow read draws and runs stay reproducible at any shard count.
//
// Determinism contract: shard s of an N-shard backend over seed S always
// draws from Rng(ShardSeed(S, s)), and ShardSeed(S, 0) equals the seed the
// single-filer path has always used — so the 1-shard sharded backend and
// the single-filer backend are indistinguishable (DESIGN.md §11).
#ifndef FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
#define FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/backend/shard_router.h"
#include "src/backend/storage_service.h"
#include "src/device/filer.h"
#include "src/device/network_link.h"
#include "src/device/timing.h"
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
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  // Builds one host's channel to this backend, routed through the host's
  // private link. The channel borrows the backend and link; both must
  // outlive it.
  virtual std::unique_ptr<StorageService> Connect(NetworkLink& link) = 0;

  virtual int num_shards() const = 0;
  virtual Filer& shard(int index) = 0;
  const Filer& shard(int index) const {
    return const_cast<StorageBackend*>(this)->shard(index);
  }
  virtual const ShardRouter& router() const = 0;

  // Aggregates across shards — the totals the single-filer metrics always
  // reported, preserved shard-count-independently.
  uint64_t fast_reads() const { return Sum(&Filer::fast_reads); }
  uint64_t slow_reads() const { return Sum(&Filer::slow_reads); }
  uint64_t reads() const { return Sum(&Filer::reads); }
  uint64_t writes() const { return Sum(&Filer::writes); }

 protected:
  StorageBackend() = default;

 private:
  template <typename Getter>
  uint64_t Sum(Getter getter) const {
    uint64_t total = 0;
    for (int s = 0; s < num_shards(); ++s) {
      total += (shard(s).*getter)();
    }
    return total;
  }
};

class SingleFilerBackend final : public StorageBackend {
 public:
  SingleFilerBackend(const TimingModel& timing, uint64_t base_seed);

  std::unique_ptr<StorageService> Connect(NetworkLink& link) override;
  int num_shards() const override { return 1; }
  Filer& shard(int index) override;
  const ShardRouter& router() const override { return router_; }

 private:
  Filer filer_;
  ShardRouter router_;
};

class ShardedFilerBackend final : public StorageBackend {
 public:
  ShardedFilerBackend(const TimingModel& timing, int num_shards, uint64_t base_seed);

  std::unique_ptr<StorageService> Connect(NetworkLink& link) override;
  int num_shards() const override { return static_cast<int>(shards_.size()); }
  Filer& shard(int index) override;
  const ShardRouter& router() const override { return router_; }

 private:
  // unique_ptr per shard: Filer holds a MultiResource with internal state
  // the vector must never move once channels hold shard pointers.
  std::vector<std::unique_ptr<Filer>> shards_;
  ShardRouter router_;
};

// num_filers == 1 builds the single-filer backend (the byte-identical
// legacy path); anything larger builds the sharded cluster.
std::unique_ptr<StorageBackend> MakeStorageBackend(const TimingModel& timing, int num_filers,
                                                   uint64_t base_seed);

}  // namespace flashsim

#endif  // FLASHSIM_SRC_BACKEND_STORAGE_BACKEND_H_
