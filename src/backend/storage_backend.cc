#include "src/backend/storage_backend.h"

#include "src/backend/remote_store.h"
#include "src/util/assert.h"

namespace flashsim {

namespace {

// One host's channel to a sharded cluster: the same packet/filer/packet
// composition as RemoteStore, with the filer chosen per block by the
// backend's router. The host's link is shared by all shards — the paper's
// contention point is the client's network segment, not the filer — so
// sharding relieves filer service queueing while the wire stays the wire.
class ShardedRemoteStore final : public StorageService {
 public:
  ShardedRemoteStore(NetworkLink& link, const ShardRouter& router,
                     std::vector<std::unique_ptr<Filer>>& shards)
      : link_(&link), router_(&router), shards_(&shards) {}

  SimTime Read(SimTime now, BlockKey key, bool* was_fast) override {
    Filer& filer = *(*shards_)[static_cast<size_t>(router_->ShardOf(key))];
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/false);
    const SimTime served = filer.Read(at_filer, was_fast);
    return link_->SendToHost(served, /*carries_data=*/true);
  }

  SimTime Write(SimTime now, BlockKey key) override {
    Filer& filer = *(*shards_)[static_cast<size_t>(router_->ShardOf(key))];
    const SimTime at_filer = link_->SendToFiler(now, /*carries_data=*/true);
    const SimTime served = filer.Write(at_filer);
    return link_->SendToHost(served, /*carries_data=*/false);
  }

  int num_shards() const override { return router_->num_shards(); }
  int ShardOf(BlockKey key) const override { return router_->ShardOf(key); }

 private:
  NetworkLink* link_;
  const ShardRouter* router_;
  std::vector<std::unique_ptr<Filer>>* shards_;
};

}  // namespace

SingleFilerBackend::SingleFilerBackend(const TimingModel& timing, uint64_t base_seed)
    : filer_(timing, ShardSeed(base_seed, 0)), router_(1) {}

std::unique_ptr<StorageService> SingleFilerBackend::Connect(NetworkLink& link) {
  return std::make_unique<RemoteStore>(link, filer_);
}

Filer& SingleFilerBackend::shard(int index) {
  FLASHSIM_CHECK(index == 0);
  return filer_;
}

ShardedFilerBackend::ShardedFilerBackend(const TimingModel& timing, int num_shards,
                                         uint64_t base_seed)
    : router_(num_shards) {
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Filer>(timing, ShardSeed(base_seed, s)));
  }
}

std::unique_ptr<StorageService> ShardedFilerBackend::Connect(NetworkLink& link) {
  return std::make_unique<ShardedRemoteStore>(link, router_, shards_);
}

Filer& ShardedFilerBackend::shard(int index) {
  FLASHSIM_CHECK(index >= 0 && index < num_shards());
  return *shards_[static_cast<size_t>(index)];
}

std::unique_ptr<StorageBackend> MakeStorageBackend(const TimingModel& timing, int num_filers,
                                                   uint64_t base_seed) {
  FLASHSIM_CHECK(num_filers >= 1);
  if (num_filers == 1) {
    return std::make_unique<SingleFilerBackend>(timing, base_seed);
  }
  return std::make_unique<ShardedFilerBackend>(timing, num_filers, base_seed);
}

}  // namespace flashsim
