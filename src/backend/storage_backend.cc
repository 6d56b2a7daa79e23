#include "src/backend/storage_backend.h"

namespace flashsim {

StorageBackend::StorageBackend(const TimingModel& timing, int num_shards, uint64_t base_seed) {
  FLASHSIM_CHECK(num_shards >= 1 && num_shards <= kMaxShards);
  shards_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards_.emplace_back(timing, ShardSeed(base_seed, s));
  }
}

}  // namespace flashsim
