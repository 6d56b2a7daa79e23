// Stable block-key → shard map for the sharded filer backend.
//
// Routing must be a pure function of (key, shard count): every host, the
// background writers, and the per-shard counters all consult the same map,
// and the cross-shard conservation audit (src/check/audit.h) only holds if
// they always agree. The map is Mix64(key) % shards, which spreads hot
// files across shards even when their block numbers are sequential (the
// common case for an Impressions-style file server).
#ifndef FLASHSIM_SRC_BACKEND_SHARD_ROUTER_H_
#define FLASHSIM_SRC_BACKEND_SHARD_ROUTER_H_

#include <cstdint>

#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace flashsim {

class ShardRouter {
 public:
  // Upper bound on shards per backend — a "one machine per bit" limit that
  // keeps every shard index representable in the telemetry/JSON schemas
  // without worrying about pathological configs. (Directory::kMaxHosts once
  // mirrored this; the consistency directory has since gone multiword for
  // fleet-scale runs, while filer counts stay small.)
  static constexpr int kMaxShards = 64;

  explicit ShardRouter(int num_shards) : num_shards_(num_shards) {
    FLASHSIM_CHECK(num_shards >= 1 && num_shards <= kMaxShards);
  }

  int ShardOf(BlockKey key) const {
    if (num_shards_ == 1) {
      return 0;
    }
    return static_cast<int>(Mix64(key) % static_cast<uint64_t>(num_shards_));
  }

  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_BACKEND_SHARD_ROUTER_H_
