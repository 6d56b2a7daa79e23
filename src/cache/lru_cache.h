// Exact-LRU block cache (§5: "each cache is a single LRU chain of blocks").
//
// Fixed capacity in 4 KB block slots. Slots carry a medium tag so the
// unified architecture can manage RAM and flash buffers on one chain: slots
// [0, ram_slots) are RAM, the rest flash. Single-medium caches pass the
// other count as zero.
//
// Dirty blocks are additionally threaded on an intrusive dirty list so
// periodic syncers flush in O(dirty), not O(capacity).
#ifndef FLASHSIM_SRC_CACHE_LRU_CACHE_H_
#define FLASHSIM_SRC_CACHE_LRU_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/sim_time.h"
#include "src/trace/record.h"
#include "src/util/assert.h"
#include "src/util/flat_hash.h"
#include "src/util/huge_alloc.h"

namespace flashsim {

// Victim selection discipline. The paper fixes LRU and sets replacement
// policy aside as a secondary concern (§1); the rest of the zoo exists to
// quantify that choice on hit rate *and* flash endurance (see
// bench/ablation_replacement.cc and examples/policy_zoo.cpp). Each value
// names an EvictionPolicy plugin (src/cache/replacement.h) registered with
// the cache at construction; every policy has a reference model in
// src/check/oracle.cc that the differential suite holds it to.
enum class ReplacementPolicy : uint8_t {
  kLru = 0,    // exact LRU: hits move blocks to the MRU end
  kFifo = 1,   // insertion order: hits do not reorder
  kClock = 2,  // second chance: hits set a reference bit; eviction rotates
  kSlru = 3,   // segmented LRU: probationary/protected, 2Q-style
  kLruK = 4,   // LRU-K (K=2): evict oldest 2nd-most-recent access
};

constexpr int kNumReplacementPolicies = 5;

constexpr std::array<ReplacementPolicy, kNumReplacementPolicies> kAllReplacementPolicies = {
    ReplacementPolicy::kLru,  ReplacementPolicy::kFifo, ReplacementPolicy::kClock,
    ReplacementPolicy::kSlru, ReplacementPolicy::kLruK,
};

const char* ReplacementPolicyName(ReplacementPolicy policy);
std::optional<ReplacementPolicy> ParseReplacementPolicy(const std::string& name);

enum class Medium : uint8_t {
  kRam = 0,
  kFlash = 1,
};

constexpr uint32_t kInvalidSlot = UINT32_MAX;

struct EvictedBlock {
  BlockKey key = 0;
  Medium medium = Medium::kRam;
  bool dirty = false;
};

class EvictionPolicy;

class LruBlockCache {
 public:
  // Total capacity = ram_slots + flash_slots; either may be zero.
  LruBlockCache(std::string name, uint64_t ram_slots, uint64_t flash_slots = 0,
                ReplacementPolicy replacement = ReplacementPolicy::kLru);
  ~LruBlockCache();

  // The registered EvictionPolicy holds a back-pointer to this cache, so
  // relocating the cache would dangle it.
  LruBlockCache(const LruBlockCache&) = delete;
  LruBlockCache& operator=(const LruBlockCache&) = delete;
  LruBlockCache(LruBlockCache&&) = delete;
  LruBlockCache& operator=(LruBlockCache&&) = delete;

  uint64_t capacity() const { return slots_.size(); }
  uint64_t size() const { return size_; }
  uint64_t dirty_count() const { return dirty_count_; }
  const std::string& name() const { return name_; }

  // Returns the slot holding key, or kInvalidSlot. Does not touch LRU order.
  uint32_t Lookup(BlockKey key) const;

  // Records a hit: dispatches to the registered policy's OnHit (LRU moves
  // the slot to the MRU end, CLOCK sets its reference bit, FIFO does
  // nothing, SLRU promotes, LRU-K updates history).
  void Touch(uint32_t slot);

  ReplacementPolicy replacement() const { return replacement_; }
  EvictionPolicy& eviction_policy() { return *policy_; }
  const EvictionPolicy& eviction_policy() const { return *policy_; }

  // Inserts key (must not be present) at the MRU end, evicting the LRU
  // block if the cache is full; the evicted block's identity lands in
  // *evicted. Returns the slot used, or kInvalidSlot for zero-capacity
  // caches (a no-op). Newly inserted blocks reuse the evicted slot, so in a
  // mixed-media cache they land in "the least recently used buffer,
  // whether RAM or flash" (§3.3, unified).
  // `now` stamps the dirtied-at time when dirty is true (delayed writeback).
  uint32_t Insert(BlockKey key, bool dirty, std::optional<EvictedBlock>* evicted,
                  SimTime now = 0);

  // Removes key if present (cache-consistency invalidation or subset
  // maintenance); fills *removed when given. Returns presence.
  bool Remove(BlockKey key, EvictedBlock* removed = nullptr);

  // `now` records when the block became dirty (kDelayed1 flushes only
  // blocks of sufficient age). Re-dirtying an already-dirty block keeps its
  // original position and timestamp.
  void MarkDirty(uint32_t slot, SimTime now = 0);
  void MarkClean(uint32_t slot);

  // When the block in `slot` was last marked dirty (meaningful while dirty).
  SimTime dirtied_at(uint32_t slot) const { return slots_[slot].dirtied_at; }

  bool dirty(uint32_t slot) const { return slots_[slot].dirty; }
  BlockKey key_of(uint32_t slot) const { return slots_[slot].key; }
  Medium medium_of(uint32_t slot) const {
    return slot < ram_slots_ ? Medium::kRam : Medium::kFlash;
  }

  // Slot currently at the LRU end, or kInvalidSlot when empty.
  uint32_t LruSlot() const { return lru_tail_; }
  // Slot at the MRU end, or kInvalidSlot when empty.
  uint32_t MruSlot() const { return lru_head_; }

  // --- Chain surface for EvictionPolicy implementations (DESIGN.md §14) ---
  // Policies reorder the chain exclusively through these; the index, dirty
  // lists, and counters are off-limits to them.
  uint32_t ChainNext(uint32_t slot) const { return slots_[slot].next; }
  uint32_t ChainPrev(uint32_t slot) const { return slots_[slot].prev; }
  bool referenced(uint32_t slot) const { return slots_[slot].referenced; }
  void set_referenced(uint32_t slot, bool on) { slots_[slot].referenced = on; }
  void ChainUnlink(uint32_t slot) { LruUnlink(slot); }
  void ChainPushFront(uint32_t slot) { LruPushFront(slot); }
  void ChainPushBack(uint32_t slot);
  // Links `slot` (must be unlinked) immediately ahead of `before` (must be
  // linked).
  void ChainInsertBefore(uint32_t slot, uint32_t before);

  // Oldest-dirtied block held in a buffer of `medium`, or kInvalidSlot.
  // Dirty blocks are threaded per medium, so syncers flush their own tier
  // in O(1) per block.
  uint32_t OldestDirty(Medium medium) const {
    return dirty_head_[static_cast<size_t>(medium)];
  }

  uint64_t dirty_count(Medium medium) const {
    return dirty_count_by_medium_[static_cast<size_t>(medium)];
  }

  // Calls fn(key, medium) for every dirty block, oldest first per medium
  // (RAM list then flash list). Read-only; test and audit use.
  template <typename Fn>
  void ForEachDirty(Fn&& fn) const {
    for (size_t m = 0; m < 2; ++m) {
      for (uint32_t slot = dirty_head_[m]; slot != kInvalidSlot;
           slot = slots_[slot].dirty_next) {
        fn(slots_[slot].key, medium_of(slot));
      }
    }
  }

  // Calls fn(key, medium, dirty) for every resident block in MRU->LRU order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t slot = lru_head_; slot != kInvalidSlot; slot = slots_[slot].next) {
      fn(slots_[slot].key, medium_of(slot), slots_[slot].dirty);
    }
  }

  // Internal-consistency audit used by tests: list/index/dirty bookkeeping
  // must all agree. Aborts on violation.
  void CheckInvariants() const;

  uint64_t evictions() const { return evictions_; }
  uint64_t dirty_evictions() const { return dirty_evictions_; }
  uint64_t inserts() const { return inserts_; }
  // Load-triggered rehashes of the block index; the constructor reserves
  // for full capacity, so any nonzero value is a pre-sizing regression.
  uint64_t index_rehashes() const { return index_.growth_rehashes(); }

 private:
  struct Slot {
    BlockKey key = 0;
    uint32_t prev = kInvalidSlot;
    uint32_t next = kInvalidSlot;
    uint32_t dirty_prev = kInvalidSlot;
    uint32_t dirty_next = kInvalidSlot;
    bool in_use = false;
    bool dirty = false;
    bool referenced = false;  // CLOCK reference bit
    SimTime dirtied_at = 0;
  };

  void LruUnlink(uint32_t slot);
  void LruPushFront(uint32_t slot);
  void DirtyUnlink(uint32_t slot);
  void DirtyPushBack(uint32_t slot);

  std::string name_;
  uint64_t ram_slots_ = 0;
  ReplacementPolicy replacement_ = ReplacementPolicy::kLru;
  std::unique_ptr<EvictionPolicy> policy_;
  std::vector<Slot, HugePageAllocator<Slot>> slots_;  // huge-page backed when large
  FlatHashMap<uint32_t> index_;
  uint32_t lru_head_ = kInvalidSlot;  // MRU end
  uint32_t lru_tail_ = kInvalidSlot;  // LRU end
  // Dirty lists, one per medium (index = Medium value).
  uint32_t dirty_head_[2] = {kInvalidSlot, kInvalidSlot};
  uint32_t dirty_tail_[2] = {kInvalidSlot, kInvalidSlot};
  uint64_t dirty_count_by_medium_[2] = {0, 0};
  uint32_t next_unused_ = 0;  // slots [next_unused_, capacity) never used yet
  std::vector<uint32_t> free_slots_;  // slots freed by Remove, reused first
  uint64_t size_ = 0;
  uint64_t dirty_count_ = 0;
  uint64_t evictions_ = 0;
  uint64_t dirty_evictions_ = 0;
  uint64_t inserts_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_CACHE_LRU_CACHE_H_
