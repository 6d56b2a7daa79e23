#include "src/cache/lru_cache.h"

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>

#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(LruCache, EmptyLookupMisses) {
  LruBlockCache cache("c", 4);
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.LruSlot(), kInvalidSlot);
}

TEST(LruCache, InsertThenLookup) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = cache.Insert(10, false, &evicted);
  ASSERT_NE(slot, kInvalidSlot);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(cache.Lookup(10), slot);
  EXPECT_EQ(cache.key_of(slot), 10u);
  EXPECT_EQ(cache.size(), 1u);
  cache.CheckInvariants();
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  cache.Insert(4, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 1u);
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_NE(cache.Lookup(4), kInvalidSlot);
  cache.CheckInvariants();
}

TEST(LruCache, TouchProtectsFromEviction) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  cache.Touch(cache.Lookup(1));  // 2 is now LRU
  cache.Insert(4, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 2u);
  EXPECT_NE(cache.Lookup(1), kInvalidSlot);
}

TEST(LruCache, DirtyStateTracked) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  const uint32_t slot = cache.Insert(1, true, &evicted);
  EXPECT_TRUE(cache.dirty(slot));
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.MarkClean(slot);
  EXPECT_FALSE(cache.dirty(slot));
  EXPECT_EQ(cache.dirty_count(), 0u);
  cache.MarkDirty(slot);
  cache.MarkDirty(slot);  // idempotent
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.CheckInvariants();
}

TEST(LruCache, EvictionReportsDirtyAndCleansIt) {
  LruBlockCache cache("c", 1);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, false, &evicted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_TRUE(evicted->dirty);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.dirty_evictions(), 1u);
}

TEST(LruCache, OldestDirtyIsFifo) {
  LruBlockCache cache("c", 8);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, true, &evicted);
  cache.Insert(3, true, &evicted);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 1u);
  cache.MarkClean(cache.OldestDirty(Medium::kRam));
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 2u);
  // Re-dirtying moves a block to the tail of the dirty list.
  cache.MarkDirty(cache.Lookup(1));
  cache.MarkClean(cache.OldestDirty(Medium::kRam));  // cleans 2... wait, 2 already clean
  cache.CheckInvariants();
}

TEST(LruCache, RemoveFreesSlotForReuse) {
  LruBlockCache cache("c", 2);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  EvictedBlock removed;
  EXPECT_TRUE(cache.Remove(1, &removed));
  EXPECT_EQ(removed.key, 1u);
  EXPECT_EQ(cache.size(), 1u);
  cache.Insert(3, false, &evicted);
  EXPECT_FALSE(evicted.has_value());  // reused the freed slot, no eviction
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Remove(99));
  cache.CheckInvariants();
}

TEST(LruCache, RemoveDirtyBlockClearsDirtyList) {
  LruBlockCache cache("c", 4);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);
  cache.Insert(2, true, &evicted);
  EXPECT_TRUE(cache.Remove(1));
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 2u);
  cache.CheckInvariants();
}

TEST(LruCache, ZeroCapacityIsNoOp) {
  LruBlockCache cache("c", 0);
  std::optional<EvictedBlock> evicted;
  EXPECT_EQ(cache.Insert(1, false, &evicted), kInvalidSlot);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(cache.Lookup(1), kInvalidSlot);
  EXPECT_EQ(cache.size(), 0u);
  cache.CheckInvariants();
}

TEST(LruCache, MixedMediaSlotAssignment) {
  LruBlockCache cache("c", 2, 3);
  EXPECT_EQ(cache.capacity(), 5u);
  std::optional<EvictedBlock> evicted;
  // Slots fill in index order: 2 RAM then 3 flash.
  for (uint64_t k = 1; k <= 5; ++k) {
    const uint32_t slot = cache.Insert(k, false, &evicted);
    EXPECT_EQ(cache.medium_of(slot), k <= 2 ? Medium::kRam : Medium::kFlash);
  }
}

TEST(LruCache, PerMediumDirtyLists) {
  LruBlockCache cache("c", 2, 2);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, true, &evicted);   // RAM slot
  cache.Insert(2, false, &evicted);  // RAM slot
  cache.Insert(3, true, &evicted);   // flash slot
  cache.Insert(4, true, &evicted);   // flash slot
  EXPECT_EQ(cache.dirty_count(Medium::kRam), 1u);
  EXPECT_EQ(cache.dirty_count(Medium::kFlash), 2u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kRam)), 1u);
  EXPECT_EQ(cache.key_of(cache.OldestDirty(Medium::kFlash)), 3u);
  int dirty_seen = 0;
  cache.ForEachDirty([&](BlockKey, Medium) { ++dirty_seen; });
  EXPECT_EQ(dirty_seen, 3);
  cache.CheckInvariants();
}

TEST(LruCache, UnifiedPlacementReusesLruBuffer) {
  // §3.3 unified: new blocks land in the least recently used buffer,
  // whichever medium it is.
  LruBlockCache cache("c", 1, 1);
  std::optional<EvictedBlock> evicted;
  const uint32_t ram_slot = cache.Insert(1, false, &evicted);
  const uint32_t flash_slot = cache.Insert(2, false, &evicted);
  EXPECT_EQ(cache.medium_of(ram_slot), Medium::kRam);
  EXPECT_EQ(cache.medium_of(flash_slot), Medium::kFlash);
  cache.Touch(flash_slot);  // RAM block becomes LRU
  const uint32_t reused = cache.Insert(3, false, &evicted);
  EXPECT_EQ(reused, ram_slot);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, 1u);
  EXPECT_EQ(evicted->medium, Medium::kRam);
}

TEST(LruCache, ForEachIteratesMruToLru) {
  LruBlockCache cache("c", 3);
  std::optional<EvictedBlock> evicted;
  cache.Insert(1, false, &evicted);
  cache.Insert(2, false, &evicted);
  cache.Insert(3, false, &evicted);
  std::vector<BlockKey> order;
  cache.ForEach([&](BlockKey key, Medium, bool) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<BlockKey>{3, 2, 1}));
}

TEST(LruCache, CapacitySizedHugePageCacheNeverRehashes) {
  // 300000 slots: the slot array and the index both sit above the
  // huge-page threshold (src/util/huge_alloc.h). Filling the cache and
  // cycling a quarter of it through must never rehash the index.
  constexpr uint64_t kSlots = 300000;
  LruBlockCache cache("big", kSlots / 2, kSlots / 2);
  uint64_t wrong_evictions = 0;
  for (uint64_t key = 0; key < kSlots + kSlots / 4; ++key) {
    std::optional<EvictedBlock> evicted;
    ASSERT_NE(cache.Insert(key, key % 3 == 0, &evicted), kInvalidSlot);
    const bool expect_eviction = key >= kSlots;
    if (evicted.has_value() != expect_eviction ||
        (expect_eviction &&
         (evicted->key != key - kSlots || evicted->dirty != (evicted->key % 3 == 0)))) {
      ++wrong_evictions;
    }
  }
  EXPECT_EQ(wrong_evictions, 0u);
  EXPECT_EQ(cache.size(), kSlots);
  EXPECT_EQ(cache.index_rehashes(), 0u);
  for (uint64_t key = kSlots / 4; key < kSlots + kSlots / 4; ++key) {
    ASSERT_NE(cache.Lookup(key), kInvalidSlot) << key;
  }
  cache.CheckInvariants();
}

TEST(LruCache, RandomizedAgainstReferenceLru) {
  // Reference model: std::list as LRU order + map for dirty state.
  constexpr uint64_t kCapacity = 64;
  LruBlockCache cache("c", kCapacity);
  std::list<uint64_t> ref_order;  // front = MRU
  std::unordered_map<uint64_t, bool> ref_dirty;
  Rng rng(1234);

  auto ref_touch = [&](uint64_t key) {
    ref_order.remove(key);
    ref_order.push_front(key);
  };

  for (int step = 0; step < 100000; ++step) {
    const uint64_t key = rng.NextBounded(200) + 1;
    const int action = static_cast<int>(rng.NextBounded(4));
    const uint32_t slot = cache.Lookup(key);
    const bool present_ref = ref_dirty.count(key) > 0;
    ASSERT_EQ(slot != kInvalidSlot, present_ref) << "step " << step;
    switch (action) {
      case 0: {  // access (insert or touch)
        if (slot != kInvalidSlot) {
          cache.Touch(slot);
          ref_touch(key);
        } else {
          std::optional<EvictedBlock> evicted;
          cache.Insert(key, false, &evicted);
          if (ref_order.size() == kCapacity) {
            const uint64_t victim = ref_order.back();
            ref_order.pop_back();
            ASSERT_TRUE(evicted.has_value());
            ASSERT_EQ(evicted->key, victim) << "step " << step;
            ASSERT_EQ(evicted->dirty, ref_dirty[victim]);
            ref_dirty.erase(victim);
          } else {
            ASSERT_FALSE(evicted.has_value());
          }
          ref_order.push_front(key);
          ref_dirty[key] = false;
        }
        break;
      }
      case 1: {  // dirty
        if (slot != kInvalidSlot) {
          cache.MarkDirty(slot);
          ref_dirty[key] = true;
        }
        break;
      }
      case 2: {  // clean
        if (slot != kInvalidSlot) {
          cache.MarkClean(slot);
          ref_dirty[key] = false;
        }
        break;
      }
      default: {  // invalidate
        const bool removed = cache.Remove(key);
        ASSERT_EQ(removed, present_ref);
        if (present_ref) {
          ref_order.remove(key);
          ref_dirty.erase(key);
        }
        break;
      }
    }
    if (step % 5000 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  EXPECT_EQ(cache.size(), ref_order.size());
  uint64_t ref_dirty_count = 0;
  for (auto& [k, d] : ref_dirty) {
    ref_dirty_count += d ? 1 : 0;
  }
  EXPECT_EQ(cache.dirty_count(), ref_dirty_count);
}

}  // namespace
}  // namespace flashsim
