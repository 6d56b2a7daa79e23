#include "src/util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/huge_alloc.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

TEST(FlatHashMap, EmptyFindsNothing) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Contains(0));
}

TEST(FlatHashMap, InsertAndFind) {
  FlatHashMap<int> map;
  map.Insert(1, 10);
  map.Insert(2, 20);
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_EQ(*map.Find(2), 20);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMap, InsertOverwrites) {
  FlatHashMap<int> map;
  map.Insert(7, 1);
  map.Insert(7, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(7), 2);
}

TEST(FlatHashMap, BracketDefaultConstructs) {
  FlatHashMap<uint64_t> map;
  EXPECT_EQ(map[5], 0u);
  map[5] = 99;
  EXPECT_EQ(map[5], 99u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, EraseRemovesAndReturnsPresence) {
  FlatHashMap<int> map;
  map.Insert(1, 10);
  EXPECT_TRUE(map.Erase(1));
  EXPECT_FALSE(map.Erase(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatHashMap, GrowsBeyondInitialCapacity) {
  FlatHashMap<uint64_t> map;
  for (uint64_t k = 0; k < 10000; ++k) {
    map.Insert(k * 2 + 1, k);
  }
  EXPECT_EQ(map.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(map.Find(k * 2 + 1), nullptr);
    EXPECT_EQ(*map.Find(k * 2 + 1), k);
    EXPECT_EQ(map.Find(k * 2), nullptr);
  }
}

TEST(FlatHashMap, BackwardShiftKeepsProbeChainsIntact) {
  // Dense keys stress probe displacement; erase every other key and verify
  // the survivors remain reachable.
  FlatHashMap<uint64_t> map;
  for (uint64_t k = 0; k < 4096; ++k) {
    map.Insert(k, k);
  }
  for (uint64_t k = 0; k < 4096; k += 2) {
    EXPECT_TRUE(map.Erase(k));
  }
  for (uint64_t k = 1; k < 4096; k += 2) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k);
  }
  EXPECT_EQ(map.size(), 2048u);
}

TEST(FlatHashMap, RandomizedAgainstStdUnorderedMap) {
  FlatHashMap<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> reference;
  Rng rng(99);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t key = rng.NextBounded(500);
    switch (rng.NextBounded(3)) {
      case 0: {
        const uint64_t value = rng.Next();
        map.Insert(key, value);
        reference[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(map.Erase(key), reference.erase(key) > 0) << "step " << step;
        break;
      }
      default: {
        auto it = reference.find(key);
        const uint64_t* found = map.Find(key);
        if (it == reference.end()) {
          ASSERT_EQ(found, nullptr) << "step " << step;
        } else {
          ASSERT_NE(found, nullptr) << "step " << step;
          ASSERT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
  }
  EXPECT_EQ(map.size(), reference.size());
}

TEST(FlatHashMap, ForEachVisitsEveryEntryOnce) {
  FlatHashMap<int> map;
  for (uint64_t k = 100; k < 200; ++k) {
    map.Insert(k, 1);
  }
  uint64_t sum = 0;
  int visits = 0;
  map.ForEach([&](uint64_t key, int& value) {
    sum += key;
    visits += value;
  });
  EXPECT_EQ(visits, 100);
  EXPECT_EQ(sum, (100 + 199) * 100 / 2);
}

TEST(FlatHashMap, ClearEmpties) {
  FlatHashMap<int> map;
  map.Insert(1, 1);
  map.Insert(2, 2);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
  map.Insert(3, 3);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, ReserveDoesNotLoseEntries) {
  FlatHashMap<int> map;
  map.Insert(11, 1);
  map.Reserve(100000);
  EXPECT_EQ(*map.Find(11), 1);
  for (uint64_t k = 0; k < 1000; ++k) {
    map.Insert(k + 1000, static_cast<int>(k));
  }
  EXPECT_EQ(map.size(), 1001u);
}

TEST(HugePageAllocator, OnlyLargeArraysAreRoundedAndAligned) {
  EXPECT_EQ(HugePageRoundedBytes(1000), 1000u);
  EXPECT_EQ(HugePageRoundedBytes(kHugePageThreshold - 1), kHugePageThreshold - 1);
  EXPECT_EQ(HugePageRoundedBytes(kHugePageThreshold), kHugePageThreshold);
  EXPECT_EQ(HugePageRoundedBytes(kHugePageThreshold + 1), kHugePageThreshold + kHugePageBytes);

  using HugeVector = std::vector<uint64_t, HugePageAllocator<uint64_t>>;
  for (const size_t n : {kHugePageThreshold / sizeof(uint64_t),
                         kHugePageThreshold / sizeof(uint64_t) + 3,
                         3 * kHugePageBytes / sizeof(uint64_t) + 1}) {
    HugeVector big(n, 7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(big.data()) % kHugePageBytes, 0u) << n;
    big.front() = 1;
    big.back() = 2;  // the whole requested range is usable
    EXPECT_EQ(big[n / 2], 7u);
  }
  HugeVector small(1000, 3);  // plain operator new; sanitizers check the pairing
  small.back() = 4;
  EXPECT_EQ(small.front(), 3u);
}

TEST(FlatHashMap, RehashAcrossHugePageThresholdKeepsEntries) {
  // 24-byte slots: 2^17 of them (3 MiB) sit below the huge-page threshold
  // and 2^18 (6 MiB) above, so growth to 200000 entries rehashes from
  // operator-new storage into huge-page storage and then between two
  // huge-page tables.
  constexpr uint64_t kEntries = 200000;
  FlatHashMap<uint64_t> map;
  for (uint64_t k = 0; k < kEntries; ++k) {
    map.Insert(k * 0x9e3779b97f4a7c15ULL, k);
  }
  EXPECT_GE(map.growth_rehashes(), 2u);
  ASSERT_EQ(map.size(), kEntries);
  for (uint64_t k = 0; k < kEntries; ++k) {
    const uint64_t* v = map.Find(k * 0x9e3779b97f4a7c15ULL);
    ASSERT_NE(v, nullptr) << k;
    ASSERT_EQ(*v, k);
  }

  // The other direction: a huge-page table hands its storage to a small
  // one and takes the small one's, and each is freed by the path that
  // allocated it.
  FlatHashMap<uint64_t> small;
  small.Insert(1, 11);
  std::swap(map, small);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(1), 11u);
  ASSERT_EQ(small.size(), kEntries);
  EXPECT_EQ(*small.Find((kEntries - 1) * 0x9e3779b97f4a7c15ULL), kEntries - 1);
  small = FlatHashMap<uint64_t>();
  EXPECT_TRUE(small.empty());
  map.Reserve(kEntries);  // small -> huge again, keeping the entry
  EXPECT_EQ(*map.Find(1), 11u);
  EXPECT_EQ(map.growth_rehashes(), 0u);
}

}  // namespace
}  // namespace flashsim
