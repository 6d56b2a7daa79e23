// Open-addressing hash map from uint64_t keys to small mapped types.
//
// The cache index is the hottest data structure in the simulator (every
// block access probes up to three of them). std::unordered_map's chained
// nodes cost a pointer chase per probe; this flat linear-probing table with
// tombstone-free backward-shift deletion is ~4x faster in the access loop
// and keeps memory proportional to live entries.
#ifndef FLASHSIM_SRC_UTIL_FLAT_HASH_H_
#define FLASHSIM_SRC_UTIL_FLAT_HASH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/assert.h"
#include "src/util/huge_alloc.h"
#include "src/util/rng.h"

namespace flashsim {

// Maps uint64_t -> V. V must be default-constructible and cheap to move.
// Not thread-safe; the simulator is single-threaded by design.
template <typename V>
class FlatHashMap {
 public:
  FlatHashMap() { Rehash(kInitialCapacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(size_t n) {
    size_t needed = NextPow2(n * 8 / kMaxLoadNumerator + 1);
    if (needed > slots_.size()) {
      Rehash(needed);
    }
  }

  // Returns a pointer to the mapped value, or nullptr if absent.
  V* Find(uint64_t key) {
    size_t i = Hash(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        return nullptr;
      }
      if (s.key == key) {
        return &s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  const V* Find(uint64_t key) const {
    return const_cast<FlatHashMap*>(this)->Find(key);
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  // Number of load-triggered rehashes since construction (Reserve and the
  // initial sizing do not count). A nonzero value on a pre-sized table
  // means the Reserve bound was wrong — surfaced via Metrics so capacity
  // regressions are visible.
  uint64_t growth_rehashes() const { return growth_rehashes_; }

  // Inserts or overwrites; returns a reference to the mapped value.
  V& Insert(uint64_t key, V value) {
    MaybeGrow();
    size_t i = Hash(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        s.value = std::move(value);
        ++size_;
        return s.value;
      }
      if (s.key == key) {
        s.value = std::move(value);
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  // Finds key, default-constructing the entry if absent.
  V& operator[](uint64_t key) {
    MaybeGrow();
    size_t i = Hash(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        s.value = V();
        ++size_;
        return s.value;
      }
      if (s.key == key) {
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  // Removes key if present; returns whether it was present. Uses backward
  // shifting so no tombstones accumulate.
  bool Erase(uint64_t key) {
    size_t i = Hash(key) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        return false;
      }
      if (s.key == key) {
        break;
      }
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull displaced followers into the hole.
    size_t hole = i;
    size_t j = (i + 1) & mask_;
    for (;;) {
      Slot& s = slots_[j];
      if (!s.used) {
        break;
      }
      const size_t home = Hash(s.key) & mask_;
      // s may move into the hole only if the hole lies within its probe path.
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        slots_[hole] = std::move(s);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole].used = false;
    slots_[hole].value = V();
    --size_;
    return true;
  }

  void Clear() {
    for (Slot& s : slots_) {
      s.used = false;
      s.value = V();
    }
    size_ = 0;
  }

  // Calls fn(key, value&) for every live entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static constexpr size_t kInitialCapacity = 16;
  static constexpr size_t kMaxLoadNumerator = 7;  // grow above 7/8 load

  static size_t Hash(uint64_t key) { return static_cast<size_t>(Mix64(key)); }

  static size_t NextPow2(size_t n) {
    size_t p = kInitialCapacity;
    while (p < n) {
      p <<= 1;
    }
    return p;
  }

  void MaybeGrow() {
    if ((size_ + 1) * 8 >= slots_.size() * kMaxLoadNumerator) {
      ++growth_rehashes_;
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    FLASHSIM_CHECK((new_capacity & (new_capacity - 1)) == 0);
    SlotVector old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) {
        Insert(s.key, std::move(s.value));
      }
    }
  }

  // Large tables get huge-page backing (src/util/huge_alloc.h): the cache
  // index and directory are probed at random offsets on every access.
  using SlotVector = std::vector<Slot, HugePageAllocator<Slot>>;

  SlotVector slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  uint64_t growth_rehashes_ = 0;
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_FLAT_HASH_H_
