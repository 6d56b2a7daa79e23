#include "src/cache/lru_cache.h"

#include "src/cache/replacement.h"

namespace flashsim {

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kClock:
      return "clock";
    case ReplacementPolicy::kSlru:
      return "slru";
    case ReplacementPolicy::kLruK:
      return "lruk";
  }
  return "?";
}

std::optional<ReplacementPolicy> ParseReplacementPolicy(const std::string& name) {
  for (ReplacementPolicy policy : kAllReplacementPolicies) {
    if (name == ReplacementPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

LruBlockCache::LruBlockCache(std::string name, uint64_t ram_slots, uint64_t flash_slots,
                             ReplacementPolicy replacement)
    : name_(std::move(name)), ram_slots_(ram_slots), replacement_(replacement) {
  const uint64_t total = ram_slots + flash_slots;
  FLASHSIM_CHECK(total <= kInvalidSlot - 1);
  slots_.resize(total);
  index_.Reserve(static_cast<size_t>(total));
  policy_ = MakeEvictionPolicy(replacement, this);
}

LruBlockCache::~LruBlockCache() = default;

uint32_t LruBlockCache::Lookup(BlockKey key) const {
  const uint32_t* slot = index_.Find(key);
  return slot == nullptr ? kInvalidSlot : *slot;
}

void LruBlockCache::LruUnlink(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kInvalidSlot) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kInvalidSlot) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
  s.prev = kInvalidSlot;
  s.next = kInvalidSlot;
}

void LruBlockCache::LruPushFront(uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kInvalidSlot;
  s.next = lru_head_;
  if (lru_head_ != kInvalidSlot) {
    slots_[lru_head_].prev = slot;
  }
  lru_head_ = slot;
  if (lru_tail_ == kInvalidSlot) {
    lru_tail_ = slot;
  }
}

void LruBlockCache::DirtyUnlink(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t m = static_cast<size_t>(medium_of(slot));
  if (s.dirty_prev != kInvalidSlot) {
    slots_[s.dirty_prev].dirty_next = s.dirty_next;
  } else {
    dirty_head_[m] = s.dirty_next;
  }
  if (s.dirty_next != kInvalidSlot) {
    slots_[s.dirty_next].dirty_prev = s.dirty_prev;
  } else {
    dirty_tail_[m] = s.dirty_prev;
  }
  s.dirty_prev = kInvalidSlot;
  s.dirty_next = kInvalidSlot;
}

void LruBlockCache::DirtyPushBack(uint32_t slot) {
  Slot& s = slots_[slot];
  const size_t m = static_cast<size_t>(medium_of(slot));
  s.dirty_next = kInvalidSlot;
  s.dirty_prev = dirty_tail_[m];
  if (dirty_tail_[m] != kInvalidSlot) {
    slots_[dirty_tail_[m]].dirty_next = slot;
  }
  dirty_tail_[m] = slot;
  if (dirty_head_[m] == kInvalidSlot) {
    dirty_head_[m] = slot;
  }
}

void LruBlockCache::Touch(uint32_t slot) {
  FLASHSIM_DCHECK(slot < slots_.size() && slots_[slot].in_use);
  if (replacement_ == ReplacementPolicy::kLru) {
    // Devirtualized exact-LRU hit: Touch runs on every cache hit, so the
    // default policy skips the plugin indirection. Must stay move-for-move
    // identical to LruPolicy::OnHit (DESIGN.md §14); the golden digests pin
    // the equivalence.
    if (lru_head_ != slot) {
      LruUnlink(slot);
      LruPushFront(slot);
    }
    return;
  }
  policy_->OnHit(slot);
}

void LruBlockCache::ChainPushBack(uint32_t slot) {
  Slot& s = slots_[slot];
  s.next = kInvalidSlot;
  s.prev = lru_tail_;
  if (lru_tail_ != kInvalidSlot) {
    slots_[lru_tail_].next = slot;
  } else {
    lru_head_ = slot;
  }
  lru_tail_ = slot;
}

void LruBlockCache::ChainInsertBefore(uint32_t slot, uint32_t before) {
  FLASHSIM_DCHECK(before != kInvalidSlot);
  Slot& s = slots_[slot];
  Slot& b = slots_[before];
  s.next = before;
  s.prev = b.prev;
  if (b.prev != kInvalidSlot) {
    slots_[b.prev].next = slot;
  } else {
    lru_head_ = slot;
  }
  b.prev = slot;
}

uint32_t LruBlockCache::Insert(BlockKey key, bool dirty, std::optional<EvictedBlock>* evicted,
                               SimTime now) {
  if (evicted != nullptr) {
    evicted->reset();
  }
  if (slots_.empty()) {
    return kInvalidSlot;
  }
  FLASHSIM_DCHECK(Lookup(key) == kInvalidSlot);

  uint32_t slot;
  if (!free_slots_.empty()) {
    // Reuse a slot freed by Remove (invalidations).
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (next_unused_ < slots_.size()) {
    slot = next_unused_++;
  } else {
    // Full: evict per the replacement policy and reuse the buffer.
    slot = policy_->SelectVictim();
    Slot& victim = slots_[slot];
    ++evictions_;
    if (victim.dirty) {
      ++dirty_evictions_;
    }
    if (evicted != nullptr) {
      *evicted = EvictedBlock{victim.key, medium_of(slot), victim.dirty};
    }
    if (victim.dirty) {
      DirtyUnlink(slot);
      victim.dirty = false;
      --dirty_count_;
      --dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
    }
    policy_->OnRemove(slot);  // while still linked: policies may read neighbors
    index_.Erase(victim.key);
    LruUnlink(slot);
    victim.in_use = false;
    --size_;
  }

  Slot& s = slots_[slot];
  s.key = key;
  s.in_use = true;
  s.dirty = false;
  s.referenced = false;
  ++size_;
  ++inserts_;
  index_.Insert(key, slot);
  LruPushFront(slot);
  policy_->OnInsert(slot);
  if (dirty) {
    MarkDirty(slot, now);
  }
  return slot;
}

bool LruBlockCache::Remove(BlockKey key, EvictedBlock* removed) {
  const uint32_t slot = Lookup(key);
  if (slot == kInvalidSlot) {
    return false;
  }
  Slot& s = slots_[slot];
  if (removed != nullptr) {
    *removed = EvictedBlock{s.key, medium_of(slot), s.dirty};
  }
  if (s.dirty) {
    DirtyUnlink(slot);
    s.dirty = false;
    --dirty_count_;
    --dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
  }
  policy_->OnRemove(slot);  // while still linked: policies may read neighbors
  index_.Erase(key);
  LruUnlink(slot);
  s.in_use = false;
  --size_;
  free_slots_.push_back(slot);
  return true;
}

void LruBlockCache::MarkDirty(uint32_t slot, SimTime now) {
  FLASHSIM_DCHECK(slot < slots_.size() && slots_[slot].in_use);
  Slot& s = slots_[slot];
  if (s.dirty) {
    return;
  }
  s.dirty = true;
  s.dirtied_at = now;
  ++dirty_count_;
  ++dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
  DirtyPushBack(slot);
}

void LruBlockCache::MarkClean(uint32_t slot) {
  FLASHSIM_DCHECK(slot < slots_.size() && slots_[slot].in_use);
  Slot& s = slots_[slot];
  if (!s.dirty) {
    return;
  }
  s.dirty = false;
  --dirty_count_;
  --dirty_count_by_medium_[static_cast<size_t>(medium_of(slot))];
  DirtyUnlink(slot);
}

void LruBlockCache::CheckInvariants() const {
  uint64_t counted = 0;
  uint32_t prev = kInvalidSlot;
  for (uint32_t slot = lru_head_; slot != kInvalidSlot; slot = slots_[slot].next) {
    FLASHSIM_CHECK(slots_[slot].in_use);
    FLASHSIM_CHECK(slots_[slot].prev == prev);
    const uint32_t* indexed = index_.Find(slots_[slot].key);
    FLASHSIM_CHECK(indexed != nullptr && *indexed == slot);
    prev = slot;
    ++counted;
    FLASHSIM_CHECK(counted <= size_);
  }
  FLASHSIM_CHECK(counted == size_);
  FLASHSIM_CHECK(lru_tail_ == prev);
  FLASHSIM_CHECK(index_.size() == size_);

  uint64_t dirty_counted = 0;
  for (size_t m = 0; m < 2; ++m) {
    uint64_t medium_counted = 0;
    uint32_t dprev = kInvalidSlot;
    for (uint32_t slot = dirty_head_[m]; slot != kInvalidSlot;
         slot = slots_[slot].dirty_next) {
      FLASHSIM_CHECK(slots_[slot].in_use && slots_[slot].dirty);
      FLASHSIM_CHECK(static_cast<size_t>(medium_of(slot)) == m);
      FLASHSIM_CHECK(slots_[slot].dirty_prev == dprev);
      dprev = slot;
      ++medium_counted;
      FLASHSIM_CHECK(medium_counted <= dirty_count_by_medium_[m]);
    }
    FLASHSIM_CHECK(medium_counted == dirty_count_by_medium_[m]);
    FLASHSIM_CHECK(dirty_tail_[m] == dprev);
    dirty_counted += medium_counted;
  }
  FLASHSIM_CHECK(dirty_counted == dirty_count_);
  policy_->CheckInvariants();
}

}  // namespace flashsim
