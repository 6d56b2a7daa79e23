#include "src/consistency/directory.h"

#include <algorithm>
#include <bit>

namespace flashsim {

uint64_t Directory::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const uint64_t slot = pool_.size() / words_;
  pool_.resize(pool_.size() + words_, 0);
  return slot;
}

void Directory::NoteCached(int host, BlockKey key) {
  FLASHSIM_DCHECK(host >= 0 && host < num_hosts_);
  if (words_ == 1) {
    holders_[key] |= (1ULL << host);
    return;
  }
  uint64_t& entry = holders_[key];
  if (entry == 0) {
    entry = AllocSlot() + 1;
  }
  SlotWords(entry - 1)[static_cast<size_t>(host) >> 6] |= (1ULL << (host & 63));
}

void Directory::NoteDropped(int host, BlockKey key) {
  FLASHSIM_DCHECK(host >= 0 && host < num_hosts_);
  uint64_t* entry = holders_.Find(key);
  if (entry == nullptr) {
    return;
  }
  if (words_ == 1) {
    *entry &= ~(1ULL << host);
    if (*entry == 0) {
      holders_.Erase(key);
    }
    return;
  }
  uint64_t* mask = SlotWords(*entry - 1);
  mask[static_cast<size_t>(host) >> 6] &= ~(1ULL << (host & 63));
  for (size_t w = 0; w < words_; ++w) {
    if (mask[w] != 0) {
      return;
    }
  }
  free_slots_.push_back(*entry - 1);
  holders_.Erase(key);
}

Directory::StaleSet Directory::OnBlockWrite(int host, BlockKey key, bool measured) {
  FLASHSIM_DCHECK(host >= 0 && host < num_hosts_);
  std::fill(stale_.begin(), stale_.end(), 0);
  int stale_count = 0;
  if (const uint64_t* entry = holders_.Find(key); entry != nullptr) {
    const uint64_t* mask = words_ == 1 ? entry : SlotWords(*entry - 1);
    std::copy(mask, mask + words_, stale_.begin());
    stale_[static_cast<size_t>(host) >> 6] &= ~(1ULL << (host & 63));
    for (size_t w = 0; w < words_; ++w) {
      stale_count += std::popcount(stale_[w]);
    }
  }
  if (measured) {
    ++measured_writes_;
    if (stale_count != 0) {
      ++invalidating_writes_;
      invalidations_ += static_cast<uint64_t>(stale_count);
    }
  }
  return StaleSet(stale_.data(), stale_count);
}

bool Directory::IsCachedBy(int host, BlockKey key) const {
  const uint64_t* entry = holders_.Find(key);
  if (entry == nullptr) {
    return false;
  }
  const uint64_t* mask = words_ == 1 ? entry : SlotWords(*entry - 1);
  return (mask[static_cast<size_t>(host) >> 6] & (1ULL << (host & 63))) != 0;
}

uint64_t Directory::holders(BlockKey key) const {
  FLASHSIM_CHECK(words_ == 1);
  const uint64_t* entry = holders_.Find(key);
  return entry == nullptr ? 0 : *entry;
}

int Directory::holder_count(BlockKey key) const {
  const uint64_t* entry = holders_.Find(key);
  if (entry == nullptr) {
    return 0;
  }
  const uint64_t* mask = words_ == 1 ? entry : SlotWords(*entry - 1);
  int count = 0;
  for (size_t w = 0; w < words_; ++w) {
    count += std::popcount(mask[w]);
  }
  return count;
}

}  // namespace flashsim
