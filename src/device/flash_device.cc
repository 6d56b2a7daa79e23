#include "src/device/flash_device.h"

#include <cmath>

#include "src/util/distributions.h"

namespace flashsim {

SimDuration FlashDevice::ApplyNoise(SimDuration service) {
  if (noise_sigma_ <= 0.0) {
    return service;
  }
  Rng draw(FlashDrawSeed(stream_seed_, draw_counter_++));
  const double z = SampleStandardNormal(draw);
  // Mean-one lognormal: variance without shifting the average (ssd_profile
  // uses the same shape for the §6.2 validation model).
  const double factor = std::exp(noise_sigma_ * z - 0.5 * noise_sigma_ * noise_sigma_);
  return static_cast<SimDuration>(static_cast<double>(service) * factor);
}

void FlashDevice::EnableFtl(uint64_t logical_pages, FtlParams ftl_params,
                            const FtlDeviceTimings& timings) {
  FLASHSIM_CHECK(ftl_ == nullptr);
  FLASHSIM_CHECK(logical_pages > 0);
  ftl_params.logical_pages = logical_pages;
  ftl_ = std::make_unique<Ftl>(ftl_params);
  ftl_timings_ = timings;
  free_lpns_.reserve(logical_pages);
  for (uint64_t lpn = logical_pages; lpn > 0; --lpn) {
    free_lpns_.push_back(lpn - 1);
  }
  key_to_lpn_.Reserve(logical_pages);
}

SimDuration FlashDevice::ServiceTime(const FtlCost& cost) const {
  return static_cast<SimDuration>(cost.page_reads) * ftl_timings_.page_read_ns +
         static_cast<SimDuration>(cost.page_programs) * ftl_timings_.page_program_ns +
         static_cast<SimDuration>(cost.block_erases) * ftl_timings_.block_erase_ns;
}

uint64_t FlashDevice::LpnForWrite(BlockKey key) {
  if (const uint64_t* lpn = key_to_lpn_.Find(key); lpn != nullptr) {
    return *lpn;
  }
  if (free_lpns_.empty()) {
    // The cache wrote more distinct keys than it trimmed (always the case
    // when TRIM is disabled; otherwise e.g. a lookaside refresh completing
    // after the block's eviction). Reassign the oldest mapping — a
    // non-trimming cache overwrites the logical page in place, and the
    // FTL's out-of-place write invalidates the old version itself.
    while (!allocation_order_.empty()) {
      const BlockKey victim = allocation_order_.front();
      allocation_order_.pop_front();
      if (const uint64_t* lpn = key_to_lpn_.Find(victim); lpn != nullptr) {
        const uint64_t freed = *lpn;
        key_to_lpn_.Erase(victim);
        free_lpns_.push_back(freed);
        break;
      }
    }
    FLASHSIM_CHECK(!free_lpns_.empty());
  }
  const uint64_t lpn = free_lpns_.back();
  free_lpns_.pop_back();
  key_to_lpn_.Insert(key, lpn);
  allocation_order_.push_back(key);
  return lpn;
}

SimTime FlashDevice::Read(SimTime now, BlockKey key) {
  SimDuration service;
  if (ftl_ == nullptr) {
    service = timing_->flash_read_ns;
  } else {
    const uint64_t* lpn = key_to_lpn_.Find(key);
    // Reads of never-written keys (fills racing evictions) still touch NAND.
    service = ServiceTime(ftl_->Read(lpn != nullptr ? *lpn : 0));
  }
  service = ApplyNoise(service);
  const SimTime done = resource_.Acquire(now, service);
  if (read_probe_ != nullptr) {
    read_probe_->Record(now, done - service, done);
  }
  return done;
}

SimTime FlashDevice::Write(SimTime now, BlockKey key) {
  SimDuration service;
  if (ftl_ == nullptr) {
    service = timing_->EffectiveFlashWrite();
  } else {
    service = ServiceTime(ftl_->Write(LpnForWrite(key)));
    if (timing_->persistent_flash) {
      // Persistence doubles the cache-update cost with a metadata program.
      service += ftl_timings_.page_program_ns;
    }
  }
  service = ApplyNoise(service);
  const SimTime done = resource_.Acquire(now, service);
  if (write_probe_ != nullptr) {
    write_probe_->Record(now, done - service, done);
  }
  return done;
}

void FlashDevice::Trim(BlockKey key) {
  if (ftl_ == nullptr || !timing_->ftl_trim_enabled) {
    return;
  }
  if (const uint64_t* lpn = key_to_lpn_.Find(key); lpn != nullptr) {
    ftl_->Trim(*lpn);
    free_lpns_.push_back(*lpn);
    key_to_lpn_.Erase(key);
  }
}

}  // namespace flashsim
