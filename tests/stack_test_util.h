// Shared harness for cache-stack unit tests: one host's devices, link,
// filer, and background writer around a stack under test, with Table 1
// timings made deterministic (filer reads always fast).
//
// Handy hand-computed path times (Table 1, 4 KB blocks):
//   RAM access                     400 ns
//   flash read / write             88000 / 21000 ns
//   small packet                   8200 ns
//   data packet                    8200 + 32768 = 40968 ns
//   remote fast read  8200 + 92000 + 40968 = 141168 ns
//   remote write     40968 + 92000 + 8200  = 141168 ns
#ifndef FLASHSIM_TESTS_STACK_TEST_UTIL_H_
#define FLASHSIM_TESTS_STACK_TEST_UTIL_H_

#include <memory>

#include "src/arch/stack_factory.h"
#include "src/arch/subset_stack.h"
#include "src/arch/unified_stack.h"
#include "src/backend/storage_backend.h"
#include "src/device/background_writer.h"
#include "src/sim/event_queue.h"

namespace flashsim {

constexpr SimDuration kRam = 400;
constexpr SimDuration kFlashRead = 88000;
constexpr SimDuration kFlashWrite = 21000;
constexpr SimDuration kRemoteRead = 141168;   // fast
constexpr SimDuration kRemoteWrite = 141168;

class StackHarness {
 public:
  // The harness is policy-agnostic: any registered replacement policy (and,
  // for lookaside/unified, any admission policy) builds the same way. Tests
  // that exercise the zoo pass the extra arguments; LRU-only tests keep the
  // short signature.
  StackHarness(Architecture arch, uint64_t ram_blocks, uint64_t flash_blocks,
               WritebackPolicy ram_policy, WritebackPolicy flash_policy,
               ReplacementPolicy replacement = ReplacementPolicy::kLru,
               AdmissionPolicy admission = AdmissionPolicy::kAll) {
    timing_.filer_fast_read_rate = 1.0;  // deterministic reads
    link_ = std::make_unique<NetworkLink>(timing_, 4096, queue_.clock());
    backend_ = std::make_unique<StorageBackend>(timing_, /*num_shards=*/1, /*base_seed=*/7);
    remote_ = std::make_unique<StorageService>(*link_, *backend_);
    ram_dev_ = std::make_unique<RamDevice>(timing_);
    flash_dev_ = std::make_unique<FlashDevice>(timing_);
    writer_ = std::make_unique<BackgroundWriter>(queue_, *remote_, flash_dev_.get(), 1);
    StackConfig config;
    config.ram_blocks = ram_blocks;
    config.flash_blocks = flash_blocks;
    config.ram_policy = ram_policy;
    config.flash_policy = flash_policy;
    config.replacement = replacement;
    config.admission = admission;
    stack_ = MakeCacheStack(arch, config, *ram_dev_, *flash_dev_, *remote_, *writer_);
  }

  CacheStack& stack() { return *stack_; }
  Filer& filer() { return backend_->shard(0); }
  FlashDevice& flash_dev() { return *flash_dev_; }
  BackgroundWriter& writer() { return *writer_; }
  EventQueue& queue() { return queue_; }
  TimingModel& timing() { return timing_; }

  // Convenience wrappers.
  SimTime Read(SimTime now, BlockKey key, HitLevel* level = nullptr) {
    HitLevel scratch;
    return stack_->Read(now, key, level != nullptr ? level : &scratch);
  }
  SimTime Write(SimTime now, BlockKey key) { return stack_->Write(now, key); }

  // Pre-loads `key` as a clean resident block (read it once).
  SimTime Load(SimTime now, BlockKey key) { return Read(now, key); }

 private:
  TimingModel timing_;
  EventQueue queue_;
  std::unique_ptr<NetworkLink> link_;
  std::unique_ptr<StorageBackend> backend_;
  std::unique_ptr<StorageService> remote_;
  std::unique_ptr<RamDevice> ram_dev_;
  std::unique_ptr<FlashDevice> flash_dev_;
  std::unique_ptr<BackgroundWriter> writer_;
  std::unique_ptr<CacheStack> stack_;
};

}  // namespace flashsim

#endif  // FLASHSIM_TESTS_STACK_TEST_UTIL_H_
