// Protocol test net for the coherence layer (src/consistency/coherence.h):
// N hosts with real cache stacks, network links, and a shared filer, driven
// through randomized multi-host interleavings with per-step invariant
// checks:
//
//   - single-dirty-holder: a write leaves the writer as the block's only
//     holder (every protocol invalidates all stale copies);
//   - no stale-dirty read: under the modeled protocols (directory, lease) a
//     read never proceeds while another host holds the block Dirty —
//     BeforeRead must have reconciled (recalled + flushed + dropped) it;
//   - sharing-state agreement: StateOf(key), derived from the directory's
//     holder set plus the transport's dirty probe, matches the state
//     recomputed longhand from the stacks' own residency;
//   - lease expiry monotone in sim time: a (host, key) lease entry never
//     moves backwards;
//   - sim time itself is monotone through every protocol call.
//
// Run across all protocols x all three cache stacks x seeds.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/arch/stack_factory.h"
#include "src/backend/storage_backend.h"
#include "src/consistency/coherence.h"
#include "src/consistency/directory.h"
#include "src/device/background_writer.h"
#include "src/device/flash_device.h"
#include "src/device/network_link.h"
#include "src/device/ram_device.h"
#include "src/device/timing.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

constexpr int kHosts = 4;
constexpr uint64_t kKeySpace = 192;

class NetBridge : public ResidencyListener {
 public:
  NetBridge(Directory& directory, int host) : directory_(&directory), host_(host) {}
  void OnCached(BlockKey key) override { directory_->NoteCached(host_, key); }
  void OnDropped(BlockKey key) override { directory_->NoteDropped(host_, key); }

 private:
  Directory* directory_;
  int host_;
};

struct NetHost {
  NetHost(Architecture arch, const TimingModel& timing, EventQueue& queue,
          StorageBackend& backend, Directory& directory, int host_id)
      : ram_dev(timing),
        flash_dev(timing),
        link(timing, 4096, queue.clock()),
        remote(link, backend),
        writer(queue, remote, &flash_dev, timing.writeback_window),
        bridge(directory, host_id) {
    StackConfig config;
    config.ram_blocks = 24;
    config.flash_blocks = 96;
    // RAM never writes back on its own: dirty blocks linger, so read misses
    // on other hosts exercise the Dirty-reconciliation path constantly.
    config.ram_policy = WritebackPolicy::kNone;
    config.flash_policy = WritebackPolicy::kAsync;
    stack = MakeCacheStack(arch, config, ram_dev, flash_dev, remote, writer);
    stack->set_residency_listener(&bridge);
  }

  RamDevice ram_dev;
  FlashDevice flash_dev;
  NetworkLink link;
  StorageService remote;
  BackgroundWriter writer;
  NetBridge bridge;
  std::unique_ptr<CacheStack> stack;
};

// The test net's CoherenceTransport: host links on the message path, the
// shared filer's server pool for directory service, stack invalidation for
// copy drops.
class NetFabric : public CoherenceTransport {
 public:
  NetFabric(std::vector<std::unique_ptr<NetHost>>& hosts, StorageBackend& backend)
      : hosts_(&hosts), backend_(&backend) {}

  SimTime HostToFiler(int host, SimTime now, bool carries_data) override {
    return (*hosts_)[static_cast<size_t>(host)]->link.SendToFiler(now, carries_data);
  }
  SimTime FilerToHost(int host, SimTime now, bool carries_data) override {
    return (*hosts_)[static_cast<size_t>(host)]->link.SendToHost(now, carries_data);
  }
  SimTime FilerService(BlockKey key, SimTime arrival, SimDuration service) override {
    return backend_->shard(backend_->ShardOf(key)).ServeControl(arrival, service);
  }
  void DropCopy(int host, BlockKey key) override {
    (*hosts_)[static_cast<size_t>(host)]->stack->Invalidate(key);
  }
  bool HoldsCopy(int host, BlockKey key) const override {
    return (*hosts_)[static_cast<size_t>(host)]->stack->Holds(key);
  }
  bool HoldsDirty(int host, BlockKey key) const override {
    return (*hosts_)[static_cast<size_t>(host)]->stack->HoldsDirty(key);
  }

 private:
  std::vector<std::unique_ptr<NetHost>>* hosts_;
  StorageBackend* backend_;
};

struct TestNet {
  TestNet(Architecture arch, CoherenceModel model, uint64_t seed)
      : timing(MakeTiming()), backend(timing, /*num_shards=*/1, seed), directory(kHosts) {
    for (int h = 0; h < kHosts; ++h) {
      hosts.push_back(std::make_unique<NetHost>(arch, timing, queue, backend, directory, h));
    }
    fabric = std::make_unique<NetFabric>(hosts, backend);
    CoherenceParams params;
    params.model = model;
    params.num_hosts = kHosts;
    params.directory_service_ns = timing.coherence_ctrl_ns;
    params.flush_service_ns = timing.filer_write_ns;
    params.lease_ns = timing.lease_ns;
    protocol = MakeCoherenceProtocol(params, &directory, fabric.get());
  }

  static TimingModel MakeTiming() {
    TimingModel timing;
    timing.filer_fast_read_rate = 1.0;  // deterministic
    timing.lease_ns = kMillisecond;     // leases expire within the run
    return timing;
  }

  // The longhand sharing state, recomputed from the stacks themselves (the
  // protocol derives it from the directory + transport instead).
  SharingState StateFromStacks(BlockKey key) const {
    int holders = 0;
    bool dirty = false;
    for (const auto& host : hosts) {
      if (host->stack->Holds(key)) {
        ++holders;
        dirty = dirty || host->stack->HoldsDirty(key);
      }
    }
    if (holders == 0) {
      return SharingState::kInvalid;
    }
    if (dirty) {
      return SharingState::kDirty;
    }
    return holders == 1 ? SharingState::kExclusive : SharingState::kShared;
  }

  // Devices keep references into the timing model; it must outlive them.
  TimingModel timing;
  EventQueue queue;
  StorageBackend backend;
  Directory directory;
  std::vector<std::unique_ptr<NetHost>> hosts;
  std::unique_ptr<NetFabric> fabric;
  std::unique_ptr<CoherenceProtocol> protocol;
};

void RunInterleaving(Architecture arch, CoherenceModel model, uint64_t seed,
                     uint64_t num_ops) {
  TestNet net(arch, model, seed);
  Rng rng(Mix64(seed ^ 0x1ea5e5ULL));
  const bool modeled = model != CoherenceModel::kPerfect;
  // Last observed lease expiry per (host, key); entries must never move
  // backwards while both observations exist.
  std::map<std::pair<int, BlockKey>, SimTime> last_expiry;

  SimTime now = 0;
  for (uint64_t i = 0; i < num_ops; ++i) {
    const int host = static_cast<int>(rng.NextBounded(kHosts));
    const BlockKey key = MakeBlockKey(0, rng.NextBounded(kKeySpace));
    CacheStack& stack = *net.hosts[static_cast<size_t>(host)]->stack;
    const bool is_write = rng.NextBounded(100) < 40;

    if (is_write) {
      SimTime t = stack.Write(now, key);
      ASSERT_GE(t, now);
      t = net.protocol->OnWrite(host, key, t, /*measured=*/true);
      ASSERT_GE(t, now);
      now = t;
      // Single-dirty-holder: every protocol invalidates all stale copies,
      // so the writer ends up the block's only holder, holding it Dirty.
      for (int other = 0; other < kHosts; ++other) {
        if (other != host) {
          ASSERT_FALSE(net.hosts[static_cast<size_t>(other)]->stack->Holds(key))
              << "op " << i << ": host " << other << " kept a stale copy of " << key;
        }
      }
      ASSERT_TRUE(stack.Holds(key)) << "op " << i;
      // Sole holder: Dirty, or already Exclusive-clean when the medium's
      // writeback policy enqueued the block on the spot (e.g. async).
      const SharingState state = net.protocol->StateOf(key);
      ASSERT_TRUE(state == SharingState::kDirty || state == SharingState::kExclusive)
          << "op " << i << ": " << SharingStateName(state);
    } else {
      const SimTime start = net.protocol->BeforeRead(host, key, now);
      ASSERT_GE(start, now);
      if (modeled) {
        // No stale-dirty read: BeforeRead must have recalled any remote
        // Dirty copy before the data fetch proceeds.
        for (int other = 0; other < kHosts; ++other) {
          if (other != host) {
            ASSERT_FALSE(net.hosts[static_cast<size_t>(other)]->stack->HoldsDirty(key))
                << "op " << i << ": read on host " << host << " proceeded while host "
                << other << " held " << key << " Dirty";
          }
        }
      }
      HitLevel level = HitLevel::kRam;
      const SimTime t = stack.Read(start, key, &level);
      ASSERT_GE(t, start);
      now = t;
    }

    // Sharing-state agreement on the touched key.
    ASSERT_EQ(net.protocol->StateOf(key), net.StateFromStacks(key)) << "op " << i;

    // Lease expiry monotonicity on the touched (host, key).
    if (model == CoherenceModel::kLease) {
      const std::optional<SimTime> expiry = net.protocol->LeaseExpiry(host, key);
      if (expiry.has_value()) {
        const auto it = last_expiry.find({host, key});
        if (it != last_expiry.end()) {
          ASSERT_GE(*expiry, it->second)
              << "op " << i << ": lease on host " << host << " key " << key
              << " moved backwards";
        }
        last_expiry[{host, key}] = *expiry;
      }
    }

    net.queue.RunUntil(now);
  }
  net.queue.RunToCompletion();

  // The modeled protocols must actually have generated traffic under this
  // much sharing; perfect must have stayed silent.
  const CoherenceCounters totals = net.protocol->totals();
  if (modeled) {
    EXPECT_GT(totals.invalidation_messages, 0u);
    EXPECT_GT(totals.stalled_writes, 0u);
  } else {
    EXPECT_FALSE(totals.any());
  }
  if (model == CoherenceModel::kLease) {
    EXPECT_GT(totals.lease_grants, 0u);
    EXPECT_GT(totals.lease_breaks, 0u);
  }
  if (model == CoherenceModel::kDirectory) {
    EXPECT_GT(totals.acks, 0u);
    EXPECT_GT(totals.dirty_fetches, 0u);
  }
}

class CoherenceProtocolNet
    : public ::testing::TestWithParam<std::tuple<Architecture, CoherenceModel>> {};

TEST_P(CoherenceProtocolNet, RandomInterleavingsKeepInvariants) {
  const auto [arch, model] = GetParam();
  for (uint64_t seed : {1u, 7u}) {
    RunInterleaving(arch, model, seed, 4000);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllStacks, CoherenceProtocolNet,
    ::testing::Combine(::testing::Values(Architecture::kNaive, Architecture::kLookaside,
                                         Architecture::kUnified),
                       ::testing::Values(CoherenceModel::kPerfect, CoherenceModel::kDirectory,
                                         CoherenceModel::kLease)),
    [](const ::testing::TestParamInfo<std::tuple<Architecture, CoherenceModel>>& named) {
      return std::string(ArchitectureName(std::get<0>(named.param))) + "_" +
             CoherenceModelName(std::get<1>(named.param));
    });

// The sharing-state machine on a hand-driven script: Invalid -> Exclusive
// (first read) -> Shared (second reader) -> Dirty + sole holder (write) ->
// reconciled back to Shared when another host reads.
TEST(CoherenceStateMachine, FollowsMesiTransitions) {
  for (CoherenceModel model : {CoherenceModel::kDirectory, CoherenceModel::kLease}) {
    TestNet net(Architecture::kUnified, model, 3);
    const BlockKey key = MakeBlockKey(0, 5);
    CoherenceProtocol& protocol = *net.protocol;
    EXPECT_EQ(protocol.StateOf(key), SharingState::kInvalid);

    SimTime now = 0;
    HitLevel level = HitLevel::kRam;
    now = net.hosts[0]->stack->Read(protocol.BeforeRead(0, key, now), key, &level);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kExclusive);

    now = net.hosts[1]->stack->Read(protocol.BeforeRead(1, key, now), key, &level);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kShared);

    now = net.hosts[1]->stack->Write(now, key);
    now = protocol.OnWrite(1, key, now, /*measured=*/true);
    EXPECT_EQ(protocol.StateOf(key), SharingState::kDirty);
    EXPECT_FALSE(net.hosts[0]->stack->Holds(key));

    // A remote read recalls the dirty copy: host 1 flushes and drops it,
    // leaving host 2 the sole (clean) holder.
    now = net.hosts[2]->stack->Read(protocol.BeforeRead(2, key, now), key, &level);
    EXPECT_FALSE(net.hosts[1]->stack->Holds(key));
    EXPECT_EQ(protocol.StateOf(key), SharingState::kExclusive);
    EXPECT_GT(protocol.totals().dirty_fetches, 0u);
  }
}

}  // namespace
}  // namespace flashsim
