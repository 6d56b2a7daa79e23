// Background write-through daemon under load: FIFO draining, window
// semantics, interleaving fairness with foreground reads.
#include <gtest/gtest.h>

#include "src/backend/storage_backend.h"
#include "src/device/background_writer.h"
#include "src/device/network_link.h"
#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace flashsim {
namespace {

struct WriterRig {
  explicit WriterRig(int window) {
    timing.filer_fast_read_rate = 1.0;
    link = std::make_unique<NetworkLink>(timing, 4096, queue.clock());
    backend = std::make_unique<StorageBackend>(timing, /*num_shards=*/1, /*base_seed=*/3);
    remote = std::make_unique<StorageService>(*link, *backend);
    writer = std::make_unique<BackgroundWriter>(queue, *remote, nullptr, window);
  }
  TimingModel timing;
  EventQueue queue;
  std::unique_ptr<NetworkLink> link;
  std::unique_ptr<StorageBackend> backend;
  std::unique_ptr<StorageService> remote;
  std::unique_ptr<BackgroundWriter> writer;
};

constexpr SimDuration kRoundTrip = 40968 + 92000 + 8200;  // write RTT

// Foreground stand-in: an event with code kEnqueue and arg n enqueues n
// filer writes at its fire time; kRead issues one remote read.
class Foreground : public EventHandler {
 public:
  static constexpr uint32_t kEnqueue = 0;
  static constexpr uint32_t kRead = 1;

  explicit Foreground(WriterRig* rig) : rig_(rig) {}

  void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override {
    if (code == kRead) {
      bool fast = false;
      read_done = rig_->remote->Read(now, /*key=*/0, &fast);
      return;
    }
    for (uint64_t i = 0; i < arg; ++i) {
      rig_->writer->EnqueueFilerWrite(now, false);
    }
  }

  SimTime read_done = 0;

 private:
  WriterRig* rig_;
};

TEST(BackgroundWriter, BurstDrainsAtOnePerRoundTrip) {
  WriterRig rig(1);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    rig.writer->EnqueueFilerWrite(0, false);
  }
  EXPECT_EQ(rig.writer->max_pending(), static_cast<uint64_t>(n));
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->completed(), static_cast<uint64_t>(n));
  EXPECT_EQ(rig.queue.Now(), n * kRoundTrip);
}

TEST(BackgroundWriter, StaggeredEnqueuesKeepPendingBounded) {
  WriterRig rig(1);
  Foreground foreground(&rig);
  // Enqueue slower than the drain rate: pending never exceeds 2.
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    rig.queue.ScheduleEvent(t, &foreground, Foreground::kEnqueue, 1);
    t += 2 * kRoundTrip;
  }
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->completed(), 50u);
  EXPECT_LE(rig.writer->max_pending(), 2u);
}

TEST(BackgroundWriter, ForegroundReadsInterleaveWithBacklog) {
  // With a deep write backlog draining one-at-a-time, a read issued later
  // still gets the link promptly: the writer leaves the link idle while it
  // waits for each ack, and the gap-aware link lets the read slip in.
  WriterRig rig(1);
  Foreground foreground(&rig);
  for (int i = 0; i < 50; ++i) {
    rig.writer->EnqueueFilerWrite(0, false);
  }
  rig.queue.ScheduleEvent(kRoundTrip / 2, &foreground, Foreground::kRead);
  rig.queue.RunToCompletion();
  // The read finishes in ~1-2 round trips, not after the 50-write backlog.
  EXPECT_GT(foreground.read_done, kRoundTrip / 2);
  EXPECT_LT(foreground.read_done, kRoundTrip * 4);
}

TEST(BackgroundWriter, WindowNStartsNWritesTogether) {
  for (int window : {2, 4, 8}) {
    WriterRig rig(window);
    for (int i = 0; i < window; ++i) {
      rig.writer->EnqueueFilerWrite(0, false);
    }
    rig.queue.RunToCompletion();
    // Data packets serialize on the link; filer work overlaps. The last
    // completion is window data packets + one filer write + one ack.
    EXPECT_EQ(rig.queue.Now(), window * 40968 + 92000 + 8200) << window;
  }
}

TEST(BackgroundWriter, CountsStayConsistentUnderRandomLoad) {
  WriterRig rig(3);
  Foreground foreground(&rig);
  Rng rng(5);
  uint64_t enqueued = 0;
  SimTime t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<SimTime>(rng.NextBounded(200000));
    const uint64_t burst = rng.NextBounded(4) + 1;
    rig.queue.ScheduleEvent(t, &foreground, Foreground::kEnqueue, burst);
    enqueued += burst;
  }
  rig.queue.RunToCompletion();
  EXPECT_EQ(rig.writer->enqueued(), enqueued);
  EXPECT_EQ(rig.writer->completed(), enqueued);
  EXPECT_EQ(rig.writer->pending(), 0u);
  EXPECT_EQ(rig.backend->writes(), enqueued);
}

TEST(BackgroundWriterDeathTest, RejectsZeroWindow) {
  WriterRig rig(1);
  EXPECT_DEATH(BackgroundWriter(rig.queue, *rig.remote, nullptr, 0), "CHECK failed");
}

}  // namespace
}  // namespace flashsim
