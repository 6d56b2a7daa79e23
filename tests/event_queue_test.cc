#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace flashsim {
namespace {

struct Fired {
  SimTime now;
  uint32_t code;
  uint64_t arg;

  bool operator==(const Fired&) const = default;
};

// Records every (now, code, arg) it is handed, then runs the optional hook
// (which may schedule more events).
class RecordingHandler : public EventHandler {
 public:
  void HandleEvent(SimTime now, uint32_t code, uint64_t arg) override {
    fired.push_back(Fired{now, code, arg});
    if (hook) {
      hook(now, code, arg);
    }
  }

  std::vector<uint64_t> Args() const {
    std::vector<uint64_t> args;
    for (const Fired& f : fired) {
      args.push_back(f.arg);
    }
    return args;
  }

  std::vector<Fired> fired;
  std::function<void(SimTime, uint32_t, uint64_t)> hook;
};

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  RecordingHandler handler;
  queue.ScheduleEvent(30, &handler, 0, 3);
  queue.ScheduleEvent(10, &handler, 0, 1);
  queue.ScheduleEvent(20, &handler, 0, 2);
  queue.RunToCompletion();
  EXPECT_EQ(handler.Args(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue queue;
  RecordingHandler handler;
  for (uint64_t i = 0; i < 10; ++i) {
    queue.ScheduleEvent(5, &handler, 0, i);
  }
  queue.RunToCompletion();
  EXPECT_EQ(handler.Args(), (std::vector<uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, TypedEventsDispatchTimeCodeAndArg) {
  EventQueue queue;
  RecordingHandler handler;
  queue.ScheduleEvent(42, &handler, 7, 0xdeadbeefULL);
  queue.RunToCompletion();
  EXPECT_EQ(handler.fired, (std::vector<Fired>{{42, 7, 0xdeadbeefULL}}));
  EXPECT_EQ(queue.Now(), 42);
  EXPECT_EQ(queue.events_processed(), 1u);
}

TEST(EventQueue, HandlersCanScheduleMore) {
  EventQueue queue;
  RecordingHandler handler;
  handler.hook = [&](SimTime now, uint32_t code, uint64_t arg) {
    if (arg < 4) {
      queue.ScheduleEvent(now + 10, &handler, code, arg + 1);
    }
  };
  queue.ScheduleEvent(0, &handler, 0, 0);
  const SimTime end = queue.RunToCompletion();
  EXPECT_EQ(handler.fired.size(), 5u);
  EXPECT_EQ(end, 40);
}

TEST(EventQueue, ScheduleEventAfterUsesCurrentTime) {
  EventQueue queue;
  RecordingHandler handler;
  handler.hook = [&](SimTime, uint32_t code, uint64_t) {
    if (code == 0) {
      queue.ScheduleEventAfter(50, &handler, 1);
    }
  };
  queue.ScheduleEvent(100, &handler, 0);
  queue.RunToCompletion();
  EXPECT_EQ(handler.fired, (std::vector<Fired>{{100, 0, 0}, {150, 1, 0}}));
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue queue;
  RecordingHandler handler;
  queue.ScheduleEvent(10, &handler, 0);
  queue.ScheduleEvent(100, &handler, 0);
  EXPECT_EQ(queue.RunUntil(50), 10);
  EXPECT_EQ(handler.fired.size(), 1u);
  EXPECT_EQ(queue.size(), 1u);
  queue.RunToCompletion();
  EXPECT_EQ(handler.fired.size(), 2u);
}

TEST(EventQueue, CountsProcessedEvents) {
  EventQueue queue;
  RecordingHandler handler;
  for (int i = 0; i < 7; ++i) {
    queue.ScheduleEvent(i, &handler, 0);
  }
  queue.RunToCompletion();
  EXPECT_EQ(queue.events_processed(), 7u);
}

TEST(EventQueue, ClockTracksNow) {
  EventQueue queue;
  const SimClock* clock = queue.clock();
  EXPECT_EQ(clock->now, 0);
  RecordingHandler handler;
  handler.hook = [&](SimTime, uint32_t, uint64_t) { EXPECT_EQ(clock->now, 77); };
  queue.ScheduleEvent(77, &handler, 0);
  queue.RunToCompletion();
  EXPECT_EQ(handler.fired.size(), 1u);
  EXPECT_EQ(clock->now, 77);
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue queue;
  RecordingHandler handler;
  handler.hook = [&](SimTime, uint32_t, uint64_t) {
    EXPECT_DEATH(queue.ScheduleEvent(50, &handler, 0), "CHECK failed");
  };
  queue.ScheduleEvent(100, &handler, 0);
  queue.RunToCompletion();
}

TEST(EventQueueDeathTest, SchedulingAfterANegativeDelayAborts) {
  EventQueue queue;
  RecordingHandler handler;
  handler.hook = [&](SimTime, uint32_t, uint64_t) {
    EXPECT_DEATH(queue.ScheduleEventAfter(-1, &handler, 0), "CHECK failed");
  };
  queue.ScheduleEvent(100, &handler, 0);
  queue.RunToCompletion();
}

// The determinism contract at scale: 10k events all scheduled for the same
// timestamp, from 16 parent events that interleave by rescheduling
// themselves at their own fire time, must run in exact FIFO-by-seq order on
// the 4-ary heap.
TEST(EventQueue, EqualTimeFifoAtScaleFromInterleavedParents) {
  constexpr uint64_t kChildren = 10000;
  constexpr int kParents = 16;
  constexpr SimTime kParentTime = 5;
  constexpr SimTime kChildTime = 1000;
  constexpr uint32_t kParent = 0;
  constexpr uint32_t kChild = 1;

  EventQueue queue;
  RecordingHandler handler;
  uint64_t next_index = 0;
  handler.hook = [&](SimTime now, uint32_t code, uint64_t) {
    if (code != kParent || next_index >= kChildren) {
      return;
    }
    queue.ScheduleEvent(kChildTime, &handler, kChild, next_index++);
    // Rescheduling at the current time goes to the back of the equal-time
    // line, interleaving the parents round-robin.
    queue.ScheduleEvent(now, &handler, kParent);
  };
  for (int p = 0; p < kParents; ++p) {
    queue.ScheduleEvent(kParentTime, &handler, kParent);
  }
  queue.RunToCompletion();

  std::vector<uint64_t> children;
  for (const Fired& f : handler.fired) {
    if (f.code == kChild) {
      EXPECT_EQ(f.now, kChildTime);
      children.push_back(f.arg);
    }
  }
  ASSERT_EQ(children.size(), kChildren);
  for (uint64_t i = 0; i < kChildren; ++i) {
    ASSERT_EQ(children[i], i) << "equal-time FIFO broken at " << i;
  }
}

TEST(EventQueue, ReservePreallocatesHeap) {
  EventQueue queue;
  queue.Reserve(100);
  EXPECT_GE(queue.capacity(), 100u);
  const size_t reserved = queue.capacity();
  RecordingHandler handler;
  for (uint64_t i = 0; i < 100; ++i) {
    queue.ScheduleEvent(static_cast<SimTime>(i), &handler, 0, i);
  }
  EXPECT_EQ(queue.capacity(), reserved);
  queue.RunToCompletion();
  EXPECT_EQ(handler.fired.size(), 100u);
}

}  // namespace
}  // namespace flashsim
