// Regression tests pinning the EventQueue's two-gear behavior: the pop
// sequence must equal a single global (time, seq) priority queue across the
// heap->calendar switch at 16384 events, the hysteresis exit at 8192, and
// events placed exactly on calendar bucket-window edges.  The reference is
// std::priority_queue over the same (time, seq) key — any divergence in pop
// order is a determinism break that would silently change every simulation.
#include "mec/sim/des.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "mec/random/rng.hpp"

namespace mec::sim {
namespace {

// Mirrors des.cpp's gear constants (not exported on purpose; these tests
// pin the observable behavior at the documented sizes).
constexpr std::size_t kSwitchThreshold = 16384;
constexpr std::size_t kExitThreshold = kSwitchThreshold / 2;

struct RefEvent {
  double time;
  std::uint64_t seq;
  std::uint32_t device;
  EventKind kind;
};

struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

using RefQueue = std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>;

/// Drives the queue and the reference in lockstep; every pop is compared
/// field for field.  A mismatch records a (non-fatal) failure and flips
/// ok() so driver loops can bail out instead of spinning on a broken
/// queue — both structures are always advanced, even on mismatch.
class Harness {
 public:
  void push(double time, EventKind kind, std::uint32_t device) {
    ref_.push(RefEvent{time, seq_++, device, kind});
    queue_.push(time, kind, device);
  }

  void pop_and_check() {
    if (queue_.empty() || ref_.empty()) {
      ADD_FAILURE() << "queue/reference emptied out of step";
      ok_ = false;
      return;
    }
    const RefEvent expected = ref_.top();
    ref_.pop();
    const double announced = queue_.next_time();
    const Event e = queue_.pop();
    EXPECT_DOUBLE_EQ(announced, expected.time);
    EXPECT_DOUBLE_EQ(e.time, expected.time);
    EXPECT_EQ(e.seq, expected.seq);
    EXPECT_EQ(e.device, expected.device);
    EXPECT_EQ(e.kind, expected.kind);
    if (e.time != expected.time || e.seq != expected.seq ||
        e.device != expected.device || e.kind != expected.kind)
      ok_ = false;
    last_time_ = e.time;
  }

  void drain_and_check() {
    while (!ref_.empty() && ok_) pop_and_check();
    EXPECT_TRUE(ok_);
    if (ok_) {
      EXPECT_TRUE(queue_.empty());
    }
  }

  bool ok() const { return ok_; }
  double last_time() const { return last_time_; }
  EventQueue& queue() { return queue_; }
  std::size_t size() const { return queue_.size(); }

 private:
  EventQueue queue_;
  RefQueue ref_;
  std::uint64_t seq_ = 0;
  double last_time_ = 0.0;
  bool ok_ = true;
};

EventKind kind_of(std::uint64_t i) {
  switch (i % 3) {
    case 0: return EventKind::kArrival;
    case 1: return EventKind::kLocalDeparture;
    default: return EventKind::kFault;
  }
}

TEST(EventQueueGear, PopOrderMatchesReferenceAcrossSwitchUpAndExit) {
  Harness h;
  random::Xoshiro256 rng(99);

  // Grow well past the switch threshold with simulation-like pushes
  // (scheduled ahead of the current drain point).
  std::uint64_t i = 0;
  while (h.size() < kSwitchThreshold + 4096) {
    h.push(h.last_time() + 50.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 1000));
    ++i;
    // Interleave pops so the switch happens mid-traffic, not on a quiet
    // pre-filled queue.
    if (i % 3 == 0) h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }
  EXPECT_TRUE(h.queue().calendar_gear());
  EXPECT_GT(h.queue().calendar_bucket_width(), 0.0);

  // Steady state in calendar gear: push/pop balanced.
  for (std::uint64_t j = 0; j < 20000; ++j) {
    h.push(h.last_time() + 50.0 * random::uniform01(rng), kind_of(j),
           static_cast<std::uint32_t>(j % 1000));
    h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }
  EXPECT_TRUE(h.queue().calendar_gear());

  // Shrink through the hysteresis exit and keep checking order.
  while (h.size() > kExitThreshold / 2 && h.ok()) h.pop_and_check();
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h.queue().calendar_gear());
  EXPECT_DOUBLE_EQ(h.queue().calendar_bucket_width(), 0.0);

  // Back in heap gear, traffic continues and the full drain still matches.
  for (std::uint64_t j = 0; j < 2000; ++j)
    h.push(h.last_time() + 10.0 * random::uniform01(rng), kind_of(j),
           static_cast<std::uint32_t>(j % 64));
  h.drain_and_check();
}

TEST(EventQueueGear, SwitchDoesNotFireBelowThreshold) {
  Harness h;
  random::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < kSwitchThreshold - 1; ++i)
    h.push(100.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 100));
  EXPECT_FALSE(h.queue().calendar_gear());
  h.drain_and_check();
}

TEST(EventQueueGear, EventsExactlyOnBucketWindowEdges) {
  Harness h;
  random::Xoshiro256 rng(17);

  // Enter calendar gear.
  while (h.size() < kSwitchThreshold + 1000)
    h.push(h.last_time() + 20.0 * random::uniform01(rng),
           EventKind::kArrival, 1);
  ASSERT_TRUE(h.queue().calendar_gear());
  const double width = h.queue().calendar_bucket_width();
  ASSERT_GT(width, 0.0);

  // Schedule bursts exactly on multiples of the bucket width ahead of the
  // drain point — boundary times must bin consistently (an event at the
  // edge belongs to exactly one bucket) and FIFO-tie-break within the
  // burst.  Also place neighbors one ulp-ish off the edge on both sides.
  const double t0 = h.queue().next_time();
  for (int k = 1; k <= 64; ++k) {
    const double edge = t0 + static_cast<double>(k) * width;
    for (std::uint32_t burst = 0; burst < 3; ++burst)
      h.push(edge, EventKind::kLocalDeparture, 100 + burst);
    h.push(edge - width * 1e-12, EventKind::kArrival, 200);
    h.push(edge + width * 1e-12, EventKind::kFault, 201);
  }
  h.drain_and_check();
}

TEST(EventQueueGear, SameTimeFloodStaysFifoThroughSwitch) {
  // A single-instant flood larger than the switch threshold: every event at
  // one time, order fully decided by insertion sequence, crossing the gear
  // switch while being pushed.
  Harness h;
  for (std::size_t i = 0; i < kSwitchThreshold + 2000; ++i)
    h.push(7.25, kind_of(i), static_cast<std::uint32_t>(i % (1u << 20)));
  h.drain_and_check();
}

TEST(EventQueueGear, ShortDelayEventsInsideCurrentWindow) {
  // Events scheduled closer than one bucket width ahead (the side-heap
  // path in calendar gear) must still interleave correctly with the
  // sorted-window cursor.
  Harness h;
  random::Xoshiro256 rng(23);
  while (h.size() < kSwitchThreshold + 1000)
    h.push(h.last_time() + 30.0 * random::uniform01(rng),
           EventKind::kArrival, 1);
  ASSERT_TRUE(h.queue().calendar_gear());
  const double width = h.queue().calendar_bucket_width();
  for (int j = 0; j < 5000; ++j) {
    // Delay far below one bucket width: lands in the live window.
    h.push(h.last_time() + 0.01 * width * random::uniform01(rng),
           EventKind::kLocalDeparture, 2);
    h.pop_and_check();
    h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }
  h.drain_and_check();
}

}  // namespace
}  // namespace mec::sim
