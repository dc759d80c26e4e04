// Regression tests pinning the EventQueue's tuned/untuned behavior: the pop
// sequence must equal a single global (time, seq) priority queue while the
// queue crosses its minimum tuned size (64 events) up and down through the
// 4x growth and shrink retunes, under an all-simultaneous flood that must
// stay untuned however large it grows, and with events placed exactly on
// bucket-window edges.  The reference is std::priority_queue over the same
// (time, seq) key — any divergence in pop order is a determinism break that
// would silently change every simulation.
#include "mec/sim/des.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "mec/random/rng.hpp"

namespace mec::sim {
namespace {

// Mirrors des.cpp's kMinTuned (not exported on purpose; these tests pin the
// observable behavior at the documented size).
constexpr std::size_t kMinTuned = 64;
/// A size far inside the tuned regime, with a ring far past its floor.
constexpr std::size_t kTunedSize = 16384;

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
  std::uint64_t i = 0;
  const auto push_ahead = [&] {
    h.push(h.last_time() + 50.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 1000));
    ++i;
  };

  // Three round trips across the minimum tuned size with simulation-like
  // traffic (pushes scheduled ahead of the drain point).
  for (int round = 0; round < 3; ++round) {
    // Up 16x: the tune at kMinTuned, then two growth retunes.  Pops are
    // interleaved so every retune happens mid-traffic, not on a quiet
    // pre-filled queue.
    while (h.size() < 16 * kMinTuned) {
      push_ahead();
      if (i % 3 == 0) h.pop_and_check();
      ASSERT_TRUE(h.ok());
    }
    EXPECT_TRUE(h.queue().tuned());
    EXPECT_GT(h.queue().calendar_bucket_width(), 0.0);

    // Steady state on the ring: push/pop balanced.
    for (int j = 0; j < 5000; ++j) {
      push_ahead();
      h.pop_and_check();
      ASSERT_TRUE(h.ok());
    }
    EXPECT_TRUE(h.queue().tuned());

    // Down through the shrink retunes; a retune below kMinTuned leaves the
    // ring untuned, and order must hold throughout.
    while (h.size() > kMinTuned / 8 && h.ok()) h.pop_and_check();
    ASSERT_TRUE(h.ok());
    EXPECT_FALSE(h.queue().tuned());
    EXPECT_DOUBLE_EQ(h.queue().calendar_bucket_width(), 0.0);
  }
  EXPECT_EQ(h.queue().tuned_transitions(), 6u);
  h.drain_and_check();

  // An all-simultaneous flood 16x past the minimum tuned size: buckets
  // cannot separate it, so every retune leaves the queue untuned, and FIFO
  // decides the order.
  const double flood = h.last_time() + 1.0;
  for (std::uint64_t j = 0; j < 16 * kMinTuned; ++j) {
    h.push(flood, kind_of(j), static_cast<std::uint32_t>(j % 64));
    ASSERT_FALSE(h.queue().tuned());
  }
  while (h.size() > kMinTuned / 8 && h.ok()) {
    h.pop_and_check();
    ASSERT_FALSE(h.queue().tuned());
  }
  EXPECT_EQ(h.queue().tuned_transitions(), 6u);

  // Untuned again, traffic continues and the full drain still matches.
  for (std::uint64_t j = 0; j < 2000; ++j)
    h.push(h.last_time() + 10.0 * random::uniform01(rng), kind_of(j),
           static_cast<std::uint32_t>(j % 64));
  EXPECT_TRUE(h.queue().tuned());
  h.drain_and_check();
}

TEST(EventQueueGear, SwitchDoesNotFireBelowThreshold) {
  // Below kMinTuned events the queue stays untuned (no bucket width), and
  // the push that reaches kMinTuned tunes it.
  Harness h;
  random::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < kMinTuned - 1; ++i) {
    h.push(100.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 100));
    ASSERT_FALSE(h.queue().tuned());
    ASSERT_DOUBLE_EQ(h.queue().calendar_bucket_width(), 0.0);
  }
  EXPECT_EQ(h.queue().tuned_transitions(), 0u);
  h.push(100.0 * random::uniform01(rng), EventKind::kArrival, 7);
  EXPECT_TRUE(h.queue().tuned());
  EXPECT_EQ(h.queue().tuned_transitions(), 1u);
  h.drain_and_check();
}

TEST(EventQueueGear, EventsExactlyOnBucketWindowEdges) {
  Harness h;
  random::Xoshiro256 rng(17);

  // Tune the ring.
  while (h.size() < kTunedSize + 1000)
    h.push(h.last_time() + 20.0 * random::uniform01(rng),
           EventKind::kArrival, 1);
  ASSERT_TRUE(h.queue().tuned());
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
  // A single-instant flood far past the minimum tuned size: every event
  // at one time, order fully decided by insertion sequence, crossing every
  // growth retune (each leaving the queue untuned) while being pushed.
  Harness h;
  for (std::size_t i = 0; i < kTunedSize + 2000; ++i)
    h.push(7.25, kind_of(i), static_cast<std::uint32_t>(i % (1u << 20)));
  h.drain_and_check();
}

TEST(EventQueueGear, ShortDelayEventsInsideCurrentWindow) {
  // Events scheduled closer than one bucket width ahead (the side-heap
  // path of a tuned ring) must still interleave correctly with the
  // sorted-window cursor.
  Harness h;
  random::Xoshiro256 rng(23);
  while (h.size() < kTunedSize + 1000)
    h.push(h.last_time() + 30.0 * random::uniform01(rng),
           EventKind::kArrival, 1);
  ASSERT_TRUE(h.queue().tuned());
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
