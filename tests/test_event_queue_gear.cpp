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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
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

  /// clear()s the queue (keeping its storage) and starts a fresh
  /// reference.
  void restart() {
    queue_.clear();
    ref_ = RefQueue();
    seq_ = 0;
    last_time_ = 0.0;
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

// --- ring storage: buckets as chains of 16-node blocks ----------------------

// Mirrors des.cpp: a ring bucket is a chain of kBlockNodes-node blocks, and
// a ring tuned at 4,096 events has 512 buckets, one tuned at 65,536 has
// 8,192.
constexpr std::size_t kBlockNodes = 16;

/// A ring tuned at exactly 4,096 events whose bucket 0 (t = 0) is the live
/// window and whose buckets 1 .. 41 are empty: the other 4,095 events lie in
/// [50, 100].  Bucket k then spans [k w, (k + 1) w) for the returned width
/// w, so a test can file an exact number of nodes in it.
double tune_with_empty_front(Harness& h, random::Xoshiro256& rng) {
  h.push(0.0, EventKind::kArrival, 0);
  for (std::uint32_t i = 1; i < 4096; ++i)
    h.push(50.0 + 50.0 * random::uniform01(rng), EventKind::kArrival, i);
  EXPECT_TRUE(h.queue().tuned());
  const double w = h.queue().calendar_bucket_width();
  EXPECT_GT(w, 1.0);  // ~1.17: 42 empty buckets ahead of 50
  return w;
}

TEST(EventQueueRing, ChainsOfEveryLengthPopInOrder) {
  // Buckets holding 0, 1, 15, 16, 17, 3 x 16 and 10 x 16 + 1 nodes — one
  // short of a block, exactly one, one past it, and many chained — drain
  // without a retune (4,095 events stay pending behind them).  A one-node
  // sentinel bucket after them stays the live window, so the second round
  // files the same chains in the ring again, into the blocks the first
  // round's windows freed: the ring's storage must not grow.
  Harness h;
  random::Xoshiro256 rng(31);
  const double w = tune_with_empty_front(h, rng);
  const std::size_t counts[] = {0, 1, kBlockNodes - 1, kBlockNodes,
                                kBlockNodes + 1, 3 * kBlockNodes,
                                10 * kBlockNodes + 1};
  double start = 2.0;  // bucket index; bucket 0 is the live window
  std::size_t storage = 0;
  for (int round = 0; round < 2; ++round) {
    std::uint32_t filed = 0;
    for (std::size_t b = 0; b < std::size(counts); ++b)
      for (std::size_t i = 0; i < counts[b]; ++i) {
        // Spread inside the bucket, half the nodes on one shared time.
        const double frac = i % 2 ? 0.5 : 0.1 + 0.8 * random::uniform01(rng);
        h.push((start + 2.0 * static_cast<double>(b) + frac) * w,
               kind_of(i), filed++);
      }
    const double sentinel = start + 2.0 * std::size(counts);
    h.push((sentinel + 0.5) * w, EventKind::kArrival, 4095);
    // The previous live window's node, then every filed node.
    for (std::uint32_t i = 0; i <= filed; ++i) h.pop_and_check();
    ASSERT_TRUE(h.ok());
    ASSERT_EQ(h.queue().next_time(), (sentinel + 0.5) * w);
    if (round == 0)
      storage = h.queue().storage_bytes();
    else
      EXPECT_EQ(h.queue().storage_bytes(), storage);
    start = sentinel + 2.0;
  }
  ASSERT_LT(start * w, 50.0);
  h.drain_and_check();
}

TEST(EventQueueRing, FreedBlocksServeTheNextWindowsUnderHoldTraffic) {
  // Hold traffic over dense chained buckets: every pop frees blocks that
  // the pushes behind it take again.  After a warm-up revolution the
  // storage stays put.
  Harness h;
  random::Xoshiro256 rng(37);
  for (std::uint32_t i = 0; i < 4096; ++i)
    h.push(10.0 * random::uniform01(rng), EventKind::kArrival, i);
  ASSERT_TRUE(h.queue().tuned());
  const auto hold = [&](int n) {
    for (int j = 0; j < n && h.ok(); ++j) {
      h.pop_and_check();
      h.push(h.last_time() + 10.0 * random::uniform01(rng),
             EventKind::kLocalDeparture, static_cast<std::uint32_t>(j));
    }
  };
  hold(120000);  // ~3.6 revolutions of the 40 s ring
  const std::size_t storage = h.queue().storage_bytes();
  hold(120000);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.queue().storage_bytes(), storage);
  h.drain_and_check();
}

TEST(EventQueueRing, GrowthAndShrinkRetunesRefileChainedBuckets) {
  // 16,384 events in [0, 10]: the growth retunes at 4,096 and 16,384
  // gather buckets chained three to eight blocks deep, then the drain
  // crosses every shrink retune down to the untuned side heap.
  Harness h;
  random::Xoshiro256 rng(41);
  for (std::uint32_t i = 0; h.size() < 16384; ++i) {
    h.push(h.last_time() + 10.0 * random::uniform01(rng), kind_of(i), i);
    if (i % 5 == 4) h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }
  EXPECT_TRUE(h.queue().tuned());
  const std::uint64_t retunes = h.queue().calendar_retunes();
  EXPECT_EQ(retunes, 4u);  // at 256, 1,024, 4,096 and 16,384
  while (h.size() > 16 && h.ok()) h.pop_and_check();
  ASSERT_TRUE(h.ok());
  EXPECT_GT(h.queue().calendar_retunes(), retunes);
  EXPECT_FALSE(h.queue().tuned());
  h.drain_and_check();
}

TEST(EventQueueRing, ClearWithChainedBucketsThenReuse) {
  // clear() while the ring still holds chained buckets (and a live window
  // and overflow), then the same run again on the reused queue: the pop
  // sequence restarts at seq 0 and matches the reference, and the pool
  // that the first run grew serves the later runs.
  const auto fill_and_pop = [](Harness& h) {
    random::Xoshiro256 rng(43);
    for (std::uint32_t i = 0; i < 5000; ++i)
      h.push(i % 50 == 0 ? 1.0e4 * random::uniform01(rng)
                         : 20.0 * random::uniform01(rng),
             kind_of(i), i);
    for (int i = 0; i < 1000 && h.ok(); ++i) h.pop_and_check();
  };
  Harness h;
  std::size_t storage = 0;
  for (int run = 0; run < 3; ++run) {
    if (run > 0) {
      h.restart();
      EXPECT_TRUE(h.queue().empty());
      EXPECT_FALSE(h.queue().tuned());
      EXPECT_EQ(h.queue().scheduled_count(), 0u);
      EXPECT_EQ(h.queue().storage_bytes(), storage);
    }
    fill_and_pop(h);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(h.queue().tuned());
    // The window and staging buffers trade places as windows are ordered,
    // so the second run may still grow one; the third grows nothing.
    if (run == 2) {
      EXPECT_EQ(h.queue().storage_bytes(), storage);
    }
    storage = h.queue().storage_bytes();
  }
  h.drain_and_check();
}

TEST(EventQueueRing, HoldModelStorageFollowsThePendingCount) {
  // The hold model of the suite's size: 150,000 pending nodes, each with
  // a rate drawn from U(0, 6] (the paper's at-service arrival law), each
  // pop pushed back Exp(rate) later, for ten revolutions of the 8,192-
  // bucket ring.  A ring whose buckets keep a buffer sized to the largest
  // window they ever held ends its first revolution near 8,192 windows of
  // storage (~700 nodes each at this seed); the block ring holds the
  // pending nodes plus about one block per bucket.
  constexpr std::uint32_t kPending = 150000;
  constexpr std::size_t kBound = 64 * kPending;  // bytes: 4 nodes' worth
  random::Xoshiro256 rng(1);
  std::vector<double> rates(kPending);
  EventQueue q;
  for (std::uint32_t d = 0; d < kPending; ++d) {
    rates[d] = 6.0 - random::uniform(rng, 0.0, 6.0);
    q.push(random::exponential(rng, rates[d]), EventKind::kArrival, d);
  }
  ASSERT_TRUE(q.tuned());
  const std::uint64_t retunes = q.calendar_retunes();
  const double revolution = 8192.0 * q.calendar_bucket_width();
  double now = 0.0;
  for (int rev = 1; rev <= 10; ++rev) {
    while (now < rev * revolution) {
      const Event e = q.pop();
      now = e.time;
      q.push(now + random::exponential(rng, rates[e.device]), e.kind,
             e.device);
    }
    ASSERT_LT(q.storage_bytes(), kBound) << "after revolution " << rev;
  }
  EXPECT_EQ(q.size(), kPending);
  EXPECT_EQ(q.calendar_retunes(), retunes);  // one ring throughout
}

}  // namespace
}  // namespace mec::sim
