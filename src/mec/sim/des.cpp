#include "mec/sim/des.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mec/common/error.hpp"

namespace mec::sim {

namespace {

/// Below this many events a retune leaves the queue untuned, and a ring
/// tuned here stays tuned until a shrink retune at a quarter of it.
/// Growth retunes land on 64 * 4^k events (..., 16,384, 65,536, 262,144),
/// the tune points the large rings were measured at; another base moves
/// every large queue's bucket occupancy by up to 4x (EXPERIMENTS.md, "One
/// event queue").
constexpr std::size_t kMinTuned = 64;
/// The ring covers this many multiples of the mean residual event time,
/// which keeps the overflow tier small.  Under the paper's U(0, a_max)
/// arrival rates the few devices with rates near 0 stretch that mean far
/// past the median residual, so each window holds ~10^3 events, which
/// order_window orders in linear time.
constexpr double kRingSpanResiduals = 8.0;
/// Ring sizing target: at least this many events per bucket on average,
/// i.e. ring size ~ stored / kMinOccupancy, clamped to the bounds below.
constexpr std::size_t kMinOccupancy = 8;
/// Ring size bounds (power of two).  The floor gives a queue tuned at
/// kMinTuned one bucket per event; the cap trades bucket count for
/// occupancy, which the linear-time window ordering makes cheap.
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = 65536;

}  // namespace

void EventQueue::reserve(std::size_t capacity) {
  side_.reserve(std::min(capacity, kMinTuned));
}

void EventQueue::clear() noexcept {
  side_.clear();
  window_.clear();
  window_pos_ = 0;
  if (ring_count_ > 0) {
    // Every block goes back to the free list, block 0 on top; the list's
    // capacity covers the pool, so this does not allocate.
    for (Bucket& b : buckets_) b.count = 0;
    free_blocks_.resize(blocks_.size());
    std::iota(free_blocks_.rbegin(), free_blocks_.rend(), 0u);
  }
  ring_count_ = 0;
  overflow_.clear();
  overflow_min_bucket_ = ~std::uint64_t{0};
  width_ = 0.0;
  inv_width_ = 0.0;
  base_ = 1;
  grow_at_ = 0;
  shrink_below_ = 0;
  size_ = 0;
  next_seq_ = 0;
  transitions_ = 0;
  retunes_ = 0;
}

// --- side heap -------------------------------------------------------------

void EventQueue::side_push(const Node& nd) {
  // Sift the hole up from the back; the new node is written exactly once.
  std::size_t i = side_.size();
  side_.push_back(nd);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(nd, side_[parent])) break;
    side_[i] = side_[parent];
    i = parent;
  }
  side_[i] = nd;
}

void EventQueue::side_sift_down(std::size_t i, const Node& nd) {
  const std::size_t n = side_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c)
      if (earlier(side_[c], side_[best])) best = c;
    if (!earlier(side_[best], nd)) break;
    side_[i] = side_[best];
    i = best;
  }
  side_[i] = nd;
}

void EventQueue::side_pop_root() {
  const Node last = side_.back();
  side_.pop_back();
  if (!side_.empty()) side_sift_down(0, last);
}

void EventQueue::side_build() {
  const std::size_t n = side_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) {
    const Node nd = side_[i];
    side_sift_down(i, nd);
  }
}

const EventQueue::Node& EventQueue::front() const noexcept {
  // The side heap of a tuned ring is almost always empty (only delays
  // shorter than one bucket width land there), and an untuned queue's
  // window always is, so this compare is predictable and the common path
  // is a single indexed load.
  if (!side_.empty() && (window_pos_ >= window_.size() ||
                         earlier(side_[0], window_[window_pos_])))
    return side_[0];
  return window_[window_pos_];
}

// --- bucket ring -----------------------------------------------------------

std::uint64_t EventQueue::bucket_of(double t) const noexcept {
  const double d = t * inv_width_;
  // Saturate instead of overflowing the cast; saturated indices land in the
  // overflow tier and are drained through the sorted window, which orders
  // them.
  return d < 9.0e18 ? static_cast<std::uint64_t>(d)
                    : static_cast<std::uint64_t>(9.0e18);
}

void EventQueue::bucket_push(Bucket& b, const Node& nd) {
  const std::uint32_t slot = b.count % kBlockNodes;
  if (slot == 0) {
    std::uint32_t blk;
    if (!free_blocks_.empty()) {
      blk = free_blocks_.back();
      free_blocks_.pop_back();
    } else {
      MEC_ASSERT(blocks_.size() < 0xFFFFFFFFu);
      blk = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
      next_block_.push_back(0);
      free_blocks_.reserve(blocks_.capacity());
    }
    if (b.count == 0)
      b.head = blk;
    else
      next_block_[b.tail] = blk;
    b.tail = blk;
  }
  blocks_[b.tail].nodes[slot] = nd;
  ++b.count;
  ++ring_count_;
}

void EventQueue::bucket_drain(Bucket& b, std::vector<Node>& out) {
  std::uint32_t blk = b.head;
  for (std::uint32_t left = b.count;;) {
    const std::uint32_t take = std::min(left, kBlockNodes);
    const Node* const nodes = blocks_[blk].nodes;
    out.insert(out.end(), nodes, nodes + take);
    free_blocks_.push_back(blk);
    left -= take;
    if (left == 0) break;
    blk = next_block_[blk];
  }
  ring_count_ -= b.count;
  b.count = 0;
}

void EventQueue::gather_all() {
  scratch_.clear();
  scratch_.reserve(size_);
  scratch_.insert(scratch_.end(), side_.begin(), side_.end());
  side_.clear();
  scratch_.insert(scratch_.end(), window_.begin() + window_pos_,
                  window_.end());
  window_.clear();
  window_pos_ = 0;
  for (std::size_t i = 0; ring_count_ > 0; ++i)
    if (buckets_[i].count > 0) bucket_drain(buckets_[i], scratch_);
  scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
  overflow_.clear();
  overflow_min_bucket_ = ~std::uint64_t{0};
}

void EventQueue::retune() {
  // Gather every stored node, then spread them over a ring whose width
  // follows the observed time span.  A queue too small or too simultaneous
  // to bucket is left untuned instead: inv_width_ = 0 puts every time in
  // bucket 0, and base_ = 1 files bucket 0 as already drained, so every
  // node goes to the side heap, now and on every push until the next
  // retune.
  gather_all();
  const std::size_t n = size_;
  const bool small = n < kMinTuned;
  grow_at_ = small ? kMinTuned : 4 * n;
  shrink_below_ = small ? 0 : n / 4 + 1;
  double tmin = 0.0;
  double mean_residual = 0.0;
  if (!small) {
    tmin = scratch_.front().time;
    double tmax = tmin;
    double tsum = 0.0;
    for (const Node& nd : scratch_) {
      tmin = std::min(tmin, nd.time);
      tmax = std::max(tmax, nd.time);
      tsum += nd.time;
    }
    mean_residual = tsum / static_cast<double>(n) - tmin;
    // All events effectively simultaneous: buckets cannot separate them.
    if (!(mean_residual > tmax * 1e-13)) mean_residual = 0.0;
  }
  const bool was_tuned = tuned();
  if (mean_residual == 0.0) {
    if (was_tuned) ++transitions_;
    width_ = 0.0;
    inv_width_ = 0.0;
    base_ = 1;
    side_.swap(scratch_);
    scratch_.clear();
    side_build();
    return;
  }
  if (was_tuned)
    ++retunes_;
  else
    ++transitions_;

  std::size_t nb = kMinBuckets;
  while (nb < n / kMinOccupancy && nb < kMaxBuckets) nb <<= 1;
  width_ = kRingSpanResiduals * mean_residual / static_cast<double>(nb);
  inv_width_ = 1.0 / width_;
  if (buckets_.size() != nb) buckets_.resize(nb);
  bucket_mask_ = nb - 1;
  base_ = bucket_of(tmin);
  for (const Node& nd : scratch_) {
    const std::uint64_t idx = bucket_of(nd.time);
    if (idx - base_ < nb) {
      bucket_push(buckets_[idx & bucket_mask_], nd);
    } else {
      overflow_.push_back(nd);
      overflow_min_bucket_ = std::min(overflow_min_bucket_, idx);
    }
  }
  scratch_.clear();
  advance();
}

void EventQueue::migrate_overflow() {
  // Move every overflow node the ring can now reach into its bucket.
  const std::uint64_t limit = base_ + buckets_.size();
  std::uint64_t new_min = ~std::uint64_t{0};
  std::size_t keep = 0;
  for (const Node& nd : overflow_) {
    const std::uint64_t idx = bucket_of(nd.time);
    if (idx < limit) {
      bucket_push(buckets_[idx & bucket_mask_], nd);
    } else {
      overflow_[keep++] = nd;
      new_min = std::min(new_min, idx);
    }
  }
  overflow_.resize(keep);
  overflow_min_bucket_ = new_min;
}

void EventQueue::advance() {
  MEC_ASSERT(ring_count_ + overflow_.size() > 0);
  for (;;) {
    if (ring_count_ == 0) {
      // Everything pending beyond the window is in overflow: jump the ring
      // to the earliest overflow bucket instead of walking to it.
      base_ = overflow_min_bucket_;
      migrate_overflow();
      continue;
    }
    // Before consuming bucket base_, pull in any overflow nodes that belong
    // to it (their bucket index has entered the ring's reach).
    if (overflow_min_bucket_ <= base_) migrate_overflow();
    Bucket& b = buckets_[base_ & bucket_mask_];
    ++base_;
    if (b.count > 0) {
      // Copy the bucket out (its blocks return to the free list still in
      // cache, for the pushes that follow) and order it once; consumption
      // is then a pointer bump per pop.
      window_.clear();
      window_pos_ = 0;
      bucket_drain(b, window_);
      order_window();
      return;
    }
  }
}

void EventQueue::order_window() {
  // Every node here lies in bucket B = base_ - 1 (the ring invariant), so
  // its in-bucket fraction t * inv_width_ - B maps monotonically onto m = n
  // sub-ranges.  Count the nodes per sub-range, turn the counts into
  // offsets, scatter into scratch_, and sort each sub-range on its own:
  // linear expected cost however many nodes the bucket holds, and
  // O(k log k) for a sub-range of k equal times.  The sub-index never
  // decreases with time, so the result is the unique (time, seq) order.
  const std::size_t n = window_.size();
  MEC_ASSERT(n <= 0xFFFFFFFFu);
  const double lo = static_cast<double>(base_ - 1);
  const double m = static_cast<double>(n);
  const double top = m - 1.0;
  sub_.resize(n);
  counts_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // Clamped, the map stays monotone and in range where rounding bites:
    // past 2^53 buckets the bucket's own index rounds, and a saturated
    // index (see bucket_of) leaves the fraction unbounded above.
    const double frac = window_[i].time * inv_width_ - lo;
    const auto s = static_cast<std::uint32_t>(std::clamp(frac * m, 0.0, top));
    sub_[i] = s;
    ++counts_[s];
  }
  std::exclusive_scan(counts_.begin(), counts_.end(), counts_.begin(), 0u);
  scratch_.resize(n);
  Node* const out = scratch_.data();
  for (std::size_t i = 0; i < n; ++i) out[counts_[sub_[i]]++] = window_[i];
  // counts_[s] is now the end of sub-range s.
  std::size_t begin = 0;
  for (const std::uint32_t end : counts_) {
    if (end - begin > 1)
      std::sort(out + begin, out + end,
                [](const Node& x, const Node& y) { return earlier(x, y); });
    begin = end;
  }
  window_.swap(scratch_);
  scratch_.clear();
}

// --- public interface ------------------------------------------------------

void EventQueue::push(double time, EventKind kind, std::uint32_t device) {
  MEC_EXPECTS(std::isfinite(time));
  MEC_EXPECTS(time >= 0.0);
  const Node nd{time, (next_seq_++ << kSeqShift) |
                          (static_cast<std::uint64_t>(device) << kKindBits) |
                          static_cast<std::uint64_t>(kind)};
  ++size_;
  const std::uint64_t idx = bucket_of(time);
  if (idx < base_) {
    side_push(nd);  // inside the current window, or the queue is untuned
  } else if (idx - base_ < buckets_.size()) {
    bucket_push(buckets_[idx & bucket_mask_], nd);
    if (side_.empty() && window_pos_ >= window_.size()) advance();
  } else {
    overflow_.push_back(nd);
    overflow_min_bucket_ = std::min(overflow_min_bucket_, idx);
    if (side_.empty() && window_pos_ >= window_.size()) advance();
  }
  if (size_ >= grow_at_) retune();
}

double EventQueue::next_time() const {
  MEC_EXPECTS(size_ > 0);
  return front().time;
}

std::uint32_t EventQueue::next_device() const {
  MEC_EXPECTS(size_ > 0);
  return device_of(front());
}

Event EventQueue::pop() {
  MEC_EXPECTS(size_ > 0);
  Node top;
  const bool window_has = window_pos_ < window_.size();
  if (!side_.empty() &&
      (!window_has || earlier(side_[0], window_[window_pos_]))) {
    top = side_[0];
    side_pop_root();
  } else {
    top = window_[window_pos_++];
  }
  --size_;
  if (size_ < shrink_below_)
    retune();
  else if (side_.empty() && window_pos_ >= window_.size() && size_ > 0)
    advance();
  return Event{top.time, top.key >> kSeqShift, device_of(top),
               static_cast<EventKind>(top.key & ((1u << kKindBits) - 1))};
}

}  // namespace mec::sim
