// Discrete-event core: a deterministic future-event list.
//
// Events are ordered by (time, insertion sequence) so simultaneous events are
// processed in FIFO order, making every run bit-reproducible for a given
// seed regardless of container internals: (time, seq) is a total order, so
// any correct priority queue pops the same sequence.
//
// The queue is a calendar queue built for the N = 1e5..1e6 device regime,
// where the future-event list outgrows L2 and a flat binary or d-ary heap
// becomes a serial chain of cache misses per pop.  Events are binned O(1)
// into fixed-width time buckets over 16-byte nodes (seq/device/kind packed
// into one word with seq in the high bits, so the FIFO tie-break is a
// single integer compare).  A bucket is a chain of fixed 16-node blocks
// drawn from one pool with a LIFO free list, so a push appends to the
// bucket's tail block.  When a bucket's window arrives its nodes are copied
// out, its blocks go back to the free list while still in cache, and the
// window is ordered once by a linear-time distribution pass (each node's
// in-bucket fraction picks one of n sub-ranges, and only nodes sharing a
// sub-range are compared) and consumed by a pointer bump, so a pop costs
// O(1) amortized however many events a bucket holds.  An event scheduled
// *inside* the current window (delay shorter than one bucket width) goes to
// a side heap, an implicit 4-ary min-heap, that pop() consults with one
// predictable compare.  Events beyond the bucket ring's horizon wait in an
// overflow tier until the ring reaches them.
//
// Bucket width self-tunes from the mean residual event time and re-tunes
// when the population grows or shrinks by 4x; under the paper's
// heterogeneous arrival rates each window then holds ~10^3 events.  A queue
// too small to repay a ring, or too clustered in time to bucket (all events
// effectively simultaneous), is left *untuned*: its bucket width is
// infinite, every event falls before the ring's first bucket, and the queue
// is just its side heap.  The same 4x retune is the only way in or out of
// that state.
//
// Buckets partition time and each window is totally ordered by the sorted
// bucket + side heap, so the pop sequence is identical to a single global
// heap — the golden-trace equivalence tests assert this bit-for-bit.
// `reserve()` pre-sizes the side heap an untuned queue lives in.  The ring
// holds at most one block per non-empty bucket plus one per 16 pending
// nodes, so its storage follows the pending count, not the largest window
// each bucket ever held; the block pool and the window buffers are kept across
// `clear()` for workspace reuse (storage_bytes() reports the total).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mec::sim {

/// What happened, dispatched by MecSimulation.  At most four kinds: the
/// packed node layout reserves exactly two bits for the kind.
enum class EventKind : std::uint8_t {
  kArrival,         ///< a new task arrives at `device`
  kLocalDeparture,  ///< `device` finishes its in-service local task
  kFault,           ///< a FaultSchedule action fires; `device` holds the
                    ///< action's index into the schedule, not a device id
};

/// Decoded event as handed to the simulation loop (not the storage layout).
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< tie-break: earlier-scheduled first
  std::uint32_t device = 0;
  EventKind kind = EventKind::kArrival;
};

/// Min future-event list with deterministic tie-breaking.
class EventQueue {
 public:
  /// Device ids (and fault-view indices) a node can carry: [0, 2^20).
  /// MecSimulation refuses larger populations and fault schedules.
  static constexpr std::size_t kMaxDevices = std::size_t{1} << 20;

  /// Pre-sizes the side heap (untuned queues then never reallocate).
  void reserve(std::size_t capacity);

  /// Schedules an event; `time` must be finite and >= 0, and `device`
  /// must be below kMaxDevices.
  void push(double time, EventKind kind, std::uint32_t device);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Drops all pending events and restarts the tie-break sequence at 0,
  /// keeping allocated capacity (workspace reuse across runs).
  void clear() noexcept;

  /// Time of the next event. Requires non-empty queue.
  double next_time() const;

  /// Device of the next event (for prefetching the state it will touch).
  /// Requires non-empty queue.
  std::uint32_t next_device() const;

  /// Device of the node `k` places past the sorted window's cursor, or
  /// kMaxDevices when the window holds fewer: a prefetch hint for the event
  /// loop, which is not the k-th next pop when the side heap holds earlier
  /// events.
  std::uint32_t window_device_ahead(std::size_t k) const noexcept {
    const std::size_t i = window_pos_ + k;
    return i < window_.size() ? device_of(window_[i])
                              : static_cast<std::uint32_t>(kMaxDevices);
  }

  /// Removes and returns the next event. Requires non-empty queue.
  Event pop();

  /// Total events ever scheduled (diagnostics).  Also the sequence number
  /// the *next* push will receive — fault-aware callers use it to remember
  /// which pending event is the live one for a device (lazy cancellation).
  std::uint64_t scheduled_count() const noexcept { return next_seq_; }

  /// True while the bucket ring is tuned; false while every event sits in
  /// the side heap (diagnostics/tests).
  bool tuned() const noexcept { return inv_width_ > 0.0; }

  /// Current bucket width in simulated seconds; 0 while untuned.  Exposed
  /// so the regression tests can place events exactly on bucket-window
  /// edges.
  double calendar_bucket_width() const noexcept { return width_; }

  /// Cumulative untuned<->tuned transitions since the last clear().
  /// Telemetry (obs::Counter::kShardGearSwitches); the increments live on
  /// the rare retune path, off the per-event path.
  std::uint64_t tuned_transitions() const noexcept { return transitions_; }

  /// Cumulative retunes that keep the ring tuned (width/ring resizes)
  /// since the last clear().  Telemetry (obs::Counter::kShardCalendarRetunes).
  std::uint64_t calendar_retunes() const noexcept { return retunes_; }

  /// Heap bytes the queue holds across every tier, its block pool and its
  /// ordering buffers (capacities, not contents); kept across clear().
  /// Read by the footprint tests and the hold benchmark.
  std::size_t storage_bytes() const noexcept {
    return (side_.capacity() + window_.capacity() + overflow_.capacity() +
            scratch_.capacity()) *
               sizeof(Node) +
           blocks_.capacity() * sizeof(Block) +
           buckets_.capacity() * sizeof(Bucket) +
           (next_block_.capacity() + free_blocks_.capacity() +
            sub_.capacity() + counts_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  /// 16-byte node; `key` holds (seq << 22) | (device << 2) | kind.  seq is
  /// unique per event and occupies the high bits, so comparing keys compares
  /// insertion sequence — device and kind never affect the order.
  struct Node {
    double time;
    std::uint64_t key;
  };

  static constexpr std::uint64_t kKindBits = 2;
  static constexpr std::uint64_t kDeviceBits = 20;
  static constexpr std::uint64_t kSeqShift = kKindBits + kDeviceBits;
  static_assert(kMaxDevices == std::size_t{1} << kDeviceBits);

  static bool earlier(const Node& a, const Node& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  static std::uint32_t device_of(const Node& nd) noexcept {
    return static_cast<std::uint32_t>((nd.key >> kKindBits) &
                                      ((1u << kDeviceBits) - 1));
  }

  /// Ring storage unit: kBlockNodes nodes, four cache lines.  Kept against
  /// 8 and 32 on the hold model, where 32 fell behind at 4,096 pending
  /// (EXPERIMENTS.md, "An O(pending) calendar ring").
  static constexpr std::uint32_t kBlockNodes = 16;
  struct alignas(64) Block {
    Node nodes[kBlockNodes];
  };
  static_assert(sizeof(Block) == 256);

  /// A bucket's nodes are the first `count` slots of its block chain
  /// head -> ... -> tail (links in next_block_); head and tail are stale
  /// while count is 0.
  struct Bucket {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::uint32_t count = 0;
  };

  // --- side heap (implicit 4-ary min-heap over side_) ---
  void side_push(const Node& nd);
  void side_sift_down(std::size_t i, const Node& nd);
  void side_pop_root();
  void side_build();  ///< heapify side_ in O(n)

  /// The earliest pending node (requires size_ > 0): min of the sorted
  /// window cursor and the side-heap root.
  const Node& front() const noexcept;

  // --- bucket ring ---
  std::uint64_t bucket_of(double t) const noexcept;
  /// Appends a node to the bucket's tail block, taking a fresh block from
  /// the free list (or growing the pool) when the tail is full.
  void bucket_push(Bucket& b, const Node& nd);
  /// Appends the bucket's nodes to `out` in chain order, returns its blocks
  /// to the free list and empties it.  Requires b.count > 0.
  void bucket_drain(Bucket& b, std::vector<Node>& out);
  /// Re-tunes width and ring for the current size, or leaves the queue
  /// untuned, and re-files every stored node.
  void retune();
  void gather_all();  ///< move every stored node into scratch_
  void migrate_overflow();
  /// Sorts window_, all of it in bucket base_ - 1, in linear time.
  void order_window();
  void advance();  ///< make the next non-empty bucket the sorted window

  std::vector<Node> side_;    ///< in-window pushes (every node if untuned)
  std::vector<Node> window_;  ///< current bucket, sorted ascending
  std::size_t window_pos_ = 0;  ///< next unconsumed node in window_

  std::vector<Bucket> buckets_;  ///< ring of unsorted bins
  std::size_t bucket_mask_ = 0;  ///< buckets_.size() - 1 (pow2)
  std::size_t ring_count_ = 0;   ///< nodes currently in the ring
  std::vector<Block> blocks_;    ///< block pool shared by every bucket
  std::vector<std::uint32_t> next_block_;   ///< chain link per pool block
  /// LIFO free list of pool blocks; its capacity covers the whole pool, so
  /// returning blocks never allocates.
  std::vector<std::uint32_t> free_blocks_;
  std::vector<Node> overflow_;              ///< beyond the ring horizon
  std::uint64_t overflow_min_bucket_ = ~std::uint64_t{0};
  double width_ = 0.0;      ///< bucket width (simulated seconds); 0 untuned
  double inv_width_ = 0.0;  ///< 1 / width_; 0 untuned (every node in bucket 0)
  std::uint64_t base_ = 1;  ///< next bucket index to drain
  /// Retune once size_ reaches grow_at_ (a fresh queue: its first push) or
  /// drops below shrink_below_ (0: never).
  std::size_t grow_at_ = 0;
  std::size_t shrink_below_ = 0;
  std::vector<Node> scratch_;  ///< retune staging / scatter target

  /// order_window's sub-range of each node and its count (then offset) per
  /// sub-range, kept across windows so ordering does not allocate.
  std::vector<std::uint32_t> sub_;
  std::vector<std::uint32_t> counts_;

  std::size_t size_ = 0;  ///< total stored nodes across all tiers
  std::uint64_t next_seq_ = 0;
  std::uint64_t transitions_ = 0;  ///< telemetry; see tuned_transitions()
  std::uint64_t retunes_ = 0;      ///< telemetry; see calendar_retunes()
};

}  // namespace mec::sim
