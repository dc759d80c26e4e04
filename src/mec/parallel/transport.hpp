// Rank architecture: how the engine's per-rank leg work talks to the
// barrier-serial coordinator.
//
// A *rank* owns a contiguous slice of the run's K shards and advances them
// leg by leg to each observation-grid barrier; the *coordinator* (see
// sim/coordinator.hpp) merges every rank's barrier payload, performs the
// serial coupling work (GammaReplay, epoch callbacks, stream windows), and
// broadcasts the post-barrier coupling state back.  The coordinator reaches
// its ranks only through the Transport interface below, which has two
// implementations:
//
//   sim::engine::LegRunner  one rank, this process, zero-copy views — the
//                           runner that executes the legs is itself the
//                           transport;
//   net::FramedTransport    W ranks over connected fds — forked local
//                           `mec worker` ranks over socketpairs
//                           (transport=process) or remote daemons over TCP
//                           (transport=tcp) — speaking one protocol of
//                           length-prefixed CRC32 frames in the .meclog
//                           wire dialect (codec below + obs::crc32).  Each
//                           rank serves the same LegRunner over its fd
//                           (net/worker.cpp).
//
// A barrier step is split in two: start(request) sends every rank on its
// next leg and returns at once, collect() waits for the leg and returns the
// merged views.  Exactly one leg is outstanding at a time, so the calls
// alternate start, collect, start, collect.  The views (and total_q /
// total_q2) stay valid until the next collect(), so the coordinator can
// start leg b+1 and still read barrier b's views while that leg runs.  A
// framed collect() reads every rank's payload as it arrives, under one
// MEC_TRANSPORT_TIMEOUT_MS deadline for the whole barrier; the in-process
// LegRunner only records the request in start() and runs the legs in
// collect(), so there the split changes nothing.
//
// Determinism contract (docs/ARCHITECTURE.md #8): everything in a barrier
// payload is either an order-invariant merge (integer counters, latency
// sketches, integer-valued queue sums) or is replayed serially in global
// time order by the coordinator (the offload log), and ranks own ascending
// contiguous shard ranges, so assembling rank payloads in rank order
// reproduces the global shard order exactly.  The transport choice can
// therefore never change a single result byte — pinned by the byte-equality
// tests in tests/test_transport.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mec/sim/coupling.hpp"
#include "mec/sim/policy_dispatch.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::parallel {

/// The run's shape: everything a rank needs besides its own slice of the
/// population and the run's per-device values.  run_sharded fills it once;
/// it is the base of the coordinator's context, each rank's leg context and
/// the population frame, so each fact is written down in one place.
struct RunShape {
  /// Full population incl. churn users; n_initial is the pre-churn count.
  std::uint32_t n_devices = 0;
  std::uint32_t n_initial = 0;
  std::uint32_t n_clusters = 1;  ///< topology cluster count (1 = scalar gamma)
  std::uint32_t shard_count = 1;  ///< global shard count K
  double warmup = 0.0;
  double t_end = 0.0;  ///< warmup + horizon
  bool has_fixed_gamma = false;
  /// g(fixed_gamma), hoisted off the offload path; 0 with tracked gamma.
  double fixed_delay = 0.0;
  bool with_faults = false;
  sim::OffloadRule rule = sim::OffloadRule::kTro;
};

/// What the coordinator asks every rank to do for one barrier: advance all
/// owned shards to `limit`, then report the listed quantities.  The flags
/// mirror what the pre-rank engine computed at each grid instant, so a rank
/// does no work a single-process run would not have done.
struct BarrierRequest {
  double limit = 0.0;
  bool inclusive = false;        ///< final leg runs events at exactly t_end
  bool want_q = false;           ///< sum of local queue lengths (sample)
  bool want_q2 = false;          ///< also the sum of squares (stream runs)
  bool want_sketches = false;    ///< ship cumulative latency sketches
  bool want_queue_stats = false; ///< per-shard queue diagnostics + leg time
};

/// One shard's barrier-time state as the coordinator consumes it.  Over a
/// framed transport the spans/pointers reference the rank payload decoded
/// for the current barrier; either way they are valid until the next
/// collect().
struct ShardBarrierView {
  std::uint32_t shard = 0;  ///< global shard index
  /// This leg's offloads, in time order.
  std::span<const sim::OffloadRecord> log;
  std::uint64_t events = 0;
  std::uint64_t offloads_in_window = 0;
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  std::span<const std::uint64_t> cluster_offloads;
  /// This shard's own pop opened the window, or one of its fixed-gamma
  /// deliveries landed at or after warm-up (ShardContext::delivery_flip).
  bool flipped = false;
  /// Cumulative sketches; null unless BarrierRequest::want_sketches.
  const stats::LatencySketch* local_sojourns = nullptr;
  const stats::LatencySketch* offload_delays = nullptr;
  // Queue diagnostics; populated only under want_queue_stats.
  bool has_queue_stats = false;
  double queue_depth = 0.0;
  double calendar_gear = 0.0;
  double gear_switches = 0.0;
  double calendar_retunes = 0.0;
  /// Wall seconds of this shard's legs since the previous want_queue_stats
  /// request, this one's included.
  double leg_seconds = 0.0;
};

/// Per-device run totals shipped after finalize(); mirrors the DeviceState
/// accumulators the result-building loop reads.
struct DeviceTotals {
  std::uint64_t arrivals = 0;
  std::uint64_t offloaded = 0;
  std::uint64_t local_completed = 0;
  double queue_integral = 0.0;
  double local_sojourn_sum = 0.0;
  double offload_delay_sum = 0.0;
  double energy_sum = 0.0;
};

/// Wall-clock wire diagnostics for one rank (framed transports only; the
/// in-process rank has no wire to meter).  Feed the kRank*/kTransport*
/// counters in the stream log.
struct RankStats {
  /// The coordinator's wait for this rank's barrier payloads, each from
  /// collect()'s start until the payload was complete, summed over the
  /// legs since the previous want_queue_stats request; latched by the
  /// latest such request's collect().
  double barrier_wait_seconds = 0.0;
  std::uint64_t payload_bytes = 0;    ///< cumulative payload bytes received
  std::uint64_t frames_sent = 0;      ///< coordinator -> rank
  std::uint64_t frames_received = 0;  ///< rank -> coordinator
};

/// Coordinator-side handle on the rank fleet.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::size_t ranks() const = 0;

  /// Sends every rank on the leg to `request.limit`.  Called only when no
  /// leg is outstanding; the previous collect()'s views stay valid.
  virtual void start(const BarrierRequest& request) = 0;

  /// Waits for the outstanding leg and returns the merged views in global
  /// shard order.  Valid until the next collect().
  virtual std::span<const ShardBarrierView> collect() = 0;

  /// Queue sums of the last want_q collect(), rank partials combined in
  /// rank order (exact: the summands are integer-valued).
  virtual double total_q() const = 0;
  virtual double total_q2() const = 0;

  /// Hands the post-epoch threshold array to every rank before its next
  /// leg, so it is called only when no leg is outstanding (framed ranks
  /// decide on copies; the in-process rank reads the array itself, so the
  /// call is a no-op there).
  virtual void broadcast_thresholds(std::span<const double> values) = 0;

  /// Run end: resets measurements of never-flipped shards (when the run's
  /// window opened at all) and integrates every device to t_end.
  virtual void finalize(bool flipped) = 0;
  virtual DeviceTotals device_totals(std::uint32_t device) const = 0;

  /// True when the transport has wire diagnostics worth streaming.
  virtual bool metered() const = 0;
  virtual RankStats rank_stats(std::size_t rank) const = 0;
};

// --- wire protocol (exposed for the format-pinning tests) ------------------

namespace wire {

/// Transport frame kinds.  Frames reuse the .meclog envelope —
/// u32 kind | u32 payload length | payload | u32 CRC32(payload), all
/// little-endian — with kinds disjoint from obs::FrameKind so a misdirected
/// frame can never masquerade as run-log data.
inline constexpr std::uint32_t kFrameAdvance = 0x10;     ///< BarrierRequest
inline constexpr std::uint32_t kFrameThresholds = 0x11;  ///< f64 per device
inline constexpr std::uint32_t kFrameFinalize = 0x12;    ///< u8 flipped
inline constexpr std::uint32_t kFrameHello = 0x13;       ///< handshake
inline constexpr std::uint32_t kFramePopulation = 0x14;  ///< rank's slice
inline constexpr std::uint32_t kFrameBarrier = 0x20;     ///< barrier payload
inline constexpr std::uint32_t kFrameFinal = 0x21;       ///< device totals
inline constexpr std::uint32_t kFrameHelloAck = 0x22;    ///< handshake echo
inline constexpr std::uint32_t kFrameReady = 0x23;       ///< population built
inline constexpr std::uint32_t kFrameError = 0x2F;       ///< worker failure

/// Human-readable frame-kind label for diagnostics, e.g.
/// "barrier payload (kind 0x20)"; unregistered kinds render as "unknown".
std::string frame_kind_name(std::uint32_t kind);

/// Barrier payloads scale with the leg's offload log, so the cap is far
/// above the run-log's (the length field stays u32 either way).
inline constexpr std::uint32_t kMaxTransportPayload = 1u << 30;

/// Wire sizes pinned by the golden-vector tests.
inline constexpr std::size_t kFrameOverhead = 12;  ///< kind + len + crc
inline constexpr std::size_t kOffloadRecordWireSize = 32;
inline constexpr std::size_t kDeviceTotalsWireSize = 56;

/// Envelope: wraps `payload` into a complete frame.
std::vector<std::uint8_t> encode_frame(std::uint32_t kind,
                                       std::span<const std::uint8_t> payload);

struct DecodedFrame {
  std::uint32_t kind = 0;
  std::vector<std::uint8_t> payload;
};

/// Decodes one complete frame from the start of `bytes`; throws
/// mec::RuntimeError on truncation, an oversized length, or CRC mismatch.
/// `consumed`, when given, receives the frame's total size.
DecodedFrame decode_frame(std::span<const std::uint8_t> bytes,
                          std::size_t* consumed = nullptr);

std::vector<std::uint8_t> encode_barrier_request(const BarrierRequest& req);
BarrierRequest decode_barrier_request(std::span<const std::uint8_t> payload);

/// Owning decoded form of one rank's barrier payload; `views()` re-exposes
/// it in the coordinator's ShardBarrierView shape (also how the round-trip
/// property tests re-encode it).
struct RankBarrierData {
  struct Shard {
    std::uint32_t shard = 0;
    std::uint64_t events = 0;
    std::uint64_t offloads_in_window = 0;
    std::uint64_t tasks_lost = 0;
    std::uint64_t offloads_rejected = 0;
    std::uint64_t offloads_penalized = 0;
    std::vector<std::uint64_t> cluster_offloads;
    bool flipped = false;
    std::vector<sim::OffloadRecord> log;
    bool has_sketches = false;
    stats::LatencySketch local_sojourns;
    stats::LatencySketch offload_delays;
    bool has_queue_stats = false;
    double queue_depth = 0.0;
    double calendar_gear = 0.0;
    double gear_switches = 0.0;
    double calendar_retunes = 0.0;
    double leg_seconds = 0.0;
  };
  std::vector<Shard> shards;
  bool has_q = false;
  double total_q = 0.0;
  double total_q2 = 0.0;

  std::vector<ShardBarrierView> views() const;
};

/// Serializes one rank's barrier state (shard views in ascending order plus
/// the optional queue sums).  Sketches/queue stats are written per the
/// views' pointers and flags, so encode(decode(x).views()) == x.
std::vector<std::uint8_t> encode_barrier_payload(
    std::span<const ShardBarrierView> views, bool has_q, double total_q,
    double total_q2);
RankBarrierData decode_barrier_payload(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_thresholds(std::span<const double> values);
std::vector<double> decode_thresholds(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_device_totals(
    std::uint32_t device_lo, std::uint32_t device_hi,
    std::span<const DeviceTotals> totals);
struct FinalTotals {
  std::uint32_t device_lo = 0;
  std::uint32_t device_hi = 0;
  std::vector<DeviceTotals> totals;
};
FinalTotals decode_device_totals(std::span<const std::uint8_t> payload);

/// The one-field payloads: the finalize request's flipped flag (u8), a
/// ready frame's rank echo (u32) and a worker error's message (u32 length,
/// then the bytes).
std::vector<std::uint8_t> encode_finalize(bool flipped);
bool decode_finalize(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_ready(std::uint32_t rank);
std::uint32_t decode_ready(std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> encode_error(std::string_view message);
std::string decode_error(std::span<const std::uint8_t> payload);

// --- deadline-bounded fd framing (coordinator and worker sides) -------------

/// Peer-liveness failure on a framed channel: the fd hit EOF at a frame
/// boundary (kClosed) or the read deadline expired (kTimeout).  Transports
/// catch this to attach rank / peer-address / barrier context; wire-format
/// corruption (CRC, oversize) stays a plain mec::RuntimeError because it is
/// a protocol fault, not a liveness one.
class PeerError final : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t { kClosed, kTimeout };
  PeerError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Writes one complete frame to `fd`; short writes and EINTR are retried
/// until the whole envelope is on the wire.
void write_frame(int fd, std::uint32_t kind,
                 std::span<const std::uint8_t> payload);

/// The one frame parser of every framed endpoint: reads one frame from a
/// stream fd in steps — the 8-byte header, then the payload and its CRC —
/// so a caller polling several fds feeds each reader whenever its fd is
/// ready.  The size cap is checked once the header is in, the CRC once the
/// body is.
class FrameReader {
 public:
  /// Issues one read() for bytes the frame still lacks and returns true
  /// once the frame is complete and checked (an interrupted read makes no
  /// progress).  Throws PeerError(kClosed) on EOF and mec::RuntimeError on
  /// a read error, an oversized length or a CRC mismatch.
  bool read_some(int fd);
  /// Moves the completed frame out and readies the reader for the next.
  DecodedFrame take();

 private:
  std::uint8_t header_[8] = {};
  std::size_t header_have_ = 0;
  std::vector<std::uint8_t> body_;  ///< payload + CRC, once the header is in
  std::size_t body_have_ = 0;
};

/// Reads one complete frame from `fd` within `timeout_ms` by driving a
/// FrameReader from poll().  The deadline covers the whole frame, not each
/// chunk.  A negative `timeout_ms` waits without a deadline (a worker's
/// barrier loop: the coordinator may spend arbitrarily long between
/// barriers).  Throws what FrameReader throws, PeerError(kTimeout) at the
/// deadline, and mec::RuntimeError on a poll error.
DecodedFrame read_frame_deadline(int fd, long timeout_ms);

}  // namespace wire

/// Upper bound accepted for MEC_TRANSPORT_TIMEOUT_MS (24 h, in ms).
inline constexpr long kMaxTransportTimeoutMs = 86'400'000;

/// Resolves the per-read transport deadline: MEC_TRANSPORT_TIMEOUT_MS when
/// set, else `fallback_ms`.  A malformed or out-of-range value throws
/// mec::RuntimeError naming the variable and the accepted range
/// [1, 86400000] instead of silently falling back (same contract as
/// MEC_SHARDS in resolve_shard_count).
long resolve_transport_timeout_ms(long fallback_ms = 300000);

}  // namespace mec::parallel
