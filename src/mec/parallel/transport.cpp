#include "mec/parallel/transport.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/obs/wire.hpp"

namespace mec::parallel {

namespace wire {

using obs::wire::ByteReader;
using obs::wire::ByteWriter;
using obs::wire::decode_whole;
using obs::wire::encode_whole;
using obs::wire::load_le;

// The wire layout below spells out every field explicitly; these asserts
// pin the in-memory layouts the format mirrors, so a field added to either
// struct breaks the build here instead of silently skewing the protocol.
static_assert(sizeof(sim::OffloadRecord) == 32 &&
                  offsetof(sim::OffloadRecord, time) == 0 &&
                  offsetof(sim::OffloadRecord, latency) == 8 &&
                  offsetof(sim::OffloadRecord, penalty) == 16 &&
                  offsetof(sim::OffloadRecord, device) == 24 &&
                  offsetof(sim::OffloadRecord, cluster) == 28 &&
                  offsetof(sim::OffloadRecord, measured) == 30 &&
                  offsetof(sim::OffloadRecord, penalized) == 31,
              "OffloadRecord layout drifted; update the wire codec and "
              "kOffloadRecordWireSize together");
static_assert(kOffloadRecordWireSize == 32);
static_assert(sizeof(DeviceTotals) == 56 &&
                  offsetof(DeviceTotals, arrivals) == 0 &&
                  offsetof(DeviceTotals, offloaded) == 8 &&
                  offsetof(DeviceTotals, local_completed) == 16 &&
                  offsetof(DeviceTotals, queue_integral) == 24 &&
                  offsetof(DeviceTotals, local_sojourn_sum) == 32 &&
                  offsetof(DeviceTotals, offload_delay_sum) == 40 &&
                  offsetof(DeviceTotals, energy_sum) == 48,
              "DeviceTotals layout drifted; update the wire codec and "
              "kDeviceTotalsWireSize together");
static_assert(kDeviceTotalsWireSize == 56);

/// The fewest bytes one shard block of a barrier payload can take: shard id,
/// five u64 totals, the cluster and log counts and the three u8 flags.
constexpr std::size_t kMinShardWireSize = 4 + 5 * 8 + 4 + 4 + 3;

std::string frame_kind_name(std::uint32_t kind) {
  const char* name = "unknown";
  switch (kind) {
    case kFrameAdvance:
      name = "advance request";
      break;
    case kFrameThresholds:
      name = "threshold broadcast";
      break;
    case kFrameFinalize:
      name = "finalize request";
      break;
    case kFrameHello:
      name = "hello";
      break;
    case kFramePopulation:
      name = "population";
      break;
    case kFrameBarrier:
      name = "barrier payload";
      break;
    case kFrameFinal:
      name = "final device totals";
      break;
    case kFrameHelloAck:
      name = "hello ack";
      break;
    case kFrameReady:
      name = "population ready";
      break;
    case kFrameError:
      name = "worker error";
      break;
    default:
      break;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s (kind 0x%02X)", name, kind);
  return buf;
}

std::vector<std::uint8_t> encode_frame(
    std::uint32_t kind, std::span<const std::uint8_t> payload) {
  MEC_EXPECTS_MSG(payload.size() <= kMaxTransportPayload,
                  "transport frame payload exceeds the size cap");
  ByteWriter w(kFrameOverhead + payload.size());
  w.put_u32(kind);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_bytes(payload.data(), payload.size());
  w.put_u32(obs::crc32(payload));
  return w.take();
}

DecodedFrame decode_frame(std::span<const std::uint8_t> bytes,
                          std::size_t* consumed) {
  ByteReader r(bytes);
  if (bytes.size() < kFrameOverhead)
    throw RuntimeError("transport frame truncated");
  DecodedFrame frame;
  frame.kind = r.get_u32();
  const std::uint32_t len = r.get_u32();
  if (len > kMaxTransportPayload)
    throw RuntimeError("transport frame length exceeds the size cap");
  if (bytes.size() < kFrameOverhead + len)
    throw RuntimeError("transport frame truncated");
  frame.payload.assign(bytes.begin() + 8, bytes.begin() + 8 + len);
  ByteReader tail(bytes.subspan(8 + len, 4));
  if (tail.get_u32() != obs::crc32(frame.payload))
    throw RuntimeError("transport frame CRC mismatch");
  if (consumed != nullptr) *consumed = kFrameOverhead + len;
  return frame;
}

namespace {

constexpr auto request_fields = []<class Io, class R>(Io& io, R& req) {
  io(req.limit, req.inclusive, req.want_q, req.want_q2, req.want_sketches,
     req.want_queue_stats);
};

constexpr auto record_fields = []<class Io, class R>(Io& io, R& rec) {
  io(rec.time, rec.latency, rec.penalty, rec.device, rec.cluster, rec.measured,
     rec.penalized);
};

// A sketch's state is private; restore() validates it on the way in.
void encode_sketch(ByteWriter& w, const stats::LatencySketch& sketch) {
  w(sketch.count());
  if (sketch.count() == 0) return;
  w(sketch.min(), sketch.max());
  w.items(sketch.bin_counts(), 8, "sketch bins");
}

stats::LatencySketch decode_sketch(ByteReader& r) {
  std::uint64_t count = 0;
  r(count);
  if (count == 0) return stats::LatencySketch{};
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> bins;
  r(min, max);
  r.items(bins, 8, "sketch bins");
  if (bins.size() != stats::LatencySketch::bin_count())
    throw RuntimeError("transport sketch bin count mismatch");
  return stats::LatencySketch::restore(count, min, max, bins);
}

/// One shard block, written from a ShardBarrierView and read into a
/// RankBarrierData::Shard; only the sketches differ between the two.
constexpr auto shard_fields = []<class Io, class S>(Io& io, S& s) {
  io(s.shard, s.events, s.offloads_in_window, s.tasks_lost, s.offloads_rejected,
     s.offloads_penalized);
  io.items(s.cluster_offloads, 8, "barrier cluster offload counts");
  io(s.flipped);
  io.items(s.log, kOffloadRecordWireSize, "barrier offload records",
           record_fields);
  if constexpr (Io::kReading) {
    io(s.has_sketches);
    if (s.has_sketches) {
      s.local_sojourns = decode_sketch(io);
      s.offload_delays = decode_sketch(io);
    }
  } else {
    const bool has_sketches = s.local_sojourns != nullptr;
    io(has_sketches);
    if (has_sketches) {
      encode_sketch(io, *s.local_sojourns);
      encode_sketch(io, *s.offload_delays);
    }
  }
  io(s.has_queue_stats);
  if (s.has_queue_stats)
    io(s.queue_depth, s.calendar_gear, s.gear_switches, s.calendar_retunes,
       s.leg_seconds);
};

constexpr auto barrier_fields = []<class Io, class P>(Io& io, P& p) {
  io.items(p.shards, kMinShardWireSize, "barrier shard blocks", shard_fields);
  io(p.has_q);
  if (p.has_q) io(p.total_q, p.total_q2);
};

constexpr auto thresholds_fields = []<class Io, class V>(Io& io, V& values) {
  io.items(values, 8, "thresholds");
};

constexpr auto totals_fields = []<class Io, class T>(Io& io, T& t) {
  io(t.arrivals, t.offloaded, t.local_completed, t.queue_integral,
     t.local_sojourn_sum, t.offload_delay_sum, t.energy_sum);
};

/// The device range, then one totals record per device: the range, not a
/// count, sizes the list.
constexpr auto final_fields = []<class Io, class F>(Io& io, F& f) {
  io(f.device_lo, f.device_hi);
  if constexpr (Io::kReading) {
    if (f.device_hi < f.device_lo)
      throw RuntimeError("transport final-totals device range is inverted");
    io.need_items(f.device_hi - f.device_lo, kDeviceTotalsWireSize,
                  "final device totals");
    f.totals.resize(f.device_hi - f.device_lo);
  }
  for (auto& t : f.totals) totals_fields(io, t);
};

}  // namespace

std::vector<std::uint8_t> encode_barrier_request(const BarrierRequest& req) {
  return encode_whole(req, request_fields, 13);
}

BarrierRequest decode_barrier_request(std::span<const std::uint8_t> payload) {
  return decode_whole<BarrierRequest>(
      payload, "transport barrier request has trailing bytes", request_fields);
}

std::vector<std::uint8_t> encode_barrier_payload(
    std::span<const ShardBarrierView> views, bool has_q, double total_q,
    double total_q2) {
  // A full sketch is its count, extrema, bin count and every bin.
  constexpr std::size_t kSketchWireSize =
      8 + 8 + 8 + 4 + stats::LatencySketch::bin_count() * 8;
  std::size_t reserve = 16;
  for (const ShardBarrierView& v : views)
    reserve += 128 + v.log.size() * kOffloadRecordWireSize +
               v.cluster_offloads.size() * 8 +
               (v.local_sojourns != nullptr ? 2 * kSketchWireSize : 0);
  const struct {
    std::span<const ShardBarrierView> shards;
    bool has_q;
    double total_q;
    double total_q2;
  } payload{views, has_q, total_q, total_q2};
  return encode_whole(payload, barrier_fields, reserve);
}

RankBarrierData decode_barrier_payload(std::span<const std::uint8_t> payload) {
  return decode_whole<RankBarrierData>(
      payload, "transport barrier payload has trailing bytes", barrier_fields);
}

std::vector<ShardBarrierView> RankBarrierData::views() const {
  std::vector<ShardBarrierView> out;
  out.reserve(shards.size());
  for (const Shard& s : shards) {
    ShardBarrierView v;
    v.shard = s.shard;
    v.log = s.log;
    v.events = s.events;
    v.offloads_in_window = s.offloads_in_window;
    v.tasks_lost = s.tasks_lost;
    v.offloads_rejected = s.offloads_rejected;
    v.offloads_penalized = s.offloads_penalized;
    v.cluster_offloads = s.cluster_offloads;
    v.flipped = s.flipped;
    if (s.has_sketches) {
      v.local_sojourns = &s.local_sojourns;
      v.offload_delays = &s.offload_delays;
    }
    if (s.has_queue_stats) {
      v.has_queue_stats = true;
      v.queue_depth = s.queue_depth;
      v.calendar_gear = s.calendar_gear;
      v.gear_switches = s.gear_switches;
      v.calendar_retunes = s.calendar_retunes;
      v.leg_seconds = s.leg_seconds;
    }
    out.push_back(v);
  }
  return out;
}

std::vector<std::uint8_t> encode_thresholds(std::span<const double> values) {
  return encode_whole(values, thresholds_fields, 4 + values.size() * 8);
}

std::vector<double> decode_thresholds(std::span<const std::uint8_t> payload) {
  return decode_whole<std::vector<double>>(
      payload, "transport threshold payload has trailing bytes",
      thresholds_fields);
}

std::vector<std::uint8_t> encode_device_totals(
    std::uint32_t device_lo, std::uint32_t device_hi,
    std::span<const DeviceTotals> totals) {
  MEC_EXPECTS(device_hi - device_lo == totals.size());
  const struct {
    std::uint32_t device_lo;
    std::uint32_t device_hi;
    std::span<const DeviceTotals> totals;
  } payload{device_lo, device_hi, totals};
  return encode_whole(payload, final_fields,
                      8 + totals.size() * kDeviceTotalsWireSize);
}

FinalTotals decode_device_totals(std::span<const std::uint8_t> payload) {
  return decode_whole<FinalTotals>(
      payload, "transport final-totals payload has trailing bytes",
      final_fields);
}

std::vector<std::uint8_t> encode_finalize(bool flipped) {
  return encode_whole(flipped, obs::wire::one_field, 1);
}

bool decode_finalize(std::span<const std::uint8_t> payload) {
  return decode_whole<bool>(payload,
                            "transport finalize request has trailing bytes",
                            obs::wire::one_field);
}

std::vector<std::uint8_t> encode_ready(std::uint32_t rank) {
  return encode_whole(rank, obs::wire::one_field, 4);
}

std::uint32_t decode_ready(std::span<const std::uint8_t> payload) {
  return decode_whole<std::uint32_t>(
      payload, "transport ready frame has trailing bytes",
      obs::wire::one_field);
}

std::vector<std::uint8_t> encode_error(std::string_view message) {
  return encode_whole(message, obs::wire::one_field, 4 + message.size());
}

std::string decode_error(std::span<const std::uint8_t> payload) {
  return decode_whole<std::string>(
      payload, "transport error frame has trailing bytes",
      obs::wire::one_field);
}

}  // namespace wire

// --- fd plumbing -----------------------------------------------------------

namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw RuntimeError(std::string("transport write failed: ") +
                         std::strerror(errno));
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

}  // namespace

long resolve_transport_timeout_ms(long fallback_ms) {
  const char* env = std::getenv("MEC_TRANSPORT_TIMEOUT_MS");
  if (env == nullptr || *env == '\0') return fallback_ms;
  // Same eager-validation contract as MEC_SHARDS (resolve_shard_count): a
  // malformed or out-of-range deadline is a run-killing misconfiguration,
  // not something to paper over with the default.
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(env, &end, 10);
  const bool clean = std::isdigit(static_cast<unsigned char>(*env)) &&
                     end != env && *end == '\0' && errno == 0;
  if (!clean || parsed < 1 || parsed > kMaxTransportTimeoutMs)
    throw RuntimeError("MEC_TRANSPORT_TIMEOUT_MS=\"" + std::string(env) +
                       "\" is not a valid read deadline (expected an integer "
                       "number of milliseconds in [1, " +
                       std::to_string(kMaxTransportTimeoutMs) + "])");
  return parsed;
}

namespace wire {

void write_frame(int fd, std::uint32_t kind,
                 std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = encode_frame(kind, payload);
  write_all(fd, frame.data(), frame.size());
}

bool FrameReader::read_some(int fd) {
  const bool in_header = header_have_ < sizeof header_;
  const ssize_t r =
      in_header
          ? ::read(fd, header_ + header_have_, sizeof header_ - header_have_)
          : ::read(fd, body_.data() + body_have_, body_.size() - body_have_);
  if (r < 0) {
    if (errno == EINTR) return false;
    throw RuntimeError(std::string("transport read failed: ") +
                       std::strerror(errno));
  }
  if (r == 0)
    throw PeerError(PeerError::Kind::kClosed,
                    "transport peer closed the channel");
  if (in_header) {
    header_have_ += static_cast<std::size_t>(r);
    if (header_have_ == sizeof header_) {
      const auto len = load_le<std::uint32_t>(header_ + 4);
      if (len > kMaxTransportPayload)
        throw RuntimeError("transport frame length exceeds the size cap");
      body_.resize(static_cast<std::size_t>(len) + 4);
    }
    return false;
  }
  body_have_ += static_cast<std::size_t>(r);
  if (body_have_ < body_.size()) return false;
  const std::size_t len = body_.size() - 4;
  if (load_le<std::uint32_t>(body_.data() + len) !=
      obs::crc32({body_.data(), len}))
    throw RuntimeError("transport frame CRC mismatch");
  return true;
}

DecodedFrame FrameReader::take() {
  DecodedFrame frame;
  frame.kind = load_le<std::uint32_t>(header_);
  body_.resize(body_.size() - 4);  // drop the CRC; the payload keeps the buffer
  frame.payload = std::move(body_);
  body_.clear();
  header_have_ = 0;
  body_have_ = 0;
  return frame;
}

DecodedFrame read_frame_deadline(int fd, long timeout_ms) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? timeout_ms : 0);
  FrameReader reader;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (bounded && now >= deadline)
      throw PeerError(PeerError::Kind::kTimeout,
                      "transport read deadline expired after " +
                          std::to_string(timeout_ms) + " ms");
    struct pollfd pfd{fd, POLLIN, 0};
    const long wait_ms =
        bounded ? std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                          .count() +
                      1
                : -1;
    const int ready = ::poll(&pfd, 1, static_cast<int>(wait_ms));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw RuntimeError(std::string("transport poll failed: ") +
                         std::strerror(errno));
    }
    // A timed-out poll returns to the deadline check at the loop head.
    if (ready > 0 && reader.read_some(fd)) return reader.take();
  }
}

}  // namespace wire

}  // namespace mec::parallel
