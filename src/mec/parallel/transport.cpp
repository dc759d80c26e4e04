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

std::vector<std::uint8_t> encode_barrier_request(const BarrierRequest& req) {
  ByteWriter w(13);
  w.put_f64(req.limit);
  w.put_u8(req.inclusive ? 1 : 0);
  w.put_u8(req.want_q ? 1 : 0);
  w.put_u8(req.want_q2 ? 1 : 0);
  w.put_u8(req.want_sketches ? 1 : 0);
  w.put_u8(req.want_queue_stats ? 1 : 0);
  return w.take();
}

BarrierRequest decode_barrier_request(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  BarrierRequest req;
  req.limit = r.get_f64();
  req.inclusive = r.get_u8() != 0;
  req.want_q = r.get_u8() != 0;
  req.want_q2 = r.get_u8() != 0;
  req.want_sketches = r.get_u8() != 0;
  req.want_queue_stats = r.get_u8() != 0;
  return req;
}

namespace {

void encode_sketch(ByteWriter& w, const stats::LatencySketch& sketch) {
  w.put_u64(sketch.count());
  if (sketch.count() == 0) return;
  w.put_f64(sketch.min());
  w.put_f64(sketch.max());
  const auto bins = sketch.bin_counts();
  w.put_u32(static_cast<std::uint32_t>(bins.size()));
  for (const std::uint64_t b : bins) w.put_u64(b);
}

stats::LatencySketch decode_sketch(ByteReader& r,
                                   std::vector<std::uint64_t>& bin_scratch) {
  const std::uint64_t count = r.get_u64();
  if (count == 0) return stats::LatencySketch{};
  const double min = r.get_f64();
  const double max = r.get_f64();
  const std::uint32_t n_bins = r.get_u32();
  if (n_bins != stats::LatencySketch::bin_count())
    throw RuntimeError("transport sketch bin count mismatch");
  bin_scratch.resize(n_bins);
  for (std::uint32_t i = 0; i < n_bins; ++i) bin_scratch[i] = r.get_u64();
  return stats::LatencySketch::restore(count, min, max, bin_scratch);
}

}  // namespace

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
  ByteWriter w(reserve);
  w.put_u32(static_cast<std::uint32_t>(views.size()));
  for (const ShardBarrierView& v : views) {
    w.put_u32(v.shard);
    w.put_u64(v.events);
    w.put_u64(v.offloads_in_window);
    w.put_u64(v.tasks_lost);
    w.put_u64(v.offloads_rejected);
    w.put_u64(v.offloads_penalized);
    w.put_u32(static_cast<std::uint32_t>(v.cluster_offloads.size()));
    for (const std::uint64_t c : v.cluster_offloads) w.put_u64(c);
    w.put_u8(v.flipped ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(v.log.size()));
    for (const sim::OffloadRecord& rec : v.log) {
      w.put_f64(rec.time);
      w.put_f64(rec.latency);
      w.put_f64(rec.penalty);
      w.put_u32(rec.device);
      w.put_u16(rec.cluster);
      w.put_u8(rec.measured ? 1 : 0);
      w.put_u8(rec.penalized ? 1 : 0);
    }
    const bool has_sketches = v.local_sojourns != nullptr;
    w.put_u8(has_sketches ? 1 : 0);
    if (has_sketches) {
      encode_sketch(w, *v.local_sojourns);
      encode_sketch(w, *v.offload_delays);
    }
    w.put_u8(v.has_queue_stats ? 1 : 0);
    if (v.has_queue_stats) {
      w.put_f64(v.queue_depth);
      w.put_f64(v.calendar_gear);
      w.put_f64(v.gear_switches);
      w.put_f64(v.calendar_retunes);
      w.put_f64(v.leg_seconds);
    }
  }
  w.put_u8(has_q ? 1 : 0);
  if (has_q) {
    w.put_f64(total_q);
    w.put_f64(total_q2);
  }
  return w.take();
}

RankBarrierData decode_barrier_payload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  RankBarrierData data;
  std::vector<std::uint64_t> bin_scratch;
  const std::uint32_t n_shards = r.get_u32();
  r.need_items(n_shards, kMinShardWireSize, "barrier shard blocks");
  data.shards.resize(n_shards);
  for (RankBarrierData::Shard& s : data.shards) {
    s.shard = r.get_u32();
    s.events = r.get_u64();
    s.offloads_in_window = r.get_u64();
    s.tasks_lost = r.get_u64();
    s.offloads_rejected = r.get_u64();
    s.offloads_penalized = r.get_u64();
    const std::uint32_t n_clusters = r.get_u32();
    r.need_items(n_clusters, 8, "barrier cluster offload counts");
    s.cluster_offloads.resize(n_clusters);
    for (std::uint32_t k = 0; k < n_clusters; ++k)
      s.cluster_offloads[k] = r.get_u64();
    s.flipped = r.get_u8() != 0;
    const std::uint32_t n_log = r.get_u32();
    r.need_items(n_log, kOffloadRecordWireSize, "barrier offload records");
    s.log.resize(n_log);
    for (sim::OffloadRecord& rec : s.log) {
      rec.time = r.get_f64();
      rec.latency = r.get_f64();
      rec.penalty = r.get_f64();
      rec.device = r.get_u32();
      rec.cluster = r.get_u16();
      rec.measured = r.get_u8() != 0;
      rec.penalized = r.get_u8() != 0;
    }
    s.has_sketches = r.get_u8() != 0;
    if (s.has_sketches) {
      s.local_sojourns = decode_sketch(r, bin_scratch);
      s.offload_delays = decode_sketch(r, bin_scratch);
    }
    s.has_queue_stats = r.get_u8() != 0;
    if (s.has_queue_stats) {
      s.queue_depth = r.get_f64();
      s.calendar_gear = r.get_f64();
      s.gear_switches = r.get_f64();
      s.calendar_retunes = r.get_f64();
      s.leg_seconds = r.get_f64();
    }
  }
  data.has_q = r.get_u8() != 0;
  if (data.has_q) {
    data.total_q = r.get_f64();
    data.total_q2 = r.get_f64();
  }
  if (!r.exhausted())
    throw RuntimeError("transport barrier payload has trailing bytes");
  return data;
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
  ByteWriter w(4 + values.size() * 8);
  w.put_u32(static_cast<std::uint32_t>(values.size()));
  for (const double v : values) w.put_f64(v);
  return w.take();
}

std::vector<double> decode_thresholds(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint32_t count = r.get_u32();
  r.need_items(count, 8, "thresholds");
  std::vector<double> values(count);
  for (std::uint32_t i = 0; i < count; ++i) values[i] = r.get_f64();
  return values;
}

std::vector<std::uint8_t> encode_device_totals(
    std::uint32_t device_lo, std::uint32_t device_hi,
    std::span<const DeviceTotals> totals) {
  MEC_EXPECTS(device_hi - device_lo == totals.size());
  ByteWriter w(8 + totals.size() * kDeviceTotalsWireSize);
  w.put_u32(device_lo);
  w.put_u32(device_hi);
  for (const DeviceTotals& t : totals) {
    w.put_u64(t.arrivals);
    w.put_u64(t.offloaded);
    w.put_u64(t.local_completed);
    w.put_f64(t.queue_integral);
    w.put_f64(t.local_sojourn_sum);
    w.put_f64(t.offload_delay_sum);
    w.put_f64(t.energy_sum);
  }
  return w.take();
}

FinalTotals decode_device_totals(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  FinalTotals out;
  out.device_lo = r.get_u32();
  out.device_hi = r.get_u32();
  if (out.device_hi < out.device_lo)
    throw RuntimeError("transport final-totals device range is inverted");
  r.need_items(out.device_hi - out.device_lo, kDeviceTotalsWireSize,
               "final device totals");
  out.totals.resize(out.device_hi - out.device_lo);
  for (DeviceTotals& t : out.totals) {
    t.arrivals = r.get_u64();
    t.offloaded = r.get_u64();
    t.local_completed = r.get_u64();
    t.queue_integral = r.get_f64();
    t.local_sojourn_sum = r.get_f64();
    t.offload_delay_sum = r.get_f64();
    t.energy_sum = r.get_f64();
  }
  if (!r.exhausted())
    throw RuntimeError("transport final-totals payload has trailing bytes");
  return out;
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
