// Wire-format pinning for the rank-transport frames (parallel/transport.cpp)
// and the .meclog envelope they share.
//
// The transport protocol is a cross-process contract: a coordinator built
// from one revision of the tree must refuse — not misparse — frames from a
// worker built from another.  Three layers of defense are pinned here:
//
//   1. golden byte vectors: the exact on-wire bytes of the envelope and of
//      each payload codec, so any layout drift (field order, width,
//      endianness) fails loudly against hand-written expectations;
//   2. rejection tests: truncation at every byte boundary, CRC corruption
//      at every byte position, oversized length fields, trailing bytes,
//      and declared counts the payload cannot hold;
//   3. round-trip property tests: randomized payloads survive
//      encode -> decode -> re-encode bit-identically.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/net/protocol.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;
using namespace mec::parallel;

std::vector<std::uint8_t> bytes(std::initializer_list<unsigned> vals) {
  std::vector<std::uint8_t> out;
  out.reserve(vals.size());
  for (const unsigned v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

void append_f64_le(std::vector<std::uint8_t>& out, double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((u >> (8 * i)) & 0xFFu));
}

void append_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

void append_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu));
}

/// Overwrites the little-endian u32 at `at`, after checking it holds
/// `expected`, so a test that patches a count cannot patch the wrong field.
void patch_u32_le(std::vector<std::uint8_t>& out, std::size_t at,
                  std::uint32_t expected, std::uint32_t v) {
  ASSERT_LE(at + 4, out.size());
  std::uint32_t old = 0;
  for (int i = 0; i < 4; ++i)
    old |= static_cast<std::uint32_t>(out[at + static_cast<std::size_t>(i)])
           << (8 * i);
  ASSERT_EQ(old, expected) << "at=" << at;
  for (int i = 0; i < 4; ++i)
    out[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return {};
}

/// Expects `decode` to refuse a declared count of 0xFFFFFFFF `field` by
/// name, with the bytes left, before it sizes anything from the count.
void expect_count_refused(const std::function<void()>& decode,
                          const std::string& field) {
  const std::string what = thrown_message(decode);
  EXPECT_NE(what.find("declares 4294967295 " + field + " of "),
            std::string::npos)
      << what;
  EXPECT_NE(what.find(" bytes remain"), std::string::npos) << what;
}

// --- envelope --------------------------------------------------------------

TEST(TransportWire, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 (IEEE 802.3, reflected) check value: any change to
  // the polynomial, reflection, or final XOR breaks every stored log.
  const std::string check = "123456789";
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(obs::crc32(payload), 0xCBF43926u);
}

/// The bytewise table loop obs::crc32 ran before slice-by-8, kept as the
/// reference the word-at-a-time loop must match.
std::uint32_t reference_crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(TransportWire, Crc32MatchesTheBytewiseReference) {
  // Every length 0-256 covers the 8-byte blocks and every tail length;
  // every start offset 0-7 covers every alignment of the word loads.
  std::mt19937_64 gen(20261018);
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(gen());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(obs::crc32(s), reference_crc32(s))
          << "offset=" << offset << " len=" << len;
    }
  }
  EXPECT_EQ(obs::crc32(buf), reference_crc32(buf));
}

TEST(TransportWire, ByteswapReversesEveryWidth) {
  // The codec swaps only on a big-endian host; pin the swap itself here.
  EXPECT_EQ(obs::wire::byteswap(std::uint8_t{0xAB}), 0xABu);
  EXPECT_EQ(obs::wire::byteswap(std::uint16_t{0x0102}), 0x0201u);
  EXPECT_EQ(obs::wire::byteswap(std::uint32_t{0x01020304u}), 0x04030201u);
  EXPECT_EQ(obs::wire::byteswap(std::uint64_t{0x0102030405060708ull}),
            0x0807060504030201ull);
}

TEST(TransportWire, FrameEnvelopeMatchesTheGoldenBytes) {
  // u32 kind | u32 length | payload | u32 CRC32(payload), all little-endian.
  const std::vector<std::uint8_t> payload =
      bytes({0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39});
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::kFrameAdvance, payload);
  const std::vector<std::uint8_t> golden = bytes({
      0x10, 0x00, 0x00, 0x00,                                // kind = 0x10
      0x09, 0x00, 0x00, 0x00,                                // length = 9
      0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,  // "123456789"
      0x26, 0x39, 0xF4, 0xCB,                                // CRC 0xCBF43926
  });
  EXPECT_EQ(frame, golden);
  EXPECT_EQ(frame.size(), wire::kFrameOverhead + payload.size());

  std::size_t consumed = 0;
  const wire::DecodedFrame decoded = wire::decode_frame(frame, &consumed);
  EXPECT_EQ(decoded.kind, wire::kFrameAdvance);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(consumed, frame.size());
}

TEST(TransportWire, FrameKindsArePinnedAndDisjointFromRunLogKinds) {
  // Renumbering a frame kind silently breaks cross-revision runs; pin them.
  EXPECT_EQ(wire::kFrameAdvance, 0x10u);
  EXPECT_EQ(wire::kFrameThresholds, 0x11u);
  EXPECT_EQ(wire::kFrameFinalize, 0x12u);
  EXPECT_EQ(wire::kFrameHello, 0x13u);
  EXPECT_EQ(wire::kFramePopulation, 0x14u);
  EXPECT_EQ(wire::kFrameBarrier, 0x20u);
  EXPECT_EQ(wire::kFrameFinal, 0x21u);
  EXPECT_EQ(wire::kFrameHelloAck, 0x22u);
  EXPECT_EQ(wire::kFrameReady, 0x23u);
  EXPECT_EQ(wire::kFrameError, 0x2Fu);
  // Disjoint from obs::FrameKind (1..4), so a misdirected frame can never
  // masquerade as run-log data.
  EXPECT_GT(wire::kFrameAdvance,
            static_cast<std::uint32_t>(obs::FrameKind::kFooter));
}

TEST(TransportWire, DecodeRejectsTruncationAtEveryByteBoundary) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_THROW(wire::decode_frame(prefix), RuntimeError) << "cut=" << cut;
  }
  const std::string what = thrown_message(
      [&] { wire::decode_frame(std::span(frame.data(), frame.size() - 1)); });
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST(TransportWire, DecodeRejectsCorruptionAtEveryBytePosition) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  // Any flipped bit in the payload or the checksum is a CRC mismatch.  (A
  // corrupted kind/length header is also rejected, but the diagnostic
  // depends on which field the flip lands in.)
  for (std::size_t pos = 8; pos < frame.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x01;
    const std::string what =
        thrown_message([&] { wire::decode_frame(corrupt); });
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos)
        << "pos=" << pos << " what=" << what;
  }
}

TEST(TransportWire, DecodeRejectsOversizedLengthFields) {
  std::vector<std::uint8_t> frame = wire::encode_frame(
      wire::kFrameBarrier, bytes({0xDE, 0xAD, 0xBE, 0xEF}));
  for (std::size_t i = 4; i < 8; ++i) frame[i] = 0xFF;  // length = 2^32 - 1
  const std::string what = thrown_message([&] { wire::decode_frame(frame); });
  EXPECT_NE(what.find("size cap"), std::string::npos) << what;
}

// --- barrier request -------------------------------------------------------

TEST(TransportWire, BarrierRequestMatchesTheGoldenBytes) {
  BarrierRequest req;
  req.limit = 1.0;
  req.inclusive = true;
  req.want_q = false;
  req.want_q2 = true;
  req.want_sketches = false;
  req.want_queue_stats = true;
  const std::vector<std::uint8_t> golden = bytes({
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
      0x01, 0x00, 0x01, 0x00, 0x01,                    // the five flags
  });
  EXPECT_EQ(wire::encode_barrier_request(req), golden);
}

TEST(TransportWire, BarrierRequestRoundTripsEveryFlagCombination) {
  for (unsigned mask = 0; mask < 32; ++mask) {
    BarrierRequest req;
    req.limit = 0.125 * static_cast<double>(mask + 1);
    req.inclusive = (mask & 1u) != 0;
    req.want_q = (mask & 2u) != 0;
    req.want_q2 = (mask & 4u) != 0;
    req.want_sketches = (mask & 8u) != 0;
    req.want_queue_stats = (mask & 16u) != 0;
    const BarrierRequest back =
        wire::decode_barrier_request(wire::encode_barrier_request(req));
    EXPECT_EQ(back.limit, req.limit);
    EXPECT_EQ(back.inclusive, req.inclusive);
    EXPECT_EQ(back.want_q, req.want_q);
    EXPECT_EQ(back.want_q2, req.want_q2);
    EXPECT_EQ(back.want_sketches, req.want_sketches);
    EXPECT_EQ(back.want_queue_stats, req.want_queue_stats);
  }
}

// --- thresholds ------------------------------------------------------------

TEST(TransportWire, ThresholdsMatchTheGoldenBytes) {
  std::vector<std::uint8_t> golden = bytes({0x02, 0x00, 0x00, 0x00});
  append_f64_le(golden, 1.0);
  append_f64_le(golden, -1.0);
  const double values[] = {1.0, -1.0};
  EXPECT_EQ(wire::encode_thresholds(values), golden);
  EXPECT_EQ(wire::decode_thresholds(golden), std::vector<double>(
                                                 {1.0, -1.0}));
}

TEST(TransportWire, ThresholdsRefuseACountThePayloadCannotHold) {
  const double values[] = {1.0, -1.0};
  std::vector<std::uint8_t> enc = wire::encode_thresholds(values);
  patch_u32_le(enc, 0, 2, 0xFFFFFFFFu);
  EXPECT_EQ(thrown_message([&] { wire::decode_thresholds(enc); }),
            "payload declares 4294967295 thresholds of 8 bytes each, but 16 "
            "bytes remain");
}

// --- one-field payloads ----------------------------------------------------

TEST(TransportWire, FinalizeReadyAndErrorMatchTheGoldenBytes) {
  EXPECT_EQ(wire::encode_finalize(true), bytes({0x01}));
  EXPECT_EQ(wire::encode_finalize(false), bytes({0x00}));
  EXPECT_TRUE(wire::decode_finalize(bytes({0x01})));
  EXPECT_FALSE(wire::decode_finalize(bytes({0x00})));

  const std::vector<std::uint8_t> ready = bytes({0x05, 0x00, 0x00, 0x00});
  EXPECT_EQ(wire::encode_ready(5), ready);
  EXPECT_EQ(wire::decode_ready(ready), 5u);

  // u32 length, then the message bytes.
  const std::vector<std::uint8_t> error =
      bytes({0x03, 0x00, 0x00, 0x00, 'b', 'a', 'd'});
  EXPECT_EQ(wire::encode_error("bad"), error);
  EXPECT_EQ(wire::decode_error(error), "bad");
  EXPECT_EQ(wire::encode_error(""), bytes({0x00, 0x00, 0x00, 0x00}));
}

/// Expects `decode` to take `payload` and to refuse it with 1, 2 or 7
/// trailing bytes.
template <class Decode>
void expect_trailing_refused(const char* name,
                             const std::vector<std::uint8_t>& payload,
                             Decode decode) {
  SCOPED_TRACE(name);
  EXPECT_NO_THROW((void)decode(payload));
  for (const std::size_t extra : {1u, 2u, 7u}) {
    std::vector<std::uint8_t> trailing = payload;
    trailing.resize(trailing.size() + extra, 0x00);
    const std::string what = thrown_message([&] { (void)decode(trailing); });
    EXPECT_NE(what.find("trailing bytes"), std::string::npos)
        << "extra=" << extra << " what=" << what;
  }
}

TEST(TransportWire, EveryRequestAndEchoRefusesTrailingBytes) {
  // These five decoders once stopped reading at their last field; a byte
  // past it means the peer and we disagree about the layout.
  const double values[] = {1.0, -1.0};
  expect_trailing_refused("barrier request", wire::encode_barrier_request({}),
                          wire::decode_barrier_request);
  expect_trailing_refused("thresholds", wire::encode_thresholds(values),
                          wire::decode_thresholds);
  expect_trailing_refused("finalize", wire::encode_finalize(true),
                          wire::decode_finalize);
  expect_trailing_refused("ready", wire::encode_ready(1), wire::decode_ready);
  expect_trailing_refused("error", wire::encode_error("bad"),
                          wire::decode_error);
}

// --- device totals ---------------------------------------------------------

TEST(TransportWire, DeviceTotalsMatchTheGoldenBytes) {
  DeviceTotals t;
  t.arrivals = 1;
  t.offloaded = 2;
  t.local_completed = 3;
  t.queue_integral = 0.5;
  t.local_sojourn_sum = 1.5;
  t.offload_delay_sum = 2.5;
  t.energy_sum = 2.0;
  std::vector<std::uint8_t> golden = bytes({
      0x07, 0x00, 0x00, 0x00,  // device_lo = 7
      0x08, 0x00, 0x00, 0x00,  // device_hi = 8
  });
  append_u64_le(golden, 1);
  append_u64_le(golden, 2);
  append_u64_le(golden, 3);
  append_f64_le(golden, 0.5);
  append_f64_le(golden, 1.5);
  append_f64_le(golden, 2.5);
  append_f64_le(golden, 2.0);
  const std::vector<std::uint8_t> enc =
      wire::encode_device_totals(7, 8, std::span(&t, 1));
  EXPECT_EQ(enc, golden);
  EXPECT_EQ(enc.size(), 8 + wire::kDeviceTotalsWireSize);

  const wire::FinalTotals back = wire::decode_device_totals(enc);
  EXPECT_EQ(back.device_lo, 7u);
  EXPECT_EQ(back.device_hi, 8u);
  ASSERT_EQ(back.totals.size(), 1u);
  EXPECT_EQ(back.totals[0].arrivals, 1u);
  EXPECT_EQ(back.totals[0].offloaded, 2u);
  EXPECT_EQ(back.totals[0].local_completed, 3u);
  EXPECT_EQ(back.totals[0].queue_integral, 0.5);
  EXPECT_EQ(back.totals[0].local_sojourn_sum, 1.5);
  EXPECT_EQ(back.totals[0].offload_delay_sum, 2.5);
  EXPECT_EQ(back.totals[0].energy_sum, 2.0);
}

TEST(TransportWire, DeviceTotalsRejectMalformedPayloads) {
  DeviceTotals t;
  std::vector<std::uint8_t> enc =
      wire::encode_device_totals(0, 1, std::span(&t, 1));
  // Trailing bytes mean the peer and we disagree about the layout.
  enc.push_back(0x00);
  std::string what =
      thrown_message([&] { wire::decode_device_totals(enc); });
  EXPECT_NE(what.find("trailing"), std::string::npos) << what;
  // An inverted device range cannot size the totals vector.
  std::vector<std::uint8_t> inverted =
      bytes({0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00});
  what = thrown_message([&] { wire::decode_device_totals(inverted); });
  EXPECT_NE(what.find("inverted"), std::string::npos) << what;
}

TEST(TransportWire, DeviceTotalsRefuseARangeThePayloadCannotHold) {
  DeviceTotals t;
  std::vector<std::uint8_t> enc =
      wire::encode_device_totals(0, 1, std::span(&t, 1));
  patch_u32_le(enc, 4, 1, 0xFFFFFFFFu);  // device_hi: 2^32 - 1 devices
  expect_count_refused([&] { wire::decode_device_totals(enc); },
                       "final device totals");
}

// --- barrier payload -------------------------------------------------------

TEST(TransportWire, EmptyBarrierPayloadMatchesTheGoldenBytes) {
  // Zero shards, no queue sums: u32 shard count + u8 has_q.
  const std::vector<std::uint8_t> enc =
      wire::encode_barrier_payload({}, false, 0.0, 0.0);
  EXPECT_EQ(enc, bytes({0x00, 0x00, 0x00, 0x00, 0x00}));

  std::vector<std::uint8_t> trailing = enc;
  trailing.push_back(0x00);
  const std::string what =
      thrown_message([&] { wire::decode_barrier_payload(trailing); });
  EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
}

/// One shard of three clusters with two records, record 0 penalized with a
/// non-zero penalty and record 1 unmeasured; queue stats present, sketches
/// absent, queue sums present.
std::vector<std::uint8_t> encode_golden_barrier() {
  sim::OffloadRecord log[2];
  log[0].time = 1.5;
  log[0].latency = 0.25;
  log[0].penalty = 0.75;
  log[0].device = 0x00ABCDEFu;
  log[0].cluster = 2;
  log[0].measured = true;
  log[0].penalized = true;
  log[1].time = 2.0;
  log[1].latency = 0.125;
  log[1].device = 0x00010203u;
  log[1].cluster = 0;
  log[1].measured = false;
  const std::uint64_t cluster_offloads[] = {1, 0, 0x0A0B0C0Dull};
  ShardBarrierView v;
  v.shard = 5;
  v.log = log;
  v.events = 0x0102030405060708ull;
  v.offloads_in_window = 2;
  v.tasks_lost = 1;
  v.offloads_rejected = 0;
  v.offloads_penalized = 1;
  v.cluster_offloads = cluster_offloads;
  v.flipped = true;
  v.has_queue_stats = true;
  v.queue_depth = 17.0;
  v.calendar_gear = 1.0;
  v.gear_switches = 2.0;
  v.calendar_retunes = 3.0;
  v.leg_seconds = 0.5;
  return wire::encode_barrier_payload(std::span(&v, 1), true, 12.5, 40.25);
}

std::vector<std::uint8_t> golden_barrier_bytes() {
  std::vector<std::uint8_t> out;
  append_u32_le(out, 1);                      // shards
  append_u32_le(out, 5);                      // shard id
  append_u64_le(out, 0x0102030405060708ull);  // events
  append_u64_le(out, 2);                      // offloads in window
  append_u64_le(out, 1);                      // tasks lost
  append_u64_le(out, 0);                      // offloads rejected
  append_u64_le(out, 1);                      // offloads penalized
  append_u32_le(out, 3);                      // clusters
  append_u64_le(out, 1);
  append_u64_le(out, 0);
  append_u64_le(out, 0x0A0B0C0Dull);
  out.push_back(1);                 // flipped
  append_u32_le(out, 2);            // records
  append_f64_le(out, 1.5);          // record 0: time
  append_f64_le(out, 0.25);         // latency
  append_f64_le(out, 0.75);         // penalty
  append_u32_le(out, 0x00ABCDEFu);  // device
  append_u16_le(out, 2);            // cluster
  out.push_back(1);                 // measured
  out.push_back(1);                 // penalized
  append_f64_le(out, 2.0);          // record 1: time
  append_f64_le(out, 0.125);        // latency
  append_f64_le(out, 0.0);          // penalty
  append_u32_le(out, 0x00010203u);  // device
  append_u16_le(out, 0);            // cluster
  out.push_back(0);                 // measured
  out.push_back(0);                 // penalized
  out.push_back(0);                 // sketches absent
  out.push_back(1);                 // queue stats present
  append_f64_le(out, 17.0);         // queue depth
  append_f64_le(out, 1.0);          // calendar gear
  append_f64_le(out, 2.0);          // gear switches
  append_f64_le(out, 3.0);          // calendar retunes
  append_f64_le(out, 0.5);          // leg seconds
  out.push_back(1);                 // has_q
  append_f64_le(out, 12.5);         // total q
  append_f64_le(out, 40.25);        // total q^2
  return out;
}

TEST(TransportWire, BarrierPayloadWithRecordsMatchesTheGoldenBytes) {
  const std::vector<std::uint8_t> golden = golden_barrier_bytes();
  EXPECT_EQ(encode_golden_barrier(), golden);
  EXPECT_EQ(golden.size(), 4 + 55 + 3 * 8 + 2 * wire::kOffloadRecordWireSize +
                               5 * 8 + 1 + 2 * 8);

  const wire::RankBarrierData back = wire::decode_barrier_payload(golden);
  ASSERT_EQ(back.shards.size(), 1u);
  const wire::RankBarrierData::Shard& s = back.shards[0];
  EXPECT_EQ(s.shard, 5u);
  EXPECT_EQ(s.events, 0x0102030405060708ull);
  EXPECT_EQ(s.cluster_offloads,
            std::vector<std::uint64_t>({1, 0, 0x0A0B0C0Dull}));
  EXPECT_TRUE(s.flipped);
  ASSERT_EQ(s.log.size(), 2u);
  EXPECT_EQ(s.log[0].penalty, 0.75);
  EXPECT_EQ(s.log[0].device, 0x00ABCDEFu);
  EXPECT_EQ(s.log[0].cluster, 2u);
  EXPECT_TRUE(s.log[0].penalized);
  EXPECT_EQ(s.log[1].latency, 0.125);
  EXPECT_FALSE(s.log[1].measured);
  EXPECT_FALSE(s.has_sketches);
  EXPECT_TRUE(s.has_queue_stats);
  EXPECT_EQ(s.leg_seconds, 0.5);
  EXPECT_TRUE(back.has_q);
  EXPECT_EQ(back.total_q2, 40.25);
  EXPECT_EQ(wire::encode_barrier_payload(back.views(), back.has_q,
                                         back.total_q, back.total_q2),
            golden);
}

wire::RankBarrierData sample_rank_data(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 100.0);
  wire::RankBarrierData data;
  data.shards.resize(2);

  wire::RankBarrierData::Shard& a = data.shards[0];
  a.shard = 3;
  a.events = rng();
  a.offloads_in_window = rng() % 1000;
  a.tasks_lost = rng() % 10;
  a.offloads_rejected = rng() % 10;
  a.offloads_penalized = rng() % 10;
  a.cluster_offloads = {rng() % 100, rng() % 100, rng() % 100};
  a.flipped = true;
  a.log.resize(5);
  for (sim::OffloadRecord& rec : a.log) {
    rec.time = uni(rng);
    rec.latency = uni(rng);
    rec.penalty = (rng() % 2) != 0 ? uni(rng) : 0.0;
    rec.device = static_cast<std::uint32_t>(rng() % 4096);
    rec.cluster = static_cast<std::uint16_t>(rng() % 3);
    rec.measured = (rng() % 2) != 0;
    rec.penalized = rec.penalty > 0.0;
  }
  a.has_sketches = true;
  for (int i = 0; i < 64; ++i) a.local_sojourns.add(uni(rng));
  for (int i = 0; i < 16; ++i) a.offload_delays.add(uni(rng));
  a.has_queue_stats = true;
  a.queue_depth = uni(rng);
  a.calendar_gear = 2.0;
  a.gear_switches = 5.0;
  a.calendar_retunes = 1.0;
  a.leg_seconds = uni(rng) * 1e-3;

  // The second shard exercises the all-optional-blocks-absent arm.
  wire::RankBarrierData::Shard& b = data.shards[1];
  b.shard = 4;
  b.events = rng();
  b.cluster_offloads = {0, 0, 0};

  data.has_q = true;
  data.total_q = static_cast<double>(rng() % 1000);
  data.total_q2 = static_cast<double>(rng() % 100000);
  return data;
}

TEST(TransportWire, BarrierPayloadRoundTripsBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const wire::RankBarrierData data = sample_rank_data(seed);
    const std::vector<ShardBarrierView> views = data.views();
    const std::vector<std::uint8_t> enc =
        wire::encode_barrier_payload(views, data.has_q, data.total_q,
                                     data.total_q2);
    const wire::RankBarrierData back = wire::decode_barrier_payload(enc);
    // decode(encode(x)) == x, proven by re-encoding: the codec has no
    // redundant representations, so byte equality is state equality.
    const std::vector<std::uint8_t> enc2 = wire::encode_barrier_payload(
        back.views(), back.has_q, back.total_q, back.total_q2);
    EXPECT_EQ(enc, enc2) << "seed=" << seed;

    // Spot-check the semantic fields the coordinator actually consumes.
    ASSERT_EQ(back.shards.size(), data.shards.size());
    const auto& a0 = data.shards[0];
    const auto& b0 = back.shards[0];
    EXPECT_EQ(b0.shard, a0.shard);
    EXPECT_EQ(b0.events, a0.events);
    EXPECT_EQ(b0.cluster_offloads, a0.cluster_offloads);
    ASSERT_EQ(b0.log.size(), a0.log.size());
    for (std::size_t i = 0; i < a0.log.size(); ++i) {
      EXPECT_EQ(b0.log[i].time, a0.log[i].time);
      EXPECT_EQ(b0.log[i].latency, a0.log[i].latency);
      EXPECT_EQ(b0.log[i].device, a0.log[i].device);
      EXPECT_EQ(b0.log[i].cluster, a0.log[i].cluster);
      EXPECT_EQ(b0.log[i].measured, a0.log[i].measured);
      EXPECT_EQ(b0.log[i].penalized, a0.log[i].penalized);
    }
    // Sketches cross the boundary bit-identically: count, extrema, and
    // every quantile the stream log will later report.
    EXPECT_EQ(b0.local_sojourns.count(), a0.local_sojourns.count());
    EXPECT_EQ(b0.local_sojourns.min(), a0.local_sojourns.min());
    EXPECT_EQ(b0.local_sojourns.max(), a0.local_sojourns.max());
    EXPECT_EQ(b0.local_sojourns.p50(), a0.local_sojourns.p50());
    EXPECT_EQ(b0.local_sojourns.p99(), a0.local_sojourns.p99());
    EXPECT_EQ(back.total_q, data.total_q);
    EXPECT_EQ(back.total_q2, data.total_q2);
  }
}

TEST(TransportWire, BarrierPayloadRejectsTruncation) {
  const wire::RankBarrierData data = sample_rank_data(99);
  const std::vector<std::uint8_t> enc = wire::encode_barrier_payload(
      data.views(), data.has_q, data.total_q, data.total_q2);
  // Cut inside the shard block, the log, the sketch, and the queue stats.
  for (const std::size_t cut : {std::size_t{3}, enc.size() / 4,
                                enc.size() / 2, enc.size() - 1}) {
    EXPECT_THROW(
        wire::decode_barrier_payload(std::span(enc.data(), cut)),
        RuntimeError)
        << "cut=" << cut;
  }
}

TEST(TransportWire, BarrierPayloadRefusesCountsThePayloadCannotHold) {
  // Offsets into the golden payload: the shard count, then (after the shard
  // id and five u64 totals) the cluster count, then (after three cluster
  // counts and the flipped flag) the record count.
  const struct {
    std::size_t at;
    std::uint32_t count;
    const char* field;
  } counts[] = {{0, 1, "barrier shard blocks"},
                {48, 3, "barrier cluster offload counts"},
                {77, 2, "barrier offload records"}};
  for (const auto& c : counts) {
    std::vector<std::uint8_t> enc = golden_barrier_bytes();
    patch_u32_le(enc, c.at, c.count, 0xFFFFFFFFu);
    expect_count_refused([&] { wire::decode_barrier_payload(enc); },
                         c.field);
  }
}

// --- .meclog envelope ------------------------------------------------------

std::string test_scoped_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name() + "_" + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string write_minimal_log(const std::string& path) {
  obs::RunLogMeta meta;
  meta.emplace_back("scenario", "wire-format-test");
  obs::RunLogWriter writer(path, meta);
  obs::WindowRecord window;
  window.time = 1.0;
  window.gamma = 0.25;
  writer.append_window(window);
  obs::RunFooter footer;
  footer.windows = 1;
  writer.finish(footer);
  return path;
}

TEST(RunLogWire, ScanRejectsAFlippedPayloadByte) {
  const std::string path = test_scoped_path("corrupt.meclog");
  write_minimal_log(path);
  // Flip one byte inside the first frame's payload (the 24-byte file
  // header is magic + version + padding; frames start right after it).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24 + 8);  // first frame: skip kind + length
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(24 + 8);
    f.write(&byte, 1);
  }
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.corrupt);
  std::filesystem::remove(path);
}

TEST(RunLogWire, ScanTreatsAPartialTailFrameAsTruncation) {
  const std::string path = test_scoped_path("truncated.meclog");
  write_minimal_log(path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);  // cut into the footer frame
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.truncated);
  EXPECT_FALSE(scan.corrupt);
  EXPECT_FALSE(scan.footer.has_value());
  EXPECT_EQ(scan.windows.size(), 1u);
  std::filesystem::remove(path);
}

TEST(RunLogWire, MetaRefusesACountThePayloadCannotHold) {
  obs::RunLogMeta meta;
  meta.emplace_back("scenario", "wire-format-test");
  std::vector<std::uint8_t> enc = obs::encode_meta(meta);
  patch_u32_le(enc, 0, 1, 0xFFFFFFFFu);
  expect_count_refused([&] { obs::decode_meta(enc); },
                       "run-log meta entries");
}

TEST(RunLogWire, CountersRefuseACountThePayloadCannotHold) {
  const obs::CounterValue values[] = {{1, 0, 0.5}, {2, 1, 1.5}};
  std::vector<std::uint8_t> enc = obs::encode_counters(values);
  patch_u32_le(enc, 0, 2, 0xFFFFFFFFu);
  expect_count_refused([&] { obs::decode_counters(enc); },
                       "run-log counter values");
}

// --- TCP handshake + population frames (net/protocol.cpp) ------------------

TEST(NetWire, HelloMatchesTheGoldenBytes) {
  net::wire::Hello hello;
  hello.rank = 3;
  hello.ranks = 8;
  const std::vector<std::uint8_t> payload = net::wire::encode_hello(hello);
  // magic "MECT" | revision | rank | ranks, all u32 LE.
  const std::vector<std::uint8_t> golden = bytes({
      0x4D, 0x45, 0x43, 0x54,  // "MECT"
      0x02, 0x00, 0x00, 0x00,  // schema revision 2
      0x03, 0x00, 0x00, 0x00,  // rank 3
      0x08, 0x00, 0x00, 0x00,  // of 8 ranks
  });
  EXPECT_EQ(payload, golden);
  EXPECT_EQ(payload.size(), net::wire::kHelloWireSize);
  const net::wire::Hello back = net::wire::decode_hello(payload);
  EXPECT_EQ(back.revision, net::wire::kSchemaRevision);
  EXPECT_EQ(back.rank, 3u);
  EXPECT_EQ(back.ranks, 8u);
}

TEST(NetWire, HelloAckMatchesTheGoldenBytes) {
  net::wire::HelloAck ack;
  ack.rank = 3;
  const std::vector<std::uint8_t> payload = net::wire::encode_hello_ack(ack);
  const std::vector<std::uint8_t> golden = bytes({
      0x4D, 0x45, 0x43, 0x54,  // "MECT"
      0x02, 0x00, 0x00, 0x00,  // schema revision 2
      0x03, 0x00, 0x00, 0x00,  // rank echo
  });
  EXPECT_EQ(payload, golden);
  EXPECT_EQ(payload.size(), net::wire::kHelloAckWireSize);
  const net::wire::HelloAck back = net::wire::decode_hello_ack(payload);
  EXPECT_EQ(back.revision, net::wire::kSchemaRevision);
  EXPECT_EQ(back.rank, 3u);
}

TEST(NetWire, HelloRejectsABadMagicNamingTheExpectation) {
  // An HTTP client (or any non-mec peer) that happens to frame correctly
  // still dies at the magic, with a diagnostic a human can act on.
  std::vector<std::uint8_t> payload = net::wire::encode_hello({});
  payload[0] = 'H';
  payload[1] = 'T';
  payload[2] = 'T';
  payload[3] = 'P';
  const std::string what =
      thrown_message([&] { net::wire::decode_hello(payload); });
  EXPECT_NE(what.find("magic mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("not a mec transport endpoint"), std::string::npos)
      << what;
  EXPECT_NE(what.find("MECT"), std::string::npos) << what;
}

TEST(NetWire, HelloRejectsTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> payload = net::wire::encode_hello({});
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW(net::wire::decode_hello(prefix), RuntimeError)
        << "cut=" << cut;
  }
  payload.push_back(0x00);
  const std::string what =
      thrown_message([&] { net::wire::decode_hello(payload); });
  EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
  std::vector<std::uint8_t> ack = net::wire::encode_hello_ack({});
  ack.push_back(0x00);
  EXPECT_THROW(net::wire::decode_hello_ack(ack), RuntimeError);
}

/// A two-rank population whose rank 1 owns shards [2, 4) of 4 and devices
/// [2, 5) of 5 — small enough to write the golden bytes by hand, rich
/// enough to cover every field (faults on, the DPO rule, empirical latency
/// data).
net::wire::WorkerPopulation sample_population() {
  net::wire::WorkerPopulation pop;
  pop.rank = 1;
  pop.ranks = 2;
  pop.seed = 0x0123456789ABCDEFull;
  pop.n_devices = 5;
  pop.n_initial = 4;
  pop.n_clusters = 2;
  pop.shard_count = 4;
  pop.shard_lo = 2;
  pop.shard_hi = 4;
  pop.device_lo = 2;
  pop.device_hi = 5;
  pop.warmup = 1.5;
  pop.t_end = 40.0;
  pop.has_fixed_gamma = true;
  pop.fixed_delay = 0.75;
  pop.with_faults = true;
  pop.rule = sim::OffloadRule::kDpo;
  pop.service.kind = sim::SamplerSpec::Kind::kErlang;
  pop.service.param = 4.0;
  pop.latency.kind = sim::SamplerSpec::Kind::kEmpirical;
  pop.latency.data = {0.25, 1.0};
  for (std::size_t i = 0; i < 3; ++i) {
    core::UserParams u;
    u.arrival_rate = 1.0 + static_cast<double>(i);
    u.service_rate = 3.0;
    u.offload_latency = 0.2;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
    pop.users.push_back(u);
    pop.rng_states.push_back({10 * i + 1, 10 * i + 2, 10 * i + 3, 10 * i + 4});
  }
  fault::ResolvedAction a;
  a.time = 12.0;
  a.kind = fault::FaultKind::kOutageBegin;
  a.device = fault::ResolvedAction::kNoDevice;
  a.value = 0.4;
  a.outage_mode = fault::OutageMode::kPenalty;
  a.cluster = 1;
  a.effective = true;
  a.active_after = 3;
  pop.actions.push_back(a);
  return pop;
}

std::vector<std::uint8_t> golden_population_bytes(
    const net::wire::WorkerPopulation& pop) {
  std::vector<std::uint8_t> out;
  append_u32_le(out, pop.rank);
  append_u32_le(out, pop.ranks);
  append_u64_le(out, pop.seed);
  append_u32_le(out, pop.n_devices);
  append_u32_le(out, pop.n_initial);
  append_u32_le(out, pop.n_clusters);
  append_u32_le(out, pop.shard_count);
  append_u32_le(out, pop.shard_lo);
  append_u32_le(out, pop.shard_hi);
  append_u32_le(out, pop.device_lo);
  append_u32_le(out, pop.device_hi);
  append_f64_le(out, pop.warmup);
  append_f64_le(out, pop.t_end);
  out.push_back(pop.has_fixed_gamma ? 1 : 0);
  append_f64_le(out, pop.fixed_delay);
  out.push_back(pop.with_faults ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(pop.rule));
  for (const sim::SamplerSpec* spec : {&pop.service, &pop.latency}) {
    out.push_back(static_cast<std::uint8_t>(spec->kind));
    append_f64_le(out, spec->param);
    append_u32_le(out, static_cast<std::uint32_t>(spec->data.size()));
    for (const double v : spec->data) append_f64_le(out, v);
  }
  append_u32_le(out, static_cast<std::uint32_t>(pop.users.size()));
  for (const core::UserParams& u : pop.users) {
    append_f64_le(out, u.arrival_rate);
    append_f64_le(out, u.service_rate);
    append_f64_le(out, u.offload_latency);
    append_f64_le(out, u.energy_local);
    append_f64_le(out, u.energy_offload);
    append_f64_le(out, u.weight);
  }
  append_u32_le(out, static_cast<std::uint32_t>(pop.rng_states.size()));
  for (const auto& s : pop.rng_states)
    for (const std::uint64_t word : s) append_u64_le(out, word);
  append_u32_le(out, static_cast<std::uint32_t>(pop.actions.size()));
  for (const fault::ResolvedAction& a : pop.actions) {
    append_f64_le(out, a.time);
    out.push_back(static_cast<std::uint8_t>(a.kind));
    append_u32_le(out, a.device);
    append_f64_le(out, a.value);
    out.push_back(static_cast<std::uint8_t>(a.outage_mode));
    append_u16_le(out, a.cluster);
    out.push_back(a.effective ? 1 : 0);
    append_u32_le(out, a.active_after);
  }
  return out;
}

TEST(NetWire, PopulationMatchesTheGoldenBytes) {
  const net::wire::WorkerPopulation pop = sample_population();
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  EXPECT_EQ(payload, golden_population_bytes(pop));
}

TEST(NetWire, PopulationRoundTripsBitIdentically) {
  std::mt19937_64 gen(20260808);
  std::uniform_real_distribution<double> real(0.01, 10.0);
  net::wire::WorkerPopulation pop = sample_population();
  pop.users.clear();
  pop.rng_states.clear();
  for (std::size_t i = 0; i < 3; ++i) {
    core::UserParams u;
    u.arrival_rate = real(gen);
    u.service_rate = real(gen);
    u.offload_latency = real(gen);
    u.energy_local = real(gen);
    u.energy_offload = real(gen);
    u.weight = real(gen);
    pop.users.push_back(u);
    pop.rng_states.push_back({gen(), gen(), gen(), gen()});
  }
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  const net::wire::WorkerPopulation back =
      net::wire::decode_population(payload);
  // Re-encoding the decode must reproduce the exact bytes: nothing on this
  // path may truncate, reorder, or renormalize (rng state words and f64 bit
  // patterns included).
  EXPECT_EQ(net::wire::encode_population(back), payload);
  EXPECT_EQ(back.rank, pop.rank);
  EXPECT_EQ(back.seed, pop.seed);
  EXPECT_EQ(back.rng_states, pop.rng_states);
  EXPECT_EQ(back.latency.data, pop.latency.data);
  EXPECT_TRUE(back.service == pop.service);
}

TEST(NetWire, PopulationFrameSurvivesTheEnvelopeBatteries) {
  // Through the shared envelope: truncation at every byte boundary and
  // corruption at every payload/CRC position must refuse loudly, exactly as
  // for barrier frames (the daemon reads populations with the same decoder).
  const std::vector<std::uint8_t> payload =
      net::wire::encode_population(sample_population());
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(wire::kFramePopulation, payload);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(frame.data(), cut);
    EXPECT_THROW(wire::decode_frame(prefix), RuntimeError) << "cut=" << cut;
  }
  for (std::size_t pos = 8; pos < frame.size(); pos += 7) {
    std::vector<std::uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x01;
    const std::string what =
        thrown_message([&] { wire::decode_frame(corrupt); });
    EXPECT_NE(what.find("CRC mismatch"), std::string::npos)
        << "pos=" << pos << " what=" << what;
  }
}

TEST(NetWire, PopulationRejectsTruncationAtEveryByteBoundary) {
  const std::vector<std::uint8_t> payload =
      net::wire::encode_population(sample_population());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(payload.data(), cut);
    EXPECT_THROW(net::wire::decode_population(prefix), RuntimeError)
        << "cut=" << cut;
  }
}

TEST(NetWire, PopulationRefusesCountsThePayloadCannotHold) {
  const net::wire::WorkerPopulation pop = sample_population();
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  // The last three counts, located from the end: one 29-byte action after
  // the action count, three 32-byte rng states after theirs, three 48-byte
  // users after theirs.
  const std::size_t actions_at = payload.size() - 4 - 29;
  const std::size_t rngs_at = actions_at - 4 - 3 * 32;
  const std::size_t users_at = rngs_at - 4 - 3 * 48;
  const struct {
    std::size_t at;
    std::uint32_t count;
    const char* field;
  } counts[] = {{users_at, 3, "population users"},
                {rngs_at, 3, "population rng states"},
                {actions_at, 1, "population fault actions"}};
  for (const auto& c : counts) {
    std::vector<std::uint8_t> enc = payload;
    patch_u32_le(enc, c.at, c.count, 0xFFFFFFFFu);
    expect_count_refused([&] { net::wire::decode_population(enc); },
                         c.field);
  }
}

TEST(NetWire, SamplerSpecRefusesACountThePayloadCannotHold) {
  const net::wire::WorkerPopulation pop = sample_population();
  const std::vector<std::uint8_t> payload = net::wire::encode_population(pop);
  // The service spec (no data) follows the 75-byte fixed header; its data
  // count sits after the u8 kind and f64 param.  The latency spec (two
  // values) follows it.
  const std::size_t service_at = 75 + 1 + 8;
  const std::size_t latency_at = service_at + 4 + 1 + 8;
  const struct {
    std::size_t at;
    std::uint32_t count;
  } counts[] = {{service_at, 0}, {latency_at, 2}};
  for (const auto& c : counts) {
    std::vector<std::uint8_t> enc = payload;
    patch_u32_le(enc, c.at, c.count, 0xFFFFFFFFu);
    expect_count_refused([&] { net::wire::decode_population(enc); },
                         "population sampler data values");
  }
}

TEST(NetWire, PopulationRejectsInconsistentAssignments) {
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.rank = 2;  // == ranks
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("assigns rank 2 of 2"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.shard_lo = 4;  // empty slice
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("invalid shard slice"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.device_hi = 9;  // beyond n_devices
    EXPECT_THROW(
        net::wire::decode_population(net::wire::encode_population(pop)),
        RuntimeError);
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.users.pop_back();  // 2 users for a 3-device slice
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("slice arrays"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.with_faults = false;  // but actions still present
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("with_faults is off"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.service.kind = static_cast<sim::SamplerSpec::Kind>(9);
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("unknown sampler kind 9"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.rule = static_cast<sim::OffloadRule>(2);
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("unknown offload rule 2"), std::string::npos) << what;
  }
  {
    net::wire::WorkerPopulation pop = sample_population();
    pop.actions[0].kind = static_cast<fault::FaultKind>(200);
    const std::string what = thrown_message([&] {
      net::wire::decode_population(net::wire::encode_population(pop));
    });
    EXPECT_NE(what.find("unknown fault kind 200"), std::string::npos) << what;
  }
  {
    std::vector<std::uint8_t> payload =
        net::wire::encode_population(sample_population());
    payload.push_back(0x00);
    const std::string what =
        thrown_message([&] { net::wire::decode_population(payload); });
    EXPECT_NE(what.find("trailing bytes"), std::string::npos) << what;
  }
}

}  // namespace
