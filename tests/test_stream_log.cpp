// Streaming telemetry battery: .meclog round-trips, partial-file recovery,
// CRC and payload corruption detection, stream-vs-timeline equivalence,
// counter frames that cover every leg, and the cross-shard-count bitwise
// determinism contract (window frames byte-equal for K in {1, 2, 4, 7},
// pinned by a golden checksum).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bit_digest.hpp"
#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/obs/tail.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

using namespace mec;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Temp path namespaced by the running test, so parallel ctest processes
/// never collide on shared scratch files.
std::string test_scoped_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return temp_path(std::string("mec_") + info->test_suite_name() + "_" +
                   info->name() + "_" + suffix);
}

obs::WindowRecord sample_window(std::uint64_t i) {
  obs::WindowRecord w;
  w.time = 2.5 * static_cast<double>(i + 1);
  w.gamma = 0.25 + 0.01 * static_cast<double>(i);
  w.mean_queue_length = 1.75;
  w.queue_second_moment = 5.5;
  w.capacity_scale = 0.8;
  w.active_devices = 41 + i;
  w.offloads_so_far = 100 * (i + 1);
  w.offloads_delta = 100;
  w.events_so_far = 1000 * (i + 1);
  w.events_delta = 1000;
  w.sojourn_count = 17 * (i + 1);
  w.sojourn_min = 0.01;
  w.sojourn_max = 9.5;
  w.sojourn_p50 = 0.6;
  w.sojourn_p95 = 3.1;
  w.sojourn_p99 = 7.0;
  w.offload_count = 5 * (i + 1);
  w.offload_min = 0.2;
  w.offload_max = 4.0;
  w.offload_p50 = 1.0;
  w.offload_p95 = 2.5;
  w.offload_p99 = 3.5;
  w.tasks_lost = i;
  w.offloads_rejected = 2 * i;
  w.offloads_penalized = 3 * i;
  w.fault_events_applied = 4 * i;
  for (std::size_t b = 0; b < obs::kThresholdBins; ++b)
    w.threshold_histogram[b] = static_cast<std::uint32_t>(b * (i + 1));
  // Two-cluster v2 trailer; the per-cluster offloads sum to the scalar total.
  w.cluster_gamma = {w.gamma, 0.1 + 0.005 * static_cast<double>(i)};
  w.cluster_offloads = {60 * (i + 1), 40 * (i + 1)};
  return w;
}

void expect_window_equal(const obs::WindowRecord& a,
                         const obs::WindowRecord& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.queue_second_moment, b.queue_second_moment);
  EXPECT_EQ(a.capacity_scale, b.capacity_scale);
  EXPECT_EQ(a.active_devices, b.active_devices);
  EXPECT_EQ(a.offloads_so_far, b.offloads_so_far);
  EXPECT_EQ(a.offloads_delta, b.offloads_delta);
  EXPECT_EQ(a.events_so_far, b.events_so_far);
  EXPECT_EQ(a.events_delta, b.events_delta);
  EXPECT_EQ(a.sojourn_count, b.sojourn_count);
  EXPECT_EQ(a.sojourn_min, b.sojourn_min);
  EXPECT_EQ(a.sojourn_max, b.sojourn_max);
  EXPECT_EQ(a.sojourn_p50, b.sojourn_p50);
  EXPECT_EQ(a.sojourn_p95, b.sojourn_p95);
  EXPECT_EQ(a.sojourn_p99, b.sojourn_p99);
  EXPECT_EQ(a.offload_count, b.offload_count);
  EXPECT_EQ(a.offload_min, b.offload_min);
  EXPECT_EQ(a.offload_max, b.offload_max);
  EXPECT_EQ(a.offload_p50, b.offload_p50);
  EXPECT_EQ(a.offload_p95, b.offload_p95);
  EXPECT_EQ(a.offload_p99, b.offload_p99);
  EXPECT_EQ(a.tasks_lost, b.tasks_lost);
  EXPECT_EQ(a.offloads_rejected, b.offloads_rejected);
  EXPECT_EQ(a.offloads_penalized, b.offloads_penalized);
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.threshold_histogram, b.threshold_histogram);
  ASSERT_EQ(a.cluster_gamma.size(), b.cluster_gamma.size());
  for (std::size_t k = 0; k < a.cluster_gamma.size(); ++k)
    EXPECT_EQ(a.cluster_gamma[k], b.cluster_gamma[k]) << "cluster " << k;
  ASSERT_EQ(a.cluster_offloads.size(), b.cluster_offloads.size());
  for (std::size_t k = 0; k < a.cluster_offloads.size(); ++k)
    EXPECT_EQ(a.cluster_offloads[k], b.cluster_offloads[k]) << "cluster " << k;
}

// --- format round-trips ----------------------------------------------------

TEST(RunLogFormat, PayloadCodecsRoundTrip) {
  const obs::WindowRecord w = sample_window(3);
  expect_window_equal(w, obs::decode_window(obs::encode_window(w)));
  EXPECT_EQ(obs::encode_window(w).size(),
            obs::window_payload_size(w.cluster_gamma.size()));

  // A default-constructed record carries the single-cluster trailer.
  const obs::WindowRecord single;
  EXPECT_EQ(obs::encode_window(single).size(), obs::window_payload_size());
  expect_window_equal(single, obs::decode_window(obs::encode_window(single)));

  // Mismatched per-cluster vectors are a caller bug, not encodable data.
  obs::WindowRecord bad = sample_window(1);
  bad.cluster_offloads.pop_back();
  EXPECT_THROW((void)obs::encode_window(bad), ContractViolation);

  const obs::RunLogMeta meta = {{"n_devices", "41"}, {"gamma", "tracked"}};
  EXPECT_EQ(meta, obs::decode_meta(obs::encode_meta(meta)));

  const std::vector<obs::CounterValue> counters = {
      {0, 0, 12345.0}, {6, obs::kGlobalShard, 0.25}};
  const auto decoded = obs::decode_counters(obs::encode_counters(counters));
  ASSERT_EQ(decoded.size(), counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(decoded[i].id, counters[i].id);
    EXPECT_EQ(decoded[i].shard, counters[i].shard);
    EXPECT_EQ(decoded[i].value, counters[i].value);
  }

  obs::RunFooter footer;
  footer.windows = 7;
  footer.total_events = 99999;
  footer.measured_utilization = 0.31;
  footer.mean_cost = 2.75;
  footer.horizon = 60.0;
  const obs::RunFooter f2 = obs::decode_footer(obs::encode_footer(footer));
  EXPECT_EQ(f2.windows, footer.windows);
  EXPECT_EQ(f2.total_events, footer.total_events);
  EXPECT_EQ(f2.measured_utilization, footer.measured_utilization);
  EXPECT_EQ(f2.mean_cost, footer.mean_cost);
  EXPECT_EQ(f2.horizon, footer.horizon);
}

/// Little-endian builder for the hand-written golden payloads below.
struct Golden {
  std::vector<std::uint8_t> bytes;
  Golden& le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i)
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Golden& u16(std::uint16_t v) { return le(v, 2); }
  Golden& u32(std::uint32_t v) { return le(v, 4); }
  Golden& u64(std::uint64_t v) { return le(v, 8); }
  Golden& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Golden& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.insert(bytes.end(), s.begin(), s.end());
    return *this;
  }
};

// The round trips above pass a layout change made in both the encoder and
// the decoder; these pins do not.  (Window payloads are pinned by the CRC
// goldens at the end of this file.)
TEST(RunLogFormat, MetaMatchesTheGoldenBytes) {
  const obs::RunLogMeta meta = {{"n", "41"}, {"gamma", "tracked"}};
  const std::vector<std::uint8_t> golden =
      Golden().u32(2).str("n").str("41").str("gamma").str("tracked").bytes;
  EXPECT_EQ(obs::encode_meta(meta), golden);
  EXPECT_EQ(obs::decode_meta(golden), meta);
}

TEST(RunLogFormat, CountersMatchTheGoldenBytes) {
  const std::vector<obs::CounterValue> counters = {
      {3, 1, 12345.0}, {6, obs::kGlobalShard, 0.25}};
  Golden golden;
  golden.u32(2).u16(3).u16(1).f64(12345.0).u16(6).u16(0xFFFF).f64(0.25);
  EXPECT_EQ(obs::encode_counters(counters), golden.bytes);
  const std::vector<obs::CounterValue> back =
      obs::decode_counters(golden.bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 3u);
  EXPECT_EQ(back[0].shard, 1u);
  EXPECT_EQ(back[0].value, 12345.0);
  EXPECT_EQ(back[1].id, 6u);
  EXPECT_EQ(back[1].shard, obs::kGlobalShard);
  EXPECT_EQ(back[1].value, 0.25);
}

TEST(RunLogFormat, FooterMatchesTheGoldenBytes) {
  obs::RunFooter footer;
  footer.windows = 7;
  footer.total_events = 99999;
  footer.measured_utilization = 0.31;
  footer.mean_cost = 2.75;
  footer.horizon = 60.0;
  const std::vector<std::uint8_t> golden =
      Golden().u64(7).u64(99999).f64(0.31).f64(2.75).f64(60.0).bytes;
  EXPECT_EQ(obs::encode_footer(footer), golden);
  const obs::RunFooter back = obs::decode_footer(golden);
  EXPECT_EQ(back.windows, 7u);
  EXPECT_EQ(back.total_events, 99999u);
  EXPECT_EQ(back.measured_utilization, 0.31);
  EXPECT_EQ(back.mean_cost, 2.75);
  EXPECT_EQ(back.horizon, 60.0);
}

TEST(RunLogFormat, WriterReaderRoundTrip) {
  const std::string path = temp_path("mec_roundtrip.meclog");
  const obs::RunLogMeta meta = {{"n_devices", "41"}, {"seed", "7"}};
  {
    obs::RunLogWriter writer(path, meta);
    for (std::uint64_t i = 0; i < 5; ++i) {
      writer.append_window(sample_window(i));
      const obs::CounterValue c{0, 0, static_cast<double>(i)};
      writer.append_counters(std::span<const obs::CounterValue>(&c, 1));
    }
    obs::RunFooter footer;
    footer.windows = 5;
    writer.finish(footer);
    EXPECT_EQ(writer.windows_written(), 5u);
  }
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.complete()) << scan.error;
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.meta, meta);
  ASSERT_EQ(scan.windows.size(), 5u);
  ASSERT_EQ(scan.counters.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    expect_window_equal(scan.windows[i], sample_window(i));
    ASSERT_EQ(scan.counters[i].size(), 1u);
    EXPECT_EQ(scan.counters[i][0].value, static_cast<double>(i));
  }
  ASSERT_TRUE(scan.footer.has_value());
  EXPECT_EQ(scan.footer->windows, 5u);
  std::filesystem::remove(path);
}

TEST(RunLogFormat, TruncatedTailIsRecoveredNotFatal) {
  const std::string path = temp_path("mec_truncated.meclog");
  {
    obs::RunLogWriter writer(path, {{"k", "v"}});
    for (std::uint64_t i = 0; i < 4; ++i)
      writer.append_window(sample_window(i));
    // No finish(): simulates a crashed or still-running writer.
  }
  const auto full_size = std::filesystem::file_size(path);
  // Chop into the last window frame: the first three must still decode.
  std::filesystem::resize_file(path, full_size - 37);
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.truncated);
  EXPECT_FALSE(scan.corrupt) << scan.error;
  EXPECT_FALSE(scan.complete());
  ASSERT_EQ(scan.windows.size(), 3u);
  expect_window_equal(scan.windows[2], sample_window(2));
  std::filesystem::remove(path);
}

TEST(RunLogFormat, FollowSeesFramesAsTheFileGrows) {
  const std::string path = temp_path("mec_follow.meclog");
  const std::string grown = temp_path("mec_follow_full.meclog");
  {
    obs::RunLogWriter writer(grown, {{"k", "v"}});
    for (std::uint64_t i = 0; i < 3; ++i)
      writer.append_window(sample_window(i));
    obs::RunFooter footer;
    footer.windows = 3;
    writer.finish(footer);
  }
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(grown, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Writes the finished log's bytes [from, to) to `path`.
  const auto put = [&](std::size_t from, std::size_t to,
                       std::ios::openmode mode) {
    std::ofstream out(path, std::ios::binary | mode);
    out.write(reinterpret_cast<const char*>(bytes.data() + from),
              static_cast<std::streamsize>(to - from));
  };
  // Start with the header + meta + one window, and a half-written frame.
  const std::size_t meta_frame = 8 + obs::encode_meta({{"k", "v"}}).size() + 4;
  const std::size_t window_frame = 8 + obs::window_payload_size(2) + 4;
  const std::size_t first_cut = 24 + meta_frame + window_frame + 20;
  ASSERT_LT(first_cut, bytes.size());
  put(0, first_cut, std::ios::trunc);
  obs::RunLogReader reader(path);
  obs::Frame frame;
  ASSERT_EQ(reader.next(frame), obs::ReadStatus::kFrame);  // meta
  ASSERT_EQ(reader.next(frame), obs::ReadStatus::kFrame);  // window 0
  EXPECT_EQ(reader.next(frame), obs::ReadStatus::kTruncated);
  // The writer catches up; the parked reader resumes at the boundary.
  put(first_cut, bytes.size(), std::ios::app);
  ASSERT_EQ(reader.next(frame), obs::ReadStatus::kFrame);  // window 1
  EXPECT_EQ(frame.kind, obs::FrameKind::kWindow);
  expect_window_equal(obs::decode_window(frame.payload), sample_window(1));
  ASSERT_EQ(reader.next(frame), obs::ReadStatus::kFrame);  // window 2
  ASSERT_EQ(reader.next(frame), obs::ReadStatus::kFrame);  // footer
  EXPECT_EQ(frame.kind, obs::FrameKind::kFooter);
  EXPECT_EQ(reader.next(frame), obs::ReadStatus::kEndOfData);

  // The shared scan resumes the same way, counting each frame once.
  put(0, first_cut, std::ios::trunc);
  obs::RunLogReader scan_reader(path);
  obs::LogScan scan;
  EXPECT_EQ(obs::scan_frames(scan_reader, scan), obs::ReadStatus::kTruncated);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.frames, 2u);  // meta + window 0
  EXPECT_EQ(scan.meta, (obs::RunLogMeta{{"k", "v"}}));
  ASSERT_EQ(scan.windows.size(), 1u);
  EXPECT_FALSE(scan.footer.has_value());
  put(first_cut, bytes.size(), std::ios::app);
  EXPECT_EQ(obs::scan_frames(scan_reader, scan), obs::ReadStatus::kEndOfData);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.frames, 5u);  // + windows 1, 2 and the footer
  ASSERT_EQ(scan.windows.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i)
    expect_window_equal(scan.windows[i], sample_window(i));
  ASSERT_TRUE(scan.footer.has_value());
  EXPECT_EQ(scan.footer->windows, 3u);
  EXPECT_TRUE(scan.complete()) << scan.error;
  std::filesystem::remove(path);
  std::filesystem::remove(grown);
}

TEST(RunLogFormat, CorruptedByteIsDetectedByCrc) {
  const std::string path = temp_path("mec_corrupt.meclog");
  {
    obs::RunLogWriter writer(path, {{"k", "v"}});
    for (std::uint64_t i = 0; i < 3; ++i)
      writer.append_window(sample_window(i));
    obs::RunFooter footer;
    footer.windows = 3;
    writer.finish(footer);
  }
  // Flip one byte inside the second window's payload.
  const std::size_t meta_frame = 8 + obs::encode_meta({{"k", "v"}}).size() + 4;
  const std::size_t window_frame = 8 + obs::window_payload_size(2) + 4;
  const std::size_t victim = 24 + meta_frame + window_frame + 8 + 11;
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(victim));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(victim));
    file.write(&byte, 1);
  }
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.complete());
  EXPECT_FALSE(scan.error.empty());
  // Everything before the corruption is still served.
  ASSERT_EQ(scan.windows.size(), 1u);
  expect_window_equal(scan.windows[0], sample_window(0));
  // `mec tail --check` must flag it via the exit status.
  obs::TailOptions check;
  check.check = true;
  EXPECT_EQ(obs::run_tail(path, check), 1);
  std::filesystem::remove(path);
}

// A frame whose CRC holds but whose payload does not decode: only the
// decoder can tell.  The scan keeps what came before and names the frame;
// both viewer paths stop on it.
TEST(RunLogFormat, UndecodablePayloadIsNamedByFrameIndex) {
  const std::string path = test_scoped_path("undecodable.meclog");
  const obs::RunLogMeta meta = {{"k", "v"}};
  const obs::CounterValue value{0, 0, 1.0};
  std::vector<std::uint8_t> counters =
      obs::encode_counters(std::span<const obs::CounterValue>(&value, 1));
  {
    obs::RunLogWriter writer(path, meta);
    writer.append_window(sample_window(0));
    writer.append_counters(std::span<const obs::CounterValue>(&value, 1));
    writer.append_window(sample_window(1));
    obs::RunFooter footer;
    footer.windows = 2;
    writer.finish(footer);
  }
  // Frame 2, the counter frame, now declares two values and holds one.
  counters[0] = 2;
  const std::uint32_t crc = obs::crc32(counters);
  const std::size_t payload_at = 24 + (8 + obs::encode_meta(meta).size() + 4) +
                                 (8 + obs::window_payload_size(2) + 4) + 8;
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(payload_at));
    file.write(reinterpret_cast<const char*>(counters.data()),
               static_cast<std::streamsize>(counters.size()));
    for (int i = 0; i < 4; ++i) file.put(static_cast<char>(crc >> (8 * i)));
  }
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.corrupt);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.frames, 2u);
  EXPECT_EQ(scan.meta, meta);
  ASSERT_EQ(scan.windows.size(), 1u);
  expect_window_equal(scan.windows[0], sample_window(0));
  EXPECT_TRUE(scan.counters.empty());
  EXPECT_FALSE(scan.footer.has_value());
  EXPECT_NE(scan.error.find("run-log counter values"), std::string::npos)
      << scan.error;
  EXPECT_NE(scan.error.find("(frame index 2)"), std::string::npos)
      << scan.error;
  for (const bool follow : {true, false}) {
    SCOPED_TRACE(follow ? "--follow" : "--check");
    std::ostringstream out;
    obs::TailOptions options;
    options.follow = follow;
    options.check = !follow;
    options.max_updates = 1;  // a scan that missed the error returns, not hangs
    options.out = &out;
    EXPECT_EQ(obs::run_tail(path, options), 1);
    EXPECT_NE(out.str().find("(frame index 2)"), std::string::npos)
        << out.str();
  }
  std::filesystem::remove(path);
}

TEST(RunLogFormat, ForeignOrMissingHeaderThrows) {
  const std::string path = temp_path("mec_foreign.meclog");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a meclog";
  }
  EXPECT_THROW(obs::RunLogReader reader(path), RuntimeError);
  EXPECT_THROW((void)obs::scan_log(temp_path("mec_nonexistent.meclog")),
               RuntimeError);
  std::filesystem::remove(path);
}

// The schema bump: a v1 log shares the family magic but its window frames
// have no per-cluster trailer, so parsing one as v2 would misread every
// window.  The reader must refuse up front with a diagnostic that names
// both versions instead of surfacing garbage or a CRC error downstream.
TEST(RunLogFormat, PriorSchemaVersionIsRejectedWithClearError) {
  const std::string path = temp_path("mec_v1_schema.meclog");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(obs::kMagic.data(), obs::kMagic.size());
    const auto put_u32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        const char byte = static_cast<char>((v >> (8 * i)) & 0xFFu);
        out.write(&byte, 1);
      }
    };
    put_u32(1u);  // the retired v1 schema revision
    put_u32(static_cast<std::uint32_t>(obs::kThresholdBins));
    put_u32(0u);  // flags
    put_u32(0u);  // reserved
  }
  try {
    obs::RunLogReader reader(path);
    FAIL() << "v1 header was accepted by a v2 reader";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported .meclog schema"), std::string::npos)
        << what;
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find("v2"), std::string::npos) << what;
  }
  // scan_log (the `mec tail --check` entry point) refuses the same way.
  EXPECT_THROW((void)obs::scan_log(path), RuntimeError);
  std::filesystem::remove(path);
}

// --- stream vs in-memory timeline ------------------------------------------

std::vector<core::UserParams> mixed_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(777);
  for (std::size_t i = 0; i < n; ++i) {
    core::UserParams u;
    u.arrival_rate = random::uniform(rng, 0.5, 3.0);
    u.service_rate = random::uniform(rng, 2.0, 5.0);
    u.offload_latency = random::uniform(rng, 0.05, 0.6);
    u.energy_local = random::uniform(rng, 0.8, 1.2);
    u.energy_offload = random::uniform(rng, 0.3, 0.7);
    users.push_back(u);
  }
  return users;
}

std::vector<double> mixed_thresholds(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(0.25 * static_cast<double>(i % 9));  // incl. fractional
  return xs;
}

TEST(StreamEquivalence, WindowsMatchTheInMemoryTimeline) {
  const std::string path = temp_path("mec_stream_timeline.meclog");
  const auto users = mixed_users(41);
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  o.stream_log = path;  // stream AND record: the two views must agree
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r = des.run_tro(mixed_thresholds(users.size()));

  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.complete()) << scan.error;
  ASSERT_EQ(scan.windows.size(), r.timeline.size());
  std::uint64_t prev_offloads = 0;
  std::uint64_t prev_events = 0;
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const obs::WindowRecord& w = scan.windows[i];
    const sim::TimelinePoint& p = r.timeline[i];
    EXPECT_EQ(w.time, p.time);
    EXPECT_EQ(w.gamma, p.utilization_estimate);
    EXPECT_EQ(w.mean_queue_length, p.mean_queue_length);
    EXPECT_EQ(w.capacity_scale, p.capacity_scale);
    EXPECT_EQ(w.active_devices, p.active_devices);
    EXPECT_EQ(w.offloads_so_far, p.offloads_so_far);
    EXPECT_EQ(w.offloads_delta, p.offloads_so_far - prev_offloads);
    prev_offloads = p.offloads_so_far;
    EXPECT_EQ(w.events_delta, w.events_so_far - prev_events);
    prev_events = w.events_so_far;
    // One cluster: the per-cluster block repeats the scalars.
    EXPECT_EQ(w.cluster_gamma, std::vector<double>{w.gamma});
    EXPECT_EQ(w.cluster_offloads,
              std::vector<std::uint64_t>{w.offloads_so_far});
  }
  // The final window's cumulative sketch snapshot equals the run totals.
  const obs::WindowRecord& last = scan.windows.back();
  EXPECT_EQ(last.sojourn_count, r.local_sojourn_percentiles.count());
  EXPECT_EQ(last.sojourn_p50, r.local_sojourn_percentiles.p50());
  EXPECT_EQ(last.sojourn_p99, r.local_sojourn_percentiles.p99());
  EXPECT_EQ(last.offload_count, r.offload_delay_percentiles.count());
  EXPECT_EQ(last.offload_p95, r.offload_delay_percentiles.p95());
  // Footer totals match the result.
  ASSERT_TRUE(scan.footer.has_value());
  EXPECT_EQ(scan.footer->windows, scan.windows.size());
  EXPECT_EQ(scan.footer->total_events, r.total_events);
  EXPECT_EQ(scan.footer->measured_utilization, r.measured_utilization);
  EXPECT_EQ(scan.footer->mean_cost, r.mean_cost);
  // The threshold histogram covers every device with a finite threshold.
  std::uint64_t counted = 0;
  for (const std::uint32_t c : last.threshold_histogram) counted += c;
  EXPECT_EQ(counted, users.size());
  std::filesystem::remove(path);
}

TEST(StreamEquivalence, RecordTimelineOffStillStreams) {
  const std::string path = temp_path("mec_stream_notimeline.meclog");
  const auto users = mixed_users(23);
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 30.0;
  o.seed = 5;
  o.utilization_ewma_tau = 5.0;
  o.sample_interval = 3.0;
  o.stream_log = path;
  o.record_timeline = false;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r = des.run_tro(mixed_thresholds(users.size()));
  EXPECT_TRUE(r.timeline.empty());
  const obs::LogScan scan = obs::scan_log(path);
  EXPECT_TRUE(scan.complete()) << scan.error;
  EXPECT_GT(scan.windows.size(), 5u);
  std::filesystem::remove(path);
}

// Counter frames cover everything since the previous one.  With an epoch
// every 0.25 s and a window every 2 s, seven of each window's eight legs end
// at epoch-only barriers; the leg time summed over the frames must still
// account for most of the run's wall time.
TEST(StreamCounters, LegSecondsCoverEveryLegOfTheWindow) {
  const std::string path = test_scoped_path("legs.meclog");
  const auto users = mixed_users(20000);
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 20.0;
  o.seed = 5;
  o.shards = 1;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.0;
  o.epoch_period = 0.25;
  o.on_epoch = [](double, double) {};
  o.stream_log = path;
  o.stream_counters = true;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const std::vector<double> thresholds = mixed_thresholds(users.size());
  const auto t0 = std::chrono::steady_clock::now();
  (void)des.run_tro(thresholds);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  const obs::LogScan scan = obs::scan_log(path);
  ASSERT_TRUE(scan.complete()) << scan.error;
  ASSERT_EQ(scan.counters.size(), 10u);
  double leg_seconds = 0.0;
  for (const std::vector<obs::CounterValue>& frame : scan.counters)
    for (const obs::CounterValue& c : frame)
      if (c.id == static_cast<std::uint16_t>(obs::Counter::kShardLegSeconds))
        leg_seconds += c.value;
  EXPECT_GE(leg_seconds, 0.5 * wall.count())
      << "legs " << leg_seconds << " s of a " << wall.count() << " s run";
  std::filesystem::remove(path);
}

TEST(StreamEquivalence, StreamLogWithoutSampleIntervalIsRejected) {
  const auto users = mixed_users(3);
  sim::SimulationOptions o;
  o.stream_log = temp_path("mec_never_written.meclog");
  o.sample_interval = 0.0;
  EXPECT_THROW(
      sim::MecSimulation(users, 8.0, core::make_reciprocal_delay(), o),
      ContractViolation);
}

// --- cross-shard-count bitwise determinism ---------------------------------

/// Concatenated window-frame payload bytes of a log (the deterministic
/// subset: meta mentions the shard count and counter frames carry wall-clock
/// timings, so neither participates in the contract).
std::vector<std::uint8_t> window_bytes(const std::string& path) {
  obs::RunLogReader reader(path);
  std::vector<std::uint8_t> bytes;
  obs::Frame frame;
  while (reader.next(frame) == obs::ReadStatus::kFrame)
    if (frame.kind == obs::FrameKind::kWindow)
      bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());
  return bytes;
}

void expect_stream_shard_invariant(
    sim::SimulationOptions options,
    const std::shared_ptr<const fault::FaultSchedule>& schedule,
    std::uint32_t* golden_crc_out = nullptr) {
  const auto users = mixed_users(41);  // odd size: uneven shard bounds
  options.faults = schedule;
  options.shards = 1;
  const std::string base_path = test_scoped_path("xk_base.meclog");
  options.stream_log = base_path;
  {
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                           options);
    (void)des.run_tro(mixed_thresholds(des.total_devices()));
  }
  const std::vector<std::uint8_t> base = window_bytes(base_path);
  ASSERT_FALSE(base.empty());
  if (golden_crc_out != nullptr) *golden_crc_out = obs::crc32(base);
  for (const std::size_t k : {2u, 4u, 7u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    const std::string path =
        test_scoped_path("xk_" + std::to_string(k) + ".meclog");
    options.shards = k;
    options.stream_log = path;
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(),
                           options);
    (void)des.run_tro(mixed_thresholds(des.total_devices()));
    EXPECT_EQ(window_bytes(path), base)
        << "streamed window frames diverged from the K=1 byte stream";
    std::filesystem::remove(path);
  }
  std::filesystem::remove(base_path);
}

// CRC32s of K = 1 window byte streams, as produced by the reference
// toolchain (same compiler flags as CI).  The cross-K comparisons above
// compare runs with each other, so a change that moves every shard count
// alike (say, a term dropped from events_so_far) passes them; these pins
// catch it.  Regenerate on an intentional change with
//   MEC_PRINT_STREAM_GOLDEN=1 ./test_stream_log
// and paste the printed values.
constexpr std::uint32_t kFaultScheduleGoldenCrc = 128264215u;
constexpr std::uint32_t kPerClusterBrownoutGoldenCrc = 3029228633u;
constexpr std::uint32_t kClosedLoopDtuGoldenCrc = 1678388868u;
constexpr std::uint32_t kMultiClusterClosedLoopGoldenCrc = 1174680176u;

/// Checks a window byte stream's CRC32 against its pin, printing it first
/// under MEC_PRINT_STREAM_GOLDEN.
void expect_golden_crc(std::uint32_t crc, std::uint32_t golden) {
  if (std::getenv("MEC_PRINT_STREAM_GOLDEN") != nullptr) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::printf("STREAM GOLDEN %s.%s crc32 = %uu\n", info->test_suite_name(),
                info->name(), crc);
  }
  EXPECT_EQ(crc, golden);
}

TEST(StreamShardInvariance, FixedGamma) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  expect_stream_shard_invariant(o, nullptr);
}

TEST(StreamShardInvariance, TrackedGamma) {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 80.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 3.0;
  expect_stream_shard_invariant(o, nullptr);
}

TEST(StreamShardInvariance, FaultScheduleAllActionKinds) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(20.0, 0.5);
  schedule->add_capacity_scale(45.0, 1.0);
  schedule->add_outage(12.0, 18.0, fault::OutageMode::kReject);
  schedule->add_outage(30.0, 38.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_crash(10.0, 3);
  schedule->add_restart(25.0, 3);
  schedule->add_user_departure(22.0, 0.37);
  core::UserParams joiner;
  joiner.arrival_rate = 1.5;
  joiner.service_rate = 3.0;
  joiner.offload_latency = 0.2;
  joiner.energy_local = 1.0;
  joiner.energy_offload = 0.5;
  schedule->add_user_arrival(15.0, joiner);

  sim::SimulationOptions tracked;
  tracked.warmup = 4.0;
  tracked.horizon = 60.0;
  tracked.seed = 2024;
  tracked.utilization_ewma_tau = 8.0;
  tracked.initial_gamma = 0.2;
  tracked.sample_interval = 4.0;
  std::uint32_t crc = 0;
  expect_stream_shard_invariant(tracked, schedule, &crc);
  expect_golden_crc(crc, kFaultScheduleGoldenCrc);
}

// Multi-cluster tracked gamma with heterogeneous shares and per-cluster
// brown-outs: the per-cluster v2 trailer must be part of the byte-identity
// contract too, not just the scalar fields.
TEST(StreamShardInvariance, MultiClusterPerClusterBrownouts) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(10.0, 0.5, 1);   // brown-out cluster 1
  schedule->add_capacity_scale(16.0, 0.7, 0);   // milder one on cluster 0
  schedule->add_capacity_scale(26.0, 1.0, 1);   // cluster 1 recovers
  schedule->add_capacity_scale(32.0, 0.8);      // global dip on top
  schedule->add_outage(20.0, 24.0, fault::OutageMode::kPenalty, 0.4);

  sim::SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 50.0;
  o.seed = 424242;
  o.utilization_ewma_tau = 6.0;
  o.initial_gamma = 0.25;
  o.sample_interval = 4.0;
  o.topology.clusters = 2;
  o.topology.shares = {0.65, 0.35};
  std::uint32_t crc = 0;
  expect_stream_shard_invariant(o, schedule, &crc);
  expect_golden_crc(crc, kPerClusterBrownoutGoldenCrc);
}

// Sanity on the v2 trailer contents themselves: a 2-cluster run streams
// 2-entry per-cluster vectors whose offloads sum to the scalar cumulative
// count in every window.
TEST(StreamShardInvariance, MultiClusterTrailerIsConsistent) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 40.0;
  o.seed = 98;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 2.0;
  o.topology.clusters = 3;
  o.topology.shares = {0.5, 0.3, 0.2};
  o.stream_log = test_scoped_path("trailer.meclog");
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r = des.run_tro(mixed_thresholds(users.size()));
  const obs::LogScan scan = obs::scan_log(o.stream_log);
  EXPECT_TRUE(scan.complete()) << scan.error;
  ASSERT_FALSE(scan.windows.empty());
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const obs::WindowRecord& w = scan.windows[i];
    ASSERT_EQ(w.cluster_gamma.size(), 3u);
    ASSERT_EQ(w.cluster_offloads.size(), 3u);
    std::uint64_t sum = 0;
    for (const std::uint64_t n : w.cluster_offloads) sum += n;
    EXPECT_EQ(sum, w.offloads_so_far);
  }
  // The final window's per-cluster counts equal the run totals.
  ASSERT_EQ(r.cluster_offloads.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(scan.windows.back().cluster_offloads[k], r.cluster_offloads[k]);
  std::filesystem::remove(o.stream_log);
}

TEST(StreamShardInvariance, ClosedLoopDtu) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 120.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.sample_interval = 2.5;
  opt.shards = 1;
  opt.stream_log = test_scoped_path("xk_cl_base.meclog");
  (void)run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  const std::vector<std::uint8_t> base = window_bytes(opt.stream_log);
  ASSERT_FALSE(base.empty());
  expect_golden_crc(obs::crc32(base), kClosedLoopDtuGoldenCrc);
  std::filesystem::remove(opt.stream_log);
  for (const std::size_t k : {2u, 4u, 7u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    opt.shards = k;
    opt.stream_log = test_scoped_path("xk_cl_" + std::to_string(k) + ".meclog");
    (void)run_closed_loop(pop.users, pop.config.capacity, pop.config.delay,
                          opt);
    EXPECT_EQ(window_bytes(opt.stream_log), base);
    std::filesystem::remove(opt.stream_log);
  }
}

// Closed-loop DTU on a 2-cluster topology: Algorithm 1 broadcasts the scalar
// aggregate while the stream carries per-cluster trajectories; both must stay
// byte-identical across shard counts.
TEST(StreamShardInvariance, MultiClusterClosedLoopDtu) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 90.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.sample_interval = 2.5;
  opt.topology.clusters = 2;
  opt.topology.shares = {0.6, 0.4};
  opt.shards = 1;
  opt.stream_log = test_scoped_path("xk_mccl_base.meclog");
  (void)run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  const std::vector<std::uint8_t> base = window_bytes(opt.stream_log);
  ASSERT_FALSE(base.empty());
  expect_golden_crc(obs::crc32(base), kMultiClusterClosedLoopGoldenCrc);
  {
    const obs::LogScan scan = obs::scan_log(opt.stream_log);
    ASSERT_FALSE(scan.windows.empty());
    EXPECT_EQ(scan.windows.back().cluster_gamma.size(), 2u);
  }
  std::filesystem::remove(opt.stream_log);
  for (const std::size_t k : {2u, 4u, 7u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    opt.shards = k;
    opt.stream_log =
        test_scoped_path("xk_mccl_" + std::to_string(k) + ".meclog");
    (void)run_closed_loop(pop.users, pop.config.capacity, pop.config.delay,
                          opt);
    EXPECT_EQ(window_bytes(opt.stream_log), base);
    std::filesystem::remove(opt.stream_log);
  }
}

// CRC32 of the pinned scenario's window byte stream, as produced by the
// reference toolchain (same compiler flags as CI).  Regenerate on
// intentional change — see the test comment below.
constexpr std::uint32_t kFixedGammaGoldenCrc = 3942917030u;

// The golden regression pin: the fixed-gamma scenario's window byte stream,
// hashed.  This catches silent format or engine-semantics drift that the
// self-relative cross-K comparisons above cannot see.  If an *intentional*
// format or engine change moves the value, regenerate with this one
// command line:
//   MEC_PRINT_STREAM_GOLDEN=1 ./test_stream_log
//       --gtest_filter=StreamGolden.FixedGammaWindowBytes
TEST(StreamGolden, FixedGammaWindowBytes) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  std::uint32_t crc = 0;
  expect_stream_shard_invariant(o, nullptr, &crc);
  expect_golden_crc(crc, kFixedGammaGoldenCrc);
}

// FNV-1a digest (bit_digest.hpp, one word per byte) of one whole
// counters-off .meclog: header, meta, windows, footer and every frame
// envelope, from a small two-cluster tracked-gamma run on the reference
// toolchain.  The window pins above hash window payloads only.  A CRC-32
// of the file would not do: each frame ends with the CRC-32 of its payload,
// and the CRC-32 of any bytes followed by their own CRC-32 is a constant,
// so a whole-file CRC-32 moves with the frame headers alone.  The meta
// frame lists the counter catalogue, so a new counter moves this pin too.
// Regenerate on an intentional change with
//   MEC_PRINT_STREAM_GOLDEN=1 ./test_stream_log
//       --gtest_filter=StreamGolden.WholeLogBytes
constexpr std::uint64_t kWholeLogGoldenDigest = 0x75BD4959C495DBF0ull;

TEST(StreamGolden, WholeLogBytes) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 20.0;
  o.seed = 2031;
  o.shards = 1;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 4.0;
  o.topology.clusters = 2;
  o.topology.shares = {0.6, 0.4};
  o.stream_counters = false;
  o.stream_log = test_scoped_path("whole.meclog");
  {
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
    (void)des.run_tro(mixed_thresholds(users.size()));
  }
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(o.stream_log, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const obs::LogScan scan = obs::scan_log(o.stream_log);
  EXPECT_TRUE(scan.complete()) << scan.error;
  EXPECT_EQ(scan.windows.size(), 5u);
  EXPECT_TRUE(scan.counters.empty());
  test::BitDigest digest;
  for (const std::uint8_t byte : bytes) digest.word(byte);
  if (std::getenv("MEC_PRINT_STREAM_GOLDEN") != nullptr)
    std::printf("STREAM GOLDEN WholeLogBytes digest = 0x%016llXull\n",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(digest.value(), kWholeLogGoldenDigest);
  std::filesystem::remove(o.stream_log);
}

}  // namespace
