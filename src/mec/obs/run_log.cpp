#include "mec/obs/run_log.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>

#include "mec/common/error.hpp"
#include "mec/obs/wire.hpp"

namespace mec::obs {
namespace {

// All multi-byte fields are little-endian on disk, independent of the host;
// the scalar codec lives in obs/wire.hpp, shared with the transport layer.
using wire::ByteWriter;
using wire::load_le;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320.
/// Table 0 is the bytewise table; table k advances table k-1's entry by one
/// more zero byte, so table k gives the CRC contribution of a byte that has
/// k further bytes after it in an 8-byte block.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}
constexpr CrcTables kCrcTables = make_crc_tables();

constexpr std::size_t kWindowDoubles = 15;
constexpr std::size_t kWindowU64s = 11;
/// Fixed (cluster-independent) part of a v2 window payload; the per-cluster
/// trailer appends a u32 cluster count plus 16 bytes per cluster.
constexpr std::size_t kWindowFixedSize =
    kWindowDoubles * 8 + kWindowU64s * 8 + kThresholdBins * 4;

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // Eight bytes per step: the running CRC folds into the first four, and
  // each byte's contribution is one table lookup, independent of the rest.
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
    const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::size_t window_payload_size(std::size_t clusters) noexcept {
  return kWindowFixedSize + 4 + clusters * 16;
}

namespace {

constexpr auto meta_entry_fields = []<class Io, class E>(Io& io, E& entry) {
  io(entry.first, entry.second);
};

constexpr auto meta_fields = []<class Io, class M>(Io& io, M& meta) {
  // Each entry is at least its two u32 string lengths.
  io.items(meta, 8, "run-log meta entries", meta_entry_fields);
};

constexpr auto window_fields = []<class Io, class W>(Io& io, W& w) {
  io(w.time, w.gamma, w.mean_queue_length, w.queue_second_moment,
     w.capacity_scale, w.active_devices, w.offloads_so_far, w.offloads_delta,
     w.events_so_far, w.events_delta, w.sojourn_count, w.sojourn_min,
     w.sojourn_max, w.sojourn_p50, w.sojourn_p95, w.sojourn_p99,
     w.offload_count, w.offload_min, w.offload_max, w.offload_p50,
     w.offload_p95, w.offload_p99, w.tasks_lost, w.offloads_rejected,
     w.offloads_penalized, w.fault_events_applied);
  for (auto& bin : w.threshold_histogram) io(bin);
  // The v2 trailer: a cluster count, then one (gamma, offloads) pair per
  // cluster, taken from the two parallel vectors.
  auto clusters = static_cast<std::uint32_t>(w.cluster_gamma.size());
  io(clusters);
  if constexpr (Io::kReading) {
    if (clusters == 0 || io.remaining() != std::size_t{clusters} * 16)
      throw RuntimeError("run-log window frame has unexpected size");
    w.cluster_gamma.resize(clusters);
    w.cluster_offloads.resize(clusters);
  }
  for (std::size_t k = 0; k < clusters; ++k)
    io(w.cluster_gamma[k], w.cluster_offloads[k]);
};

constexpr auto counter_fields = []<class Io, class C>(Io& io, C& v) {
  io(v.id, v.shard, v.value);
};

constexpr auto counters_fields = []<class Io, class V>(Io& io, V& values) {
  io.items(values, 12, "run-log counter values", counter_fields);
};

constexpr auto footer_fields = []<class Io, class F>(Io& io, F& f) {
  io(f.windows, f.total_events, f.measured_utilization, f.mean_cost, f.horizon);
};

}  // namespace

std::vector<std::uint8_t> encode_meta(const RunLogMeta& meta) {
  return wire::encode_whole(meta, meta_fields);
}

std::vector<std::uint8_t> encode_window(const WindowRecord& window) {
  MEC_EXPECTS_MSG(!window.cluster_gamma.empty() &&
                      window.cluster_gamma.size() ==
                          window.cluster_offloads.size(),
                  "window record needs matching per-cluster vectors");
  const std::size_t size = window_payload_size(window.cluster_gamma.size());
  auto bytes = wire::encode_whole(window, window_fields, size);
  MEC_ASSERT(bytes.size() == size);
  return bytes;
}

std::vector<std::uint8_t> encode_counters(
    std::span<const CounterValue> values) {
  return wire::encode_whole(values, counters_fields, 4 + values.size() * 12);
}

std::vector<std::uint8_t> encode_footer(const RunFooter& footer) {
  return wire::encode_whole(footer, footer_fields, 5 * 8);
}

RunLogMeta decode_meta(std::span<const std::uint8_t> payload) {
  return wire::decode_whole<RunLogMeta>(
      payload, "run-log meta frame has trailing bytes", meta_fields);
}

WindowRecord decode_window(std::span<const std::uint8_t> payload) {
  return wire::decode_whole<WindowRecord>(
      payload, "run-log window frame has trailing bytes", window_fields);
}

std::vector<CounterValue> decode_counters(
    std::span<const std::uint8_t> payload) {
  return wire::decode_whole<std::vector<CounterValue>>(
      payload, "run-log counter frame has trailing bytes", counters_fields);
}

RunFooter decode_footer(std::span<const std::uint8_t> payload) {
  return wire::decode_whole<RunFooter>(
      payload, "run-log footer frame has trailing bytes", footer_fields);
}

// --- writer ----------------------------------------------------------------

RunLogWriter::RunLogWriter(const std::string& path, const RunLogMeta& meta)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr)
    throw RuntimeError("cannot open stream log for writing: " + path + ": " +
                       std::strerror(errno));
  ByteWriter header(24);
  header.put_bytes(kMagic.data(), kMagic.size());
  header.put_u32(kFormatVersion);
  header.put_u32(static_cast<std::uint32_t>(kThresholdBins));
  header.put_u32(0);  // flags (reserved)
  header.put_u32(0);  // reserved
  const auto bytes = header.take();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
    throw RuntimeError("failed writing stream log header: " + path_);
  write_frame(FrameKind::kMeta, encode_meta(meta));
}

RunLogWriter::~RunLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void RunLogWriter::write_frame(FrameKind kind,
                               std::span<const std::uint8_t> payload) {
  MEC_EXPECTS_MSG(!finished_, "stream log already finished");
  MEC_EXPECTS(payload.size() <= kMaxFramePayload);
  ByteWriter prefix(8);
  prefix.put_u32(static_cast<std::uint32_t>(kind));
  prefix.put_u32(static_cast<std::uint32_t>(payload.size()));
  ByteWriter suffix(4);
  suffix.put_u32(crc32(payload));
  const auto head = prefix.take();
  const auto tail = suffix.take();
  const bool ok =
      std::fwrite(head.data(), 1, head.size(), file_) == head.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), file_) ==
           payload.size()) &&
      std::fwrite(tail.data(), 1, tail.size(), file_) == tail.size() &&
      std::fflush(file_) == 0;
  if (!ok) throw RuntimeError("failed writing stream log frame: " + path_);
}

void RunLogWriter::append_window(const WindowRecord& window) {
  write_frame(FrameKind::kWindow, encode_window(window));
  ++windows_;
}

void RunLogWriter::append_counters(std::span<const CounterValue> values) {
  write_frame(FrameKind::kCounters, encode_counters(values));
}

void RunLogWriter::finish(const RunFooter& footer) {
  write_frame(FrameKind::kFooter, encode_footer(footer));
  finished_ = true;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) throw RuntimeError("failed closing stream log: " + path_);
}

// --- reader ----------------------------------------------------------------

RunLogReader::RunLogReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr)
    throw RuntimeError("cannot open stream log: " + path + ": " +
                       std::strerror(errno));
  std::array<std::uint8_t, 24> header{};
  if (std::fread(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw RuntimeError("not a .meclog file (truncated header): " + path);
  }
  if (std::memcmp(header.data(), kMagic.data(), kMagic.size()) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw RuntimeError("not a .meclog file (bad magic): " + path);
  }
  version_ = load_le<std::uint32_t>(header.data() + 8);
  const std::uint32_t bins = load_le<std::uint32_t>(header.data() + 12);
  if (version_ != kFormatVersion || bins != kThresholdBins) {
    std::fclose(file_);
    file_ = nullptr;
    // A v1 log has the same family magic but no per-cluster block in its
    // window frames; parsing it as v2 would misread every window, so it is
    // rejected here instead of downstream.
    throw RuntimeError("unsupported .meclog schema in " + path + ": found v" +
                       std::to_string(version_) + " with " +
                       std::to_string(bins) + " histogram bins, this build " +
                       "reads v" + std::to_string(kFormatVersion) + " with " +
                       std::to_string(kThresholdBins) +
                       " bins; re-run the simulation to regenerate the log");
  }
}

RunLogReader::~RunLogReader() {
  if (file_ != nullptr) std::fclose(file_);
}

ReadStatus RunLogReader::next(Frame& out) {
  const long start = std::ftell(file_);
  const auto rewind = [&] {
    // Repositioning also clears the sticky EOF flag, so follow-mode callers
    // can retry next() after the file has grown.
    std::fseek(file_, start, SEEK_SET);
  };
  std::array<std::uint8_t, 8> prefix{};
  const std::size_t got = std::fread(prefix.data(), 1, prefix.size(), file_);
  if (got == 0) {
    rewind();
    return ReadStatus::kEndOfData;
  }
  if (got < prefix.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  const std::uint32_t kind = load_le<std::uint32_t>(prefix.data());
  const std::uint32_t length = load_le<std::uint32_t>(prefix.data() + 4);
  if (kind < static_cast<std::uint32_t>(FrameKind::kMeta) ||
      kind > static_cast<std::uint32_t>(FrameKind::kFooter) ||
      length > kMaxFramePayload) {
    rewind();
    return ReadStatus::kCorrupt;
  }
  std::vector<std::uint8_t> payload(length);
  if (length > 0 &&
      std::fread(payload.data(), 1, payload.size(), file_) != payload.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  std::array<std::uint8_t, 4> checksum{};
  if (std::fread(checksum.data(), 1, checksum.size(), file_) !=
      checksum.size()) {
    rewind();
    return ReadStatus::kTruncated;
  }
  if (crc32(payload) != load_le<std::uint32_t>(checksum.data())) {
    rewind();
    return ReadStatus::kCorrupt;
  }
  out.kind = static_cast<FrameKind>(kind);
  out.payload = std::move(payload);
  return ReadStatus::kFrame;
}

// --- whole-file scan -------------------------------------------------------

ReadStatus scan_frames(RunLogReader& reader, LogScan& scan) {
  Frame frame;
  scan.truncated = false;
  for (;;) {
    const ReadStatus status = reader.next(frame);
    if (status != ReadStatus::kFrame) {
      scan.truncated = status == ReadStatus::kTruncated;
      if (status == ReadStatus::kCorrupt) {
        scan.corrupt = true;
        scan.error =
            "corrupt frame (bad header or CRC mismatch) at frame index " +
            std::to_string(scan.frames);
      }
      return status;
    }
    try {
      switch (frame.kind) {
        case FrameKind::kMeta:
          scan.meta = decode_meta(frame.payload);
          break;
        case FrameKind::kWindow:
          scan.windows.push_back(decode_window(frame.payload));
          break;
        case FrameKind::kCounters:
          scan.counters.push_back(decode_counters(frame.payload));
          break;
        case FrameKind::kFooter:
          scan.footer = decode_footer(frame.payload);
          break;
      }
    } catch (const RuntimeError& e) {
      scan.corrupt = true;
      scan.error = std::string(e.what()) + " (frame index " +
                   std::to_string(scan.frames) + ")";
      return ReadStatus::kCorrupt;
    }
    ++scan.frames;
  }
}

LogScan scan_log(const std::string& path) {
  RunLogReader reader(path);
  LogScan scan;
  scan_frames(reader, scan);
  return scan;
}

std::string meta_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// --- CSV export ------------------------------------------------------------

void export_windows_csv(const LogScan& scan, const std::string& csv_path,
                        const std::string& hist_path) {
  std::ofstream out(csv_path);
  if (!out)
    throw RuntimeError("cannot open CSV output file: " + csv_path);
  // Every window of one log carries the same cluster count (it is a run
  // property), so the per-cluster columns come from the first window.
  const std::size_t clusters =
      scan.windows.empty() ? 0 : scan.windows.front().cluster_gamma.size();
  out << "window,time,gamma,mean_queue_length,queue_second_moment,"
         "capacity_scale,active_devices,offloads_so_far,offloads_delta,"
         "events_so_far,events_delta,sojourn_count,sojourn_min,sojourn_max,"
         "sojourn_p50,sojourn_p95,sojourn_p99,offload_count,offload_min,"
         "offload_max,offload_p50,offload_p95,offload_p99,tasks_lost,"
         "offloads_rejected,offloads_penalized,fault_events_applied";
  for (std::size_t k = 0; k < clusters; ++k)
    out << ",cluster" << k << "_gamma,cluster" << k << "_offloads";
  out << '\n';
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    const WindowRecord& w = scan.windows[i];
    out << i << ',' << meta_double(w.time) << ',' << meta_double(w.gamma) << ','
        << meta_double(w.mean_queue_length) << ','
        << meta_double(w.queue_second_moment) << ','
        << meta_double(w.capacity_scale) << ',' << w.active_devices << ','
        << w.offloads_so_far << ',' << w.offloads_delta << ','
        << w.events_so_far << ',' << w.events_delta << ',' << w.sojourn_count
        << ',' << meta_double(w.sojourn_min) << ','
        << meta_double(w.sojourn_max) << ',' << meta_double(w.sojourn_p50)
        << ',' << meta_double(w.sojourn_p95) << ','
        << meta_double(w.sojourn_p99) << ',' << w.offload_count << ','
        << meta_double(w.offload_min) << ',' << meta_double(w.offload_max)
        << ',' << meta_double(w.offload_p50) << ','
        << meta_double(w.offload_p95) << ',' << meta_double(w.offload_p99)
        << ',' << w.tasks_lost << ',' << w.offloads_rejected << ','
        << w.offloads_penalized << ',' << w.fault_events_applied;
    for (std::size_t k = 0; k < clusters; ++k)
      out << ',' << meta_double(w.cluster_gamma[k]) << ','
          << w.cluster_offloads[k];
    out << '\n';
  }
  if (!out) throw RuntimeError("failed writing CSV output file: " + csv_path);
  if (hist_path.empty()) return;
  std::ofstream hist(hist_path);
  if (!hist)
    throw RuntimeError("cannot open CSV output file: " + hist_path);
  hist << "window,bin,count\n";
  for (std::size_t i = 0; i < scan.windows.size(); ++i) {
    const auto& bins = scan.windows[i].threshold_histogram;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] == 0) continue;
      hist << i << ',' << b << ',' << bins[b] << '\n';
    }
  }
  if (!hist)
    throw RuntimeError("failed writing CSV output file: " + hist_path);
}

}  // namespace mec::obs
