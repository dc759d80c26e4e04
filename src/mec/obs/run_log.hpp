// The .meclog run-log format: the on-disk half of the streaming telemetry
// subsystem (see docs/OBSERVABILITY.md for the byte-level spec).
//
// A run log is a self-describing, versioned binary stream:
//
//   header  (24 bytes)   magic "MECLOGv1", format version, histogram width
//   frames  (repeated)   u32 kind | u32 payload length | payload | u32 CRC32
//
// Frame kinds: one key=value metadata frame (scenario, cadences, the counter
// catalogue), one window frame per observation-grid sample instant, an
// optional counter frame right after each window, and a footer frame with
// whole-run totals that marks clean completion.  Every frame is flushed as
// it is written, so a live `mec tail` — or a reader inspecting the remains
// of a crashed run — always sees a valid prefix: the reader stops cleanly at
// a partial trailing frame (kTruncated) and distinguishes it from actual
// byte corruption (kCorrupt, CRC mismatch).
//
// Determinism contract: window payloads contain only quantities that are
// bit-identical for every shard count (TimelinePoint fields, order-invariant
// integer sums, merged LatencySketch quantiles), so the sequence of window
// frames is byte-identical for K = 1, 2, 4, ... — pinned by goldens in
// tests/test_stream_log.cpp.  Counter frames carry wall-clock diagnostics
// and are explicitly *not* deterministic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace mec::obs {

/// CRC-32 (IEEE 802.3, reflected) over `bytes`; the frame checksum.
std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Family magic (identifies any .meclog, regardless of schema revision);
/// the u32 version field that follows it is what actually gates parsing.
inline constexpr std::array<char, 8> kMagic = {'M', 'E', 'C', 'L',
                                               'O', 'G', 'v', '1'};
/// Schema revision.  v2 added the per-cluster block (cluster count + one
/// gamma/offload pair per edge cluster) to every window frame; v1 logs are
/// rejected by the reader with a clear re-run message rather than
/// misparsed as single-cluster data.
inline constexpr std::uint32_t kFormatVersion = 2;
/// Fixed width of the per-window threshold histogram (bin b counts devices
/// with floor(threshold) == b; the last bin absorbs everything above).
inline constexpr std::size_t kThresholdBins = 64;
/// Sanity cap on frame payloads; anything larger is treated as corruption.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 24;

enum class FrameKind : std::uint32_t {
  kMeta = 1,     ///< key=value run description + counter catalogue
  kWindow = 2,   ///< one WindowRecord (deterministic)
  kCounters = 3, ///< engine-counter samples (wall-clock diagnostics)
  kFooter = 4,   ///< whole-run totals; presence marks clean completion
};

/// One observation window, folded from a sample grid instant.  The first
/// six fields mirror sim::TimelinePoint bit-for-bit; the rest are
/// cumulative-or-delta rollups that are order-invariant across shards.
struct WindowRecord {
  double time = 0.0;                 ///< sample instant (absolute seconds)
  double gamma = 0.0;                ///< utilization estimate at `time`
  double mean_queue_length = 0.0;    ///< left-limit mean over active devices
  double queue_second_moment = 0.0;  ///< left-limit mean of q^2
  double capacity_scale = 1.0;
  std::uint64_t active_devices = 0;
  std::uint64_t offloads_so_far = 0;  ///< cumulative (== TimelinePoint)
  std::uint64_t offloads_delta = 0;   ///< offload decisions this window
  std::uint64_t events_so_far = 0;    ///< cumulative events incl. deliveries
  std::uint64_t events_delta = 0;
  // Cumulative latency-sketch snapshots (merged across shards; exact).
  std::uint64_t sojourn_count = 0;
  double sojourn_min = 0.0, sojourn_max = 0.0;
  double sojourn_p50 = 0.0, sojourn_p95 = 0.0, sojourn_p99 = 0.0;
  std::uint64_t offload_count = 0;
  double offload_min = 0.0, offload_max = 0.0;
  double offload_p50 = 0.0, offload_p95 = 0.0, offload_p99 = 0.0;
  // Cumulative degraded-mode counters (zero without a FaultSchedule).
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  std::uint64_t fault_events_applied = 0;
  /// Distribution of floor(threshold) over the population at `time`
  /// (run_tro runs; all-zero for run_dpo).  A minority-game run puts the
  /// devices of inactive clusters (threshold 2^63) in the last bin.
  std::array<std::uint32_t, kThresholdBins> threshold_histogram{};
  /// Per-edge-cluster trailer (v2): one utilization estimate and one
  /// cumulative measured offload count per topology cluster, in cluster
  /// order.  Always at least one entry; sizes match.  Invariants mirror the
  /// scalar fields: with one cluster cluster_gamma[0] == gamma, and
  /// sum(cluster_offloads) == offloads_so_far for every window.
  std::vector<double> cluster_gamma = {0.0};
  std::vector<std::uint64_t> cluster_offloads = {0};
};

/// Serialized size of one WindowRecord payload with `clusters` per-cluster
/// entries, in bytes.
std::size_t window_payload_size(std::size_t clusters = 1) noexcept;

/// One sampled engine counter.  `shard` is the owning shard index, or
/// kGlobalShard for run-wide values.
struct CounterValue {
  std::uint16_t id = 0;  ///< obs::Counter (see counters.hpp)
  std::uint16_t shard = 0;
  double value = 0.0;
};
inline constexpr std::uint16_t kGlobalShard = 0xFFFF;

/// Whole-run totals written by the footer frame.
struct RunFooter {
  std::uint64_t windows = 0;
  std::uint64_t total_events = 0;
  double measured_utilization = 0.0;
  double mean_cost = 0.0;
  double horizon = 0.0;
};

/// Ordered key=value run description (insertion order is preserved in the
/// file, so metadata round-trips byte-identically).
using RunLogMeta = std::vector<std::pair<std::string, std::string>>;

// --- payload encode/decode (exposed for tests) -----------------------------

std::vector<std::uint8_t> encode_meta(const RunLogMeta& meta);
std::vector<std::uint8_t> encode_window(const WindowRecord& window);
std::vector<std::uint8_t> encode_counters(std::span<const CounterValue> values);
std::vector<std::uint8_t> encode_footer(const RunFooter& footer);

/// Decoders throw mec::RuntimeError on malformed payloads.
RunLogMeta decode_meta(std::span<const std::uint8_t> payload);
WindowRecord decode_window(std::span<const std::uint8_t> payload);
std::vector<CounterValue> decode_counters(
    std::span<const std::uint8_t> payload);
RunFooter decode_footer(std::span<const std::uint8_t> payload);

// --- writer ----------------------------------------------------------------

/// Appends frames to a .meclog file, flushing after every frame so a tail
/// viewer (or post-crash reader) always sees a valid prefix.  Throws
/// mec::RuntimeError on I/O failure.  Destroying the writer without
/// finish() leaves a valid but incomplete log (no footer frame).
class RunLogWriter {
 public:
  RunLogWriter(const std::string& path, const RunLogMeta& meta);
  ~RunLogWriter();
  RunLogWriter(const RunLogWriter&) = delete;
  RunLogWriter& operator=(const RunLogWriter&) = delete;

  void append_window(const WindowRecord& window);
  void append_counters(std::span<const CounterValue> values);
  void finish(const RunFooter& footer);

  std::uint64_t windows_written() const noexcept { return windows_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void write_frame(FrameKind kind, std::span<const std::uint8_t> payload);

  std::FILE* file_ = nullptr;
  std::string path_;
  std::uint64_t windows_ = 0;
  bool finished_ = false;
};

// --- reader ----------------------------------------------------------------

struct Frame {
  FrameKind kind = FrameKind::kMeta;
  std::vector<std::uint8_t> payload;
};

enum class ReadStatus {
  kFrame,      ///< `out` holds the next complete, checksummed frame
  kEndOfData,  ///< clean end: no bytes past the last complete frame
  kTruncated,  ///< a partial frame at the tail (growing file or crash)
  kCorrupt,    ///< CRC mismatch or an impossible frame header
};

/// Incremental frame reader.  After kEndOfData/kTruncated the read position
/// is rewound to the frame boundary, so next() can be retried once the file
/// has grown — this is how `mec tail --follow` works.  Throws
/// mec::RuntimeError when the file cannot be opened or the 24-byte header
/// is missing/foreign.
class RunLogReader {
 public:
  explicit RunLogReader(const std::string& path);
  ~RunLogReader();
  RunLogReader(const RunLogReader&) = delete;
  RunLogReader& operator=(const RunLogReader&) = delete;

  ReadStatus next(Frame& out);

  std::uint32_t version() const noexcept { return version_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint32_t version_ = 0;
};

// --- whole-file scan -------------------------------------------------------

/// Everything a consumer (tests, `mec tail`, CSV export) needs from a log,
/// with partial-file tolerance.
struct LogScan {
  RunLogMeta meta;
  std::vector<WindowRecord> windows;
  std::vector<std::vector<CounterValue>> counters;  ///< one entry per frame
  std::optional<RunFooter> footer;
  std::uint64_t frames = 0;  ///< frames decoded, meta and footer included
  bool truncated = false;    ///< the last scan stopped at a partial frame
  bool corrupt = false;      ///< CRC mismatch / malformed frame encountered
  std::string error;         ///< first corruption diagnostic

  bool complete() const noexcept { return footer.has_value() && !corrupt; }
};

/// Decodes every complete frame `reader` has not yet returned into `scan`
/// and returns the status it stopped on.  kEndOfData and kTruncated leave
/// the reader at a frame boundary, so a later call resumes there once the
/// file has grown (`mec tail --follow`).  kCorrupt — a bad frame header, a
/// CRC mismatch, or a payload that does not decode — sets corrupt and an
/// error naming the frame's index; the scan is final after it.
ReadStatus scan_frames(RunLogReader& reader, LogScan& scan);

/// Scans the whole file; never throws past the header check (partial and
/// corrupt tails are reported in the flags instead).
LogScan scan_log(const std::string& path);

/// Formats a double with full round-trip precision (17 significant
/// digits): meta values, CSV cells and diagnostics.
std::string meta_double(double value);

/// Lossless CSV export of the window frames (doubles printed with 17
/// significant digits, integers verbatim).  The threshold histogram goes to
/// `hist_path` as (window, bin, count) rows when non-empty.
void export_windows_csv(const LogScan& scan, const std::string& csv_path,
                        const std::string& hist_path = "");

}  // namespace mec::obs
