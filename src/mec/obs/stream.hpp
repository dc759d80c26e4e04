// Windowed streaming sink: folds each observation-grid instant into one
// fixed-size WindowRecord and flushes it to a .meclog run-log at the
// barrier, so a long-horizon run's telemetry memory is O(devices + one
// window) instead of O(samples).
//
// The sink receives the engine's left-limit TimelinePoint through
// on_sample, the same point the run's in-memory timeline keeps (a run can
// stream *and* keep the timeline, which is exactly what the equivalence
// tests compare), and the barrier-only extras — cumulative
// event totals, merged latency sketches, fault counters, the threshold
// histogram — through commit_window().  Every value folded into a window
// is deterministic across shard counts; see run_log.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "mec/obs/run_log.hpp"
#include "mec/sim/metrics.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::obs {

/// Barrier-time inputs that do not travel in the TimelinePoint.  Sketch
/// pointers may be null (no tasks of the kind yet); the histogram span is
/// either empty or exactly kThresholdBins wide.
struct WindowExtras {
  double queue_second_moment = 0.0;  ///< left-limit mean of q^2
  std::uint64_t events_so_far = 0;   ///< cumulative events incl. deliveries
  const stats::LatencySketch* sojourns = nullptr;        ///< cumulative
  const stats::LatencySketch* offload_delays = nullptr;  ///< cumulative
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  std::uint64_t fault_events_applied = 0;
  std::span<const std::uint32_t> threshold_histogram;
  /// Per-edge-cluster gamma estimates and cumulative measured offload
  /// counts at this barrier (equal, non-zero sizes).  Both empty means a
  /// single-cluster run: the window then carries the staged point's scalar
  /// gamma and offload total as its one-cluster block.
  std::span<const double> cluster_gamma;
  std::span<const std::uint64_t> cluster_offloads;
};

/// Streams windows to disk instead of accumulating them.
/// Protocol per grid sample instant: on_sample(point) stages the point,
/// commit_window(extras) folds and writes the frame.  finish(footer) seals
/// the log; a sink destroyed without finish() leaves a valid footer-less
/// log (what a crashed run looks like).
class StreamingSink {
 public:
  /// Opens `path` and writes the header + meta frame.  `with_counters`
  /// requests counter frames.  Throws mec::RuntimeError on I/O error.
  StreamingSink(const std::string& path, const RunLogMeta& meta,
                bool with_counters);

  void on_sample(const sim::TimelinePoint& point);

  /// Folds the staged point + extras into a WindowRecord and flushes it.
  /// Requires a staged point (one on_sample per commit).
  void commit_window(const WindowExtras& extras);

  /// Writes one counter frame (no-op unless counters_enabled()).
  void append_counters(std::span<const CounterValue> values);

  void finish(const RunFooter& footer);

  bool counters_enabled() const noexcept { return with_counters_; }
  std::uint64_t windows() const noexcept { return writer_.windows_written(); }
  const std::string& path() const noexcept { return writer_.path(); }

 private:
  RunLogWriter writer_;
  bool with_counters_;
  bool staged_ = false;
  sim::TimelinePoint staged_point_{};
  std::uint64_t prev_offloads_ = 0;
  std::uint64_t prev_events_ = 0;
};

/// Formats a double for the meta frame with full round-trip precision.
std::string meta_double(double value);

}  // namespace mec::obs
