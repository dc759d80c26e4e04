// Measurement containers produced by the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mec/stats/latency_sketch.hpp"

namespace mec::sim {

/// Steady-state estimates for one device over the measurement window.
struct DeviceStats {
  std::uint64_t arrivals = 0;          ///< tasks arrived in the window
  std::uint64_t offloaded = 0;         ///< of which offloaded
  std::uint64_t local_completed = 0;   ///< local service completions
  double mean_queue_length = 0.0;      ///< time-average local queue length
  double offload_fraction = 0.0;       ///< offloaded / arrivals (0 if none)
  double mean_local_sojourn = 0.0;     ///< mean local task time-in-system
  double mean_offload_delay = 0.0;     ///< mean tau + g(gamma) per offload
  double energy_per_task = 0.0;        ///< mean energy across all arrivals
  double empirical_cost = 0.0;         ///< Eq.-(1) functional from measurements
};

/// One sampled point of the system's trajectory (telemetry; see
/// SimulationOptions::sample_interval).
///
/// Semantics: every field is the state *as of the scheduled sample time*,
/// taken as a left limit.  Samples are physically flushed when the engine
/// reaches the next event, but queue lengths are piecewise constant between
/// events — so the recorded queue state is exactly the state an observer
/// would have seen at `time`, excluding any event at `time` itself — and the
/// utilization EWMA is decayed to exactly `time` before being read.
/// Consequently the timeline is invariant to the sample interval: two runs
/// of the same seed with intervals 1 and 2 agree on every shared instant
/// (tested), and sampling never perturbs the event stream.
struct TimelinePoint {
  double time = 0.0;                 ///< scheduled sample time (absolute)
  /// EWMA (or fixed) gamma decayed to `time`
  double utilization_estimate = 0.0;
  double mean_queue_length = 0.0;    ///< mean local queue, left limit at `time`
  /// Offload decisions made in (warmup, time); 0 for samples at or before
  /// the end of warm-up (the measurement counters start only there).
  std::uint64_t offloads_so_far = 0;
  /// Edge capacity scale in effect at `time` (1.0 without faults); the mean
  /// queue length above averages over `active_devices` devices.
  double capacity_scale = 1.0;
  std::uint64_t active_devices = 0;
};

/// Degraded-mode accounting of one run under a FaultSchedule; all zeros /
/// nominal when the run had no schedule.  Structural counters (crashes,
/// restarts, churn) cover the whole run; task-level counters and the
/// time-weighted capacity figures cover only the measurement window,
/// matching every other measured quantity.
struct FaultStats {
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t churn_joined = 0;
  std::uint64_t churn_departed = 0;
  std::uint64_t tasks_lost = 0;          ///< queued tasks dropped by crashes
                                         ///< and departures
  std::uint64_t offloads_rejected = 0;   ///< outage reroutes to local
  std::uint64_t offloads_penalized = 0;  ///< outage latency penalties paid
  double min_capacity_scale = 1.0;       ///< lowest scale seen in the window
  double mean_capacity_scale = 1.0;      ///< time-weighted over the window
  double degraded_time = 0.0;  ///< window seconds with scale < 1 or outage
  /// Devices contributing to the population means: the initial population
  /// plus churn users that joined before the horizon end (never-joined
  /// churn slots report all-zero DeviceStats and are excluded).
  std::uint64_t participating_devices = 0;

  bool any() const noexcept {
    return crashes | restarts | churn_joined | churn_departed | tasks_lost |
           offloads_rejected | offloads_penalized ||
           min_capacity_scale != 1.0 || degraded_time > 0.0;
  }
};

/// Whole-system result of one simulation run.
struct SimulationResult {
  std::vector<DeviceStats> devices;
  /// Population-level per-task latency percentiles over the measurement
  /// window (mergeable log-binned sketches, so per-shard partials combine
  /// exactly; empty when no tasks of the kind occurred).
  stats::LatencySketch local_sojourn_percentiles;
  stats::LatencySketch offload_delay_percentiles;
  /// Sampled system trajectory; empty unless sampling was enabled.
  std::vector<TimelinePoint> timeline;
  /// Degraded-mode accounting (all nominal when no FaultSchedule ran).
  FaultStats faults;
  double measured_utilization = 0.0;  ///< offload task rate / (N*c)
  /// Per-cluster measured utilization (offload task rate into cluster k
  /// over its capacity share) and measured offload counts; size = the
  /// run's cluster count (1 for the default topology).
  std::vector<double> cluster_utilization;
  std::vector<std::uint64_t> cluster_offloads;
  double mean_cost = 0.0;             ///< population mean of empirical_cost
  double mean_queue_length = 0.0;     ///< population mean
  double mean_offload_fraction = 0.0; ///< population mean (per-device alpha)
  double horizon = 0.0;               ///< measurement window length
  std::uint64_t total_events = 0;     ///< events processed (incl. warm-up)

  /// Population mean of a DeviceStats field; requires non-empty devices.
  template <typename Getter>
  double device_mean(Getter&& get) const {
    double acc = 0.0;
    for (const auto& d : devices) acc += get(d);
    return acc / static_cast<double>(devices.size());
  }
};

/// One-paragraph human-readable summary (used by the examples).
std::string summarize(const SimulationResult& result);

}  // namespace mec::sim
