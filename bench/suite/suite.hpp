// The mec suite benchmark: three closed-loop workloads over the simulator's
// public API, each timed end to end from outside and split into per-layer
// numbers by outside-in probes and one traced run (see README.md).
//
// Everything here calls the library exactly as a user would: no tracing or
// timing lives inside src/.  The workloads, their inputs and the reasons
// they were chosen are documented in README.md; the metric catalogue in
// main.cpp is the list BENCHMARK.json and README.md must agree with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mec/core/mfne.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/population/population.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and quartiles as Python's statistics.quantiles(v, n=4) gives them
/// (the default exclusive method), so the BENCH lines and any check run over
/// the result objects agree.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t samples = 0;
};

/// Requires at least one sample.
Summary summarize(std::vector<double> samples);

// --- reference loop ---------------------------------------------------------

/// Wall seconds of `events` steps of a fixed hold-model event loop over 10^3
/// two-cache-line device records (reference.cpp).  It calls nothing in
/// src/, so its time measures the host's speed at that moment and nothing
/// else.
double reference_loop_seconds(std::uint64_t events);

// --- workloads --------------------------------------------------------------

/// One benchmark workload: the shape of its inputs and how it runs them.
/// Every workload draws its population from
/// theoretical_comparison_scenario(kAtService, n) and plays the MFNE
/// thresholds (or, for the closed loops, converges to them in-run).
struct Workload {
  std::string name;
  /// run_closed_loop (Algorithm 1 inside the DES, tracked gamma, epoch
  /// callbacks) instead of run_tro.
  bool closed_loop = false;
  /// run_tro with the EWMA utilization estimate (GammaReplay on) instead of
  /// gamma pinned at gamma*.
  bool tracked_gamma = false;
  std::size_t shards = 1;
  /// --transport=process --workers=2, one shard per worker.
  bool process = false;
  std::size_t clusters = 1;
  /// Loads workloads/brownout_churn.fault.
  bool faults = false;
  /// Streams its own .meclog (20 windows) in every run.
  bool streams = false;
  double warmup = 0.0;         ///< run_tro only
  double horizon = 0.0;        ///< measurement window (closed loop: whole run)
  double update_period = 0.0;  ///< closed loop only
};

const std::vector<Workload>& workloads();
/// Throws mec::RuntimeError naming the known workloads on an unknown name.
const Workload& find_workload(const std::string& name);

/// Simulated end time of one run (warm-up + horizon).
inline double t_end(const Workload& w) { return w.warmup + w.horizon; }

/// The generated inputs of one workload at one seed.
struct Inputs {
  std::uint64_t seed = 0;
  population::Population pop;
  core::MfneResult mfne;
  std::shared_ptr<const fault::FaultSchedule> faults;
  /// MFNE thresholds, then one Lemma-1 threshold at gamma* per churn joiner.
  std::vector<double> thresholds;
};

/// Wall seconds of each setup step.
struct SetupTimes {
  double sample_s = 0.0;
  double mfne_s = 0.0;
  double fault_s = 0.0;
};

/// Samples the population, solves the MFNE and loads the fault schedule
/// (`fault_file`, when the workload has faults), timing each step.
Inputs make_inputs(const Workload& w, std::size_t n_users, std::uint64_t seed,
                   const std::string& fault_file, SetupTimes& times);

/// How one run differs from the workload's own untimed shape: its shard
/// count and transport (the reference run changes these) and its telemetry
/// (the traced run adds engine counters).
struct Variant {
  std::size_t shards = 1;
  bool process = false;
  std::string stream_log;
  double sample_interval = 0.0;
  bool counters = false;
};

/// The timed runs' variant; `out_dir` receives the workload's own stream.
Variant timed_variant(const Workload& w, const std::string& out_dir);
/// The timed variant plus a counter-carrying stream on a grid that
/// coincides with barriers the run already has, so the EWMA reads — and the
/// result digest — are unchanged.
Variant traced_variant(const Workload& w, const std::string& out_dir);
/// The cross-check run: K = 1 in process, or K = 4 for the K = 1 workloads.
Variant reference_variant(const Workload& w, const std::string& out_dir);

struct RunResult {
  std::string digest;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double final_gamma_hat = 0.0;  ///< closed loops only
};

/// One workload bound to its inputs and a variant.  The constructor builds
/// the MecSimulation (timed by the caller as sim.construct_s); the closed
/// loops build theirs inside every run_closed_loop call, so for them the
/// object only serves that measurement.
class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, Variant v);

  /// One run, wall-timed around the library call only.
  RunResult run(sim::SimWorkspace& workspace) const;

 private:
  const Workload& w_;
  const Inputs& in_;
  Variant v_;
  sim::MecSimulation sim_;
};

// --- traced-run counters ----------------------------------------------------

/// Per-layer numbers folded from the engine-counter frames of one traced
/// .meclog (obs::Counter ids; see docs/OBSERVABILITY.md).
struct TraceCounters {
  std::size_t frames = 0;
  double leg_critical_s = 0.0;  ///< sum over barriers of the max shard leg
  double leg_busy_s = 0.0;      ///< sum over barriers and shards of legs
  double imbalance_s = 0.0;     ///< sum of barrier_wait_seconds
  double events = 0.0;          ///< final shard_events, summed over shards
  double queue_depth_max = 0.0;
  double queue_depth_mean = 0.0;  ///< per shard, over all samples
  double gear_switches = 0.0;     ///< final, summed over shards
  double calendar_retunes = 0.0;  ///< final, summed over shards
  double replay_records = 0.0;    ///< summed over frames
  double replay_deliveries = 0.0; ///< final
  double fault_events = 0.0;      ///< final
  double rank_wait_s = 0.0;       ///< summed over frames and ranks
  double payload_bytes = 0.0;     ///< final, summed over ranks
  double frames_sent = 0.0;       ///< final, summed over ranks
  double frames_received = 0.0;   ///< final, summed over ranks
};

/// The counter ids a traced run of `w` must carry in every frame.
std::vector<obs::Counter> required_counters(const Workload& w);

/// Folds the counter frames of `scan`.  Throws mec::RuntimeError naming
/// MEC_OBS_COUNTERS when the log is incomplete, has fewer counter frames
/// than windows, or a frame lacks a required id: an OFF build or a missing
/// frame must fail the benchmark, never report zeros.
TraceCounters read_trace_counters(const obs::LogScan& scan,
                                  const std::string& path,
                                  std::span<const obs::Counter> required);

// --- micro-timings of public kernels ----------------------------------------

/// Sizes of the probes, taken from the workload and its traced run.
struct ProbeShape {
  std::size_t shards = 1;
  std::size_t clusters = 1;
  std::size_t queue_depth = 1;      ///< per-shard future-event list depth
  std::size_t records_per_leg = 1;  ///< offload records per barrier leg
};

struct ProbeResults {
  double best_threshold_sweep_s = 0.0;
  double queue_hold_ns = 0.0;
  double replay_ns_per_record = 0.0;
  double wire_encode_ns_per_record = 0.0;
  double wire_decode_ns_per_record = 0.0;
  double frame_mb_per_s = 0.0;
  double transport_startup_s = 0.0;
  double window_encode_us = 0.0;
  double append_window_us = 0.0;
  double scan_mb_per_s = 0.0;
  double sketch_add_ns = 0.0;
  double sketch_merge_us = 0.0;
};

/// Runs every probe.  `traced_log` is the traced run's .meclog (scanned and
/// re-encoded by the obs probes); `temp_file` is a writable file path.
ProbeResults run_probes(const Inputs& in, const ProbeShape& shape,
                        const std::string& traced_log,
                        const obs::LogScan& scan, const std::string& temp_file);

}  // namespace mec::suite
