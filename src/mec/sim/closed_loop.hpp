// Closed-loop operation: Algorithm 1 running *inside* the discrete-event
// simulator.
//
// run_dtu (mec/core/dtu.hpp) evaluates gamma_t with an oracle between
// iterations.  In a deployed system the two time scales of the paper's
// quasi-stationary argument coexist in real time: tasks flow continuously
// (fast scale) while every `update_period` seconds the edge broadcasts its
// *measured* utilization estimate and devices best-respond (slow scale).
// This module runs exactly that: one continuous run_tro simulation in which
// an epoch callback calls Algorithm 1's one update, core::dtu_update, on the
// engine's EWMA utilization and so rewrites the per-device threshold array
// in place — queues are never reset, stragglers can skip updates, and
// convergence happens under genuine measurement noise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/dtu.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {

/// A closed-loop run: the simulation it runs plus Algorithm 1's parameters
/// (eta0, epsilon, update_gate; a null gate means every device updates).
/// Every SimulationOptions field applies as in any run — shards,
/// transports, topology, faults, streaming — except three that
/// run_closed_loop refuses by name:
///   - warmup must stay 0, because the whole run is the measurement;
///   - fixed_gamma must stay unset, because the loop steers on measured
///     utilization;
///   - epoch_period, on_epoch and on_cluster_epoch belong to the driver.
/// Thresholds change only at epoch barriers, so the loop is bit-identical
/// for every shard count and transport.  With churn, joining devices get
/// their own threshold (0 until the first post-join broadcast), like any
/// late joiner in Algorithm 1.  With several clusters, Algorithm 1 keeps
/// broadcasting the aggregate utilization; the per-cluster gamma
/// trajectories still land in the telemetry stream.
struct ClosedLoopOptions : SimulationOptions, core::DtuParams {
  ClosedLoopOptions() {
    warmup = 0.0;
    horizon = 400.0;
  }

  double update_period = 5.0;  ///< seconds between broadcast epochs, > 0
  /// Algorithm 1 freezes thresholds once |ghat_t - ghat_{t-1}| <= epsilon —
  /// correct in a stationary environment, blind in a faulty one.  With
  /// resume_on_drift, a settled loop whose *measured* utilization strays
  /// more than `drift_margin` from the settled estimate restarts the
  /// step/halving schedule (eta back to eta0), re-converging to the shifted
  /// fixed point.  Off by default: the stationary runs keep Algorithm 1's
  /// exact stopping rule.
  bool resume_on_drift = false;
  double drift_margin = 0.05;
};

/// One broadcast epoch of the in-simulator algorithm.
struct ClosedLoopEpoch {
  double time = 0.0;          ///< simulated seconds of the broadcast
  double gamma_measured = 0.0;///< EWMA utilization the edge observed
  double gamma_hat = 0.0;     ///< estimate broadcast this epoch
  double eta = 0.0;           ///< step size after the halving rule
  double mean_threshold = 0.0;
};

struct ClosedLoopResult {
  std::vector<ClosedLoopEpoch> epochs;
  std::vector<double> thresholds;   ///< final per-device thresholds
  double final_gamma_hat = 0.0;
  bool estimate_settled = false;    ///< |step| fell below epsilon in-run
  /// Times the settled loop was re-opened by resume_on_drift (faults).
  std::uint32_t drift_resumes = 0;
  SimulationResult run;             ///< whole-run measurements
};

/// Runs the closed loop. Requires non-empty users, capacity > 0 and a valid
/// delay; a bad option throws ContractViolation naming the field.
ClosedLoopResult run_closed_loop(std::span<const core::UserParams> users,
                                 double capacity, const core::EdgeDelay& delay,
                                 const ClosedLoopOptions& options = {});

}  // namespace mec::sim
