#include "mec/sim/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"

namespace mec::sim {

ClosedLoopResult run_closed_loop(std::span<const core::UserParams> users,
                                 double capacity, const core::EdgeDelay& delay,
                                 const ClosedLoopOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(delay.valid());
  MEC_EXPECTS(options.update_period > 0.0);
  MEC_EXPECTS(options.horizon > options.update_period);
  MEC_EXPECTS(options.eta0 > 0.0 && options.eta0 <= 1.0);
  MEC_EXPECTS(options.epsilon > 0.0 && options.epsilon < 1.0);
  MEC_EXPECTS(options.drift_margin > 0.0);

  // With churn, joining devices are appended to the population in schedule
  // order (mirroring MecSimulation's constructor) and get their own threshold.
  std::vector<core::UserParams> all_users(users.begin(), users.end());
  if (options.faults && !options.faults->empty()) {
    const std::vector<core::UserParams> joiners = options.faults->churn_users();
    all_users.insert(all_users.end(), joiners.begin(), joiners.end());
  }

  // Devices start at threshold 0 (offload everything), as in Algorithm 1.
  // The simulation decides on this array; the epoch callback rewrites it.
  std::vector<double> thresholds(all_users.size(), 0.0);

  // Algorithm 1 state, updated by the epoch callback.
  struct LoopState {
    double ghat_prev2 = 1.0;  // gamma_hat_{-1}
    double ghat_prev = 0.0;   // gamma_hat_0
    double eta;
    int counter_l = 1;
    int t = 0;
    bool settled = false;
  } state;
  state.eta = options.eta0;

  ClosedLoopResult result;

  SimulationOptions sim_options;
  sim_options.warmup = 0.0;  // the whole run *is* the experiment
  sim_options.horizon = options.horizon;
  sim_options.seed = options.seed;
  sim_options.service = options.service;
  sim_options.latency = options.latency;
  sim_options.utilization_ewma_tau = options.utilization_ewma_tau;
  sim_options.epoch_period = options.update_period;
  sim_options.faults = options.faults;
  sim_options.shards = options.shards;
  sim_options.transport = options.transport;
  sim_options.workers = options.workers;
  sim_options.worker_addresses = options.worker_addresses;
  sim_options.topology = options.topology;
  sim_options.sample_interval = options.sample_interval;
  sim_options.stream_log = options.stream_log;
  sim_options.stream_counters = options.stream_counters;
  sim_options.record_timeline = options.record_timeline;
  sim_options.on_epoch = [&](double now, double gamma_measured) {
    ++state.t;
    if (state.settled && options.resume_on_drift &&
        std::abs(gamma_measured - state.ghat_prev) > options.drift_margin) {
      // The environment moved under a settled estimate (capacity shock,
      // churn wave): restart the step/halving schedule.  ghat_prev2 gets a
      // far sentinel so the settling test cannot re-fire before two fresh
      // updates (mirroring the cold-start state), and the sentinel is
      // unreachable by ghat so the oscillation rule stays quiet.
      state.settled = false;
      state.eta = options.eta0;
      state.counter_l = 1;
      state.ghat_prev2 = 2.0;
      ++result.drift_resumes;
    } else if (std::abs(state.ghat_prev - state.ghat_prev2) <= options.epsilon) {
      state.settled = true;  // estimate pinned; devices hold thresholds
    }

    double ghat = state.ghat_prev;
    if (!state.settled) {
      double step = 0.0;
      if (gamma_measured > state.ghat_prev)
        step = state.eta;
      else if (gamma_measured < state.ghat_prev)
        step = -state.eta;
      ghat = std::clamp(state.ghat_prev + step, 0.0, 1.0);

      const double g_value = delay(ghat);
      for (std::size_t n = 0; n < all_users.size(); ++n) {
        if (options.update_gate && !options.update_gate(n, state.t)) continue;
        thresholds[n] =
            static_cast<double>(core::best_threshold(all_users[n], g_value));
      }
      if (state.t >= 2 &&
          std::abs(ghat - state.ghat_prev2) <= options.oscillation_tol) {
        ++state.counter_l;
        state.eta = options.eta0 / state.counter_l;
      }
      state.ghat_prev2 = state.ghat_prev;
      state.ghat_prev = ghat;
    }

    double mean_x = 0.0;
    for (const double x : thresholds) mean_x += x;
    mean_x /= static_cast<double>(thresholds.size());
    result.epochs.push_back(
        ClosedLoopEpoch{now, gamma_measured, ghat, state.eta, mean_x});
  };

  MecSimulation simulation(users, capacity, delay, std::move(sim_options));
  result.run = simulation.run_tro(thresholds);

  result.thresholds = std::move(thresholds);
  result.final_gamma_hat = state.ghat_prev;
  result.estimate_settled = state.settled;
  return result;
}

}  // namespace mec::sim
