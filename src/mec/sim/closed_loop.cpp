#include "mec/sim/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"

namespace mec::sim {

ClosedLoopResult run_closed_loop(std::span<const core::UserParams> users,
                                 double capacity, const core::EdgeDelay& delay,
                                 const ClosedLoopOptions& options) {
  constexpr std::string_view kRun = "run_closed_loop";
  check_driver_options(options, options.update_period, kRun,
                       /*steers_on_gamma=*/true);
  check_option(options.warmup == 0.0, kRun, "warmup", options.warmup,
               "0 (the whole closed-loop run is the measurement)");
  check_option(options.horizon > options.update_period, kRun, "horizon",
               options.horizon, "a value > update_period");
  check_option(options.eta0 > 0.0 && options.eta0 <= 1.0, kRun, "eta0",
               options.eta0, "a value in (0, 1]");
  check_option(options.epsilon > 0.0 && options.epsilon < 1.0, kRun, "epsilon",
               options.epsilon, "a value in (0, 1)");
  check_option(options.drift_margin > 0.0, kRun, "drift_margin",
               options.drift_margin, "a value > 0");

  // The population (churn joiners included) and the threshold array the
  // simulation decides on; both are bound once the simulation is built.
  // Devices start at threshold 0 (offload everything), as in Algorithm 1,
  // and the epoch callback rewrites the array.
  std::span<const core::UserParams> population;
  std::vector<double> thresholds;

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

  SimulationOptions sim_options = options;
  sim_options.epoch_period = options.update_period;
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
    } else if (std::abs(state.ghat_prev - state.ghat_prev2) <=
               options.epsilon) {
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
      for (std::size_t n = 0; n < population.size(); ++n) {
        if (options.update_gate && !options.update_gate(n, state.t)) continue;
        thresholds[n] =
            static_cast<double>(core::best_threshold(population[n], g_value));
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

  const MecSimulation simulation(users, capacity, delay,
                                 std::move(sim_options));
  population = simulation.users();
  thresholds.assign(population.size(), 0.0);
  result.run = simulation.run_tro(thresholds);

  result.thresholds = std::move(thresholds);
  result.final_gamma_hat = state.ghat_prev;
  result.estimate_settled = state.settled;
  return result;
}

}  // namespace mec::sim
