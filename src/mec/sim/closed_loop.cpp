#include "mec/sim/closed_loop.hpp"

#include <cmath>
#include <string_view>
#include <utility>

#include "mec/common/error.hpp"

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
  options.check(kRun);
  check_option(options.drift_margin > 0.0, kRun, "drift_margin",
               options.drift_margin, "a value > 0");

  // The population (churn joiners included) and the threshold array the
  // simulation decides on; both are bound once the simulation is built.
  // Devices start at threshold 0 (offload everything), as in Algorithm 1,
  // and the epoch callback rewrites the array.
  std::span<const core::UserParams> population;
  std::vector<double> thresholds;

  // Algorithm 1's state; `settled` stays set until a drift restart.
  core::DtuState state{.eta = options.eta0};
  int t = 0;
  bool settled = false;

  ClosedLoopResult result;

  SimulationOptions sim_options = options;
  sim_options.epoch_period = options.update_period;
  sim_options.on_epoch = [&](double now, double gamma_measured) {
    ++t;
    if (settled && options.resume_on_drift &&
        std::abs(gamma_measured - state.ghat_prev) > options.drift_margin) {
      // The environment moved under a settled estimate (capacity shock,
      // churn wave): restart the step/halving schedule.
      settled = false;
      state = core::dtu_restart(state.ghat_prev, options.eta0);
      ++result.drift_resumes;
    } else if (core::dtu_settled(state, options.epsilon)) {
      settled = true;  // estimate pinned; devices hold thresholds
    }
    const double ghat =
        settled ? state.ghat_prev
                : core::dtu_update(state, options, t, gamma_measured,
                                   population, delay, thresholds);

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
  result.estimate_settled = settled;
  return result;
}

}  // namespace mec::sim
