// Quickstart: build a heterogeneous population, find the Mean-Field Nash
// Equilibrium, run the Distributed Threshold Update algorithm, and check the
// result against a discrete-event simulation.
//
// This is the 60-second tour of the library's public API.
#include <cmath>
#include <cstdio>
#include <span>

#include "mec/core/best_response.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/mec_simulation.hpp"

int main() {
  using namespace mec;

  // 1. Describe the system: 10^4 users whose arrival rates, service rates,
  //    offloading latencies, and energies are drawn from the paper's
  //    theoretical distributions (E[A] < E[S] regime).
  population::ScenarioConfig config = population::theoretical_scenario(
      population::LoadRegime::kBelowService);
  population::Population pop =
      population::sample_population(config, /*seed=*/7);
  std::printf("scenario: %s, N=%zu, c=%.1f, g=%s\n", config.name.c_str(),
              pop.size(), config.capacity, config.delay.description().c_str());
  std::printf("E[A]=%.3f  E[S]=%.3f\n", pop.mean_arrival_rate(),
              pop.mean_service_rate());

  // 2. Solve for the unique MFNE (Theorem 1): gamma* with V(gamma*) = gamma*.
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, config.delay, config.capacity);
  std::printf("\nMFNE: gamma* = %.4f (V(gamma*) = %.4f, %d bisection steps)\n",
              mfne.gamma_star, mfne.best_response_value, mfne.iterations);

  // 3. Run the distributed algorithm (Algorithm 1): every user only ever
  //    sees the broadcast estimated utilization and its own parameters.
  core::AnalyticUtilization source(pop.users, config.capacity);
  const core::DtuResult dtu = run_dtu(pop.users, config.delay, source, {});
  std::printf("DTU:  converged=%s after %d iterations, gamma_hat=%.4f\n",
              dtu.converged ? "yes" : "no", dtu.iterations,
              dtu.final_gamma_hat);

  // 4. The two agree: the distributed dynamics find the equilibrium.
  std::printf("|gamma_hat - gamma*| = %.5f\n",
              std::abs(dtu.final_gamma_hat - mfne.gamma_star));

  // 5. Cross-check with a discrete-event simulation of the final thresholds
  //    (smaller sub-population for speed).
  const std::size_t sim_n = 1000;
  std::span<const core::UserParams> sub(pop.users.data(), sim_n);
  std::span<const double> sub_thresholds(dtu.thresholds.data(), sim_n);
  sim::SimulationOptions sim_options;
  sim_options.fixed_gamma = mfne.gamma_star;
  sim::MecSimulation simulation(sub, config.capacity, config.delay,
                                sim_options);
  const sim::SimulationResult measured = simulation.run_tro(sub_thresholds);
  std::printf("\nDES check on %zu devices:\n%s", sim_n,
              sim::summarize(measured).c_str());
  std::printf(
      "analytic utilization of the same thresholds: %.4f (DES: %.4f)\n",
      core::utilization_of_thresholds(sub, sub_thresholds, config.capacity),
      measured.measured_utilization);
  return 0;
}
