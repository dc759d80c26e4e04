// End-to-end pipelines tying every subsystem together, mirroring the paper's
// evaluation narrative: equilibrium theory -> distributed algorithm ->
// simulated system, under both theoretical and practical settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mec/baseline/dpo.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec {
namespace {

TEST(Integration, TheoreticalPipelineTheoryAlgorithmSimulationAgree) {
  // 1. Sample the paper's theoretical E[A]=E[S] system.
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       1500),
      2024);
  const auto& cfg = pop.config;

  // 2. Equilibrium from theory.
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);

  // 3. Distributed algorithm, analytic utilization oracle.
  core::AnalyticUtilization source(pop.users, cfg.capacity);
  const core::DtuResult dtu = run_dtu(pop.users, cfg.delay, source, {});
  ASSERT_TRUE(dtu.converged);
  EXPECT_NEAR(dtu.final_gamma, mfne.gamma_star, 0.03);

  // 4. Simulate the converged thresholds; measured utilization must agree.
  sim::SimulationOptions o;
  o.fixed_gamma = mfne.gamma_star;
  o.horizon = 400.0;
  o.warmup = 40.0;
  sim::MecSimulation sim(pop.users, cfg.capacity, cfg.delay, o);
  const sim::SimulationResult r = sim.run_tro(dtu.thresholds);
  EXPECT_NEAR(r.measured_utilization, mfne.gamma_star, 0.03);

  // 5. And the realized average cost matches the analytic Eq.-(1) cost.
  const double analytic_cost = core::average_cost(
      pop.users, dtu.thresholds, cfg.delay, mfne.gamma_star);
  EXPECT_NEAR(r.mean_cost, analytic_cost, 0.1 * analytic_cost);
}

TEST(Integration, PracticalPipelineWithMeasuredDataAndAsyncUpdates) {
  // Practical settings: empirical service rates / latencies, asynchronous
  // updates with probability 0.8 (Section IV-B).
  const auto pop = population::sample_population(
      population::practical_scenario(population::LoadRegime::kBelowService,
                                     800),
      2025);
  const auto& cfg = pop.config;

  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  EXPECT_GT(mfne.gamma_star, 0.0);
  EXPECT_LT(mfne.gamma_star, 1.0);

  core::AnalyticUtilization source(pop.users, cfg.capacity);
  core::DtuOptions opt;
  opt.update_gate = core::make_bernoulli_gate(0.8, 11);
  const core::DtuResult dtu = run_dtu(pop.users, cfg.delay, source, opt);
  ASSERT_TRUE(dtu.converged);
  EXPECT_NEAR(dtu.final_gamma, mfne.gamma_star, 0.05);

  // Simulate with the *empirical* (non-exponential) service and latency
  // distributions: the offload fractions shift only mildly, so the measured
  // utilization stays in the neighbourhood of the exponential-theory MFNE.
  sim::SimulationOptions o;
  o.service = {.kind = sim::SamplerSpec::Kind::kEmpirical,
               .data = random::synthetic_yolo_processing_times().samples()};
  o.latency = {.kind = sim::SamplerSpec::Kind::kEmpirical,
               .data = random::synthetic_wifi_offload_latencies().samples()};
  o.fixed_gamma = mfne.gamma_star;
  o.horizon = 300.0;
  o.warmup = 30.0;
  sim::MecSimulation sim(pop.users, cfg.capacity, cfg.delay, o);
  const sim::SimulationResult r = sim.run_tro(dtu.thresholds);
  EXPECT_NEAR(r.measured_utilization, mfne.gamma_star,
              0.25 * mfne.gamma_star + 0.02);
}

TEST(Integration, TableThreeShapeDtuBeatsDpoInBothSettingFamilies) {
  for (const bool practical : {false, true}) {
    for (const auto regime : {population::LoadRegime::kBelowService,
                              population::LoadRegime::kAboveService}) {
      const auto cfg =
          practical
              ? population::practical_scenario(regime, 600)
              : population::theoretical_comparison_scenario(regime, 600);
      const auto pop = population::sample_population(cfg, 2027);

      const core::MfneResult mfne =
          core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
      std::vector<double> xs(mfne.thresholds.begin(), mfne.thresholds.end());
      const double dtu_cost =
          core::average_cost(pop.users, xs, cfg.delay, mfne.gamma_star);

      const baseline::DpoEquilibrium dpo = baseline::solve_dpo_equilibrium(
          pop.users, cfg.delay, cfg.capacity);

      EXPECT_LT(dtu_cost, dpo.average_cost)
          << (practical ? "practical " : "theoretical ")
          << population::to_string(regime);
    }
  }
}

TEST(Integration, EquilibriumIsStableUnderRepopulation) {
  // Mean-field prediction: independent population draws give nearly the
  // same equilibrium (SLLN).  Spread across seeds must be small at N=5000.
  std::vector<double> stars;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const auto pop = population::sample_population(
        population::theoretical_scenario(population::LoadRegime::kAboveService,
                                         5000),
        seed);
    stars.push_back(core::solve_mfne(pop.users, pop.config.delay,
                                     pop.config.capacity)
                        .gamma_star);
  }
  const auto [lo, hi] = std::minmax_element(stars.begin(), stars.end());
  EXPECT_LT(*hi - *lo, 0.015);
}

}  // namespace
}  // namespace mec
