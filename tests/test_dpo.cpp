// The DPO baseline: closed-form best response, equilibrium, and the paper's
// headline comparison (DTU's threshold policy beats DPO's probabilistic one).
#include "mec/baseline/dpo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"

namespace mec::baseline {
namespace {

core::UserParams make_user(double a, double s, double tau = 1.0,
                           double p_l = 1.5, double p_e = 0.5) {
  core::UserParams u;
  u.arrival_rate = a;
  u.service_rate = s;
  u.offload_latency = tau;
  u.energy_local = p_l;
  u.energy_offload = p_e;
  return u;
}

TEST(DpoCost, FullOffloadPaysTheOffloadPricePerTask) {
  const core::UserParams u = make_user(2.0, 3.0);
  const double g = 0.8;
  EXPECT_NEAR(dpo_cost(u, 1.0, g),
              u.weight * u.energy_offload + g + u.offload_latency, 1e-12);
}

TEST(DpoCost, UnstableLocalQueueCostsInfinity) {
  const core::UserParams u = make_user(4.0, 2.0);  // a > s
  EXPECT_TRUE(std::isinf(dpo_cost(u, 0.0, 1.0)));
  EXPECT_TRUE(std::isinf(dpo_cost(u, 0.4, 1.0)));  // 4*0.6 = 2.4 >= 2
  EXPECT_TRUE(std::isfinite(dpo_cost(u, 0.6, 1.0)));
}

TEST(DpoCost, PureLocalMatchesMm1Cost) {
  const core::UserParams u = make_user(1.0, 2.0);
  // rho = 0: cost = w*p_L + L/a with L = 1/(2-1) = 1.
  EXPECT_NEAR(dpo_cost(u, 0.0, 5.0), u.energy_local + 1.0, 1e-12);
}

TEST(OptimalOffloadProbability, FullOffloadWhenOffloadingDominates) {
  // K = w*p_E + g + tau <= w*p_L: offload everything.
  core::UserParams u = make_user(2.0, 3.0, /*tau=*/0.0, /*p_l=*/5.0,
                                 /*p_e=*/0.1);
  EXPECT_DOUBLE_EQ(optimal_offload_probability(u, 0.0), 1.0);
}

TEST(OptimalOffloadProbability, ZeroWhenLocalIsFreeAndFast) {
  // Very fast local service, tiny load, expensive offload => keep local.
  core::UserParams u = make_user(0.2, 50.0, /*tau=*/10.0, /*p_l=*/0.0,
                                 /*p_e=*/1.0);
  EXPECT_DOUBLE_EQ(optimal_offload_probability(u, 1.0), 0.0);
}

TEST(OptimalOffloadProbability, OverloadedUsersAlwaysOffloadEnough) {
  // a > s: the optimum must keep the local queue stable.
  const core::UserParams u = make_user(5.0, 2.0);
  const double rho = optimal_offload_probability(u, 0.5);
  EXPECT_LT(u.arrival_rate * (1.0 - rho), u.service_rate);
}

TEST(OptimalOffloadProbability, IsNonIncreasingInEdgeDelay) {
  const core::UserParams u = make_user(3.0, 4.0);
  double prev = 1.1;
  for (double g = 0.0; g <= 8.0; g += 0.5) {
    const double rho = optimal_offload_probability(u, g);
    EXPECT_LE(rho, prev + 1e-12);
    prev = rho;
  }
}

class DpoClosedFormTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpoClosedFormTest, ClosedFormMatchesGridSearch) {
  random::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const core::UserParams u = make_user(
        random::uniform(rng, 0.3, 8.0), random::uniform(rng, 1.0, 5.0),
        random::uniform(rng, 0.0, 5.0), random::uniform(rng, 0.0, 3.0),
        random::uniform(rng, 0.0, 1.0));
    const double g = random::uniform(rng, 0.0, 6.0);
    const double rho_star = optimal_offload_probability(u, g);
    const double rho_grid = grid_search_offload_probability(u, g, 1e-4);
    // Costs at the two minimizers must agree (the argmin can be flat).
    EXPECT_NEAR(dpo_cost(u, rho_star, g), dpo_cost(u, rho_grid, g), 1e-5)
        << "a=" << u.arrival_rate << " s=" << u.service_rate << " g=" << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpoClosedFormTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(DpoEquilibriumTest, IsAFixedPointOfTheBestResponse) {
  const auto pop = population::sample_population(
      population::theoretical_comparison_scenario(
          population::LoadRegime::kAtService),
      77);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const DpoEquilibrium eq =
      solve_dpo_equilibrium(pop.users, delay, pop.config.capacity);
  EXPECT_GT(eq.gamma_star, 0.0);
  EXPECT_LT(eq.gamma_star, 1.0);
  EXPECT_NEAR(dpo_utilization(pop.users, eq.rhos, pop.config.capacity),
              eq.gamma_star, 1e-6);
}

TEST(DpoEquilibriumTest, NoUserBenefitsFromDeviating) {
  const auto pop = population::sample_population(
      population::theoretical_comparison_scenario(
          population::LoadRegime::kBelowService, 500),
      78);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const DpoEquilibrium eq =
      solve_dpo_equilibrium(pop.users, delay, pop.config.capacity);
  const double g = delay(eq.gamma_star);
  for (std::size_t n = 0; n < pop.users.size(); n += 41) {
    const double own = dpo_cost(pop.users[n], eq.rhos[n], g);
    for (const double dev : {0.0, 0.25, 0.5, 0.75, 1.0})
      EXPECT_LE(own, dpo_cost(pop.users[n], dev, g) + 1e-9);
  }
}

TEST(DpoEquilibriumTest, ThresholdPolicyBeatsProbabilisticPolicy) {
  // The paper's Table III claim, checked at matched equilibria: the average
  // Eq.-(1) cost under the MFNE thresholds is lower than the average DPO
  // cost at the DPO equilibrium.
  for (const auto regime : {population::LoadRegime::kBelowService,
                            population::LoadRegime::kAtService,
                            population::LoadRegime::kAboveService}) {
    const auto pop = population::sample_population(
        population::theoretical_comparison_scenario(regime), 79);
    const core::EdgeDelay delay = core::make_reciprocal_delay();

    const core::MfneResult mfne =
        core::solve_mfne(pop.users, delay, pop.config.capacity);
    std::vector<double> xs(mfne.thresholds.begin(), mfne.thresholds.end());
    const double tro_cost_avg =
        core::average_cost(pop.users, xs, delay, mfne.gamma_star);

    const DpoEquilibrium dpo =
        solve_dpo_equilibrium(pop.users, delay, pop.config.capacity);

    EXPECT_LT(tro_cost_avg, dpo.average_cost)
        << population::to_string(regime);
  }
}

TEST(DelayOnlyDpo, IgnoresEnergyInTheDecision) {
  // Two users differing only in energy must pick the same delay-only rho.
  core::UserParams cheap = make_user(3.0, 4.0, 1.0, /*p_l=*/0.0, /*p_e=*/1.0);
  core::UserParams costly = make_user(3.0, 4.0, 1.0, /*p_l=*/3.0, /*p_e=*/0.0);
  EXPECT_DOUBLE_EQ(delay_only_offload_probability(cheap, 0.5),
                   delay_only_offload_probability(costly, 0.5));
}

TEST(DelayOnlyDpo, IsSuboptimalForTheFullCost) {
  // Energy-blind rho can never beat the cost-optimal rho on the full cost.
  random::Xoshiro256 rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    const core::UserParams u = make_user(
        random::uniform(rng, 0.5, 6.0), random::uniform(rng, 1.0, 5.0),
        random::uniform(rng, 0.0, 5.0), random::uniform(rng, 0.0, 3.0),
        random::uniform(rng, 0.0, 1.0));
    const double g = random::uniform(rng, 0.0, 4.0);
    EXPECT_GE(dpo_cost(u, delay_only_offload_probability(u, g), g),
              dpo_cost(u, optimal_offload_probability(u, g), g) - 1e-9);
  }
}

TEST(DelayOnlyDpo, KeepsOverloadedQueuesStable) {
  const core::UserParams u = make_user(6.0, 2.0);
  const double rho = delay_only_offload_probability(u, 1.0);
  EXPECT_LT(u.arrival_rate * (1.0 - rho), u.service_rate);
}

TEST(CommonRhoDpo, FindsAFiniteCompromise) {
  const auto pop = population::sample_population(
      population::theoretical_comparison_scenario(
          population::LoadRegime::kAtService, 400),
      81);
  const CommonRhoResult r = solve_common_rho_dpo(
      pop.users, core::make_reciprocal_delay(), pop.config.capacity);
  EXPECT_TRUE(std::isfinite(r.average_cost));
  EXPECT_GE(r.rho, 0.0);
  EXPECT_LE(r.rho, 1.0);
  EXPECT_NEAR(r.gamma, r.rho * pop.mean_arrival_rate() / pop.config.capacity,
              1e-9);
}

TEST(CommonRhoDpo, IsDominatedByPerUserOptimalDpo) {
  // A shared probability is a strict subset of per-user probabilities.
  const auto pop = population::sample_population(
      population::theoretical_comparison_scenario(
          population::LoadRegime::kBelowService, 400),
      82);
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const CommonRhoResult common =
      solve_common_rho_dpo(pop.users, delay, pop.config.capacity);
  const DpoEquilibrium per_user =
      solve_dpo_equilibrium(pop.users, delay, pop.config.capacity);
  EXPECT_LT(per_user.average_cost, common.average_cost);
}

TEST(CommonRhoDpo, HomogeneousPlannerWeaklyBeatsTheNashEquilibrium) {
  // With identical users the shared rho costs nothing in heterogeneity, and
  // because it is chosen by a planner that internalizes the congestion
  // externality g(gamma(rho)), it can only do as well as or better than the
  // per-user Nash equilibrium — the classic price-of-anarchy direction.
  std::vector<core::UserParams> users(100, make_user(2.0, 3.0, 1.0, 2.0, 0.3));
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const CommonRhoResult common =
      solve_common_rho_dpo(users, delay, 10.0, 0.0005);
  const DpoEquilibrium per_user = solve_dpo_equilibrium(users, delay, 10.0);
  EXPECT_LE(common.average_cost, per_user.average_cost + 1e-3);
  // ... but not by much: the externality correction is second-order here.
  EXPECT_NEAR(common.average_cost, per_user.average_cost,
              0.05 * per_user.average_cost);
}

TEST(CommonRhoDpo, ValidatesArguments) {
  const std::vector<core::UserParams> users(3, make_user(1.0, 2.0));
  const core::EdgeDelay delay = core::make_reciprocal_delay();
  EXPECT_THROW(solve_common_rho_dpo({}, delay, 10.0), ContractViolation);
  EXPECT_THROW(solve_common_rho_dpo(users, delay, 10.0, 0.0),
               ContractViolation);
  EXPECT_THROW(solve_common_rho_dpo(users, delay, -1.0), ContractViolation);
}

TEST(DpoUtilization, ValidatesInput) {
  const std::vector<core::UserParams> users(3, make_user(1.0, 2.0));
  const std::vector<double> bad_rho{0.5, 1.5, 0.2};
  EXPECT_THROW(dpo_utilization(users, bad_rho, 10.0), ContractViolation);
  const std::vector<double> wrong_size{0.5};
  EXPECT_THROW(dpo_utilization(users, wrong_size, 10.0), ContractViolation);
}

TEST(DpoEquilibriumTest, ThrowsWhenEveryoneMustOffloadBeyondCapacity) {
  std::vector<core::UserParams> users(
      5, make_user(8.0, 1.0, /*tau=*/0.0, /*p_l=*/10.0, /*p_e=*/0.0));
  // K < w p_L at gamma = 0 => rho = 1 for all => V(0) = 8/c.
  EXPECT_THROW(
      solve_dpo_equilibrium(users, core::make_constant_delay(0.1), 2.0),
      ContractViolation);
}

TEST(DpoEquilibriumTest, BisectionEndsBelowOneUlp) {
  // A tolerance below one ulp of gamma* can never be met: the bracket stops
  // shrinking, and the 200-iteration guard ends the bisection.  The users
  // are those of GeneralService.EquilibriumExistsAndIsAFixedPoint.
  std::vector<core::UserParams> users;
  for (int i = 0; i < 60; ++i)
    users.push_back(
        make_user(1.0 + 0.05 * i, 2.0 + 0.03 * i, 0.2 + 0.01 * i, 1.0, 0.3));
  const DpoEquilibrium eq =
      solve_dpo_equilibrium(users, core::make_reciprocal_delay(), 5.0, 1e-300);
  EXPECT_EQ(eq.iterations, 200);
  EXPECT_FALSE(eq.converged);
  EXPECT_GT(eq.gamma_star, 0.0);
  EXPECT_LT(eq.gamma_star, 1.0);
  EXPECT_NEAR(dpo_utilization(users, eq.rhos, 5.0), eq.gamma_star, 1e-9);
  EXPECT_TRUE(
      solve_dpo_equilibrium(users, core::make_reciprocal_delay(), 5.0)
          .converged);
  // Nobody offloads even at gamma = 0: gamma* = 0 is exact, so converged.
  const std::vector<core::UserParams> local = {
      make_user(0.2, 50.0, /*tau=*/10.0, /*p_l=*/0.0, /*p_e=*/1.0)};
  const DpoEquilibrium zero =
      solve_dpo_equilibrium(local, core::make_reciprocal_delay(), 5.0);
  EXPECT_EQ(zero.gamma_star, 0.0);
  EXPECT_EQ(zero.iterations, 0);
  EXPECT_TRUE(zero.converged);
}

}  // namespace
}  // namespace mec::baseline
