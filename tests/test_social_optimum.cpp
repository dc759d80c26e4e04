// Planner (congestion-priced) thresholds and the price of anarchy.
#include "mec/core/social_optimum.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"

namespace mec::core {
namespace {

std::vector<UserParams> sampled(population::LoadRegime regime, std::size_t n) {
  return population::sample_population(
             population::theoretical_scenario(regime, n), 321)
      .users;
}

/// W(Nash)/W(planner), computed as ablation_price_of_anarchy does: the
/// MFNE thresholds' average cost at the utilization they induce, over the
/// social optimum's average cost.
double price_of_anarchy(std::span<const UserParams> users,
                        const EdgeDelay& delay, double capacity) {
  const MfneResult nash = solve_mfne(users, delay, capacity);
  const std::vector<double> xs(nash.thresholds.begin(), nash.thresholds.end());
  const double nash_cost = average_cost(
      users, xs, delay, utilization_of_thresholds(users, xs, capacity));
  return nash_cost / solve_social_optimum(users, delay, capacity).average_cost;
}

TEST(EdgeDelayDerivative, MatchesAnalyticDerivativeOfReciprocal) {
  // d/dg [1/(1.1 - g)] = 1/(1.1 - g)^2.
  const EdgeDelay delay = make_reciprocal_delay(1.1);
  for (const double gamma : {0.1, 0.4, 0.8}) {
    const double expected = 1.0 / ((1.1 - gamma) * (1.1 - gamma));
    EXPECT_NEAR(edge_delay_derivative(delay, gamma), expected, 1e-4);
  }
}

TEST(EdgeDelayDerivative, HandlesBoundariesAndConstants) {
  const EdgeDelay constant = make_constant_delay(2.0);
  EXPECT_NEAR(edge_delay_derivative(constant, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(edge_delay_derivative(constant, 1.0), 0.0, 1e-12);
  const EdgeDelay linear = make_linear_delay(1.0, 3.0);
  EXPECT_NEAR(edge_delay_derivative(linear, 0.0), 3.0, 1e-6);
  EXPECT_NEAR(edge_delay_derivative(linear, 1.0), 3.0, 1e-6);
}

TEST(SocialOptimumTest, NeverCostsMoreThanTheNashEquilibrium) {
  for (const auto regime : {population::LoadRegime::kBelowService,
                            population::LoadRegime::kAtService,
                            population::LoadRegime::kAboveService}) {
    const auto users = sampled(regime, 800);
    const EdgeDelay delay = make_reciprocal_delay();
    const MfneResult nash = solve_mfne(users, delay, 10.0);
    std::vector<double> nash_xs(nash.thresholds.begin(),
                                nash.thresholds.end());
    const double nash_cost =
        average_cost(users, nash_xs, delay,
                     utilization_of_thresholds(users, nash_xs, 10.0));
    const SocialOptimum so = solve_social_optimum(users, delay, 10.0);
    EXPECT_LE(so.average_cost, nash_cost + 1e-12)
        << population::to_string(regime);
  }
}

TEST(SocialOptimumTest, PlannerOffloadsLessThanNash) {
  // Internalizing the congestion externality makes offloading look more
  // expensive, so planner thresholds are (weakly) higher and utilization
  // (weakly) lower.
  const auto users = sampled(population::LoadRegime::kAboveService, 800);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult nash = solve_mfne(users, delay, 10.0);
  const SocialOptimum so = solve_social_optimum(users, delay, 10.0);
  EXPECT_LE(so.gamma, nash.gamma_star + 1e-9);
  double nash_sum = 0.0, so_sum = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n) {
    nash_sum += static_cast<double>(nash.thresholds[n]);
    so_sum += static_cast<double>(so.thresholds[n]);
  }
  EXPECT_GE(so_sum, nash_sum - 1e-9);
}

TEST(SocialOptimumTest, ConstantDelayHasNoExternality) {
  // With g' = 0 the congestion price vanishes and the planner's point is
  // exactly the Nash point.
  const auto users = sampled(population::LoadRegime::kAtService, 300);
  const EdgeDelay delay = make_constant_delay(1.5);
  const MfneResult nash = solve_mfne(users, delay, 10.0);
  const SocialOptimum so = solve_social_optimum(users, delay, 10.0);
  EXPECT_DOUBLE_EQ(so.congestion_price, 0.0);
  for (std::size_t n = 0; n < users.size(); ++n)
    EXPECT_EQ(so.thresholds[n], nash.thresholds[n]);
}

TEST(SocialOptimumTest, ConvergesAndReportsConsistentFields) {
  const auto users = sampled(population::LoadRegime::kAtService, 500);
  const EdgeDelay delay = make_reciprocal_delay();
  const SocialOptimum so = solve_social_optimum(users, delay, 10.0);
  EXPECT_TRUE(so.converged);
  EXPECT_EQ(so.thresholds.size(), users.size());
  std::vector<double> xs(so.thresholds.begin(), so.thresholds.end());
  EXPECT_NEAR(so.gamma, utilization_of_thresholds(users, xs, 10.0), 1e-9);
  EXPECT_NEAR(so.average_cost, average_cost(users, xs, delay, so.gamma),
              1e-9);
}

TEST(PriceOfAnarchy, IsAtLeastOneAndModestForThePaperSettings) {
  const auto users = sampled(population::LoadRegime::kAtService, 800);
  const double poa = price_of_anarchy(users, make_reciprocal_delay(), 10.0);
  EXPECT_GE(poa, 1.0);
  // The reciprocal delay is mild at the Table-I equilibria; selfish play
  // should be near-efficient.
  EXPECT_LT(poa, 1.2);
}

TEST(PriceOfAnarchy, GrowsWithSteeperCongestion) {
  const auto users = sampled(population::LoadRegime::kAboveService, 600);
  const double mild =
      price_of_anarchy(users, make_linear_delay(0.5, 1.0), 10.0);
  const double steep =
      price_of_anarchy(users, make_linear_delay(0.5, 40.0), 10.0);
  EXPECT_GE(steep, mild - 1e-9);
}

TEST(SocialOptimumTest, RejectsBadOptions) {
  const auto users = sampled(population::LoadRegime::kAtService, 10);
  const EdgeDelay delay = make_reciprocal_delay();
  SocialOptimumOptions opt;
  opt.damping = 0.0;
  EXPECT_THROW(solve_social_optimum(users, delay, 10.0, opt),
               ContractViolation);
  opt = {};
  opt.tolerance = -1.0;
  EXPECT_THROW(solve_social_optimum(users, delay, 10.0, opt),
               ContractViolation);
}

}  // namespace
}  // namespace mec::core
