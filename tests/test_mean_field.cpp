// The population-free (QMC) evaluation of the mean-field limit.
#include "mec/core/mean_field_integral.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"

namespace mec::core {
namespace {

MeanFieldModel theoretical_model(double a_max) {
  MeanFieldModel m;
  m.arrival = uniform_inverse_cdf(0.0, a_max);
  m.service = uniform_inverse_cdf(1.0, 5.0);
  m.latency = uniform_inverse_cdf(0.0, 1.0);
  m.energy_local = uniform_inverse_cdf(0.0, 3.0);
  m.energy_offload = uniform_inverse_cdf(0.0, 1.0);
  m.weight = 1.0;
  m.capacity = 10.0;
  m.delay = make_reciprocal_delay();
  return m;
}

TEST(Halton, FirstBase2ValuesAreTheVanDerCorputSequence) {
  EXPECT_DOUBLE_EQ(halton(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(halton(2, 0), 0.25);
  EXPECT_DOUBLE_EQ(halton(3, 0), 0.75);
  EXPECT_DOUBLE_EQ(halton(4, 0), 0.125);
}

TEST(Halton, FirstBase3ValuesAreCorrect) {
  EXPECT_NEAR(halton(1, 1), 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(halton(2, 1), 2.0 / 3.0, 1e-15);
  EXPECT_NEAR(halton(3, 1), 1.0 / 9.0, 1e-15);
}

TEST(Halton, StaysInUnitIntervalAndEquidistributes) {
  for (std::size_t d = 0; d < 5; ++d) {
    double acc = 0.0;
    const std::size_t n = 5000;
    for (std::size_t i = 1; i <= n; ++i) {
      const double v = halton(i, d);
      ASSERT_GT(v, 0.0);
      ASSERT_LT(v, 1.0);
      acc += v;
    }
    EXPECT_NEAR(acc / static_cast<double>(n), 0.5, 5e-3) << "dim " << d;
  }
}

TEST(Halton, RejectsBadArguments) {
  EXPECT_THROW(halton(0, 0), ContractViolation);
  EXPECT_THROW(halton(1, 5), ContractViolation);
}

TEST(InverseCdfs, UniformAndConstant) {
  const InverseCdf u = uniform_inverse_cdf(2.0, 6.0);
  EXPECT_DOUBLE_EQ(u(0.0), 2.0);
  EXPECT_DOUBLE_EQ(u(0.5), 4.0);
  EXPECT_DOUBLE_EQ(u(1.0), 6.0);
  // A point mass is the degenerate uniform.
  const InverseCdf c = uniform_inverse_cdf(3.3, 3.3);
  EXPECT_DOUBLE_EQ(c(0.1), 3.3);
  EXPECT_DOUBLE_EQ(c(0.9), 3.3);
}

TEST(MeanFieldV, IsNonIncreasingInGamma) {
  const MeanFieldModel m = theoretical_model(6.0);
  double prev = 2.0;
  for (double gamma = 0.0; gamma <= 1.0; gamma += 0.1) {
    const double v = mean_field_best_response(m, gamma, 4096);
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
}

TEST(MeanFieldV, AgreesWithLargeSampledPopulation) {
  const MeanFieldModel m = theoretical_model(6.0);
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService,
                                       20000),
      99);
  for (const double gamma : {0.1, 0.3, 0.6}) {
    const double v_qmc = mean_field_best_response(m, gamma, 1 << 15);
    const double v_pop =
        best_response(pop.users, m.delay, m.capacity, gamma).utilization;
    EXPECT_NEAR(v_qmc, v_pop, 0.01) << "gamma=" << gamma;
  }
}

TEST(MeanFieldEquilibrium, MatchesPopulationMfne) {
  const MeanFieldModel m = theoretical_model(4.0);
  const double qmc = mean_field_equilibrium(m, 1 << 14).gamma_star;
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kBelowService,
                                       20000),
      123);
  const double sampled = solve_mfne(pop.users, m.delay, m.capacity).gamma_star;
  EXPECT_NEAR(qmc, sampled, 0.01);
}

TEST(MeanFieldEquilibrium, ReproducesTableOneOrdering) {
  const double lo =
      mean_field_equilibrium(theoretical_model(4.0), 1 << 13).gamma_star;
  const double mid =
      mean_field_equilibrium(theoretical_model(6.0), 1 << 13).gamma_star;
  const double hi =
      mean_field_equilibrium(theoretical_model(8.0), 1 << 13).gamma_star;
  EXPECT_NEAR(lo, 0.13, 0.02);
  EXPECT_NEAR(mid, 0.21, 0.02);
  EXPECT_NEAR(hi, 0.28, 0.02);
}

TEST(MeanFieldEquilibrium, ConvergesAsPointCountGrows) {
  const MeanFieldModel m = theoretical_model(6.0);
  const double coarse = mean_field_equilibrium(m, 1 << 10).gamma_star;
  const double fine = mean_field_equilibrium(m, 1 << 15).gamma_star;
  EXPECT_NEAR(coarse, fine, 5e-3);
}

TEST(MeanFieldEquilibrium, ReportsConvergenceAtNormalTolerances) {
  const MeanFieldEquilibrium r =
      mean_field_equilibrium(theoretical_model(6.0), 1 << 11);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 200);
}

TEST(MeanFieldEquilibrium, FlagsNonConvergenceWhenTheIterationGuardCutsOff) {
  // Mirrors the solve_mfne guard: an unreachable tolerance must terminate
  // at max_iterations with converged == false, not loop forever.
  const MeanFieldEquilibrium r =
      mean_field_equilibrium(theoretical_model(6.0), 1 << 11, 1e-30, 35);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 35);
  EXPECT_GT(r.gamma_star, 0.0);
  EXPECT_LT(r.gamma_star, 1.0);
}

TEST(MeanFieldEquilibrium, RejectsBadGuardArguments) {
  EXPECT_THROW(mean_field_equilibrium(theoretical_model(6.0), 1 << 10, 0.0),
               ContractViolation);
  EXPECT_THROW(
      mean_field_equilibrium(theoretical_model(6.0), 1 << 10, 1e-8, 0),
      ContractViolation);
}

TEST(MeanFieldModel, RejectsIncompleteModels) {
  MeanFieldModel m = theoretical_model(6.0);
  m.service = nullptr;
  EXPECT_THROW(mean_field_best_response(m, 0.5, 100), ContractViolation);
  MeanFieldModel m2 = theoretical_model(6.0);
  m2.capacity = 0.0;
  EXPECT_THROW(mean_field_best_response(m2, 0.5, 100), ContractViolation);
}

}  // namespace
}  // namespace mec::core
