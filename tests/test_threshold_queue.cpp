// Validates the TRO closed forms (Eq. 7-8) against an independent generic
// birth-death solver, the paper's literal formulas, and structural
// properties (flow balance, monotonicity, continuity, limits).
#include "mec/queueing/threshold_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/queueing/birth_death.hpp"

namespace mec::queueing {
namespace {

/// Literal transcription of the paper's Eq. (7)-(8) for theta != 1.
TroMetrics paper_formulas(double theta, double x) {
  const double fl = std::floor(x);
  const double frac = x - fl;
  const double pi0 =
      (1.0 - theta) /
      (1.0 - std::pow(theta, fl + 1.0) +
       frac * (1.0 - theta) * std::pow(theta, fl + 1.0));
  TroMetrics m{};
  m.p_empty = pi0;
  m.mean_queue_length =
      pi0 * (theta * (1.0 - std::pow(theta, fl)) /
                 ((1.0 - theta) * (1.0 - theta)) +
             (fl + 1.0) * frac * std::pow(theta, fl + 1.0) -
             fl * std::pow(theta, fl + 1.0) / (1.0 - theta));
  m.offload_probability =
      (1.0 - theta) * std::pow(theta, fl) * (1.0 - (1.0 - theta) * frac) /
      (1.0 - std::pow(theta, fl + 1.0) +
       frac * (1.0 - theta) * std::pow(theta, fl + 1.0));
  return m;
}

TEST(TroQueue, ZeroThresholdOffloadsEverything) {
  for (const double theta : {0.2, 1.0, 4.0}) {
    const TroMetrics m = tro_metrics(theta, 0.0);
    EXPECT_DOUBLE_EQ(m.offload_probability, 1.0);
    EXPECT_DOUBLE_EQ(m.mean_queue_length, 0.0);
    EXPECT_DOUBLE_EQ(m.p_empty, 1.0);
  }
}

TEST(TroQueue, MatchesPaperEquationsAwayFromThetaOne) {
  for (const double theta : {0.3, 0.8, 1.7, 4.0}) {
    for (const double x : {0.5, 1.0, 2.5, 3.0, 7.25}) {
      const TroMetrics ours = tro_metrics(theta, x);
      const TroMetrics paper = paper_formulas(theta, x);
      EXPECT_NEAR(ours.p_empty, paper.p_empty, 1e-10)
          << "theta=" << theta << " x=" << x;
      EXPECT_NEAR(ours.mean_queue_length, paper.mean_queue_length, 1e-9)
          << "theta=" << theta << " x=" << x;
      EXPECT_NEAR(ours.offload_probability, paper.offload_probability, 1e-10)
          << "theta=" << theta << " x=" << x;
    }
  }
}

TEST(TroQueue, MatchesPaperThetaOneSpecialCase) {
  // Q(x) = (floor(x)+1)(2x-floor(x)) / (2(x+1)); alpha(x) = 1/(x+1).
  for (const double x : {0.0, 0.5, 1.0, 2.5, 6.75}) {
    const TroMetrics m = tro_metrics(1.0, x);
    const double fl = std::floor(x);
    EXPECT_NEAR(m.mean_queue_length,
                (fl + 1.0) * (2.0 * x - fl) / (2.0 * (x + 1.0)), 1e-12)
        << "x=" << x;
    EXPECT_NEAR(m.offload_probability, 1.0 / (x + 1.0), 1e-12) << "x=" << x;
  }
}

TEST(TroQueue, AgreesWithGenericBirthDeathSolverOnIntegerThresholds) {
  for (const double theta : {0.25, 0.9, 1.0, 1.1, 3.0}) {
    for (const int k : {1, 2, 5, 11}) {
      // Births: admit at rate theta (time in units of 1/s) up to state k-1;
      // the k-th birth is blocked (integer threshold => frac = 0).
      std::vector<double> births(static_cast<std::size_t>(k), theta);
      std::vector<double> deaths(static_cast<std::size_t>(k), 1.0);
      const auto pi = stationary_distribution(births, deaths);
      const TroMetrics m = tro_metrics(theta, static_cast<double>(k));
      EXPECT_NEAR(m.mean_queue_length, mean_state(pi), 1e-10)
          << "theta=" << theta << " k=" << k;
      EXPECT_NEAR(m.p_empty, pi[0], 1e-12);
      // PASTA: offload prob = P(queue == k).
      EXPECT_NEAR(m.offload_probability, pi.back(), 1e-12);
    }
  }
}

TEST(TroQueue, FractionalThresholdMatchesAugmentedBirthDeathChain) {
  const double theta = 1.8, x = 3.4;
  // States 0..4; birth blocked with prob 0.6 at state 3.
  std::vector<double> births{theta, theta, theta, 0.4 * theta};
  std::vector<double> deaths{1.0, 1.0, 1.0, 1.0};
  const auto pi = stationary_distribution(births, deaths);
  const TroMetrics m = tro_metrics(theta, x);
  EXPECT_NEAR(m.mean_queue_length, mean_state(pi), 1e-10);
  EXPECT_NEAR(m.p_empty, pi[0], 1e-12);
  EXPECT_NEAR(m.offload_probability, 0.6 * pi[3] + pi[4], 1e-12);
}

TEST(TroQueue, IsNumericallyStableAcrossThetaEqualsOne) {
  // The direct-summation implementation must be smooth through theta = 1,
  // where the closed forms have 0/0 cancellation.
  const double x = 5.5;
  const TroMetrics below = tro_metrics(1.0 - 1e-9, x);
  const TroMetrics at = tro_metrics(1.0, x);
  const TroMetrics above = tro_metrics(1.0 + 1e-9, x);
  EXPECT_NEAR(below.mean_queue_length, at.mean_queue_length, 1e-6);
  EXPECT_NEAR(above.mean_queue_length, at.mean_queue_length, 1e-6);
  EXPECT_NEAR(below.offload_probability, at.offload_probability, 1e-6);
  EXPECT_NEAR(above.offload_probability, at.offload_probability, 1e-6);
}

TEST(TroQueue, SurvivesLargeThresholdsWithHeavyLoad) {
  // theta = 6, x = 500: weights reach 6^500; rescaling must hold.
  const TroMetrics m = tro_metrics(6.0, 500.0);
  EXPECT_NEAR(m.offload_probability, 1.0 - 1.0 / 6.0, 1e-6);
  EXPECT_NEAR(m.mean_queue_length, 500.0 - 0.2, 0.5);
  EXPECT_GE(m.p_empty, 0.0);
}

TEST(TroQueue, LightLoadLargeThresholdApproachesOpenMm1) {
  const double theta = 0.4;
  const TroMetrics m = tro_metrics(theta, 80.0);
  EXPECT_NEAR(m.offload_probability, 0.0, 1e-10);
  EXPECT_NEAR(m.mean_queue_length, theta / (1.0 - theta), 1e-9);
}

TEST(TroQueue, RejectsInvalidArguments) {
  EXPECT_THROW(tro_metrics(0.0, 1.0), ContractViolation);
  EXPECT_THROW(tro_metrics(-1.0, 1.0), ContractViolation);
  EXPECT_THROW(tro_metrics(1.0, -0.1), ContractViolation);
  EXPECT_THROW(tro_metrics(1.0, 2e6), ContractViolation);
}

// --- Property sweeps over (theta, x) ---

class TroPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TroPropertyTest, FlowBalanceHolds) {
  // Rate into the local queue a(1-alpha) equals service throughput
  // s(1-pi_0); in theta units: theta(1-alpha) = 1 - pi_0.
  const auto [theta, x] = GetParam();
  const TroMetrics m = tro_metrics(theta, x);
  EXPECT_NEAR(theta * (1.0 - m.offload_probability), 1.0 - m.p_empty, 1e-10);
}

TEST_P(TroPropertyTest, AlphaDecreasesAndQueueGrowsWithThreshold) {
  const auto [theta, x] = GetParam();
  const TroMetrics lo = tro_metrics(theta, x);
  const TroMetrics hi = tro_metrics(theta, x + 0.25);
  EXPECT_LE(hi.offload_probability, lo.offload_probability + 1e-12);
  EXPECT_GE(hi.mean_queue_length, lo.mean_queue_length - 1e-12);
}

TEST_P(TroPropertyTest, MetricsAreContinuousInThreshold) {
  const auto [theta, x] = GetParam();
  const TroMetrics a = tro_metrics(theta, x);
  const TroMetrics b = tro_metrics(theta, x + 1e-8);
  EXPECT_NEAR(a.offload_probability, b.offload_probability, 1e-6);
  EXPECT_NEAR(a.mean_queue_length, b.mean_queue_length, 1e-6);
}

TEST_P(TroPropertyTest, ProbabilitiesAreProbabilities) {
  const auto [theta, x] = GetParam();
  const TroMetrics m = tro_metrics(theta, x);
  EXPECT_GE(m.offload_probability, 0.0);
  EXPECT_LE(m.offload_probability, 1.0);
  EXPECT_GE(m.p_empty, 0.0);
  EXPECT_LE(m.p_empty, 1.0);
  EXPECT_GE(m.mean_queue_length, 0.0);
  EXPECT_LE(m.mean_queue_length, std::floor(x) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TroPropertyTest,
    ::testing::Combine(::testing::Values(0.1, 0.5, 0.95, 1.0, 1.05, 2.0, 4.0,
                                         8.0),
                       ::testing::Values(0.0, 0.3, 1.0, 1.5, 2.0, 3.7, 6.0,
                                         10.25)));

}  // namespace
}  // namespace mec::queueing
