#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"
#include "mec/stats/confidence.hpp"
#include "mec/stats/summary.hpp"

namespace mec::stats {
namespace {

TEST(RunningSummary, MatchesBatchFormulas) {
  const std::vector<double> data{1.0, 4.0, 2.0, 8.0, 5.0};
  RunningSummary s;
  for (const double v : data) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  // Batch formulas: mean 20 / 5 = 4; squared deviations 9 + 0 + 4 + 16 + 1
  // over n - 1 = 4.
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.variance(), 7.5, 1e-12);
}

TEST(RunningSummary, ContractsOnInsufficientData) {
  RunningSummary s;
  EXPECT_THROW(s.mean(), ContractViolation);
  s.add(1.0);
  EXPECT_NO_THROW(s.mean());
  EXPECT_THROW(s.variance(), ContractViolation);
}

TEST(RunningSummary, IsStableForLargeOffsets) {
  // Welford must not lose the variance of tiny fluctuations on a huge mean.
  RunningSummary s;
  for (int i = 0; i < 1000; ++i)
    s.add(1e12 + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(s.variance(), 1.0, 1e-2);
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.99), 2.326347874, 1e-6);   // 98% two-sided
  EXPECT_NEAR(normal_quantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963985, 1e-6);
  EXPECT_THROW(normal_quantile(0.0), ContractViolation);
  EXPECT_THROW(normal_quantile(1.0), ContractViolation);
}

TEST(NormalQuantile, IsSymmetricAndMonotone) {
  for (const double p : {0.6, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9);
  }
  double prev = normal_quantile(0.01);
  for (double p = 0.05; p < 1.0; p += 0.05) {
    const double q = normal_quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(StudentTQuantile, MatchesTableValues) {
  // Standard t-table: t_{0.975} at various dof.
  EXPECT_NEAR(student_t_quantile(0.975, 10), 2.228, 6e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 30), 2.042, 3e-3);
  EXPECT_NEAR(student_t_quantile(0.99, 20), 2.528, 8e-3);
  EXPECT_NEAR(student_t_quantile(0.95, 5), 2.015, 2e-2);
}

TEST(StudentTQuantile, SmallDofMatchesClassicTable) {
  // The dof where the Cornish–Fisher expansion used to be badly wrong:
  // it gave ~7.6 instead of 12.706 at dof=1 and ~3.6 instead of 4.303 at
  // dof=2, shrinking every R<=5 replication interval.
  EXPECT_NEAR(student_t_quantile(0.975, 1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 2), 4.303, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 3), 3.182, 1e-3);
  EXPECT_NEAR(student_t_quantile(0.975, 4), 2.776, 1e-3);
}

TEST(StudentTQuantile, GoldenTableDof1To30) {
  // Reference quantiles computed with mpmath (50-digit arithmetic) at
  // p in {0.95, 0.975, 0.995} for dof 1..30.  The issue's acceptance bar is
  // 1e-3 relative error; the incomplete-beta inversion delivers ~1e-9, so
  // assert 1e-6 to leave headroom for libm differences.
  static const double kGolden[30][3] = {
      {6.313751515, 12.70620474, 63.65674116},
      {2.91998558, 4.30265273, 9.924843201},
      {2.353363435, 3.182446305, 5.84090931},
      {2.131846786, 2.776445105, 4.604094871},
      {2.015048373, 2.570581836, 4.032142984},
      {1.943180281, 2.446911851, 3.707428021},
      {1.894578605, 2.364624252, 3.499483297},
      {1.859548038, 2.306004135, 3.355387331},
      {1.833112933, 2.262157163, 3.249835542},
      {1.812461123, 2.228138852, 3.169272673},
      {1.795884819, 2.20098516, 3.105806516},
      {1.782287556, 2.17881283, 3.054539589},
      {1.770933396, 2.160368656, 3.012275839},
      {1.761310136, 2.144786688, 2.976842734},
      {1.753050356, 2.131449546, 2.946712883},
      {1.745883676, 2.119905299, 2.920781622},
      {1.739606726, 2.109815578, 2.89823052},
      {1.734063607, 2.10092204, 2.878440473},
      {1.729132812, 2.093024054, 2.860934606},
      {1.724718243, 2.085963447, 2.84533971},
      {1.720742903, 2.079613845, 2.831359558},
      {1.717144374, 2.073873068, 2.818756061},
      {1.713871528, 2.06865761, 2.807335684},
      {1.71088208, 2.063898562, 2.796939505},
      {1.708140761, 2.059538553, 2.787435814},
      {1.70561792, 2.055529439, 2.778714533},
      {1.703288446, 2.051830516, 2.770682957},
      {1.701130934, 2.048407142, 2.763262455},
      {1.699127027, 2.045229642, 2.756385904},
      {1.697260887, 2.042272456, 2.749995654}};
  static const double kLevels[3] = {0.95, 0.975, 0.995};
  for (std::size_t dof = 1; dof <= 30; ++dof) {
    for (int j = 0; j < 3; ++j) {
      const double expected = kGolden[dof - 1][j];
      const double actual = student_t_quantile(kLevels[j], dof);
      EXPECT_NEAR(actual / expected, 1.0, 1e-6)
          << "dof=" << dof << " p=" << kLevels[j];
    }
  }
}

TEST(StudentTQuantile, LowerTailMirrorsUpperTail) {
  for (const std::size_t dof : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}, std::size_t{25}}) {
    EXPECT_NEAR(student_t_quantile(0.025, dof),
                -student_t_quantile(0.975, dof), 1e-9);
    EXPECT_NEAR(student_t_quantile(0.5, dof), 0.0, 1e-12);
  }
}

TEST(NormalQuantile, ExtremeTailsStayFinite) {
  // The Halley refinement multiplies by exp(x^2/2), which overflows past
  // |x| ~ 37.6; the guard must keep the Acklam estimate instead of
  // producing inf/nan.  Reference values from mpmath: Phi^{-1}(1e-300) and
  // Phi^{-1} of the largest double below 1 (1 - 2^-53, which is what the
  // literal 1 - 1e-16 rounds to).
  const double lo = normal_quantile(1e-300);
  EXPECT_TRUE(std::isfinite(lo));
  EXPECT_NEAR(lo, -37.0470962993612, 1e-6);
  const double hi = normal_quantile(1.0 - 1e-16);
  EXPECT_TRUE(std::isfinite(hi));
  EXPECT_NEAR(hi, 8.20953615160139, 1e-6);
}

TEST(StudentTQuantile, ApproachesNormalForLargeDof) {
  EXPECT_NEAR(student_t_quantile(0.975, 100000), normal_quantile(0.975),
              1e-4);
}

TEST(StudentTQuantile, ExceedsNormalForSmallDof) {
  EXPECT_GT(student_t_quantile(0.975, 5), normal_quantile(0.975));
}

TEST(MeanConfidenceInterval, BasicGeometry) {
  RunningSummary s;
  for (int i = 0; i < 1000; ++i) s.add(i % 2 == 0 ? 9.0 : 11.0);
  const ConfidenceInterval ci = mean_confidence_interval(s, 0.98);
  EXPECT_NEAR(ci.mean, 10.0, 1e-12);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_TRUE(ci.contains(10.0));
  EXPECT_FALSE(ci.contains(11.0));
  EXPECT_NEAR(ci.upper() - ci.lower(), 2.0 * ci.half_width, 1e-12);
}

TEST(MeanConfidenceInterval, CoversTheTrueMeanAtNominalRate) {
  // 500 experiments, each a 98% CI over 200 uniform samples: coverage should
  // be near 0.98.
  random::Xoshiro256 rng(3);
  int covered = 0;
  const int experiments = 500;
  for (int e = 0; e < experiments; ++e) {
    RunningSummary s;
    for (int i = 0; i < 200; ++i) s.add(random::uniform(rng, 0.0, 2.0));
    covered += mean_confidence_interval(s, 0.98).contains(1.0);
  }
  EXPECT_NEAR(static_cast<double>(covered) / experiments, 0.98, 0.03);
}

TEST(MeanConfidenceInterval, WiderAtHigherConfidence) {
  RunningSummary s;
  random::Xoshiro256 rng(4);
  for (int i = 0; i < 50; ++i) s.add(random::uniform01(rng));
  EXPECT_LT(mean_confidence_interval(s, 0.90).half_width,
            mean_confidence_interval(s, 0.99).half_width);
}

TEST(MeanConfidenceInterval, SmallRCoverageMatchesNominal) {
  // The regression this PR fixes: with the old Cornish–Fisher quantile the
  // dof=2 multiplier was ~3.4 instead of 4.303, so 95% intervals over R=3
  // replications covered the true mean only ~93% of the time.  20000 trials
  // give a standard error of ~0.0015 on the coverage estimate, so a 0.01
  // tolerance separates the buggy ~0.93 from the nominal 0.95.
  random::Xoshiro256 rng(5);
  for (const int replications : {3, 5}) {
    int covered = 0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
      RunningSummary s;
      for (int r = 0; r < replications; ++r)
        s.add(random::standard_normal(rng));
      covered += mean_confidence_interval(s, 0.95).contains(0.0);
    }
    EXPECT_NEAR(static_cast<double>(covered) / trials, 0.95, 0.01)
        << "R=" << replications;
  }
}

TEST(AlphaSpending, GeometricScheduleIsBoundedByAlpha) {
  EXPECT_DOUBLE_EQ(alpha_spending_level(0.05, 1), 0.025);
  EXPECT_DOUBLE_EQ(alpha_spending_level(0.05, 2), 0.0125);
  double total = 0.0;
  for (std::size_t look = 1; look <= 60; ++look) {
    const double level = alpha_spending_level(0.05, look);
    EXPECT_GT(level, 0.0);
    total += level;
  }
  EXPECT_LE(total, 0.05 + 1e-15);
  // Deep looks underflow gracefully instead of producing 0 or a denormal
  // that breaks the quantile's domain contract.
  EXPECT_GT(alpha_spending_level(0.05, 2000), 0.0);
}

TEST(SpendingAdjustedQuantile, WidensWithLooksAndStaysFinite) {
  // Every interim look must pay a premium over the fixed-sample quantile,
  // and the premium grows with the look index.
  const double fixed = student_t_quantile(0.975, 7);
  double prev = fixed;
  for (std::size_t look = 1; look <= 40; ++look) {
    const double q = spending_adjusted_quantile(0.95, look, 7);
    EXPECT_TRUE(std::isfinite(q)) << "look=" << look;
    EXPECT_GT(q, prev) << "look=" << look;
    prev = q;
  }
}

}  // namespace
}  // namespace mec::stats
