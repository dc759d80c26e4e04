#include "mec/population/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mec/common/error.hpp"
#include "mec/random/empirical_data.hpp"

namespace mec::population {
namespace {

TEST(TheoreticalScenario, EncodesThePaperParameters) {
  const ScenarioConfig cfg =
      theoretical_scenario(LoadRegime::kAtService);
  EXPECT_EQ(cfg.n_users, 10000u);
  EXPECT_DOUBLE_EQ(cfg.capacity, 10.0);
  EXPECT_DOUBLE_EQ(cfg.weight, 1.0);
  EXPECT_DOUBLE_EQ(cfg.arrival.mean(), 3.0);   // U(0,6)
  EXPECT_DOUBLE_EQ(cfg.service.mean(), 3.0);   // U(1,5)
  EXPECT_DOUBLE_EQ(cfg.latency.upper_bound(), 1.0);
  EXPECT_DOUBLE_EQ(cfg.energy_local.upper_bound(), 3.0);
  EXPECT_DOUBLE_EQ(cfg.energy_offload.upper_bound(), 1.0);
  // g(0) = 1/1.1.
  EXPECT_NEAR(cfg.delay(0.0), 1.0 / 1.1, 1e-12);
}

TEST(TheoreticalScenario, ThreeRegimesOrderTheArrivalMean) {
  const double lo = theoretical_scenario(LoadRegime::kBelowService)
                        .arrival.mean();
  const double mid = theoretical_scenario(LoadRegime::kAtService)
                         .arrival.mean();
  const double hi = theoretical_scenario(LoadRegime::kAboveService)
                        .arrival.mean();
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(mid, 3.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
}

TEST(ComparisonScenario, UsesWiderLatencyRange) {
  const ScenarioConfig cfg =
      theoretical_comparison_scenario(LoadRegime::kBelowService);
  EXPECT_DOUBLE_EQ(cfg.latency.upper_bound(), 5.0);  // T ~ U(0,5)
  EXPECT_EQ(cfg.n_users, 1000u);
}

TEST(PracticalScenario, ServiceRatesComeFromTheMeasuredDataset) {
  const ScenarioConfig cfg = practical_scenario(LoadRegime::kBelowService);
  EXPECT_NEAR(cfg.service.mean(), random::kPaperMeanServiceRate, 1e-6);
  EXPECT_EQ(cfg.n_users, 1000u);
  EXPECT_DOUBLE_EQ(cfg.arrival.mean(), 8.0);  // U(4,12)
}

TEST(PracticalScenario, AtServiceRegimeMatchesMeansExactly) {
  const ScenarioConfig cfg = practical_scenario(LoadRegime::kAtService);
  EXPECT_NEAR(cfg.arrival.mean(), 8.94370, 1e-4);  // U(7.3474, 10.54)
}

TEST(PracticalScenario, LatencyMeanIsConfigurable) {
  const ScenarioConfig cfg =
      practical_scenario(LoadRegime::kAboveService, 100, 3.5);
  EXPECT_NEAR(cfg.latency.mean(), 3.5, 1e-9);
  EXPECT_THROW(practical_scenario(LoadRegime::kAtService, 100, -1.0),
               mec::ContractViolation);
}

TEST(PracticalScenario, RefusesABadLatencyMeanByName) {
  for (const char* bad : {"0", "-1", "nan", "inf"}) {
    try {
      practical_scenario(LoadRegime::kAtService, 100, std::stod(bad));
      ADD_FAILURE() << "mean latency " << bad << " was accepted";
    } catch (const mec::ContractViolation& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("practical_scenario: mean_latency is ") + bad +
                    ", expected a finite value > 0");
    }
  }
}

TEST(SamplePopulation, RespectsScenarioBoundsAndContracts) {
  const ScenarioConfig cfg =
      theoretical_scenario(LoadRegime::kAboveService, 5000);
  const Population pop = sample_population(cfg, 3);
  ASSERT_EQ(pop.size(), 5000u);
  for (const auto& u : pop.users) {
    EXPECT_GT(u.arrival_rate, 0.0);
    EXPECT_LE(u.arrival_rate, 8.0);
    EXPECT_GE(u.service_rate, 1.0);
    EXPECT_LE(u.service_rate, 5.0);
    EXPECT_GE(u.offload_latency, 0.0);
    EXPECT_LE(u.offload_latency, 1.0);
    EXPECT_GE(u.energy_local, 0.0);
    EXPECT_LE(u.energy_local, 3.0);
    EXPECT_GE(u.energy_offload, 0.0);
    EXPECT_LE(u.energy_offload, 1.0);
    EXPECT_DOUBLE_EQ(u.weight, 1.0);
  }
}

TEST(SamplePopulation, EmpiricalMeansApproachScenarioMeans) {
  const ScenarioConfig cfg =
      theoretical_scenario(LoadRegime::kAtService, 20000);
  const Population pop = sample_population(cfg, 4);
  EXPECT_NEAR(pop.mean_arrival_rate(), 3.0, 0.05);
  EXPECT_NEAR(pop.mean_service_rate(), 3.0, 0.05);
}

TEST(SamplePopulation, IsDeterministicPerSeed) {
  const ScenarioConfig cfg =
      theoretical_scenario(LoadRegime::kBelowService, 100);
  const Population a = sample_population(cfg, 9);
  const Population b = sample_population(cfg, 9);
  const Population c = sample_population(cfg, 10);
  ASSERT_EQ(a.size(), b.size());
  bool all_equal = true, any_equal_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    all_equal &= a.users[i].arrival_rate == b.users[i].arrival_rate;
    any_equal_c |= a.users[i].arrival_rate == c.users[i].arrival_rate;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_FALSE(any_equal_c);
}

TEST(SamplePopulation, PracticalDrawsServiceRatesFromTheDataset) {
  const ScenarioConfig cfg = practical_scenario(LoadRegime::kAtService, 2000);
  const Population pop = sample_population(cfg, 5);
  EXPECT_NEAR(pop.mean_service_rate(), random::kPaperMeanServiceRate, 0.5);
  // Every sampled rate must be one of the dataset's 1000 values: check a few
  // have exact duplicates (resampling from a finite set).
  int duplicates = 0;
  for (std::size_t i = 1; i < 200; ++i)
    for (std::size_t j = 0; j < i; ++j)
      duplicates += pop.users[i].service_rate == pop.users[j].service_rate;
  EXPECT_GT(duplicates, 0);
}

TEST(SamplePopulation, HeterogeneousWeightsWhenDistributionIsSet) {
  ScenarioConfig cfg = theoretical_scenario(LoadRegime::kAtService, 2000);
  cfg.weight_dist = random::make_uniform(0.5, 2.5);  // 0 < w <= w_max
  const Population pop = sample_population(cfg, 6);
  double lo = 1e9, hi = 0.0, mean = 0.0;
  for (const auto& u : pop.users) {
    lo = std::min(lo, u.weight);
    hi = std::max(hi, u.weight);
    mean += u.weight;
  }
  EXPECT_GE(lo, 0.5);
  EXPECT_LE(hi, 2.5);
  EXPECT_NEAR(mean / static_cast<double>(pop.size()), 1.5, 0.05);
  EXPECT_GT(hi - lo, 1.0);  // genuinely heterogeneous
}

TEST(SamplePopulation, ScalarWeightUsedWhenNoDistribution) {
  ScenarioConfig cfg = theoretical_scenario(LoadRegime::kAtService, 50);
  cfg.weight = 3.5;
  const Population pop = sample_population(cfg, 7);
  for (const auto& u : pop.users) EXPECT_DOUBLE_EQ(u.weight, 3.5);
}

TEST(ScenarioConfig, CheckRejectsIncompleteConfigs) {
  ScenarioConfig cfg;  // nothing set
  EXPECT_THROW(cfg.check(), mec::ContractViolation);
  cfg = theoretical_scenario(LoadRegime::kAtService);
  cfg.capacity = 0.0;
  EXPECT_THROW(cfg.check(), mec::ContractViolation);
}

TEST(LoadRegimeNames, AreHumanReadable) {
  EXPECT_EQ(to_string(LoadRegime::kBelowService), "E[A] < E[S]");
  EXPECT_EQ(to_string(LoadRegime::kAtService), "E[A] = E[S]");
  EXPECT_EQ(to_string(LoadRegime::kAboveService), "E[A] > E[S]");
}

}  // namespace
}  // namespace mec::population
