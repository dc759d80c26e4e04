#include "mec/random/empirical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mec/common/error.hpp"
#include "mec/random/empirical_data.hpp"

namespace mec::random {
namespace {

TEST(EmpiricalDataset, ComputesSummaryStatistics) {
  const EmpiricalDataset d({4.0, 1.0, 3.0, 2.0}, "t");
  EXPECT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_NEAR(d.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
}

TEST(EmpiricalDataset, RejectsEmptyAndNegativeData) {
  EXPECT_THROW(EmpiricalDataset({}, "x"), ContractViolation);
  EXPECT_THROW(EmpiricalDataset({1.0, -2.0}, "x"), ContractViolation);
}

TEST(EmpiricalDataset, QuantilesInterpolateLinearly) {
  const EmpiricalDataset d({0.0, 10.0}, "q");
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.25), 2.5);
  EXPECT_THROW(d.quantile(1.5), ContractViolation);
}

TEST(EmpiricalDataset, QuantileOfSingletonIsTheValue) {
  const EmpiricalDataset d({7.0}, "one");
  EXPECT_DOUBLE_EQ(d.quantile(0.3), 7.0);
}

TEST(EmpiricalDataset, ResampleDrawsOnlyObservedValues) {
  const EmpiricalDataset d({1.0, 2.0, 3.0}, "r");
  Xoshiro256 rng(1);
  for (int i = 0; i < 500; ++i) {
    const double v = d.resample(rng);
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0);
  }
}

TEST(EmpiricalDataset, HistogramMassSumsToOne) {
  std::vector<double> data;
  Xoshiro256 rng(2);
  for (int i = 0; i < 5000; ++i) data.push_back(uniform(rng, 0.0, 10.0));
  const EmpiricalDataset d(std::move(data), "h");
  const auto [edges, mass] = d.histogram(25);
  EXPECT_EQ(edges.size(), 25u);
  EXPECT_NEAR(std::accumulate(mass.begin(), mass.end(), 0.0), 1.0, 1e-12);
  // Uniform data => roughly equal mass per bin.
  for (const double m : mass) EXPECT_NEAR(m, 0.04, 0.015);
}

TEST(EmpiricalDataset, DegenerateHistogramPutsAllMassInFirstBin) {
  const EmpiricalDataset d({2.0, 2.0, 2.0}, "deg");
  const auto [edges, mass] = d.histogram(5);
  EXPECT_DOUBLE_EQ(mass[0], 1.0);
}

TEST(EmpiricalDataset, AsDistributionRoundTripsMeanAndBounds) {
  const EmpiricalDataset d({1.0, 2.0, 6.0}, "dist");
  const Distribution dist = d.as_distribution();
  EXPECT_DOUBLE_EQ(dist.mean(), 3.0);
  EXPECT_DOUBLE_EQ(dist.lower_bound(), 1.0);
  EXPECT_DOUBLE_EQ(dist.upper_bound(), 6.0);
}

// --- Synthetic measured datasets (Fig. 6 stand-ins) ---

TEST(SyntheticYolo, HasPaperSizeAndPositiveRightSkewedTimes) {
  const EmpiricalDataset times = synthetic_yolo_processing_times();
  EXPECT_EQ(times.size(), 1000u);
  EXPECT_GT(times.min(), 0.0);
  // Right-skew: mean above median, as in the Fig. 6a histogram.
  EXPECT_GT(times.mean(), times.quantile(0.5));
}

TEST(SyntheticYolo, IsDeterministicPerSeed) {
  const auto a = synthetic_yolo_processing_times(123);
  const auto b = synthetic_yolo_processing_times(123);
  const auto c = synthetic_yolo_processing_times(124);
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_NE(a.samples(), c.samples());
}

TEST(ServiceRates, HitThePaperMeanExactly) {
  const auto times = synthetic_yolo_processing_times();
  const auto rates = service_rates_from_times(times);
  EXPECT_EQ(rates.size(), times.size());
  EXPECT_NEAR(rates.mean(), kPaperMeanServiceRate, 1e-9);
  EXPECT_GT(rates.min(), 0.0);
}

TEST(ServiceRates, CustomTargetMeanIsRespected) {
  const auto times = synthetic_yolo_processing_times();
  const auto rates = service_rates_from_times(times, 3.0);
  EXPECT_NEAR(rates.mean(), 3.0, 1e-9);
}

TEST(SyntheticWifi, MatchesRequestedMeanAndShape) {
  const auto lat = synthetic_wifi_offload_latencies(999, 1000, 2.5);
  EXPECT_EQ(lat.size(), 1000u);
  EXPECT_NEAR(lat.mean(), 2.5, 1e-9);
  EXPECT_GT(lat.min(), 0.0);
  EXPECT_GT(lat.mean(), lat.quantile(0.5));  // right-skew, like Fig. 6b
}

TEST(SyntheticWifi, RejectsBadParameters) {
  EXPECT_THROW(synthetic_wifi_offload_latencies(1, 0, 1.0), ContractViolation);
  EXPECT_THROW(synthetic_wifi_offload_latencies(1, 10, -1.0),
               ContractViolation);
}

TEST(SyntheticDatasets, StragglersGiveHeavierTailThanBody) {
  const auto times = synthetic_yolo_processing_times();
  // 99th percentile should sit well above 3x the median, evidencing the
  // secondary (straggler) mode.
  EXPECT_GT(times.quantile(0.99), 1.8 * times.quantile(0.5));
}

}  // namespace
}  // namespace mec::random
