#include "mec/queueing/ctmc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/queueing/birth_death.hpp"

namespace mec::queueing {
namespace {

TEST(GeneratorMatrixTest, MaintainsZeroRowSums) {
  GeneratorMatrix g(3);
  g.add_rate(0, 1, 2.0);
  g.add_rate(1, 2, 1.0);
  g.add_rate(2, 0, 0.5);
  EXPECT_TRUE(g.is_valid_generator());
  EXPECT_DOUBLE_EQ(g.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0), -2.0);
}

TEST(GeneratorMatrixTest, RejectsInvalidEdits) {
  GeneratorMatrix g(2);
  EXPECT_THROW(g.add_rate(0, 0, 1.0), ContractViolation);
  EXPECT_THROW(g.add_rate(0, 2, 1.0), ContractViolation);
  EXPECT_THROW(g.add_rate(0, 1, -1.0), ContractViolation);
  EXPECT_THROW(GeneratorMatrix(0), ContractViolation);
}

TEST(CtmcStationary, TwoStateChainHasClosedForm) {
  // 0 <-> 1 with rates a=3 (up), b=1 (down): pi = (b, a)/(a+b).
  GeneratorMatrix g(2);
  g.add_rate(0, 1, 3.0);
  g.add_rate(1, 0, 1.0);
  const auto pi = stationary_distribution(g);
  EXPECT_NEAR(pi[0], 0.25, 1e-12);
  EXPECT_NEAR(pi[1], 0.75, 1e-12);
}

TEST(CtmcStationary, MatchesBirthDeathSolverOnRandomChains) {
  const std::vector<double> births{1.3, 0.7, 2.2, 0.4};
  const std::vector<double> deaths{1.0, 2.0, 0.9, 1.5};
  GeneratorMatrix g(5);
  for (std::size_t i = 0; i < births.size(); ++i) {
    g.add_rate(i, i + 1, births[i]);
    g.add_rate(i + 1, i, deaths[i]);
  }
  const auto dense = stationary_distribution(g);
  const auto bd = stationary_distribution(births, deaths);
  ASSERT_EQ(dense.size(), bd.size());
  for (std::size_t i = 0; i < bd.size(); ++i)
    EXPECT_NEAR(dense[i], bd[i], 1e-10);
}

TEST(CtmcStationary, SolvesANonReversibleCycle) {
  // Unidirectional 4-cycle with unequal rates r_i: pi_i proportional to
  // 1/r_i (flow balance around the cycle).
  const std::vector<double> rates{1.0, 2.0, 4.0, 8.0};
  GeneratorMatrix g(4);
  for (std::size_t i = 0; i < 4; ++i) g.add_rate(i, (i + 1) % 4, rates[i]);
  const auto pi = stationary_distribution(g);
  const double z = 1.0 + 0.5 + 0.25 + 0.125;
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(pi[i], (1.0 / rates[i]) / z, 1e-12);
}

TEST(CtmcStationary, SatisfiesGlobalBalanceOnADenseRandomChain) {
  GeneratorMatrix g(6);
  // Deterministic "random-looking" strongly-connected chain.  Unsigned
  // arithmetic wraps where a signed LCG would overflow (undefined behavior);
  // the masked 31-bit values are the same either way.
  std::uint32_t seed = 1;
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      seed = (seed * 1103515245u + 12345u) & 0x7fffffffu;
      g.add_rate(i, j, 0.1 + static_cast<double>(seed % 100) / 25.0);
    }
  const auto pi = stationary_distribution(g);
  EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12);
  // Check pi * Q = 0 directly.
  for (std::size_t j = 0; j < 6; ++j) {
    double flow = 0.0;
    for (std::size_t i = 0; i < 6; ++i) flow += pi[i] * g.at(i, j);
    EXPECT_NEAR(flow, 0.0, 1e-10) << "column " << j;
  }
}

TEST(CtmcStationary, RejectsReducibleChains) {
  GeneratorMatrix g(3);
  g.add_rate(0, 1, 1.0);
  g.add_rate(1, 0, 1.0);
  // State 2 is isolated: no stationary distribution is unique.
  EXPECT_THROW(stationary_distribution(g), RuntimeError);
}

TEST(CtmcStationary, SingleAbsorbingPairIsHandled) {
  GeneratorMatrix g(1);
  // A 1-state chain has the trivial stationary distribution... but a
  // 1-state generator is all zeros, which is valid and pi = {1}.
  const auto pi = stationary_distribution(g);
  ASSERT_EQ(pi.size(), 1u);
  EXPECT_DOUBLE_EQ(pi[0], 1.0);
}

}  // namespace
}  // namespace mec::queueing
