// Theorem 2: the DTU Algorithm (Algorithm 1) converges to the unique MFNE,
// synchronously and asynchronously, from any starting thresholds.
#include "mec/core/dtu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bit_digest.hpp"
#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"

namespace mec::core {
namespace {

std::vector<UserParams> sampled(population::LoadRegime regime, std::size_t n,
                                std::uint64_t seed = 17) {
  return population::sample_population(
             population::theoretical_scenario(regime, n), seed)
      .users;
}

class DtuRegimeTest
    : public ::testing::TestWithParam<population::LoadRegime> {};

TEST_P(DtuRegimeTest, ConvergesToTheMfneOfTheSamePopulation) {
  const auto users = sampled(GetParam(), 2000);
  const EdgeDelay delay = make_reciprocal_delay();
  const double c = 10.0;
  const MfneResult mfne = solve_mfne(users, delay, c);

  AnalyticUtilization source(users, c);
  DtuOptions opt;
  opt.eta0 = 0.1;
  opt.epsilon = 0.005;
  const DtuResult r = run_dtu(users, delay, source, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.final_gamma_hat, mfne.gamma_star, opt.epsilon + opt.eta0 / 2);
  // Tighter: the true utilization of the final thresholds is near gamma*.
  EXPECT_NEAR(r.final_gamma, mfne.gamma_star, 0.02);
}

TEST_P(DtuRegimeTest, PaperIterationBudgetIsEnough) {
  // Fig. 5: convergence within ~20 iterations at the paper's settings.
  const auto users = sampled(GetParam(), 1000);
  AnalyticUtilization source(users, 10.0);
  const DtuResult r =
      run_dtu(users, make_reciprocal_delay(), source, {});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 40);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, DtuRegimeTest,
    ::testing::Values(population::LoadRegime::kBelowService,
                      population::LoadRegime::kAtService,
                      population::LoadRegime::kAboveService));

TEST(Dtu, EstimateMovesByExactlyEtaEachIteration) {
  const auto users = sampled(population::LoadRegime::kAtService, 500);
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.eta0 = 0.25;
  const DtuResult r = run_dtu(users, make_reciprocal_delay(), source, opt);
  ASSERT_GE(r.trace.size(), 2u);
  double prev_hat = 0.0;  // gamma_hat_0
  double prev_eta = opt.eta0;
  for (const DtuIterate& it : r.trace) {
    const double step = std::abs(it.gamma_hat - prev_hat);
    // Step is eta_{t-1} (or 0 on exact hit, or clipped at the boundary).
    EXPECT_TRUE(step <= prev_eta + 1e-12) << "t=" << it.t;
    prev_hat = it.gamma_hat;
    prev_eta = it.eta;
  }
}

TEST(Dtu, StepSizeIsNonIncreasingAndShrinksHarmonically) {
  const auto users = sampled(population::LoadRegime::kBelowService, 500);
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.eta0 = 0.2;
  opt.epsilon = 0.002;
  const DtuResult r = run_dtu(users, make_reciprocal_delay(), source, opt);
  double prev = opt.eta0;
  for (const DtuIterate& it : r.trace) {
    EXPECT_LE(it.eta, prev + 1e-15);
    prev = it.eta;
  }
  // The final step honours the stopping rule: eta_final <= epsilon, and by
  // the harmonic rule it equals eta0 / L for an integer L.
  EXPECT_LE(r.trace.back().eta, opt.epsilon + 1e-15);
  const double l_est = opt.eta0 / r.trace.back().eta;
  EXPECT_NEAR(l_est, std::round(l_est), 1e-6);
}

TEST(Dtu, BisectionPropertyOfTheEstimate) {
  // Theorem 2's core argument: gamma_hat moves monotonically towards gamma*
  // until it crosses, then turns around.
  const auto users = sampled(population::LoadRegime::kAtService, 1500);
  const EdgeDelay delay = make_reciprocal_delay();
  const double gamma_star = solve_mfne(users, delay, 10.0).gamma_star;
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.eta0 = 0.07;
  const DtuResult r = run_dtu(users, delay, source, opt);

  double prev_hat = 0.0;
  for (const DtuIterate& it : r.trace) {
    if (prev_hat < gamma_star - opt.eta0 && it.gamma_hat <= prev_hat)
      ADD_FAILURE() << "estimate moved away below gamma* at t=" << it.t;
    if (prev_hat > gamma_star + opt.eta0 && it.gamma_hat >= prev_hat)
      ADD_FAILURE() << "estimate moved away above gamma* at t=" << it.t;
    prev_hat = it.gamma_hat;
  }
}

TEST(Dtu, ConvergesFromHighInitialThresholds) {
  const auto users = sampled(population::LoadRegime::kAtService, 800);
  const EdgeDelay delay = make_reciprocal_delay();
  const double gamma_star = solve_mfne(users, delay, 10.0).gamma_star;
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.initial_thresholds.assign(users.size(), 25.0);  // start barely offloading
  const DtuResult r = run_dtu(users, delay, source, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.final_gamma, gamma_star, 0.05);
}

TEST(Dtu, AsynchronousUpdatesStillConverge) {
  // Section IV-B: each user updates with probability 0.8 per iteration.
  const auto users = sampled(population::LoadRegime::kAboveService, 1500);
  const EdgeDelay delay = make_reciprocal_delay();
  const double gamma_star = solve_mfne(users, delay, 10.0).gamma_star;
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.update_gate = make_bernoulli_gate(0.8, /*seed=*/5);
  const DtuResult r = run_dtu(users, delay, source, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.final_gamma, gamma_star, 0.05);
}

TEST(Dtu, GateZeroFreezesThresholds) {
  const auto users = sampled(population::LoadRegime::kAtService, 100);
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.update_gate = [](std::size_t, int) { return false; };
  opt.initial_thresholds.assign(users.size(), 3.0);
  opt.max_iterations = 50;
  const DtuResult r = run_dtu(users, make_reciprocal_delay(), source, opt);
  for (const double x : r.thresholds) EXPECT_DOUBLE_EQ(x, 3.0);
}

TEST(Dtu, BernoulliGateIsDeterministicAndCalibrated) {
  const UpdateGate gate = make_bernoulli_gate(0.8, 7);
  const UpdateGate gate_same = make_bernoulli_gate(0.8, 7);
  int fires = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const bool a = gate(static_cast<std::size_t>(i), i % 97);
    EXPECT_EQ(a, gate_same(static_cast<std::size_t>(i), i % 97));
    fires += a;
  }
  EXPECT_NEAR(static_cast<double>(fires) / trials, 0.8, 0.02);
}

TEST(Dtu, TraceRecordsMatchFinalState) {
  const auto users = sampled(population::LoadRegime::kBelowService, 300);
  AnalyticUtilization source(users, 10.0);
  const DtuResult r =
      run_dtu(users, make_reciprocal_delay(), source, {});
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.iterations, static_cast<int>(r.trace.size()));
  EXPECT_DOUBLE_EQ(r.trace.back().gamma_hat, r.final_gamma_hat);
  for (std::size_t i = 0; i < r.trace.size(); ++i)
    EXPECT_EQ(r.trace[i].t, static_cast<int>(i) + 1);
}

TEST(Dtu, MaxIterationsGuardStopsUnconvergedRuns) {
  const auto users = sampled(population::LoadRegime::kAtService, 200);
  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.epsilon = 1e-6;   // very tight
  opt.max_iterations = 5;  // far too few
  const DtuResult r = run_dtu(users, make_reciprocal_delay(), source, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 5);
}

TEST(Dtu, RejectsInvalidOptions) {
  const auto users = sampled(population::LoadRegime::kAtService, 10);
  AnalyticUtilization source(users, 10.0);
  const EdgeDelay delay = make_reciprocal_delay();
  DtuOptions opt;
  opt.eta0 = 0.0;
  EXPECT_THROW(run_dtu(users, delay, source, opt), ContractViolation);
  opt = {};
  opt.epsilon = 1.0;
  EXPECT_THROW(run_dtu(users, delay, source, opt), ContractViolation);
  opt = {};
  opt.initial_thresholds = {1.0};  // wrong size
  EXPECT_THROW(run_dtu(users, delay, source, opt), ContractViolation);
  EXPECT_THROW(make_bernoulli_gate(1.5), ContractViolation);
}

TEST(Dtu, TraceCostsConvergeToTheEquilibriumCost) {
  const auto users = sampled(population::LoadRegime::kAtService, 1000);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult mfne = solve_mfne(users, delay, 10.0);
  std::vector<double> eq_xs(mfne.thresholds.begin(), mfne.thresholds.end());
  const double eq_cost = average_cost(users, eq_xs, delay, mfne.gamma_star);

  AnalyticUtilization source(users, 10.0);
  DtuOptions opt;
  opt.epsilon = 0.005;
  const DtuResult r = run_dtu(users, delay, source, opt);
  ASSERT_FALSE(r.trace.empty());
  for (const DtuIterate& it : r.trace) EXPECT_GT(it.mean_cost, 0.0);
  EXPECT_NEAR(r.trace.back().mean_cost, eq_cost, 0.02 * eq_cost);
}

namespace {

/// Wraps a source with deterministic bounded "measurement" noise, emulating
/// a finite-window estimate of gamma_t.
class NoisyUtilization final : public UtilizationSource {
 public:
  NoisyUtilization(UtilizationSource& inner, double amplitude)
      : inner_(inner), amplitude_(amplitude) {}
  double utilization(std::span<const double> thresholds) override {
    ++calls_;
    // Deterministic pseudo-noise in [-amplitude, amplitude].
    const double noise =
        amplitude_ * std::sin(static_cast<double>(calls_) * 12.9898);
    return std::max(0.0, inner_.utilization(thresholds) + noise);
  }

 private:
  UtilizationSource& inner_;
  double amplitude_;
  int calls_ = 0;
};

}  // namespace

TEST(Dtu, ToleratesBoundedMeasurementNoise) {
  // The sign-step only consumes the *direction* of gamma_t - gamma_hat, so
  // noise below the step size cannot derail the trajectory; the estimate
  // still lands within epsilon + noise of the equilibrium.
  const auto users = sampled(population::LoadRegime::kAtService, 1000);
  const EdgeDelay delay = make_reciprocal_delay();
  const double star = solve_mfne(users, delay, 10.0).gamma_star;
  AnalyticUtilization exact(users, 10.0);
  NoisyUtilization noisy(exact, 0.02);
  DtuOptions opt;
  opt.eta0 = 0.1;
  opt.epsilon = 0.01;
  const DtuResult r = run_dtu(users, delay, noisy, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.final_gamma_hat, star, 0.05);
}

// Every trace field and every final value of five runs, pinned by digest:
// the defaults, a larger step with a tighter accuracy, an asynchronous gate
// on a practical population, a cold start from high thresholds, and a run
// the iteration guard cuts off.  Captured before Algorithm 1 had one
// implementation shared with the closed loop; a refactor of the update must
// leave them unmoved.
TEST(Dtu, TracesKeepTheirBits) {
  using population::LoadRegime;
  const auto at_service = population::sample_population(
      population::theoretical_scenario(LoadRegime::kAtService, 500), 17);
  const auto practical = population::sample_population(
      population::practical_scenario(LoadRegime::kAboveService, 800), 5);
  struct Row {
    const char* name;
    const population::Population* pop;
    void (*set)(DtuOptions&);
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"defaults", &at_service, [](DtuOptions&) {}, 0xb7b07421d1de9c49ull},
      {"eta0 0.25 epsilon 0.005", &at_service,
       [](DtuOptions& o) {
         o.eta0 = 0.25;
         o.epsilon = 0.005;
       },
       0xc2b240cd321f2f1dull},
      {"async 0.8, practical", &practical,
       [](DtuOptions& o) { o.update_gate = make_bernoulli_gate(0.8, 3); },
       0x5d7b18b0ef01f746ull},
      {"initial 30, eta0 0.15", &at_service,
       [](DtuOptions& o) {
         o.initial_thresholds.assign(500, 30.0);
         o.eta0 = 0.15;
       },
       0x1f609324e254aa71ull},
      {"max_iterations 5", &at_service,
       [](DtuOptions& o) {
         o.epsilon = 1e-6;
         o.max_iterations = 5;
       },
       0x6dbc8e8030854cdfull},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const auto& cfg = row.pop->config;
    DtuOptions opt;
    row.set(opt);
    AnalyticUtilization source(row.pop->users, cfg.capacity);
    const DtuResult r = run_dtu(row.pop->users, cfg.delay, source, opt);
    test::BitDigest d;
    for (const DtuIterate& it : r.trace) {
      d.word(static_cast<std::uint64_t>(it.t));
      d.real(it.gamma);
      d.real(it.gamma_hat);
      d.real(it.eta);
      d.real(it.mean_threshold);
      d.real(it.mean_cost);
    }
    d.reals(r.thresholds);
    d.real(r.final_gamma_hat);
    d.real(r.final_gamma);
    d.word(r.converged);
    d.word(static_cast<std::uint64_t>(r.iterations));
    EXPECT_EQ(d.value(), row.digest) << std::hex << "0x" << d.value();
  }
}

TEST(AnalyticUtilizationTest, MatchesDirectFormula) {
  const auto users = sampled(population::LoadRegime::kAtService, 50);
  AnalyticUtilization source(users, 10.0);
  const std::vector<double> xs(users.size(), 2.0);
  EXPECT_NEAR(source.utilization(xs),
              utilization_of_thresholds(users, xs, 10.0), 1e-12);
}

}  // namespace
}  // namespace mec::core
