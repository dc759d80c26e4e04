// Theorem 1: existence and uniqueness of the Mean-Field Nash Equilibrium.
#include "mec/core/mfne.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bit_digest.hpp"
#include "mec/baseline/dpo.hpp"
#include "mec/common/error.hpp"
#include "mec/core/cost_model.hpp"
#include "mec/core/general_service.hpp"
#include "mec/core/mean_field_integral.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/queueing/phase_type.hpp"

namespace mec::core {
namespace {

std::vector<UserParams> sampled(population::LoadRegime regime, std::size_t n,
                                std::uint64_t seed) {
  return population::sample_population(
             population::theoretical_scenario(regime, n), seed)
      .users;
}

// The bisection with a full best_response sweep at every midpoint and at
// gamma*: what solve_mfne computed before it kept its bracket's sweeps.
MfneResult full_sweep_mfne(std::span<const UserParams> users,
                           const EdgeDelay& delay, double capacity,
                           const MfneOptions& options = {}) {
  const double v0 = best_response(users, delay, capacity, 0.0).utilization;
  if (!(v0 < 1.0)) throw ContractViolation("V(0) >= 1");
  MfneResult r;
  if (v0 == 0.0) {
    r.thresholds = best_response(users, delay, capacity, 0.0).thresholds;
    r.converged = true;
    return r;
  }
  double lo = 0.0, hi = 1.0;
  int iters = 0;
  while (hi - lo > options.tolerance && iters < options.max_iterations) {
    const double mid = 0.5 * (lo + hi);
    if (best_response(users, delay, capacity, mid).utilization > mid)
      lo = mid;
    else
      hi = mid;
    ++iters;
  }
  r.gamma_star = 0.5 * (lo + hi);
  BestResponse br = best_response(users, delay, capacity, r.gamma_star);
  r.best_response_value = br.utilization;
  r.thresholds = std::move(br.thresholds);
  r.iterations = iters;
  r.converged = hi - lo <= options.tolerance;
  return r;
}

void expect_same_bits(const MfneResult& got, const MfneResult& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gamma_star),
            std::bit_cast<std::uint64_t>(want.gamma_star));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_response_value),
            std::bit_cast<std::uint64_t>(want.best_response_value));
  EXPECT_EQ(got.thresholds, want.thresholds);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

// solve_mfne agrees with full_sweep_mfne bit for bit, or both refuse the
// population (V(0) >= 1).  Returns whether they solved it.
bool expect_matches_full_sweeps(std::span<const UserParams> users,
                                const EdgeDelay& delay, double capacity,
                                const MfneOptions& options = {}) {
  MfneResult want;
  try {
    want = full_sweep_mfne(users, delay, capacity, options);
  } catch (const ContractViolation&) {
    EXPECT_THROW(solve_mfne(users, delay, capacity, options),
                 ContractViolation);
    return false;
  }
  expect_same_bits(solve_mfne(users, delay, capacity, options), want);
  return true;
}

TEST(Mfne, FixedPointPropertyHolds) {
  const auto users = sampled(population::LoadRegime::kAtService, 2000, 5);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  // gamma* = V(gamma*) up to the finite-population step granularity plus the
  // bisection tolerance.
  EXPECT_NEAR(r.best_response_value, r.gamma_star, 2e-3);
  EXPECT_GT(r.gamma_star, 0.0);
  EXPECT_LT(r.gamma_star, 1.0);
}

TEST(Mfne, EquilibriumLiesInThePaperBandForAllThreeRegimes) {
  // Table I reports 0.13 / 0.21 / 0.28; a 2000-user draw should land within
  // a few hundredths.
  const EdgeDelay delay = make_reciprocal_delay();
  const double lo = solve_mfne(sampled(population::LoadRegime::kBelowService,
                                       2000, 6),
                               delay, 10.0)
                        .gamma_star;
  const double mid = solve_mfne(sampled(population::LoadRegime::kAtService,
                                        2000, 6),
                                delay, 10.0)
                         .gamma_star;
  const double hi = solve_mfne(sampled(population::LoadRegime::kAboveService,
                                       2000, 6),
                               delay, 10.0)
                        .gamma_star;
  EXPECT_NEAR(lo, 0.13, 0.03);
  EXPECT_NEAR(mid, 0.21, 0.03);
  EXPECT_NEAR(hi, 0.28, 0.03);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

TEST(Mfne, NoOtherCrossingExists) {
  // Uniqueness: V(gamma) - gamma changes sign exactly once on a scan.
  const auto users = sampled(population::LoadRegime::kBelowService, 1000, 7);
  const EdgeDelay delay = make_reciprocal_delay();
  int sign_changes = 0;
  double prev = best_response(users, delay, 10.0, 0.0).utilization - 0.0;
  for (double gamma = 0.01; gamma <= 1.0; gamma += 0.01) {
    const double h =
        best_response(users, delay, 10.0, gamma).utilization - gamma;
    if ((h > 0) != (prev > 0)) ++sign_changes;
    prev = h;
  }
  EXPECT_EQ(sign_changes, 1);
}

TEST(Mfne, EquilibriumThresholdsReproduceTheEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1500, 8);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  std::vector<double> xs(r.thresholds.begin(), r.thresholds.end());
  EXPECT_NEAR(utilization_of_thresholds(users, xs, 10.0), r.gamma_star, 2e-3);
}

TEST(Mfne, NoUserBenefitsFromUnilateralDeviation) {
  // The Nash property, checked directly on a sample of users: at gamma*,
  // deviating from the Lemma-1 threshold cannot lower a user's own cost.
  const auto users = sampled(population::LoadRegime::kAboveService, 400, 9);
  const EdgeDelay delay = make_reciprocal_delay();
  const MfneResult r = solve_mfne(users, delay, 10.0);
  const double g = delay(r.gamma_star);
  for (std::size_t n = 0; n < users.size(); n += 37) {
    const double own = tro_cost(users[n],
                                static_cast<double>(r.thresholds[n]), g);
    for (const double dev : {0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
      EXPECT_LE(own, tro_cost(users[n], dev, g) + 1e-9)
          << "user " << n << " deviation " << dev;
    }
  }
}

TEST(Mfne, HigherCapacityLowersEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1000, 10);
  const EdgeDelay delay = make_reciprocal_delay();
  const double g10 = solve_mfne(users, delay, 10.0).gamma_star;
  const double g20 = solve_mfne(users, delay, 20.0).gamma_star;
  EXPECT_GT(g10, g20);
}

TEST(Mfne, SteeperEdgeDelayLowersEquilibriumUtilization) {
  const auto users = sampled(population::LoadRegime::kAtService, 1000, 11);
  const double flat =
      solve_mfne(users, make_linear_delay(0.5, 0.1), 10.0).gamma_star;
  const double steep =
      solve_mfne(users, make_linear_delay(0.5, 20.0), 10.0).gamma_star;
  EXPECT_GE(flat, steep);
}

TEST(Mfne, DegeneratePopulationThatNeverOffloadsYieldsZero) {
  // Offloading is strictly dominated: enormous latency, tiny arrival rate.
  std::vector<UserParams> users(50);
  for (auto& u : users) {
    u.arrival_rate = 0.05;
    u.service_rate = 5.0;  // theta = 0.01
    u.offload_latency = 1000.0;
    u.energy_local = 0.0;
    u.energy_offload = 1.0;
  }
  const MfneResult r =
      solve_mfne(users, make_constant_delay(0.0), 10.0);
  // f(1|theta) = 0.01 > beta is false here (beta = 0.05*1001 = 50), so the
  // threshold is large but alpha is *tiny*; gamma* ~ 0.
  EXPECT_LT(r.gamma_star, 1e-3);
}

TEST(Mfne, ThrowsWhenCapacityCannotAbsorbTheLoad) {
  std::vector<UserParams> users(10);
  for (auto& u : users) {
    u.arrival_rate = 5.0;
    u.service_rate = 1.0;
    u.offload_latency = 0.0;
    u.energy_local = 3.0;
    u.energy_offload = 0.0;
  }
  // V(0) = mean(a)/c = 5/2 > 1.
  EXPECT_THROW(solve_mfne(users, make_constant_delay(0.0), 2.0),
               ContractViolation);
}

TEST(Mfne, RespectsToleranceOption) {
  const auto users = sampled(population::LoadRegime::kBelowService, 500, 12);
  const EdgeDelay delay = make_reciprocal_delay();
  MfneOptions opt;
  opt.tolerance = 1e-4;
  const MfneResult coarse = solve_mfne(users, delay, 10.0, opt);
  opt.tolerance = 1e-12;
  const MfneResult fine = solve_mfne(users, delay, 10.0, opt);
  EXPECT_NEAR(coarse.gamma_star, fine.gamma_star, 2e-4);
  EXPECT_LT(coarse.iterations, fine.iterations);
}

TEST(Mfne, ReportsConvergenceAtNormalTolerances) {
  const auto users = sampled(population::LoadRegime::kAtService, 500, 13);
  const MfneResult r = solve_mfne(users, make_reciprocal_delay(), 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, MfneOptions{}.max_iterations);
}

TEST(Mfne, FlagsNonConvergenceWhenTheIterationGuardCutsOff) {
  // A tolerance far below one ulp of gamma* can never be met: the bracket
  // stops shrinking and the max_iterations guard must end the bisection
  // with converged == false rather than spin forever.
  const auto users = sampled(population::LoadRegime::kAtService, 500, 13);
  MfneOptions opt;
  opt.tolerance = 1e-30;
  opt.max_iterations = 40;
  const MfneResult r = solve_mfne(users, make_reciprocal_delay(), 10.0, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, opt.max_iterations);
  // The midpoint of the last bracket is still a usable estimate.
  EXPECT_GT(r.gamma_star, 0.0);
  EXPECT_LT(r.gamma_star, 1.0);
}

TEST(Mfne, BracketedBisectionMatchesFullSweeps) {
  using population::LoadRegime;
  using Builder = population::ScenarioConfig (*)(LoadRegime, std::size_t);
  const std::pair<const char*, Builder> builders[] = {
      {"theoretical",
       [](LoadRegime r, std::size_t n) {
         return population::theoretical_scenario(r, n);
       }},
      {"comparison",
       [](LoadRegime r, std::size_t n) {
         return population::theoretical_comparison_scenario(r, n);
       }},
      {"practical",
       [](LoadRegime r, std::size_t n) {
         return population::practical_scenario(r, n);
       }},
  };
  // The five delay families; a delay that passes the constructor's
  // ten-point monotonicity spot check but swings between the grid points,
  // so the bracket's g(lo) <= g(mid) <= g(hi) check must send some
  // midpoints to a full sweep; and a delay whose oracle walk at gamma = 1
  // exceeds the supported threshold range, which the bisection never
  // evaluates.
  const std::pair<const char*, EdgeDelay> delays[] = {
      {"reciprocal", make_reciprocal_delay()},
      {"linear", make_linear_delay(0.5, 4.0)},
      {"power", make_power_delay(8.0, 2.0)},
      {"constant", make_constant_delay(1.0)},
      {"erlang_c", make_erlang_c_delay(4, 2.5)},
      {"swinging", EdgeDelay(
                       [](double g) {
                         return 1.0 / (1.1 - g) +
                                0.8 * std::sin(20.0 * std::numbers::pi * g);
                       },
                       "swinging")},
      {"steep_at_one", make_power_delay(1e9, 60.0)},
  };
  const LoadRegime regimes[] = {LoadRegime::kBelowService,
                                LoadRegime::kAtService,
                                LoadRegime::kAboveService};
  int cases = 0, solved = 0;
  std::size_t rotation = 0;
  for (const auto& [builder_name, builder] : builders) {
    for (const LoadRegime regime : regimes) {
      for (std::size_t d = 0; d < std::size(delays); ++d) {
        for (const std::size_t n : {std::size_t{50}, std::size_t{2000}}) {
          for (const std::uint64_t seed : {1u, 42u}) {
            const population::ScenarioConfig cfg = builder(regime, n);
            const auto users = population::sample_population(cfg, seed).users;
            SCOPED_TRACE(std::string(builder_name) + " " +
                         population::to_string(regime) + " " +
                         delays[d].first + " n=" + std::to_string(n) +
                         " seed=" + std::to_string(seed));
            solved += expect_matches_full_sweeps(users, delays[d].second,
                                                 cfg.capacity);
            ++cases;
          }
        }
      }
      // 20,000 users, one delay family per regime in turn.
      const std::size_t d = rotation++ % std::size(delays);
      const population::ScenarioConfig cfg = builder(regime, 20000);
      const auto users = population::sample_population(cfg, 7).users;
      SCOPED_TRACE(std::string(builder_name) + " " +
                   population::to_string(regime) + " " + delays[d].first +
                   " n=20000");
      solved +=
          expect_matches_full_sweeps(users, delays[d].second, cfg.capacity);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 3 * 3 * (7 * 2 * 2 + 1));
  // Both solvers refuse the 50-user above-service practical draw of seed 42
  // under the two power delays, whose g(0) = 0 lets V(0) reach 1.
  EXPECT_EQ(solved, cases - 2);

  const auto users = sampled(LoadRegime::kAtService, 2000, 3);
  const EdgeDelay delay = make_reciprocal_delay();
  {
    // A tolerance below one ulp of gamma*: the iteration guard ends the
    // bisection after the bracket has stopped shrinking.
    MfneOptions opt;
    opt.tolerance = 1e-30;
    const MfneResult r = solve_mfne(users, delay, 10.0, opt);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, opt.max_iterations);
    expect_same_bits(r, full_sweep_mfne(users, delay, 10.0, opt));
  }
  {
    // Nobody offloads even at gamma = 0: V(0) == 0 and gamma* = 0.
    std::vector<UserParams> never(50);
    for (auto& u : never) {
      u.arrival_rate = 0.05;
      u.service_rate = 5.0;
      u.offload_latency = 1000.0;
      u.energy_local = 0.0;
      u.energy_offload = 1.0;
    }
    const EdgeDelay zero = make_constant_delay(0.0);
    const MfneResult r = solve_mfne(never, zero, 10.0);
    EXPECT_EQ(r.gamma_star, 0.0);
    EXPECT_EQ(r.iterations, 0);
    expect_same_bits(r, full_sweep_mfne(never, zero, 10.0));
  }
  {
    // V(0) >= 1 is refused before any bisection step.
    std::vector<UserParams> heavy(10);
    for (auto& u : heavy) {
      u.arrival_rate = 5.0;
      u.service_rate = 1.0;
      u.energy_local = 3.0;
    }
    const EdgeDelay zero = make_constant_delay(0.0);
    EXPECT_THROW(full_sweep_mfne(heavy, zero, 2.0), ContractViolation);
    try {
      solve_mfne(heavy, zero, 2.0);
      ADD_FAILURE() << "expected V(0) >= 1 to be refused";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("V(0) >= 1"), std::string::npos)
          << e.what();
    }
  }
}

// Each equilibrium solver's answer, pinned by digest: MFNE, DPO and the
// phase-type fixed point on a theoretical and a practical population, and
// the mean-field bisection at its defaults and cut off by its iteration
// guard.  Captured before the four solvers shared one bisection; a refactor
// of the bisection must leave them unmoved.
TEST(Equilibria, KeepTheirBits) {
  using population::LoadRegime;
  const population::Population pops[] = {
      population::sample_population(
          population::theoretical_scenario(LoadRegime::kAtService, 60), 11),
      population::sample_population(
          population::practical_scenario(LoadRegime::kBelowService, 60), 4),
  };
  // MFNE, DPO and phase-type digests, one row per population.
  const std::uint64_t want[][3] = {
      {0xf6e9db8839af639cull, 0x8da2cc52e74bb9c3ull, 0x8dc0e186785f0f8eull},
      {0xc186239e8b5d3e0cull, 0x3a03645c1f564759ull, 0xb821133a806f09adull},
  };
  const queueing::PhaseType erlang = queueing::erlang_phase(2, 1.0);
  for (std::size_t p = 0; p < std::size(pops); ++p) {
    const auto& users = pops[p].users;
    const auto& cfg = pops[p].config;
    SCOPED_TRACE(cfg.name);
    const MfneResult mfne = solve_mfne(users, cfg.delay, cfg.capacity);
    test::BitDigest m;
    m.real(mfne.gamma_star);
    m.real(mfne.best_response_value);
    m.words(mfne.thresholds);
    m.word(static_cast<std::uint64_t>(mfne.iterations));
    m.word(mfne.converged);
    EXPECT_EQ(m.value(), want[p][0]) << "mfne 0x" << std::hex << m.value();

    const baseline::DpoEquilibrium dpo =
        baseline::solve_dpo_equilibrium(users, cfg.delay, cfg.capacity);
    test::BitDigest d;
    d.real(dpo.gamma_star);
    d.reals(dpo.rhos);
    d.real(dpo.average_cost);
    d.word(static_cast<std::uint64_t>(dpo.iterations));
    EXPECT_EQ(d.value(), want[p][1]) << "dpo 0x" << std::hex << d.value();

    const PhaseTypeEquilibrium phase =
        solve_phase_type_equilibrium(users, erlang, cfg.delay, cfg.capacity);
    test::BitDigest h;
    h.real(phase.gamma_star);
    h.words(phase.thresholds);
    h.real(phase.average_cost);
    EXPECT_EQ(h.value(), want[p][2]) << "phase 0x" << std::hex << h.value();
  }

  MeanFieldModel model;
  model.arrival = uniform_inverse_cdf(0.0, 6.0);
  model.service = uniform_inverse_cdf(1.0, 5.0);
  model.latency = uniform_inverse_cdf(0.0, 1.0);
  model.energy_local = uniform_inverse_cdf(0.0, 3.0);
  model.energy_offload = uniform_inverse_cdf(0.0, 1.0);
  model.delay = make_reciprocal_delay();
  const std::pair<MeanFieldEquilibrium, std::uint64_t> mean_field[] = {
      {mean_field_equilibrium(model), 0x3f3de3880ee1c250ull},
      {mean_field_equilibrium(model, 1 << 12, 1e-30, 60),
       0x27b799ee22810e1dull},
  };
  for (const auto& [eq, digest] : mean_field) {
    test::BitDigest f;
    f.real(eq.gamma_star);
    f.word(static_cast<std::uint64_t>(eq.iterations));
    f.word(eq.converged);
    EXPECT_EQ(f.value(), digest) << "mean field 0x" << std::hex << f.value();
  }
}

}  // namespace
}  // namespace mec::core
