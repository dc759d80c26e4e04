// Ablation X6: how much does the exponential-service assumption matter?
//
// Theorem 1/2 assume exponential local service; the paper argues by
// simulation that the conclusions persist for general laws.  Using the exact
// phase-type threshold-queue solver, this bench quantifies the claim
// analytically across service variability (SCV from 1/8 to 8):
//   * the equilibrium utilization under model-aware thresholds,
//   * the cost penalty of *model mismatch* — devices applying the
//     exponential Lemma-1 oracle (only their mean rate, as the paper's
//     practical DTU does) when the true service law is not exponential.
#include <cstdio>
#include <vector>

#include "bench/runner.hpp"
#include "mec/core/general_service.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/io/table.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"

namespace {

int run(mec::bench::Context& ctx) {
  using namespace mec;
  const std::size_t n = ctx.smoke() ? 100 : 300;  // CTMC solves are O(n^3)
  const auto cfg = population::theoretical_scenario(
      population::LoadRegime::kAtService, n);
  const auto pop = population::sample_population(cfg, 23);

  const std::vector<std::pair<const char*, queueing::PhaseType>> all_laws = {
      {"Erlang-8  (SCV 0.125)", queueing::erlang_phase(8, 1.0)},
      {"Erlang-4  (SCV 0.25)", queueing::erlang_phase(4, 1.0)},
      {"Erlang-2  (SCV 0.5)", queueing::erlang_phase(2, 1.0)},
      {"exponential (SCV 1)", queueing::exponential_phase(1.0)},
      {"H2 (SCV 2)", queueing::hyperexponential_from_scv(1.0, 2.0)},
      {"H2 (SCV 4)", queueing::hyperexponential_from_scv(1.0, 4.0)},
      {"H2 (SCV 8)", queueing::hyperexponential_from_scv(1.0, 8.0)},
  };
  const std::vector<std::pair<const char*, queueing::PhaseType>> laws =
      ctx.smoke() ? std::vector<std::pair<const char*, queueing::PhaseType>>{
                        all_laws[1], all_laws[3], all_laws[5]}
                  : all_laws;

  std::printf(
      "=== Ablation: service-time distribution (exact phase-type) ===\n");
  std::printf("population: %zu users of %s\n\n", pop.size(),
              cfg.name.c_str());

  // Reference: the exponential-theory equilibrium and its thresholds.
  const core::MfneResult exp_eq =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);

  io::TextTable table("equilibrium vs service variability");
  table.set_header({"service law", "gamma* (aware)", "cost (aware)",
                    "cost (exp-oracle)", "mismatch penalty"});
  for (const auto& [label, shape] : laws) {
    const core::PhaseTypeEquilibrium aware = core::solve_phase_type_equilibrium(
        pop.users, shape, cfg.delay, cfg.capacity, 1e-4);

    // Mismatched: exponential Lemma-1 thresholds, true phase-type queue,
    // at the utilization those thresholds actually induce: 25 halvings (a
    // zero tolerance never ends the bisection first).
    const auto above = [&](double mid) {
      const double g = cfg.delay(mid);
      double acc = 0.0;
      for (const auto& u : pop.users) {
        const auto x = static_cast<double>(core::best_threshold(u, g));
        acc += u.arrival_rate *
               queueing::tro_metrics_phase_type(
                   u.arrival_rate, shape.scaled_to_mean(1.0 / u.service_rate),
                   x)
                   .offload_probability;
      }
      return acc / (static_cast<double>(pop.size()) * cfg.capacity) > mid;
    };
    const double gamma_mis =
        core::bisect_fixed_point(above, 0.0, 25).gamma_star;
    const double g_mis = cfg.delay(gamma_mis);
    double cost_mis = 0.0;
    for (const auto& u : pop.users)
      cost_mis += core::phase_type_cost(
          u, shape, static_cast<double>(core::best_threshold(u, g_mis)),
          g_mis);
    cost_mis /= static_cast<double>(pop.size());

    table.add_row(
        {label, io::TextTable::fmt(aware.gamma_star, 4),
         io::TextTable::fmt(aware.average_cost, 4),
         io::TextTable::fmt(cost_mis, 4),
         io::TextTable::fmt(
             100.0 * (cost_mis - aware.average_cost) / aware.average_cost,
             2) +
             "%"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "exponential-theory reference: gamma* = %.4f, cost = %.4f\n\n",
      exp_eq.gamma_star,
      core::average_cost(pop.users,
                         std::vector<double>(exp_eq.thresholds.begin(),
                                             exp_eq.thresholds.end()),
                         cfg.delay, exp_eq.gamma_star));
  std::printf(
      "Reading: burstier service (higher SCV) raises queues, pushing more\n"
      "work to the edge and raising gamma*; yet the *mismatch penalty* of\n"
      "running the exponential oracle stays small, which is exactly why the\n"
      "paper's mean-rate-only practical DTU works on real traces.\n");
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"ablation_service_distribution",
     "Ablation X6: exact phase-type equilibria vs service-law variability",
     {},
     run});

}  // namespace
