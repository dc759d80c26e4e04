// Reproduces Table III: average per-user cost of the DTU threshold policy
// versus Distributed Probabilistic Offloading (DPO), under both setting
// families:
//   * theoretical: S ~ U(1,5), T ~ U(0,5), A ~ U(0, a_max) for a_max = 4/6/8;
//   * practical:  S, T resampled from the measured datasets, E[A] = 8 /
//     8.9437 / 10.
//
// The paper's exact DPO implementation is unpublished, so three readings of
// the probabilistic-offloading literature are reported (see EXPERIMENTS.md):
//   DPO-opt    per-user cost-optimal probability at its own equilibrium —
//              the strongest probabilistic baseline (lower bound on the gap);
//   DPO-delay  per-user delay-only probability (energy-blind designs);
//   DPO-1rho   a single shared probability minimizing the population mean
//              cost — the single-knob policy (upper bound on the gap).
// The paper's reported reductions (30.8/23.3/15.1% theoretical, decreasing
// with load) fall between DPO-opt and DPO-1rho; DPO-1rho reproduces the
// decreasing-in-load trend.
//
// Protocol mirrors the paper where specified: the primary DPO-opt mean cost
// carries a 98% confidence interval over 5*10^3 independent repetitions
// (population redraws, each solved to its own equilibrium); DTU and the
// variant baselines are averaged over 50 redraws.
//
// --sequential replaces the brute-force budget with the run-until-confident
// engine: per cell, DTU and DPO-opt are evaluated on *common* population
// redraws (CRN pairs), and replication waves stop as soon as the
// spending-adjusted paired-t interval on the cost gap excludes zero.  The
// verdict matches the fixed-R protocol on every decisive cell while
// spending a small fraction of the replications; the table reports
// replications-spent-per-cell next to the verdict, and --csv dumps them.
// --smoke shrinks the population/budget for the CI gate, which asserts that
// at least one decisive cell stopped early.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "mec/baseline/dpo.hpp"
#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/mfne.hpp"
#include "mec/io/csv.hpp"
#include "mec/io/table.hpp"
#include "mec/parallel/sequential.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/stats/confidence.hpp"
#include "mec/stats/summary.hpp"

namespace {

struct RowResult {
  double dtu_cost;
  mec::stats::ConfidenceInterval dpo_ci;  // per-user-optimal DPO
  double dpo_delay_only;
  double dpo_common_rho;
};

RowResult evaluate(const mec::population::ScenarioConfig& cfg,
                   int dpo_repetitions, int small_repetitions,
                   mec::parallel::ThreadPool& pool) {
  using namespace mec;

  stats::RunningSummary dtu_costs, delay_only_costs, common_costs;
  for (int rep = 1; rep <= small_repetitions; ++rep) {
    const auto pop =
        population::sample_population(cfg, static_cast<std::uint64_t>(rep));

    const core::MfneResult mfne =
        core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
    std::vector<double> xs(mfne.thresholds.begin(), mfne.thresholds.end());
    dtu_costs.add(
        core::average_cost(pop.users, xs, cfg.delay, mfne.gamma_star));

    // Delay-only DPO at its own consistent utilization: 50 halvings (a
    // zero tolerance never ends the bisection first).
    {
      const auto above = [&](double mid) {
        const double g = cfg.delay(mid);
        double acc = 0.0;
        for (const auto& u : pop.users)
          acc += u.arrival_rate *
                 baseline::delay_only_offload_probability(u, g);
        return acc / (static_cast<double>(pop.size()) * cfg.capacity) > mid;
      };
      const double gamma = core::bisect_fixed_point(above, 0.0, 50).gamma_star;
      const double g = cfg.delay(gamma);
      double cost = 0.0;
      for (const auto& u : pop.users)
        cost += baseline::dpo_cost(
            u, baseline::delay_only_offload_probability(u, g), g);
      delay_only_costs.add(cost / static_cast<double>(pop.size()));
    }

    common_costs.add(
        baseline::solve_common_rho_dpo(pop.users, cfg.delay, cfg.capacity)
            .average_cost);
  }

  // The 5*10^3 DPO repetitions are independent population redraws, so they
  // parallelize over the pool; each repetition writes its own slot and the
  // slots merge serially in repetition order, keeping the summary (and its
  // CI) bit-identical for any thread count.
  std::vector<double> dpo_slots(static_cast<std::size_t>(dpo_repetitions));
  pool.parallel_for_each(
      dpo_slots.size(),
      [&](std::size_t i) {
        const auto pop = population::sample_population(
            cfg, 0x5eed0000ULL + static_cast<std::uint64_t>(i) + 1);
        dpo_slots[i] = baseline::solve_dpo_equilibrium(pop.users, cfg.delay,
                                                       cfg.capacity, 1e-8)
                           .average_cost;
      },
      /*grain=*/16);
  stats::RunningSummary dpo_costs;
  for (const double cost : dpo_slots) dpo_costs.add(cost);

  return RowResult{dtu_costs.mean(),
                   stats::mean_confidence_interval(dpo_costs, 0.98),
                   delay_only_costs.mean(), common_costs.mean()};
}

std::string pct(double baseline_cost, double dtu_cost) {
  return mec::io::TextTable::fmt(
             (baseline_cost - dtu_cost) / dtu_cost * 100.0, 1) +
         "%";
}

/// Sequential mode: paired DTU-vs-DPO-opt comparison on common population
/// redraws.  Replication r draws the population from the golden-ratio seed,
/// solves the MFNE (DTU arm) and the per-user-optimal DPO equilibrium (DPO
/// arm) on that same draw, and the engine stops the cell once the
/// spending-adjusted paired-t interval on the cost gap excludes zero.
mec::parallel::CompareResult compare_cell(
    const mec::population::ScenarioConfig& cfg, std::size_t budget,
    mec::parallel::ThreadPool& pool) {
  using namespace mec;
  parallel::CompareOptions co;
  co.confidence = 0.98;  // the paper's interval level
  co.min_replications = 8;
  co.wave = 16;
  co.max_replications = budget;
  const auto evaluate = [&cfg](std::size_t /*r*/,
                               std::uint64_t seed) -> parallel::PairedSample {
    const auto pop = population::sample_population(cfg, seed);
    const core::MfneResult mfne =
        core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
    const std::vector<double> xs(mfne.thresholds.begin(),
                                 mfne.thresholds.end());
    const double dtu =
        core::average_cost(pop.users, xs, cfg.delay, mfne.gamma_star);
    const double dpo = baseline::solve_dpo_equilibrium(pop.users, cfg.delay,
                                                       cfg.capacity, 1e-8)
                           .average_cost;
    return parallel::PairedSample{dtu, dpo};
  };
  return parallel::compare_sequential(evaluate, co, &pool);
}

const char* verdict_text(const mec::parallel::CompareResult& r) {
  switch (r.verdict) {
    case mec::parallel::Verdict::kFirstLower: return "DTU cheaper";
    case mec::parallel::Verdict::kSecondLower: return "DPO cheaper";
    case mec::parallel::Verdict::kUndecided: return "undecided";
  }
  return "?";
}

int run(mec::bench::Context& ctx) {
  using namespace mec;
  const bool sequential = ctx.get_bool("sequential");
  const bool smoke = ctx.smoke();
  // 5000 repetitions as in the paper; --replications trims it for smoke
  // runs (>= 2 so the 98% CI over the repetitions stays well defined).  In
  // sequential mode the same number is the per-cell budget cap, i.e. the
  // fixed-R protocol this run races against.
  const long reps_flag = ctx.get_long("replications");
  const int kDpoReps =
      reps_flag > 0 ? static_cast<int>(reps_flag) : (smoke ? 200 : 5000);
  MEC_EXPECTS_MSG(kDpoReps >= 2,
                  "--replications must be >= 2 for the DPO confidence "
                  "interval");
  constexpr int kSmallReps = 50;
  const long n_flag = ctx.get_long("n");
  const auto n_users = static_cast<std::size_t>(
      n_flag > 0 ? n_flag : (smoke ? 200 : 0));
  parallel::ThreadPool pool(
      static_cast<std::size_t>(ctx.get_long("threads")));

  const struct {
    const char* family;
    bool practical;
    population::LoadRegime regime;
    const char* paper;
  } rows[] = {
      {"theoretical", false, population::LoadRegime::kBelowService, "30.76%"},
      {"theoretical", false, population::LoadRegime::kAtService, "23.26%"},
      {"theoretical", false, population::LoadRegime::kAboveService, "15.14%"},
      {"practical", true, population::LoadRegime::kBelowService, "20.07%"},
      {"practical", true, population::LoadRegime::kAtService, "18.50%"},
      {"practical", true, population::LoadRegime::kAboveService, "17.51%"},
  };

  const auto scenario_of = [&](const auto& row) {
    if (row.practical)
      return n_users ? population::practical_scenario(row.regime, n_users)
                     : population::practical_scenario(row.regime);
    return n_users
               ? population::theoretical_comparison_scenario(row.regime,
                                                             n_users)
               : population::theoretical_comparison_scenario(row.regime);
  };

  if (sequential) {
    // The smoke gate only needs the theoretical family: its gaps are the
    // decisive ones the early-stopping claim is about, and the cut keeps
    // the CI wall-clock small.
    const std::size_t n_rows = smoke ? 3 : 6;
    io::TextTable table(
        "TABLE III (sequential): paired DTU vs DPO-opt, run-until-confident");
    table.set_header({"Family", "System Setup", "DTU", "DPO-opt",
                      "gap (98% CI)", "verdict", "reps", "budget", "spent"});
    std::vector<double> c_cell, c_practical, c_regime, c_reps, c_budget,
        c_decided, c_lo, c_hi;
    bool any_early_decision = false;
    for (std::size_t i = 0; i < n_rows; ++i) {
      const auto& row = rows[i];
      const auto cfg = scenario_of(row);
      const parallel::CompareResult r =
          compare_cell(cfg, static_cast<std::size_t>(kDpoReps), pool);
      const double spent_pct = 100.0 * static_cast<double>(r.replications) /
                               static_cast<double>(kDpoReps);
      any_early_decision = any_early_decision ||
                           (r.decided() &&
                            r.replications < static_cast<std::size_t>(
                                                 kDpoReps));
      table.add_row(
          {row.family, population::to_string(row.regime),
           io::TextTable::fmt(r.mean_a, 2), io::TextTable::fmt(r.mean_b, 2),
           io::TextTable::fmt(r.difference.lower(), 3) + " .. " +
               io::TextTable::fmt(r.difference.upper(), 3),
           verdict_text(r), std::to_string(r.replications),
           std::to_string(kDpoReps), io::TextTable::fmt(spent_pct, 1) + "%"});
      c_cell.push_back(static_cast<double>(i));
      c_practical.push_back(row.practical ? 1.0 : 0.0);
      c_regime.push_back(static_cast<double>(row.regime));
      c_reps.push_back(static_cast<double>(r.replications));
      c_budget.push_back(static_cast<double>(kDpoReps));
      c_decided.push_back(r.decided() ? 1.0 : 0.0);
      c_lo.push_back(r.difference.lower());
      c_hi.push_back(r.difference.upper());
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf(
        "gap = DTU - DPO-opt per common population redraw; a cell stops as\n"
        "soon as the spending-adjusted paired-t interval excludes zero, so\n"
        "'reps' is what the verdict actually cost (vs the fixed-R budget).\n");
    if (ctx.has("csv") || smoke) {
      // The runner rejects a bare --csv outright, so a present flag always
      // carries a real filename; smoke falls back to the default name.
      std::string name = ctx.get_path("csv");
      if (name.empty()) name = "table3_sequential_spent.csv";
      const std::string path = ctx.output_path(name);
      io::write_csv(path,
                    {"cell", "practical", "regime", "replications_spent",
                     "budget", "decided", "gap_ci_lower", "gap_ci_upper"},
                    {c_cell, c_practical, c_regime, c_reps, c_budget,
                     c_decided, c_lo, c_hi});
      std::printf("per-cell replications-spent written to %s\n", path.c_str());
    }
    if (smoke && !any_early_decision)
      throw std::runtime_error(
          "smoke FAIL: no cell reached a verdict below the fixed-R budget "
          "of " +
          std::to_string(kDpoReps) + " replications");
    return 0;
  }

  io::TextTable table("TABLE III: DTU Algorithm vs DPO Policy variants");
  table.set_header({"Family", "System Setup", "DTU", "DPO-opt (98% CI)",
                    "red.", "DPO-delay", "red.", "DPO-1rho", "red.",
                    "Paper red."});

  for (const auto& row : rows) {
    const auto cfg = scenario_of(row);
    const RowResult r = evaluate(cfg, kDpoReps, kSmallReps, pool);
    table.add_row(
        {row.family, population::to_string(row.regime),
         io::TextTable::fmt(r.dtu_cost, 2),
         io::TextTable::fmt(r.dpo_ci.mean, 2) + " +/- " +
             io::TextTable::fmt(r.dpo_ci.half_width, 4),
         pct(r.dpo_ci.mean, r.dtu_cost),
         io::TextTable::fmt(r.dpo_delay_only, 2),
         pct(r.dpo_delay_only, r.dtu_cost),
         io::TextTable::fmt(r.dpo_common_rho, 2),
         pct(r.dpo_common_rho, r.dtu_cost), row.paper});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape checks vs the paper: DTU beats every probabilistic variant in\n"
      "every row; the paper's reported reductions fall between the strongest\n"
      "(DPO-opt) and weakest (DPO-1rho) variants, and DPO-1rho reproduces\n"
      "the paper's decreasing-reduction-with-load trend.  'red.' columns are\n"
      "(DPO - DTU)/DTU, the paper's convention (e.g. (3.04-2.33)/2.33 =\n"
      "30.76%%).\n");
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"table3_dtu_vs_dpo",
     "Table III: DTU vs DPO baselines, fixed-R or sequential stopping",
     {{"replications", mec::bench::FlagKind::kLong, "0",
       "DPO repetition budget (0 = 200 smoke / 5000 full)"},
      {"threads", mec::bench::FlagKind::kLong, "0",
       "worker threads (0 = hardware)"},
      {"sequential", mec::bench::FlagKind::kBool, "false",
       "paired run-until-confident protocol instead of fixed-R"},
      {"n", mec::bench::FlagKind::kLong, "0",
       "population size override (0 = scenario default / 200 smoke)"},
      {"csv", mec::bench::FlagKind::kPath, "",
       "sequential mode: replications-spent CSV filename"}},
     run});

}  // namespace
