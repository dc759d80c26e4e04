// Reproduces Fig. 7 (a-c): convergence of the DTU Algorithm under the
// practical settings — measured (synthetic) service-rate and latency
// datasets and *asynchronous* threshold updates (each user updates with
// probability 0.8 per iteration), converging to the Table-II equilibria
// within ~20 iterations.
//
// A final block cross-checks the converged thresholds in the discrete-event
// simulator with the *empirical* (non-exponential) service distribution,
// over --replications independent runs spread over --threads workers; the
// aggregated mean +/- CI is bit-identical for any thread count (see
// mec/parallel/replication.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/mfne.hpp"
#include "mec/io/ascii_plot.hpp"
#include "mec/io/csv.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

void run_regime(mec::bench::Context& ctx, mec::population::LoadRegime regime,
                char tag, double paper_star,
                const mec::parallel::ReplicationOptions& ro,
                mec::parallel::ThreadPool& pool,
                const std::string& stream_log = "") {
  using namespace mec;
  const std::size_t n = ctx.smoke() ? 200 : 1000;
  const population::ScenarioConfig cfg =
      population::practical_scenario(regime, n);
  const auto pop = population::sample_population(cfg, 21);

  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);

  core::AnalyticUtilization source(pop.users, cfg.capacity);
  core::DtuOptions opt;
  opt.update_gate = core::make_bernoulli_gate(0.8, /*seed=*/3);  // async
  const core::DtuResult dtu = run_dtu(pop.users, cfg.delay, source, opt);

  std::printf("--- Fig. 7%c: %s ---\n", tag,
              population::to_string(regime).c_str());
  std::printf("MFNE gamma* = %.4f (paper: %.2f);  async DTU converged in %d "
              "iterations to gamma_hat = %.4f\n",
              mfne.gamma_star, paper_star, dtu.iterations,
              dtu.final_gamma_hat);

  std::vector<double> t, gamma, gamma_hat, star;
  for (const core::DtuIterate& it : dtu.trace) {
    t.push_back(it.t);
    gamma.push_back(it.gamma);
    gamma_hat.push_back(it.gamma_hat);
    star.push_back(mfne.gamma_star);
  }
  io::PlotOptions popt;
  popt.title = "gamma_t (o), gamma_hat_t (*), gamma* (-)";
  popt.x_label = "iteration t";
  popt.y_label = "utilization";
  std::printf("%s\n",
              io::line_plot(
                  std::vector<io::Series>{{"gamma_t", t, gamma, 'o'},
                                          {"gamma_hat_t", t, gamma_hat, '*'},
                                          {"gamma*", t, star, '-'}},
                  popt)
                  .c_str());

  // Replicated DES validation with the non-exponential measured service
  // distribution; replication r runs with seed_r = seed + golden * (r+1).
  sim::SimulationOptions so;
  so.service = {.kind = sim::SamplerSpec::Kind::kEmpirical,
                .data = random::synthetic_yolo_processing_times().samples()};
  so.latency = {.kind = sim::SamplerSpec::Kind::kEmpirical,
                .data = random::synthetic_wifi_offload_latencies().samples()};
  so.fixed_gamma = mfne.gamma_star;
  so.horizon = ctx.smoke() ? 40.0 : 150.0;
  so.warmup = ctx.smoke() ? 5.0 : 15.0;
  so.seed = 42;
  const parallel::ReplicationResult r = parallel::run_replications(
      pop.users, cfg.capacity, cfg.delay, so, dtu.thresholds, ro, &pool);
  std::printf(
      "DES check (empirical service/latency, %zu replications): "
      "measured gamma = %.4f +/- %.4f, mean cost = %.3f +/- %.3f\n\n",
      r.replications, r.measured_utilization.mean(),
      r.measured_utilization.ci.half_width, r.mean_cost.mean(),
      r.mean_cost.ci.half_width);

  const std::string csv =
      ctx.output_path(std::string("fig7") + tag + "_dtu_practical.csv");
  io::write_csv(csv, {"t", "gamma", "gamma_hat", "gamma_star"},
                {t, gamma, gamma_hat, star});
  std::printf("wrote %s (%zu rows)\n", csv.c_str(), t.size());

  if (!stream_log.empty()) {
    // Replications cannot share one log, so stream a single representative
    // run of the converged thresholds (same options, base seed).
    sim::SimulationOptions streamed = so;
    streamed.stream_log = stream_log;
    streamed.sample_interval = 1.0;
    streamed.record_timeline = false;
    sim::MecSimulation des_one(pop.users, cfg.capacity, cfg.delay, streamed);
    (void)des_one.run_tro(dtu.thresholds);
    std::printf("telemetry stream written to %s\n\n", stream_log.c_str());
  }
}

int run(mec::bench::Context& ctx) {
  using namespace mec;
  parallel::ReplicationOptions ro;
  ro.replications =
      static_cast<std::size_t>(ctx.get_long("replications"));
  if (ctx.smoke() && !ctx.has("replications")) ro.replications = 2;
  ro.threads = static_cast<std::size_t>(ctx.get_long("threads"));
  ro.confidence = ctx.get_double("confidence");
  parallel::ThreadPool pool(ro.threads);

  std::printf(
      "=== Fig. 7: DTU convergence, practical settings (async p=0.8) ===\n\n");
  run_regime(ctx, population::LoadRegime::kBelowService, 'a', 0.43, ro, pool);
  // The at-service regime is the representative streamed run.
  run_regime(ctx, population::LoadRegime::kAtService, 'b', 0.44, ro, pool,
             ctx.get_path("stream-log"));
  run_regime(ctx, population::LoadRegime::kAboveService, 'c', 0.46, ro, pool);
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"fig7_dtu_practical",
     "Fig. 7: async DTU convergence under the practical settings + DES check",
     {{"replications", mec::bench::FlagKind::kLong, "8",
       "independent DES replications"},
      {"threads", mec::bench::FlagKind::kLong, "0",
       "worker threads (0 = hardware)"},
      {"confidence", mec::bench::FlagKind::kDouble, "0.95", "CI level"},
      {"stream-log", mec::bench::FlagKind::kPath, "",
       "stream the Fig. 7b representative run to this .meclog"}},
     run});

}  // namespace
