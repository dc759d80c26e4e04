// Ablation X10: discrete DTU iterates vs the continuous fluid limit.
//
// The smooth best-response dynamic d(gamma)/dt = V(gamma) - gamma is the
// mean-field fluid picture of threshold adaptation; Algorithm 1 is its
// practical, sign-stepped discretization.  This bench overlays the two: both
// approach the same MFNE, the fluid path monotonically, the DTU path with
// the bisection overshoot pattern whose envelope the fluid curve tracks.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/fluid_model.hpp"
#include "mec/core/mfne.hpp"
#include "mec/io/ascii_plot.hpp"
#include "mec/io/csv.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"

namespace {

int run(mec::bench::Context& ctx) {
  using namespace mec;
  const std::size_t n = ctx.smoke() ? 500 : 3000;
  const auto cfg = population::theoretical_scenario(
      population::LoadRegime::kAboveService, n);
  const auto pop = population::sample_population(cfg, 41);
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;

  std::printf("=== Ablation: fluid limit vs DTU iterates ===\n");
  std::printf("population: %s, gamma* = %.4f\n\n", cfg.name.c_str(), star);

  // Discrete algorithm (one iteration ~ one unit of fluid time).
  core::AnalyticUtilization source(pop.users, cfg.capacity);
  core::DtuOptions opt;
  opt.eta0 = 0.1;
  opt.epsilon = 0.005;
  const core::DtuResult dtu = run_dtu(pop.users, cfg.delay, source, opt);

  // Continuous dynamic over the same span.
  core::FluidOptions fopt;
  fopt.gamma0 = 0.0;
  fopt.horizon = static_cast<double>(dtu.iterations);
  fopt.dt = 0.25;
  const auto fluid =
      core::fluid_trajectory(pop.users, cfg.delay, cfg.capacity, fopt);

  std::vector<double> ft, fy, dt_axis, dhat, dstar;
  for (const auto& p : fluid) {
    ft.push_back(p.t);
    fy.push_back(p.y);
  }
  for (const auto& it : dtu.trace) {
    dt_axis.push_back(it.t);
    dhat.push_back(it.gamma_hat);
    dstar.push_back(star);
  }

  io::PlotOptions popt;
  popt.title = "fluid gamma(t) [o] vs DTU gamma_hat_t [*] vs gamma* [-]";
  popt.x_label = "t (iterations / fluid time)";
  popt.y_label = "utilization";
  std::printf("%s\n",
              io::line_plot(
                  std::vector<io::Series>{{"fluid", ft, fy, 'o'},
                                          {"dtu", dt_axis, dhat, '*'},
                                          {"gamma*", dt_axis, dstar, '-'}},
                  popt)
                  .c_str());

  std::printf(
      "fluid endpoint:  %.5f\nDTU endpoint:    %.5f\nMFNE:            %.5f\n",
      fluid.back().y, dtu.final_gamma_hat, star);

  const std::string csv_path = ctx.output_path("ablation_fluid_vs_dtu.csv");
  io::write_csv(csv_path, {"fluid_t", "fluid_gamma"}, {ft, fy});
  std::printf("wrote %s\n", csv_path.c_str());
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"ablation_fluid_vs_dtu",
     "Ablation X10: continuous fluid dynamic vs discrete DTU iterates",
     {},
     run});

}  // namespace
