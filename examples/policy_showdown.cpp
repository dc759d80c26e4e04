// Example: head-to-head comparison of offloading policies on one fleet,
// evaluated in the discrete-event simulator (not just the closed forms):
//
//   * TRO @ DTU      — thresholds tuned by the paper's Algorithm 1,
//   * DPO-opt        — per-user optimal probabilistic offloading,
//   * DPO-1rho       — one shared offloading probability,
//   * local-only     — never offload (where stable),
//   * offload-all    — never process locally.
//
// This is the Table-III story told operationally: every policy is simulated
// under identical seeds and the per-policy cost, delay, energy, and edge
// utilization are reported side by side.
#include <cstdio>
#include <vector>

#include "mec/baseline/dpo.hpp"
#include "mec/core/dtu.hpp"
#include "mec/core/mfne.hpp"
#include "mec/io/table.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

void report(mec::io::TextTable& table, const char* name,
            const mec::sim::SimulationResult& r) {
  using mec::io::TextTable;
  table.add_row(
      {name, TextTable::fmt(r.mean_cost, 3),
       TextTable::fmt(r.mean_queue_length, 2),
       TextTable::fmt(100.0 * r.mean_offload_fraction, 1),
       TextTable::fmt(r.measured_utilization, 3),
       TextTable::fmt(r.device_mean([](const mec::sim::DeviceStats& d) {
         return d.energy_per_task;
       }), 3)});
}

}  // namespace

int main() {
  using namespace mec;

  const auto cfg = population::theoretical_comparison_scenario(
      population::LoadRegime::kAtService, 1000);
  const auto pop = population::sample_population(cfg, 5);
  std::printf("fleet: %s, N=%zu, c=%.0f\n\n", cfg.name.c_str(), pop.size(),
              cfg.capacity);

  // Tune each policy at its own self-consistent operating point.
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  core::AnalyticUtilization source(pop.users, cfg.capacity);
  const core::DtuResult dtu = run_dtu(pop.users, cfg.delay, source, {});
  const baseline::DpoEquilibrium dpo =
      baseline::solve_dpo_equilibrium(pop.users, cfg.delay, cfg.capacity);
  const baseline::CommonRhoResult one_rho =
      baseline::solve_common_rho_dpo(pop.users, cfg.delay, cfg.capacity);

  std::printf("operating points: gamma* = %.3f (DTU), %.3f (DPO-opt), "
              "%.3f (DPO-1rho, rho = %.2f)\n\n",
              mfne.gamma_star, dpo.gamma_star, one_rho.gamma, one_rho.rho);

  // Simulate every policy with the EWMA congestion feedback enabled, so the
  // edge delay each task sees is whatever that policy actually causes.
  sim::SimulationOptions so;
  so.horizon = 300.0;
  so.warmup = 30.0;
  so.seed = 11;
  so.initial_gamma = mfne.gamma_star;
  sim::MecSimulation sim(pop.users, cfg.capacity, cfg.delay, so);

  io::TextTable table("policy showdown (simulated, identical fleets/seeds)");
  table.set_header({"policy", "mean cost", "local queue", "offload %",
                    "edge gamma", "energy/task"});

  report(table, "TRO @ DTU thresholds", sim.run_tro(dtu.thresholds));
  report(table, "DPO-opt (per-user rho)", sim.run_dpo(dpo.rhos));
  const std::vector<double> shared(pop.size(), one_rho.rho);
  report(table, "DPO-1rho (shared rho)", sim.run_dpo(shared));

  // rho = 0 and rho = 1 are the degenerate DPO policies: no draws at all.
  report(table, "local-only",
         sim.run_dpo(std::vector<double>(pop.size(), 0.0)));
  report(table, "offload-all",
         sim.run_dpo(std::vector<double>(pop.size(), 1.0)));

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nReading: the threshold policy wins because it offloads exactly the\n"
      "tasks that would otherwise queue behind a busy CPU; probabilistic\n"
      "policies offload blindly, local-only melts overloaded devices (its\n"
      "cost is dominated by unstable queues), and offload-all pays latency\n"
      "and congestion for work the devices could have absorbed.\n");
  return 0;
}
