// Distributed Probabilistic Offloading (DPO) — the paper's comparison
// baseline (Section IV-C; cf. refs [22], [23], [25] therein).
//
// Each user offloads every incoming task independently with probability rho,
// leaving an M/M/1 local queue with thinned arrival rate a(1-rho).  The
// per-user cost mirrors Eq. (1):
//
//   h(rho) = w*p_L*(1-rho) + L(rho)/a + (w*p_E + g(gamma) + tau)*rho,
//   L(rho) = a(1-rho) / (s - a(1-rho))        (mean number in system),
//
// defined for a(1-rho) < s and +infinity otherwise.  Substituting u = 1-rho,
// h is strictly convex in u with derivative w*p_L - K + s/(s-au)^2
// (K = w*p_E + g + tau), so the optimum has the closed form
//
//   u* = (s - sqrt(s/(K - w*p_L))) / a        if K > w*p_L  (clamped to [0,1])
//   u* = 0  (rho = 1, offload everything)      if K <= w*p_L.
//
// The induced utilization map gamma -> E[A*rho*(gamma)]/c is non-increasing,
// so the DPO game also has a unique equilibrium, found by bisection.
#pragma once

#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::baseline {

/// Cost of user `u` offloading with probability `rho` when the edge delay
/// value is g(gamma). Returns +infinity when the local queue is unstable.
/// Requires 0 <= rho <= 1, edge_delay_value >= 0.
double dpo_cost(const core::UserParams& u, double rho,
                double edge_delay_value);

/// Closed-form cost-minimizing offload probability (see header comment).
double optimal_offload_probability(const core::UserParams& u,
                                   double edge_delay_value);

/// Grid-search argmin over rho in [0,1]; test/validation reference.
double grid_search_offload_probability(const core::UserParams& u,
                                       double edge_delay_value, double step);

/// Aggregate edge utilization when user n offloads with probability rhos[n]:
/// (1/N) * sum a_n * rhos[n] / c. Sizes must match; capacity > 0.
double dpo_utilization(std::span<const core::UserParams> users,
                       std::span<const double> rhos, double capacity);

struct DpoEquilibrium {
  double gamma_star = 0.0;
  std::vector<double> rhos;     ///< equilibrium offload probabilities
  double average_cost = 0.0;    ///< population mean of h(rho*) at gamma_star
  int iterations = 0;           ///< bisection halvings
  /// False when the bisection's iteration guard cut it off before the
  /// bracket reached `tolerance` (a tolerance below one ulp of gamma*).
  bool converged = false;
};

/// Unique fixed point of the DPO best-response utilization map, by bisection.
/// Requires non-empty users, valid delay, capacity > 0.
DpoEquilibrium solve_dpo_equilibrium(std::span<const core::UserParams> users,
                                     const core::EdgeDelay& delay,
                                     double capacity,
                                     double tolerance = 1e-10);

// --- Weaker probabilistic variants (alternative baselines) ----------------
//
// The paper does not publish its DPO implementation; the two variants below
// bracket plausible readings of the probabilistic-offloading literature it
// cites and are reported alongside the per-user-optimal DPO in the Table-III
// harness (see EXPERIMENTS.md).

/// Delay-only best response: rho minimizing queueing delay + offload delay,
/// ignoring the energy terms (delay-centric designs, e.g. refs [22]/[24]).
/// The *evaluated* cost still uses the full Eq.-(1) objective.
double delay_only_offload_probability(const core::UserParams& u,
                                      double edge_delay_value);

struct CommonRhoResult {
  double rho = 0.0;           ///< the single shared offload probability
  double gamma = 0.0;         ///< induced utilization rho*E[A]/c
  double average_cost = 0.0;  ///< population mean of the full Eq.-(1) cost
};

/// Single-parameter probabilistic policy: one offload probability shared by
/// every user, chosen to minimize the population-average cost, with the edge
/// utilization consistently induced by that probability.  Heterogeneity
/// forces a compromise, so this baseline degrades most at light load.
/// Requires non-empty users, valid delay, capacity > 0, 0 < grid_step < 1.
CommonRhoResult solve_common_rho_dpo(std::span<const core::UserParams> users,
                                     const core::EdgeDelay& delay,
                                     double capacity,
                                     double grid_step = 0.002);

}  // namespace mec::baseline
