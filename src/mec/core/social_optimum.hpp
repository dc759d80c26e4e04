// Socially optimal thresholds: the planner's side of the MFNE's price of
// anarchy, W(Nash)/W(planner) (`mec_bench ablation_price_of_anarchy`).
//
// The MFNE is a *Nash* point: each user ignores that offloading one more
// task raises g(gamma) for everyone.  A planner internalizes the externality;
// the first-order condition turns into a per-user Lemma-1 problem with a
// congestion-priced edge delay
//
//     g_tilde_n = g(gamma) + g'(gamma) * a_n * mean_alpha / c,
//
// (differentiate the average cost through gamma = E[A*alpha]/c), solved by
// damped fixed-point iteration on (gamma, mean_alpha).  Because thresholds
// are integers, the result is a first-order planner solution within the
// threshold class; the solver falls back to the Nash thresholds if they ever
// evaluate better, so its cost is never above the equilibrium cost and the
// price of anarchy is >= 1 by construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

struct SocialOptimumOptions {
  double damping = 0.3;       ///< fixed-point damping in (0, 1]
  double tolerance = 1e-6;    ///< stop when |gamma step| falls below this
  int max_iterations = 500;
};

struct SocialOptimum {
  double gamma = 0.0;                    ///< utilization of the planner point
  double mean_alpha = 0.0;               ///< population mean offload prob.
  double congestion_price = 0.0;         ///< g'(gamma) * mean_alpha / c
  std::vector<std::int64_t> thresholds;  ///< planner thresholds
  double average_cost = 0.0;             ///< W at the planner point
  int iterations = 0;
  bool converged = false;
};

/// Numerical derivative of the edge delay (central difference, clipped to
/// [0,1]). Exposed for tests. Requires 0 <= gamma <= 1.
double edge_delay_derivative(const EdgeDelay& delay, double gamma,
                             double h = 1e-6);

/// Solves the congestion-priced fixed point described above.
/// Requires non-empty users, valid delay, capacity > 0.
SocialOptimum solve_social_optimum(std::span<const UserParams> users,
                                   const EdgeDelay& delay, double capacity,
                                   const SocialOptimumOptions& options = {});

}  // namespace mec::core
