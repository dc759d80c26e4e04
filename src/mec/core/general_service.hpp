// Best response, cost, and equilibrium when local service is phase-type
// rather than exponential — the analytic companion to the paper's
// "results still hold under general scenarios" simulations (Section IV-B).
//
// Lemma 1's integer-threshold characterization is exponential-specific; here
// the best threshold is found by exact search over integer thresholds using
// the CTMC-solved phase-type queue metrics (the cost remains quasi-convex in
// x in all regimes we probe, and the search window is provably sufficient
// because alpha is non-increasing and the offload price is bounded).
//
// Two operating modes matter in practice:
//   * model-aware: devices pick thresholds with the true service law;
//   * model-mismatched: devices apply the exponential Lemma-1 oracle with
//     only their mean service rate (what the paper's practical DTU does).
// The ablation bench quantifies the cost of the mismatch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/queueing/phase_type.hpp"

namespace mec::core {

/// Eq.-(1) cost of user `u` under threshold `x` when its local service is
/// `shape` rescaled to mean 1/u.service_rate. Requires x >= 0 and
/// edge_delay_value >= 0.
double phase_type_cost(const UserParams& u, const queueing::PhaseType& shape,
                       double x, double edge_delay_value);

/// Cost-minimizing integer threshold under phase-type service, by exact
/// search with an adaptive stopping rule (stops once the cost has risen for
/// `patience` consecutive integers past the incumbent; the cost's tail is
/// eventually increasing because alpha(x) -> its floor and Q(x) grows).
/// Requires max_threshold in [1, 400].
std::int64_t best_threshold_phase_type(const UserParams& u,
                                       const queueing::PhaseType& shape,
                                       double edge_delay_value,
                                       std::int64_t max_threshold = 200,
                                       int patience = 6);

/// Population best-response utilization under phase-type service (the
/// phase-type analogue of Eq. (9)): every user plays its phase-type best
/// threshold at utilization gamma. Requires matching preconditions of
/// best_response().
double phase_type_best_response(std::span<const UserParams> users,
                                const queueing::PhaseType& shape,
                                const EdgeDelay& delay, double capacity,
                                double gamma);

struct PhaseTypeEquilibrium {
  double gamma_star = 0.0;
  std::vector<std::int64_t> thresholds;
  double average_cost = 0.0;
  int iterations = 0;  ///< bisection halvings
  /// False when the bisection's iteration guard cut it off before the
  /// bracket reached `tolerance` (a tolerance below one ulp of gamma*).
  bool converged = false;
};

/// Fixed point of the phase-type best response (bisect_fixed_point, at most
/// kMaxBisectionIterations halvings; the map is non-increasing in gamma by
/// the same monotonicity argument as Theorem 1).
PhaseTypeEquilibrium solve_phase_type_equilibrium(
    std::span<const UserParams> users, const queueing::PhaseType& shape,
    const EdgeDelay& delay, double capacity, double tolerance = 1e-6);

}  // namespace mec::core
