// Mean-Field Nash Equilibrium solver (Theorem 1).
//
// V(gamma) is continuous and non-increasing with V(0) < 1 (because
// A_max < c), so h(gamma) = V(gamma) - gamma is continuous and strictly
// decreasing with h(1) < 0; the unique root gamma* = V(gamma*) is found by
// bisection.  On a finite sampled population V is piecewise constant in
// gamma (thresholds are integers), so the "root" is the unique crossing
// point; bisection still brackets it to any tolerance.
//
// Each bisection step keeps every user's threshold and offload rate at the
// bracket's two ends, and only users whose ends disagree call the Lemma-1
// oracle at the midpoint.  This is exact, not an approximation: the oracle
// walks the same f(m|theta) sequence for any price, so its threshold is
// non-decreasing in the price, and the price a*(g + tau + w*(p_E - p_L)) is
// non-decreasing in g in IEEE arithmetic (each rounding is monotone).  So
// whenever the computed g(lo) <= g(mid) <= g(hi), a user whose two ends
// agree has that threshold at mid too.  The solver checks that condition at
// every step and sweeps every user when it fails (a numerically evaluated
// delay need not be monotone to the last ulp).  gamma = 1 is never
// evaluated: the upper end has no sweep until an evaluation moves it.  The
// rates are summed in user order as best_response sums them, so every
// result bit equals that of a full best_response sweep at every step.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mec/core/best_response.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

/// A fixed point gamma* = V(gamma*) bracketed by bisection.
struct FixedPoint {
  double gamma_star = 0.0;  ///< midpoint of the final bracket
  int iterations = 0;       ///< halvings performed
  /// False when max_iterations cut the bisection off first: a tolerance at
  /// or below one ulp of gamma* stops the bracket shrinking.
  bool converged = false;
};

/// Bisects [0, 1] for the crossing of a non-increasing map V with the
/// identity (Theorem 1; the DPO, phase-type and mean-field solvers).
/// `above(mid)` returns V(mid) > mid.  Halves until the bracket is at most
/// `tolerance` wide or after `max_iterations` halvings.
FixedPoint bisect_fixed_point(const std::function<bool(double)>& above,
                              double tolerance, int max_iterations);

/// The solvers' default guard on halvings (2^-200 is below any tolerance).
inline constexpr int kMaxBisectionIterations = 200;

struct MfneOptions {
  double tolerance = 1e-10;  ///< bisection interval width at termination
  int max_iterations = kMaxBisectionIterations;  ///< bisection guard
};

struct MfneResult {
  double gamma_star = 0.0;                ///< the equilibrium utilization
  double best_response_value = 0.0;       ///< V(gamma_star)
  std::vector<std::int64_t> thresholds;   ///< equilibrium thresholds
  int iterations = 0;                     ///< bisection iterations used
  /// True when the bracket reached `tolerance`; false when the bisection
  /// was cut off by `max_iterations` (e.g. a tolerance below one ulp of
  /// gamma*, where the interval stops shrinking) and gamma_star is only
  /// the midpoint of the last bracket.
  bool converged = false;
};

/// Finds gamma* with |V(gamma*) crossing| bracketed within
/// options.tolerance. Requires valid delay, capacity > 0, non-empty users,
/// and (checked) V(0) < 1.
MfneResult solve_mfne(std::span<const UserParams> users, const EdgeDelay& delay,
                      double capacity, const MfneOptions& options = {});

}  // namespace mec::core
