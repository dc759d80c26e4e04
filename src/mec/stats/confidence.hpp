// Confidence intervals for simulation output analysis.
//
// Table III reports the DPO baseline's mean cost with a 98% confidence
// interval over 5000 repetitions; this module provides the normal and
// Student-t interval machinery (own quantile implementations — no external
// math library), plus the paired-difference and alpha-spending helpers the
// sequential-stopping engine (parallel/sequential.hpp) builds on.
#pragma once

#include <cstddef>

#include "mec/stats/summary.hpp"

namespace mec::stats {

/// A symmetric two-sided confidence interval: mean +/- half_width.
/// A NaN half_width marks an interval that cannot be estimated (R = 1);
/// contains() is then false for every value.
struct ConfidenceInterval {
  double mean;
  double half_width;
  double confidence;  ///< e.g. 0.98

  double lower() const noexcept { return mean - half_width; }
  double upper() const noexcept { return mean + half_width; }
  bool contains(double v) const noexcept {
    return v >= lower() && v <= upper();
  }
};

/// Standard normal quantile Phi^{-1}(p) (Acklam's rational approximation
/// plus one Halley refinement, |relative error| < 1.2e-9; the refinement is
/// skipped at tails extreme enough to overflow exp(x^2/2), where the
/// rational approximation alone is returned). Requires 0 < p < 1.
double normal_quantile(double p);

/// Student-t quantile with `dof` degrees of freedom.  Exact closed forms at
/// dof = 1 (Cauchy) and dof = 2, incomplete-beta CDF inversion (Newton with
/// a bisection safeguard) for dof <= 30, and a Cornish–Fisher expansion
/// around the normal quantile above (where it is accurate to ~1e-5).
/// Relative error < 1e-6 for dof <= 30 at the usual interval levels.
/// Requires dof >= 1, 0 < p < 1.
double student_t_quantile(double p, std::size_t dof);

/// Two-sided CI for the mean of i.i.d. replications; uses Student-t for
/// n < 100 and the normal quantile otherwise. Requires n >= 2 and
/// 0 < confidence < 1.
ConfidenceInterval mean_confidence_interval(const RunningSummary& summary,
                                            double confidence);

/// Geometric alpha-spending schedule for repeatedly-inspected tests: look k
/// (1-indexed) of a sequential procedure may spend alpha * 2^{-k}, so the
/// total type-I error over any number of looks is bounded by alpha
/// (sum_k alpha 2^{-k} <= alpha).  Requires 0 < alpha < 1 and look >= 1.
double alpha_spending_level(double alpha, std::size_t look);

/// Student-t quantile at the spending-adjusted per-look level: the quantile
/// for a two-sided interval at overall error rate alpha = 1 - confidence
/// inspected at look k.  Wider than the fixed-sample quantile, so repeated
/// interim analyses keep the family-wise error below alpha.
/// Requires dof >= 1, 0 < confidence < 1, look >= 1.
double spending_adjusted_quantile(double confidence, std::size_t look,
                                  std::size_t dof);

}  // namespace mec::stats
