// Large-system-limit best response via deterministic quasi-Monte Carlo.
//
// Theorem 1 is a statement about the mean-field expectation
//   V(gamma) = E_{A,S,T,P_L,P_E}[ A * alpha(x*(gamma)) / c ],
// not about any sampled population.  This module evaluates that expectation
// directly with a Halton low-discrepancy sequence pushed through the five
// marginal inverse CDFs (the heterogeneity coordinates are independent by
// assumption), giving a population-free, noise-free approximation of the
// limit.  Tests verify it agrees with the sampled-population V(gamma) to the
// expected O(1/sqrt(N)) statistical error.
#pragma once

#include <cstddef>
#include <functional>

#include "mec/core/edge_delay.hpp"
#include "mec/core/mfne.hpp"

namespace mec::core {

/// Inverse CDF (quantile function) of a scalar marginal: maps u in [0,1)
/// to a sample value.
using InverseCdf = std::function<double(double)>;

/// Inverse CDF of U(lo, hi). Requires lo <= hi.
InverseCdf uniform_inverse_cdf(double lo, double hi);

/// The five independent heterogeneity marginals plus system constants.
struct MeanFieldModel {
  InverseCdf arrival;         ///< A
  InverseCdf service;         ///< S
  InverseCdf latency;         ///< T
  InverseCdf energy_local;    ///< P_L
  InverseCdf energy_offload;  ///< P_E
  double weight = 1.0;        ///< w (common to all users, as in the paper)
  double capacity = 10.0;     ///< c
  EdgeDelay delay;            ///< g(.)
};

/// d-th Halton coordinate (prime bases 2,3,5,7,11) of index i >= 1.
/// Requires 0 <= d < 5.
double halton(std::size_t index, std::size_t dimension);

/// QMC estimate of V(gamma) with `points` Halton nodes.
/// Requires a fully-populated model, points >= 1, 0 <= gamma <= 1.
double mean_field_best_response(const MeanFieldModel& model, double gamma,
                                std::size_t points = 1 << 16);

/// Outcome of the mean-field bisection.
using MeanFieldEquilibrium = FixedPoint;

/// Solves V(gamma) = gamma by bisection on the QMC evaluation.
/// Requires V(0) < 1 (checked), tolerance > 0, max_iterations >= 1.
MeanFieldEquilibrium mean_field_equilibrium(const MeanFieldModel& model,
                                            std::size_t points = 1 << 16,
                                            double tolerance = 1e-8,
                                            int max_iterations = 200);

}  // namespace mec::core
