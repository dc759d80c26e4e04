// Lemma 1: the closed-form best-response threshold.
//
// Define f(0|theta) = 0 and f(m|theta) = sum_{i=1..m} (m-i+1) * theta^i for
// m >= 1 (strictly increasing in m for theta > 0).  With the offload price
// beta = a*(g(gamma) + tau + w*(p_E - p_L)), the cost (1) is minimized by the
// integer threshold
//
//   x* = 0                      if beta < f(1|theta)  (including beta <= 0),
//   x* = m                      if f(m|theta) <= beta < f(m+1|theta).
//
// f is evaluated with the exact recurrence
// f(m+1) = f(m) + sum_{i<=m+1} theta^i, stopping as soon as f exceeds beta,
// so there is no overflow for any input in the model's bounded-parameter
// regime.
#pragma once

#include <cstdint>

#include "mec/core/cost_model.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

/// f(m|theta) via the stable recurrence. Requires theta > 0, m >= 0,
/// m <= 10^6 (far beyond any optimal threshold in the bounded model).
double f_recursive(std::int64_t m, double theta);

/// f(m|theta) via the closed form
///   theta * (theta^{m+1} - (m+1)*theta + m) / (1-theta)^2.
/// For |1 - theta| < 1e-3 (including theta == 1) the quotient cancels
/// catastrophically, so the implementation falls back to the exact
/// recurrence there; agreement across the seam is tested. Requires
/// theta > 0, m >= 0, and m <= 10^6 when the fallback band is hit.
double f_closed_form(std::int64_t m, double theta);

/// Best-response integer threshold of Lemma 1 for offload price `beta` and
/// intensity `theta`. Requires theta > 0.
std::int64_t best_threshold_for_price(double beta, double theta);

/// Best-response threshold of user `u` when the edge delay value is
/// g(gamma) = `edge_delay_value` >= 0.
std::int64_t best_threshold(const UserParams& u, double edge_delay_value);

/// Brute-force argmin of the Eq. (1) cost over a fine grid of thresholds
/// in [0, x_max]; used by tests/benches to validate Lemma 1 independently.
double grid_search_threshold(const UserParams& u, double edge_delay_value,
                             double x_max, double step);

}  // namespace mec::core
