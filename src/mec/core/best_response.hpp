// Population-level best response V(gamma) — Eq. (9).
//
// Given a (finite but large) population of users and a current edge
// utilization gamma, every user plays its Lemma-1 best threshold; the
// resulting aggregate utilization is
//
//   V(gamma) = (1/N) * sum_n  a_n * alpha_n(x*_n(gamma)) / c
//
// which converges to the mean-field expectation E[A*alpha(x*(gamma))/c] as
// N -> infinity (Strong Law of Large Numbers).  Theorem 1 shows V is
// continuous and non-increasing; the MFNE solver exploits this.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

/// Per-user output of a best-response sweep.
struct BestResponse {
  std::vector<std::int64_t> thresholds;  ///< x*_n(gamma), one per user
  double utilization;                    ///< V(gamma)
};

/// User `u`'s offload rate a * alpha(x) under threshold `x`: its term of
/// the V(gamma) sum before the 1/(N c) scaling.
double user_offload_rate(const UserParams& u, double threshold);

/// Computes every user's Lemma-1 threshold at utilization `gamma` and the
/// resulting aggregate utilization. Requires a valid delay, capacity c > 0,
/// non-empty population, and 0 <= gamma <= 1.
BestResponse best_response(std::span<const UserParams> users,
                           const EdgeDelay& delay, double capacity,
                           double gamma);

/// Aggregate utilization induced by an arbitrary (not necessarily optimal)
/// threshold vector: (1/N) * sum a_n * alpha_n(x_n) / c.  This is Algorithm
/// 1's gamma_{t+1} update (Eq. (6)). Sizes must match; thresholds >= 0.
double utilization_of_thresholds(std::span<const UserParams> users,
                                 std::span<const double> thresholds,
                                 double capacity);

/// Average Eq.-(1) cost across the population when user n plays thresholds[n]
/// and the edge delay value is g(gamma). Sizes must match.
double average_cost(std::span<const UserParams> users,
                    std::span<const double> thresholds,
                    const EdgeDelay& delay, double gamma);

}  // namespace mec::core
