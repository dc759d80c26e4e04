// Closed-form steady-state analysis of the TRO (Threshold-based Randomized
// Offloading) local queue — Eq. (7)–(8) of the paper.
//
// Under TRO with real threshold x >= 0, a task arriving to a local queue of
// length q joins locally if q < floor(x), joins with probability x - floor(x)
// if q == floor(x), and is offloaded otherwise.  With Poisson(a) arrivals and
// exponential(s) service the queue is a finite birth–death chain on states
// 0..floor(x)+1 with geometric weights theta^i (theta = a/s) and a fractional
// top state.  All quantities here are exact; they are computed by direct
// summation with overflow rescaling, which is numerically stable for every
// theta > 0 including theta == 1 (where the textbook closed forms have 0/0
// cancellation).
#pragma once

namespace mec::queueing {

/// Steady-state metrics of the TRO local queue.
struct TroMetrics {
  double mean_queue_length;     ///< Q(x): stationary mean number in system
  double offload_probability;   ///< alpha(x): fraction of arrivals offloaded
  double p_empty;               ///< pi_0
};

/// Exact metrics for arrival intensity `theta` = a/s and threshold `x`:
/// Q(x) of Eq. (7), alpha(x) of Eq. (8) and pi_0.
/// Requires theta > 0 and 0 <= x <= 1e6.
TroMetrics tro_metrics(double theta, double x);

/// alpha(x) — Eq. (8). Requires theta > 0 and 0 <= x <= 1e6.
double tro_offload_probability(double theta, double x);

}  // namespace mec::queueing
