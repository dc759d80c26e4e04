#include "mec/core/mfne.hpp"

#include <utility>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"

namespace mec::core {

namespace {

// Every user's Lemma-1 threshold and offload rate at one evaluated gamma,
// and the edge delay value g(gamma) they answer.
struct Sweep {
  double g = 0.0;
  std::vector<std::int64_t> thresholds;
  std::vector<double> rates;
};

// Fills `out` at the edge delay value `out.g` and returns V(gamma).  When
// both bracket ends are swept and g(lo) <= out.g <= g(hi), a user whose
// thresholds agree at the two ends keeps that threshold and rate without
// calling the oracle: its threshold is non-decreasing in g, so it lies
// between the two.  The rates are summed in user order into one
// accumulator, exactly as best_response sums them, so V keeps its bits.
double sweep(std::span<const UserParams> users, double capacity,
             const Sweep* lo, const Sweep* hi, Sweep& out) {
  const bool bracketed =
      lo != nullptr && hi != nullptr && lo->g <= out.g && out.g <= hi->g;
  out.thresholds.resize(users.size());
  out.rates.resize(users.size());
  double acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n) {
    if (bracketed && lo->thresholds[n] == hi->thresholds[n]) {
      out.thresholds[n] = lo->thresholds[n];
      out.rates[n] = lo->rates[n];
    } else {
      out.thresholds[n] = best_threshold(users[n], out.g);
      out.rates[n] = user_offload_rate(
          users[n], static_cast<double>(out.thresholds[n]));
    }
    acc += out.rates[n];
  }
  const double v = acc / (static_cast<double>(users.size()) * capacity);
  MEC_ENSURES(v >= 0.0);
  return v;
}

}  // namespace

FixedPoint bisect_fixed_point(const std::function<bool(double)>& above,
                              double tolerance, int max_iterations) {
  double lo = 0.0, hi = 1.0;
  int iters = 0;
  while (hi - lo > tolerance && iters < max_iterations) {
    const double mid = 0.5 * (lo + hi);
    if (above(mid))
      lo = mid;
    else
      hi = mid;
    ++iters;
  }
  return {0.5 * (lo + hi), iters, hi - lo <= tolerance};
}

MfneResult solve_mfne(std::span<const UserParams> users, const EdgeDelay& delay,
                      double capacity, const MfneOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(options.tolerance > 0.0);

  // The sweep at lo = 0 is the full V(0) sweep; hi = 1 has none until an
  // evaluation moves it, so gamma = 1 is never evaluated.
  Sweep lo_sweep{delay(0.0), {}, {}};
  Sweep hi_sweep, mid_sweep;
  const Sweep* hi_swept = nullptr;
  const double v0 = sweep(users, capacity, nullptr, nullptr, lo_sweep);
  MEC_EXPECTS_MSG(v0 < 1.0,
                  "V(0) >= 1: capacity too small (model requires A_max < c)");
  MfneResult r;
  if (v0 == 0.0) {
    // Degenerate: nobody offloads even at zero edge delay penalty.
    r.gamma_star = 0.0;
    r.best_response_value = 0.0;
    r.thresholds = std::move(lo_sweep.thresholds);
    r.converged = true;  // exact: gamma* = 0
    return r;
  }

  // h(gamma) = V(gamma) - gamma: h(0) = v0 > 0, h(1) = V(1) - 1 < 0.  Each
  // evaluated midpoint's sweep becomes the sweep of the end it moves.
  const FixedPoint b = bisect_fixed_point(
      [&](double mid) {
        mid_sweep.g = delay(mid);
        if (sweep(users, capacity, &lo_sweep, hi_swept, mid_sweep) > mid) {
          std::swap(lo_sweep, mid_sweep);
          return true;
        }
        std::swap(hi_sweep, mid_sweep);
        hi_swept = &hi_sweep;
        return false;
      },
      options.tolerance, options.max_iterations);

  r.gamma_star = b.gamma_star;
  mid_sweep.g = delay(r.gamma_star);
  r.best_response_value =
      sweep(users, capacity, &lo_sweep, hi_swept, mid_sweep);
  r.thresholds = std::move(mid_sweep.thresholds);
  r.iterations = b.iterations;
  r.converged = b.converged;
  MEC_ENSURES(r.gamma_star >= 0.0 && r.gamma_star <= 1.0);
  return r;
}

}  // namespace mec::core
