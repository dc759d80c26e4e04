#include "mec/core/social_optimum.hpp"

#include <algorithm>
#include <cmath>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/queueing/threshold_queue.hpp"

namespace mec::core {

double edge_delay_derivative(const EdgeDelay& delay, double gamma, double h) {
  MEC_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  MEC_EXPECTS(h > 0.0);
  const double lo = std::max(0.0, gamma - h);
  const double hi = std::min(1.0, gamma + h);
  return (delay(hi) - delay(lo)) / (hi - lo);
}

namespace {

/// Consistent evaluation of a threshold vector: the utilization it induces
/// and the average cost at that utilization.
struct Evaluated {
  double gamma;
  double mean_alpha;
  double cost;
};

Evaluated evaluate(std::span<const UserParams> users,
                   std::span<const double> xs, const EdgeDelay& delay,
                   double capacity) {
  Evaluated e{};
  e.gamma = std::min(1.0, utilization_of_thresholds(users, xs, capacity));
  double alpha_acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n)
    alpha_acc += queueing::tro_offload_probability(users[n].intensity(),
                                                   xs[n]);
  e.mean_alpha = alpha_acc / static_cast<double>(users.size());
  e.cost = average_cost(users, xs, delay, e.gamma);
  return e;
}

}  // namespace

SocialOptimum solve_social_optimum(std::span<const UserParams> users,
                                   const EdgeDelay& delay, double capacity,
                                   const SocialOptimumOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(options.damping > 0.0 && options.damping <= 1.0);
  MEC_EXPECTS(options.tolerance > 0.0);
  MEC_EXPECTS(options.max_iterations >= 1);

  // Start from the Nash equilibrium (a feasible, decent initial point).
  const MfneResult nash = solve_mfne(users, delay, capacity);
  std::vector<double> nash_xs(nash.thresholds.begin(), nash.thresholds.end());
  const Evaluated nash_eval = evaluate(users, nash_xs, delay, capacity);

  double gamma = nash_eval.gamma;
  double mean_alpha = nash_eval.mean_alpha;

  SocialOptimum out;
  std::vector<double> xs(users.size(), 0.0);
  for (int it = 1; it <= options.max_iterations; ++it) {
    const double price_base =
        edge_delay_derivative(delay, gamma) * mean_alpha / capacity;
    const double g_value = delay(gamma);
    for (std::size_t n = 0; n < users.size(); ++n) {
      // Congestion-priced edge delay for user n (price scales with a_n).
      const double priced =
          g_value + price_base * users[n].arrival_rate;
      xs[n] = static_cast<double>(best_threshold(users[n], priced));
    }
    const Evaluated e = evaluate(users, xs, delay, capacity);
    const double step = e.gamma - gamma;
    gamma += options.damping * step;
    mean_alpha += options.damping * (e.mean_alpha - mean_alpha);
    out.iterations = it;
    if (std::abs(step) < options.tolerance) {
      out.converged = true;
      break;
    }
  }

  Evaluated final_eval = evaluate(users, xs, delay, capacity);
  // A planner can always fall back to the Nash thresholds; never do worse.
  if (final_eval.cost > nash_eval.cost) {
    xs = nash_xs;
    final_eval = nash_eval;
  }
  out.gamma = final_eval.gamma;
  out.mean_alpha = final_eval.mean_alpha;
  out.congestion_price =
      edge_delay_derivative(delay, out.gamma) * out.mean_alpha / capacity;
  out.average_cost = final_eval.cost;
  out.thresholds.assign(xs.size(), 0);
  for (std::size_t n = 0; n < xs.size(); ++n)
    out.thresholds[n] = static_cast<std::int64_t>(std::llround(xs[n]));
  MEC_ENSURES(out.average_cost <= nash_eval.cost + 1e-12);
  return out;
}

}  // namespace mec::core
