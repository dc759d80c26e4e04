#include "mec/core/general_service.hpp"

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"

namespace mec::core {

double phase_type_cost(const UserParams& u, const queueing::PhaseType& shape,
                       double x, double edge_delay_value) {
  u.check();
  MEC_EXPECTS(x >= 0.0);
  MEC_EXPECTS(edge_delay_value >= 0.0);
  const queueing::PhaseType service =
      shape.scaled_to_mean(1.0 / u.service_rate);
  const queueing::TroMetrics m =
      queueing::tro_metrics_phase_type(u.arrival_rate, service, x);
  return u.weight * u.energy_local * (1.0 - m.offload_probability) +
         m.mean_queue_length / u.arrival_rate +
         (u.weight * u.energy_offload + edge_delay_value +
          u.offload_latency) *
             m.offload_probability;
}

std::int64_t best_threshold_phase_type(const UserParams& u,
                                       const queueing::PhaseType& shape,
                                       double edge_delay_value,
                                       std::int64_t max_threshold,
                                       int patience) {
  MEC_EXPECTS(max_threshold >= 1 && max_threshold <= 400);
  MEC_EXPECTS(patience >= 1);
  std::int64_t best = 0;
  double best_cost = phase_type_cost(u, shape, 0.0, edge_delay_value);
  int rising = 0;
  for (std::int64_t x = 1; x <= max_threshold; ++x) {
    const double c =
        phase_type_cost(u, shape, static_cast<double>(x), edge_delay_value);
    if (c < best_cost) {
      best_cost = c;
      best = x;
      rising = 0;
    } else if (++rising >= patience) {
      break;
    }
  }
  return best;
}

double phase_type_best_response(std::span<const UserParams> users,
                                const queueing::PhaseType& shape,
                                const EdgeDelay& delay, double capacity,
                                double gamma) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  const double g = delay(gamma);
  double acc = 0.0;
  for (const UserParams& u : users) {
    const std::int64_t x = best_threshold_phase_type(u, shape, g);
    const queueing::PhaseType service =
        shape.scaled_to_mean(1.0 / u.service_rate);
    acc += u.arrival_rate *
           queueing::tro_metrics_phase_type(u.arrival_rate, service,
                                            static_cast<double>(x))
               .offload_probability;
  }
  return acc / (static_cast<double>(users.size()) * capacity);
}

PhaseTypeEquilibrium solve_phase_type_equilibrium(
    std::span<const UserParams> users, const queueing::PhaseType& shape,
    const EdgeDelay& delay, double capacity, double tolerance) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(tolerance > 0.0);

  const double v0 = phase_type_best_response(users, shape, delay, capacity,
                                             0.0);
  MEC_EXPECTS_MSG(v0 < 1.0, "V(0) >= 1: capacity too small");

  PhaseTypeEquilibrium eq;
  eq.converged = true;  // exact when v0 == 0: gamma* = 0
  if (v0 != 0.0) {
    const FixedPoint b = bisect_fixed_point(
        [&](double mid) {
          const double v =
              phase_type_best_response(users, shape, delay, capacity, mid);
          return v > mid;
        },
        tolerance, kMaxBisectionIterations);
    eq.gamma_star = b.gamma_star;
    eq.iterations = b.iterations;
    eq.converged = b.converged;
  }
  const double g = delay(eq.gamma_star);
  double cost = 0.0;
  eq.thresholds.reserve(users.size());
  for (const UserParams& u : users) {
    const std::int64_t x = best_threshold_phase_type(u, shape, g);
    eq.thresholds.push_back(x);
    cost += phase_type_cost(u, shape, static_cast<double>(x), g);
  }
  eq.average_cost = cost / static_cast<double>(users.size());
  return eq;
}

}  // namespace mec::core
