#include "mec/baseline/dpo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"

namespace mec::baseline {

double dpo_cost(const core::UserParams& u, double rho,
                double edge_delay_value) {
  u.check();
  MEC_EXPECTS(rho >= 0.0 && rho <= 1.0);
  MEC_EXPECTS(edge_delay_value >= 0.0);
  const double lambda = u.arrival_rate * (1.0 - rho);
  if (lambda >= u.service_rate)
    return std::numeric_limits<double>::infinity();
  const double mean_in_system = lambda / (u.service_rate - lambda);
  const double offload_price_per_task =
      u.weight * u.energy_offload + edge_delay_value + u.offload_latency;
  return u.weight * u.energy_local * (1.0 - rho) +
         mean_in_system / u.arrival_rate + offload_price_per_task * rho;
}

double optimal_offload_probability(const core::UserParams& u,
                                   double edge_delay_value) {
  u.check();
  MEC_EXPECTS(edge_delay_value >= 0.0);
  const double k = u.weight * u.energy_offload + edge_delay_value +
                   u.offload_latency;
  const double local_energy_cost = u.weight * u.energy_local;
  if (k <= local_energy_cost) return 1.0;  // offloading dominates outright
  const double s = u.service_rate;
  const double u_star =
      (s - std::sqrt(s / (k - local_energy_cost))) / u.arrival_rate;
  const double u_clamped = std::clamp(u_star, 0.0, 1.0);
  return 1.0 - u_clamped;
}

double grid_search_offload_probability(const core::UserParams& u,
                                       double edge_delay_value, double step) {
  MEC_EXPECTS(step > 0.0 && step < 1.0);
  double best_rho = 1.0;  // rho = 1 always has finite cost
  double best_cost = dpo_cost(u, 1.0, edge_delay_value);
  for (double rho = 0.0; rho < 1.0; rho += step) {
    const double c = dpo_cost(u, rho, edge_delay_value);
    if (c < best_cost) {
      best_cost = c;
      best_rho = rho;
    }
  }
  return best_rho;
}

double dpo_utilization(std::span<const core::UserParams> users,
                       std::span<const double> rhos, double capacity) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(users.size() == rhos.size());
  MEC_EXPECTS(capacity > 0.0);
  double acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n) {
    MEC_EXPECTS(rhos[n] >= 0.0 && rhos[n] <= 1.0);
    acc += users[n].arrival_rate * rhos[n];
  }
  return acc / (static_cast<double>(users.size()) * capacity);
}

namespace {

/// Best-response utilization at gamma: every user plays rho*(gamma).
double best_response_utilization(std::span<const core::UserParams> users,
                                 const core::EdgeDelay& delay, double capacity,
                                 double gamma, std::vector<double>* rhos_out) {
  const double g = delay(gamma);
  double acc = 0.0;
  if (rhos_out) rhos_out->clear();
  for (const auto& u : users) {
    const double rho = optimal_offload_probability(u, g);
    if (rhos_out) rhos_out->push_back(rho);
    acc += u.arrival_rate * rho;
  }
  return acc / (static_cast<double>(users.size()) * capacity);
}

}  // namespace

DpoEquilibrium solve_dpo_equilibrium(std::span<const core::UserParams> users,
                                     const core::EdgeDelay& delay,
                                     double capacity, double tolerance) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(tolerance > 0.0);

  const double v0 =
      best_response_utilization(users, delay, capacity, 0.0, nullptr);
  MEC_EXPECTS_MSG(v0 < 1.0, "DPO best response at gamma=0 exceeds capacity");

  DpoEquilibrium eq;
  eq.converged = true;  // exact when v0 == 0: gamma* = 0
  if (v0 != 0.0) {
    const core::FixedPoint b = core::bisect_fixed_point(
        [&](double mid) {
          const double v =
              best_response_utilization(users, delay, capacity, mid, nullptr);
          return v > mid;
        },
        tolerance, core::kMaxBisectionIterations);
    eq.gamma_star = b.gamma_star;
    eq.iterations = b.iterations;
    eq.converged = b.converged;
  }

  best_response_utilization(users, delay, capacity, eq.gamma_star, &eq.rhos);
  const double g = delay(eq.gamma_star);
  double cost_acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n)
    cost_acc += dpo_cost(users[n], eq.rhos[n], g);
  eq.average_cost = cost_acc / static_cast<double>(users.size());
  return eq;
}

double delay_only_offload_probability(const core::UserParams& u,
                                      double edge_delay_value) {
  u.check();
  MEC_EXPECTS(edge_delay_value >= 0.0);
  const double k = edge_delay_value + u.offload_latency;
  if (k <= 0.0) return 1.0;  // offloading is delay-free: offload everything
  const double s = u.service_rate;
  const double u_star = (s - std::sqrt(s / k)) / u.arrival_rate;
  return 1.0 - std::clamp(u_star, 0.0, 1.0);
}

CommonRhoResult solve_common_rho_dpo(std::span<const core::UserParams> users,
                                     const core::EdgeDelay& delay,
                                     double capacity, double grid_step) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(grid_step > 0.0 && grid_step < 1.0);

  double mean_arrival = 0.0;
  for (const auto& u : users) mean_arrival += u.arrival_rate;
  mean_arrival /= static_cast<double>(users.size());

  CommonRhoResult best;
  best.average_cost = std::numeric_limits<double>::infinity();
  for (double rho = 0.0; rho <= 1.0 + grid_step / 2.0; rho += grid_step) {
    const double r = std::min(rho, 1.0);
    const double gamma = std::min(1.0, r * mean_arrival / capacity);
    const double g = delay(gamma);
    double cost = 0.0;
    for (const auto& u : users) cost += dpo_cost(u, r, g);
    cost /= static_cast<double>(users.size());
    if (cost < best.average_cost) {
      best.rho = r;
      best.gamma = gamma;
      best.average_cost = cost;
    }
  }
  MEC_ENSURES(std::isfinite(best.average_cost));
  return best;
}

}  // namespace mec::baseline
