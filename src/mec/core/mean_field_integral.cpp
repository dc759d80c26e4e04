#include "mec/core/mean_field_integral.hpp"

#include <array>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/core/user.hpp"
#include "mec/queueing/threshold_queue.hpp"

namespace mec::core {

InverseCdf uniform_inverse_cdf(double lo, double hi) {
  MEC_EXPECTS(lo <= hi);
  return [lo, hi](double u) { return lo + (hi - lo) * u; };
}

double halton(std::size_t index, std::size_t dimension) {
  static constexpr std::array<std::size_t, 5> kPrimes = {2, 3, 5, 7, 11};
  MEC_EXPECTS(dimension < kPrimes.size());
  MEC_EXPECTS(index >= 1);
  const std::size_t base = kPrimes[dimension];
  double f = 1.0, r = 0.0;
  std::size_t i = index;
  while (i > 0) {
    f /= static_cast<double>(base);
    r += f * static_cast<double>(i % base);
    i /= base;
  }
  return r;
}

namespace {

void check_model(const MeanFieldModel& model) {
  MEC_EXPECTS_MSG(model.arrival && model.service && model.latency &&
                      model.energy_local && model.energy_offload,
                  "all five marginals must be set");
  MEC_EXPECTS(model.weight > 0.0);
  MEC_EXPECTS(model.capacity > 0.0);
  MEC_EXPECTS(model.delay.valid());
}

}  // namespace

double mean_field_best_response(const MeanFieldModel& model, double gamma,
                                std::size_t points) {
  check_model(model);
  MEC_EXPECTS(points >= 1);
  MEC_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  const double g_value = model.delay(gamma);

  double acc = 0.0;
  for (std::size_t i = 1; i <= points; ++i) {
    UserParams u;
    u.arrival_rate = model.arrival(halton(i, 0));
    u.service_rate = model.service(halton(i, 1));
    u.offload_latency = model.latency(halton(i, 2));
    u.energy_local = model.energy_local(halton(i, 3));
    u.energy_offload = model.energy_offload(halton(i, 4));
    u.weight = model.weight;
    if (u.arrival_rate <= 0.0) continue;  // A > 0 a.s.; skip boundary node
    const auto x = static_cast<double>(best_threshold(u, g_value));
    acc += u.arrival_rate *
           queueing::tro_offload_probability(u.intensity(), x);
  }
  return acc / (static_cast<double>(points) * model.capacity);
}

MeanFieldEquilibrium mean_field_equilibrium(const MeanFieldModel& model,
                                            std::size_t points,
                                            double tolerance,
                                            int max_iterations) {
  check_model(model);
  MEC_EXPECTS(tolerance > 0.0);
  MEC_EXPECTS(max_iterations >= 1);
  const double v0 = mean_field_best_response(model, 0.0, points);
  MEC_EXPECTS_MSG(v0 < 1.0, "V(0) >= 1: capacity too small");
  if (v0 == 0.0) return {.converged = true};  // exact: gamma* = 0

  return bisect_fixed_point(
      [&](double mid) {
        return mean_field_best_response(model, mid, points) > mid;
      },
      tolerance, max_iterations);
}

}  // namespace mec::core
