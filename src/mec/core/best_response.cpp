#include "mec/core/best_response.hpp"

#include "mec/core/cost_model.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/queueing/threshold_queue.hpp"

namespace mec::core {

double user_offload_rate(const UserParams& u, double threshold) {
  return u.arrival_rate *
         queueing::tro_offload_probability(u.intensity(), threshold);
}

BestResponse best_response(std::span<const UserParams> users,
                           const EdgeDelay& delay, double capacity,
                           double gamma) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(capacity > 0.0);
  MEC_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  const double g = delay(gamma);

  BestResponse out;
  out.thresholds.reserve(users.size());
  double acc = 0.0;
  for (const UserParams& u : users) {
    const std::int64_t x = best_threshold(u, g);
    out.thresholds.push_back(x);
    acc += user_offload_rate(u, static_cast<double>(x));
  }
  out.utilization = acc / (static_cast<double>(users.size()) * capacity);
  MEC_ENSURES(out.utilization >= 0.0);
  return out;
}

double utilization_of_thresholds(std::span<const UserParams> users,
                                 std::span<const double> thresholds,
                                 double capacity) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(users.size() == thresholds.size());
  MEC_EXPECTS(capacity > 0.0);
  double acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n)
    acc += user_offload_rate(users[n], thresholds[n]);
  return acc / (static_cast<double>(users.size()) * capacity);
}

double average_cost(std::span<const UserParams> users,
                    std::span<const double> thresholds,
                    const EdgeDelay& delay, double gamma) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(users.size() == thresholds.size());
  const double g = delay(gamma);
  double acc = 0.0;
  for (std::size_t n = 0; n < users.size(); ++n)
    acc += tro_cost(users[n], thresholds[n], g);
  return acc / static_cast<double>(users.size());
}

}  // namespace mec::core
