#include "mec/core/dtu.hpp"

#include <algorithm>
#include <cmath>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/core/threshold_oracle.hpp"

namespace mec::core {

AnalyticUtilization::AnalyticUtilization(std::span<const UserParams> users,
                                         double capacity)
    : users_(users.begin(), users.end()), capacity_(capacity) {
  MEC_EXPECTS(!users_.empty());
  MEC_EXPECTS(capacity_ > 0.0);
}

double AnalyticUtilization::utilization(std::span<const double> thresholds) {
  return utilization_of_thresholds(users_, thresholds, capacity_);
}

UpdateGate make_bernoulli_gate(double p, std::uint64_t seed) {
  MEC_EXPECTS(p >= 0.0 && p <= 1.0);
  // Stateless splitmix64 hash of (n, t, seed): deterministic, independent
  // across pairs, and insensitive to evaluation order.
  return [p, seed](std::size_t n, int t) {
    std::uint64_t x =
        seed ^ (0x9E3779B97F4A7C15ULL * (n + 1)) ^
        (0xBF58476D1CE4E5B9ULL * static_cast<std::uint64_t>(t + 1));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
  };
}

void DtuParams::check(std::string_view run) const {
  check_option(eta0 > 0.0 && eta0 <= 1.0, run, "eta0", eta0,
               "a value in (0, 1]");
  check_option(epsilon > 0.0 && epsilon < 1.0, run, "epsilon", epsilon,
               "a value in (0, 1)");
}

bool dtu_settled(const DtuState& state, double epsilon) {
  return std::abs(state.ghat_prev - state.ghat_prev2) <= epsilon;
}

DtuState dtu_restart(double ghat, double eta0) {
  return {.ghat_prev2 = 2.0, .ghat_prev = ghat, .eta = eta0};
}

double dtu_update(DtuState& state, const DtuParams& params, int t, double gamma,
                  std::span<const UserParams> users, const EdgeDelay& delay,
                  std::span<double> thresholds) {
  // Line 3: signed fixed step towards the true utilization, clamped to
  // [0, 1] (the paper clamps at 1; the 0 clamp is never active when
  // gamma_t > 0 but protects degenerate inputs).
  double step = 0.0;
  if (gamma > state.ghat_prev)
    step = state.eta;
  else if (gamma < state.ghat_prev)
    step = -state.eta;
  const double ghat = std::clamp(state.ghat_prev + step, 0.0, 1.0);

  // Lines 5-7: every (gated) user best-responds to the broadcast estimate
  // using only its own parameters.
  const double g_value = delay(ghat);
  for (std::size_t n = 0; n < users.size(); ++n) {
    if (params.update_gate && !params.update_gate(n, t)) continue;
    thresholds[n] = static_cast<double>(best_threshold(users[n], g_value));
  }

  // Lines 9-14: shrink the step when the estimate 2-cycles.
  if (t >= 2 && std::abs(ghat - state.ghat_prev2) <= kOscillationTol) {
    ++state.counter_l;
    state.eta = params.eta0 / state.counter_l;
  }
  state.ghat_prev2 = state.ghat_prev;
  state.ghat_prev = ghat;
  return ghat;
}

DtuResult run_dtu(std::span<const UserParams> users, const EdgeDelay& delay,
                  UtilizationSource& source, const DtuOptions& options) {
  MEC_EXPECTS(!users.empty());
  options.check("run_dtu");
  MEC_EXPECTS(options.max_iterations >= 1);
  MEC_EXPECTS(options.initial_thresholds.empty() ||
              options.initial_thresholds.size() == users.size());

  const std::size_t n_users = users.size();
  std::vector<double> thresholds =
      options.initial_thresholds.empty()
          ? std::vector<double>(n_users, 0.0)
          : options.initial_thresholds;
  MEC_EXPECTS(std::all_of(thresholds.begin(), thresholds.end(),
                          [](double x) { return x >= 0.0; }));

  DtuResult result;
  // gamma_1: true utilization of the initial thresholds.
  double gamma = source.utilization(thresholds);
  DtuState state{.eta = options.eta0};

  for (int t = 1; t <= options.max_iterations; ++t) {
    if (dtu_settled(state, options.epsilon)) {
      result.converged = true;
      break;
    }
    const double ghat =
        dtu_update(state, options, t, gamma, users, delay, thresholds);

    // Line 15: next true utilization.
    const double gamma_next = source.utilization(thresholds);

    double mean_x = 0.0;
    for (const double x : thresholds) mean_x += x;
    mean_x /= static_cast<double>(n_users);
    const double realized_cost = average_cost(
        users, thresholds, delay, std::clamp(gamma_next, 0.0, 1.0));
    result.trace.push_back(
        DtuIterate{t, gamma, ghat, state.eta, mean_x, realized_cost});
    gamma = gamma_next;
  }

  result.thresholds = std::move(thresholds);
  result.final_gamma_hat = state.ghat_prev;
  result.final_gamma = gamma;
  result.iterations = static_cast<int>(result.trace.size());
  return result;
}

}  // namespace mec::core
