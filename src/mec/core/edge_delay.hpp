// Edge-server processing delay g(gamma).
//
// The model only requires g : [0,1] -> [0, Gmax] increasing and continuous.
// The paper's evaluation uses g(gamma) = 1/(1.1 - gamma); the ablation benches
// exercise alternative shapes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>

#include "mec/common/error.hpp"

namespace mec::core {

/// Largest server or stage count an Erlang model accepts: each evaluation
/// of one walks O(k) steps.
inline constexpr std::size_t kMaxErlangOrder = 1'000'000;

/// Value-semantic wrapper around an increasing continuous delay function.
class EdgeDelay {
 public:
  EdgeDelay() = default;  // empty; calling it is a contract violation

  /// Requires fn increasing on [0,1] (spot-checked) and non-negative at 0.
  EdgeDelay(std::function<double(double)> fn, std::string description);

  /// Delay at utilization gamma. Requires 0 <= gamma <= 1.
  double operator()(double gamma) const;

  const std::string& description() const noexcept { return description_; }
  bool valid() const noexcept { return static_cast<bool>(fn_); }

 private:
  std::function<double(double)> fn_;
  std::string description_;
};

// Each factory below names a bad parameter's family, value and range in its
// ContractViolation: "linear delay: g0 is -1, expected a value >= 0".

/// The paper's evaluation delay g(gamma) = 1/(margin - gamma).
/// Requires margin > 1 so g is finite and increasing on [0,1].
EdgeDelay make_reciprocal_delay(double margin = 1.1);

/// Linear delay g(gamma) = g0 + slope * gamma. Requires g0 >= 0, slope >= 0.
EdgeDelay make_linear_delay(double g0, double slope);

/// Power-law delay g(gamma) = gmax * gamma^p. Requires gmax >= 0, p > 0.
EdgeDelay make_power_delay(double gmax, double p);

/// Constant delay (degenerate but admissible; useful in tests).
EdgeDelay make_constant_delay(double value);

/// Queueing-theoretic edge delay: the cluster is an M/M/N system with
/// `servers` servers of rate `server_rate`; utilization gamma maps to
/// offered load gamma * N * server_rate and the delay is the Erlang-C mean
/// sojourn time, saturated at `gamma_cap` (< 1) so g stays bounded on [0,1]
/// as the model requires. Requires 1 <= servers <= kMaxErlangOrder,
/// server_rate > 0, 0 < gamma_cap < 1.
EdgeDelay make_erlang_c_delay(std::size_t servers, double server_rate,
                              double gamma_cap = 0.95);

}  // namespace mec::core
