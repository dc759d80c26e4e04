// The Distributed Threshold Update (DTU) Algorithm — Algorithm 1.
//
// The edge broadcasts an *estimated* utilization gamma_hat_t that moves by a
// fixed step eta towards the true utilization gamma_t; every user then plays
// its Lemma-1 best response to gamma_hat_t using only its own parameters.
// When gamma_hat oscillates (gamma_hat_t == gamma_hat_{t-2}) the equilibrium
// lies between the two iterates and the step shrinks to eta_0/L with an
// incremented counter L.  Theorem 2: the iterates converge to the unique
// MFNE.
//
// The true utilization gamma_t is obtained from a pluggable
// UtilizationSource: the analytic Eq.-(6) evaluator (exact for exponential
// service) or a discrete-event-simulation-backed measurement (practical
// settings; see mec/sim/mec_simulation.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"

namespace mec::core {

/// Provides the true edge utilization induced by a threshold vector
/// (Algorithm 1, Eq. (6), or a measurement thereof).
class UtilizationSource {
 public:
  virtual ~UtilizationSource() = default;
  /// thresholds[n] is user n's current TRO threshold; returns gamma in [0,1+).
  virtual double utilization(std::span<const double> thresholds) = 0;
};

/// Exact Eq.-(6) utilization under exponential local service.
class AnalyticUtilization final : public UtilizationSource {
 public:
  /// Copies the population. Requires non-empty users and capacity > 0.
  AnalyticUtilization(std::span<const UserParams> users, double capacity);
  double utilization(std::span<const double> thresholds) override;

 private:
  std::vector<UserParams> users_;
  double capacity_;
};

/// Decides whether user `n` participates in the threshold update of
/// iteration `t` (asynchronous updates, Section IV-B). Null gate = always.
using UpdateGate = std::function<bool(std::size_t n, int t)>;

/// Stateless deterministic gate: user n updates in iteration t with
/// probability `p` (hash-based, independent across (n, t) pairs).
/// Requires 0 <= p <= 1.
UpdateGate make_bernoulli_gate(double p, std::uint64_t seed = 0);

struct DtuOptions {
  // Defaults give the paper's ~20-iteration convergence profile (Fig. 5/7).
  // The step decays harmonically (eta0/L), so reaching accuracy epsilon
  // costs O(eta0/epsilon) iterations — pick the pair jointly.
  double eta0 = 0.1;            ///< initial step, 0 < eta0 <= 1
  double epsilon = 0.01;        ///< convergence accuracy, 0 < epsilon < 1
  int max_iterations = 100000;  ///< hard guard
  /// FP tolerance for gamma_hat_t == gamma_hat_{t-2}
  double oscillation_tol = 1e-12;
  std::vector<double> initial_thresholds;  ///< empty => all users start at 0
  UpdateGate update_gate;       ///< null => synchronous updates
};

/// One recorded iteration of the algorithm.
struct DtuIterate {
  int t = 0;
  double gamma = 0.0;        ///< true utilization gamma_t seen at iteration t
  double gamma_hat = 0.0;    ///< broadcast estimate gamma_hat_t
  double eta = 0.0;          ///< step size eta_t (after the line 9-14 update)
  double mean_threshold = 0.0;
  /// Population-average Eq.-(1) cost of the thresholds chosen this
  /// iteration, at the true utilization they induce — the cost users
  /// actually pay while the algorithm is still converging (transient
  /// regret analysis).
  double mean_cost = 0.0;
};

struct DtuResult {
  std::vector<DtuIterate> trace;
  std::vector<double> thresholds;  ///< final per-user thresholds
  double final_gamma_hat = 0.0;
  double final_gamma = 0.0;        ///< true utilization of final thresholds
  bool converged = false;          ///< stop criterion met before max_iterations
  int iterations = 0;
};

/// Runs Algorithm 1 to convergence. Requires non-empty users, a valid delay,
/// 0 < eta0 <= 1, 0 < epsilon < 1, and initial_thresholds either empty or of
/// matching size with non-negative entries.
DtuResult run_dtu(std::span<const UserParams> users, const EdgeDelay& delay,
                  UtilizationSource& source, const DtuOptions& options = {});

}  // namespace mec::core
