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
// run_dtu takes the true utilization gamma_t from a UtilizationSource, the
// analytic Eq.-(6) evaluator (exact for exponential service) or a test's
// wrapper of it.  The same iteration, dtu_update, also runs inside the
// discrete-event simulator on measured utilization (sim::run_closed_loop).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
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

/// Algorithm 1's parameters (DtuOptions, sim::ClosedLoopOptions).
struct DtuParams {
  // Defaults give the paper's ~20-iteration convergence profile (Fig. 5/7).
  // The step decays harmonically (eta0/L), so reaching accuracy epsilon
  // costs O(eta0/epsilon) iterations — pick the pair jointly.
  double eta0 = 0.1;       ///< initial step, 0 < eta0 <= 1
  double epsilon = 0.01;   ///< convergence accuracy, 0 < epsilon < 1
  UpdateGate update_gate;  ///< null => synchronous updates

  /// Throws ContractViolation "<run>: <field> is <value>, expected <range>".
  void check(std::string_view run) const;
};

/// FP tolerance of the 2-cycle test gamma_hat_t == gamma_hat_{t-2}.
inline constexpr double kOscillationTol = 1e-12;

/// Algorithm 1's state; `{.eta = eta0}` is the cold start.
struct DtuState {
  double ghat_prev2 = 1.0;  ///< gamma_hat_{t-2}
  double ghat_prev = 0.0;   ///< gamma_hat_{t-1}
  double eta = 0.0;         ///< step size eta_t
  int counter_l = 1;        ///< L: eta = eta0 / L
};

/// The stop test: |gamma_hat_{t-1} - gamma_hat_{t-2}| <= epsilon.
bool dtu_settled(const DtuState& state, double epsilon);

/// Restarts the step schedule (eta = eta0) from estimate `ghat`, with a
/// gamma_hat_{t-2} sentinel (2) that no clamped estimate reaches, so neither
/// the stop nor the 2-cycle test fires before two fresh updates.
DtuState dtu_restart(double ghat, double eta0);

/// Lines 3-14 of Algorithm 1 at iteration t on the true (or measured)
/// utilization gamma: the signed step, the clamp, the gated Lemma-1 best
/// responses into thresholds[n], eta0/L on a 2-cycle (t >= 2), and the
/// shift.  Returns gamma_hat_t.
double dtu_update(DtuState& state, const DtuParams& params, int t, double gamma,
                  std::span<const UserParams> users, const EdgeDelay& delay,
                  std::span<double> thresholds);

struct DtuOptions : DtuParams {
  int max_iterations = 100000;  ///< hard guard
  std::vector<double> initial_thresholds;  ///< empty => all users start at 0
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
/// parameters that pass DtuParams::check, and initial_thresholds either
/// empty or of matching size with non-negative entries.
DtuResult run_dtu(std::span<const UserParams> users, const EdgeDelay& delay,
                  UtilizationSource& source, const DtuOptions& options = {});

}  // namespace mec::core
