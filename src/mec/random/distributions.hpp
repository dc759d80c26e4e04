// Bounded continuous probability distributions used to model heterogeneity.
//
// The paper draws each user's mean arrival rate A, mean service rate S, mean
// offloading latency T, and per-task energies P_L, P_E from bounded continuous
// distributions.  Distribution is a small closed-for-modification value-type
// hierarchy behind a shared_ptr pimpl so ScenarioConfig stays copyable.
#pragma once

#include <memory>
#include <vector>

#include "mec/random/rng.hpp"

namespace mec::random {

/// Abstract sampling interface for a scalar distribution.
class DistributionModel {
 public:
  virtual ~DistributionModel() = default;
  virtual double sample(Xoshiro256& rng) const = 0;
  virtual double mean() const = 0;
  /// Smallest closed upper bound on the support (support is bounded by model).
  virtual double upper_bound() const = 0;
  /// Largest closed lower bound on the support.
  virtual double lower_bound() const = 0;
};

/// Value-semantic handle to an immutable distribution model.
class Distribution {
 public:
  Distribution() = default;  // empty; sampling from it is a contract violation
  explicit Distribution(std::shared_ptr<const DistributionModel> model);

  double sample(Xoshiro256& rng) const;
  double mean() const;
  double upper_bound() const;
  double lower_bound() const;
  bool valid() const noexcept { return model_ != nullptr; }

 private:
  std::shared_ptr<const DistributionModel> model_;
};

// Each factory names a bad parameter's family, value and range in its
// ContractViolation: "uniform: hi is -1, expected a value >= lo".
/// U(lo, hi). Requires lo <= hi.
Distribution make_uniform(double lo, double hi);

/// Point mass at `value`.
Distribution make_constant(double value);

/// Exponential with given mean, truncated to [0, cap] by rejection.
/// Requires mean > 0 and cap > mean/4 (so acceptance stays reasonable).
Distribution make_truncated_exponential(double mean, double cap);

/// Normal(mu, sigma) truncated to [lo, hi] by rejection. Requires lo < hi and
/// the interval to carry at least ~1e-6 of the mass (checked empirically by
/// capping rejection iterations).
Distribution make_truncated_normal(double mu, double sigma, double lo,
                                   double hi);

/// Lognormal with log-space parameters (mu, sigma), truncated to [0, cap].
Distribution make_truncated_lognormal(double mu, double sigma, double cap);

/// Gamma(shape k, scale theta) truncated to [0, cap]. Requires k > 0,
/// theta > 0. Sampling uses Marsaglia–Tsang.
Distribution make_truncated_gamma(double shape, double scale, double cap);

/// Resamples uniformly from a fixed set of observations (the paper's
/// "sampled from the real-world data we collected").
/// Requires non-empty data with non-negative values.
Distribution make_resampling(std::vector<double> data);

/// Finite mixture: picks component i with probability weights[i] (normalized)
/// and samples from it. Requires equal non-zero sizes and positive total mass.
Distribution make_mixture(std::vector<Distribution> components,
                          std::vector<double> weights);

}  // namespace mec::random
