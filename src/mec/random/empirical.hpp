// Empirical datasets: fixed collections of measurements that users of the
// library can resample from, summarize, and bin into histograms.  This is the
// in-library representation of the paper's "real-world data we have collected"
// (Fig. 6): 1000 per-image local processing times and 1000 upload latencies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mec/random/distributions.hpp"
#include "mec/random/rng.hpp"

namespace mec::random {

/// An immutable, named set of non-negative scalar measurements.
class EmpiricalDataset {
 public:
  /// Requires non-empty, all-non-negative samples.
  EmpiricalDataset(std::vector<double> samples, std::string name);

  const std::vector<double>& samples() const noexcept { return samples_; }
  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return samples_.size(); }

  double mean() const noexcept { return mean_; }
  double variance() const noexcept { return variance_; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  /// Empirical q-quantile (linear interpolation). Requires q in [0, 1].
  double quantile(double q) const;

  /// Uniform draw with replacement.
  double resample(Xoshiro256& rng) const;

  /// Distribution view (resampling) for use in scenario configs.
  Distribution as_distribution() const;

  /// Normalized histogram (bin mass sums to 1) over [min, max] with `bins`
  /// equal-width cells; returns (bin_left_edges, mass).  Requires bins >= 1.
  std::pair<std::vector<double>, std::vector<double>> histogram(
      std::size_t bins) const;

 private:
  std::vector<double> samples_;  // kept sorted for quantiles
  std::string name_;
  double mean_ = 0.0, variance_ = 0.0, min_ = 0.0, max_ = 0.0;
};

}  // namespace mec::random
