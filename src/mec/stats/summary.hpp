// Streaming summary statistics (Welford).
#pragma once

#include <cstddef>

namespace mec::stats {

/// Online mean/variance accumulator (Welford's algorithm); O(1) memory,
/// numerically stable for long simulation runs.
class RunningSummary {
 public:
  void add(double value) noexcept;

  std::size_t count() const noexcept { return count_; }
  /// Requires count() >= 1.
  double mean() const;
  /// Unbiased sample variance. Requires count() >= 2.
  double variance() const;
  /// sqrt(variance). Requires count() >= 2.
  double stddev() const;
  /// stddev / sqrt(n). Requires count() >= 2.
  double standard_error() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace mec::stats
