#include "mec/stats/summary.hpp"

#include <cmath>

#include "mec/common/error.hpp"

namespace mec::stats {

void RunningSummary::add(double value) noexcept {
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningSummary::mean() const {
  MEC_EXPECTS(count_ >= 1);
  return mean_;
}

double RunningSummary::variance() const {
  MEC_EXPECTS(count_ >= 2);
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningSummary::stddev() const { return std::sqrt(variance()); }

double RunningSummary::standard_error() const {
  return stddev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace mec::stats
