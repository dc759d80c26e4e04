#include "mec/random/empirical.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "mec/common/error.hpp"

namespace mec::random {

EmpiricalDataset::EmpiricalDataset(std::vector<double> samples,
                                   std::string name)
    : samples_(std::move(samples)), name_(std::move(name)) {
  MEC_EXPECTS(!samples_.empty());
  MEC_EXPECTS(std::all_of(samples_.begin(), samples_.end(),
                          [](double v) { return v >= 0.0; }));
  std::sort(samples_.begin(), samples_.end());
  const auto n = static_cast<double>(samples_.size());
  mean_ = std::accumulate(samples_.begin(), samples_.end(), 0.0) / n;
  double ss = 0.0;
  for (const double v : samples_) ss += (v - mean_) * (v - mean_);
  variance_ = samples_.size() > 1 ? ss / (n - 1.0) : 0.0;
  min_ = samples_.front();
  max_ = samples_.back();
}

double EmpiricalDataset::quantile(double q) const {
  MEC_EXPECTS(q >= 0.0 && q <= 1.0);
  if (samples_.size() == 1) return samples_.front();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - std::floor(pos);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double EmpiricalDataset::resample(Xoshiro256& rng) const {
  return samples_[uniform_index(rng, samples_.size())];
}

Distribution EmpiricalDataset::as_distribution() const {
  return make_resampling(samples_);
}

std::pair<std::vector<double>, std::vector<double>> EmpiricalDataset::histogram(
    std::size_t bins) const {
  MEC_EXPECTS(bins >= 1);
  std::vector<double> edges(bins), mass(bins, 0.0);
  const double width = (max_ - min_) / static_cast<double>(bins);
  for (std::size_t i = 0; i < bins; ++i)
    edges[i] = min_ + static_cast<double>(i) * width;
  if (width <= 0.0) {  // degenerate: all samples equal
    mass[0] = 1.0;
    return {edges, mass};
  }
  for (const double v : samples_) {
    auto idx = static_cast<std::size_t>((v - min_) / width);
    idx = std::min(idx, bins - 1);
    mass[idx] += 1.0 / static_cast<double>(samples_.size());
  }
  return {edges, mass};
}

}  // namespace mec::random
