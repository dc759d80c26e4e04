#include "mec/random/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "mec/common/error.hpp"

namespace mec::random {

Distribution::Distribution(std::shared_ptr<const DistributionModel> model)
    : model_(std::move(model)) {
  MEC_EXPECTS(model_ != nullptr);
}

double Distribution::sample(Xoshiro256& rng) const {
  MEC_EXPECTS_MSG(model_ != nullptr, "sampling from an empty Distribution");
  return model_->sample(rng);
}

double Distribution::mean() const {
  MEC_EXPECTS(model_ != nullptr);
  return model_->mean();
}

double Distribution::upper_bound() const {
  MEC_EXPECTS(model_ != nullptr);
  return model_->upper_bound();
}

double Distribution::lower_bound() const {
  MEC_EXPECTS(model_ != nullptr);
  return model_->lower_bound();
}

namespace {

constexpr int kMaxRejectionIters = 1'000'000;

class UniformModel final : public DistributionModel {
 public:
  UniformModel(double lo, double hi) : lo_(lo), hi_(hi) {}
  double sample(Xoshiro256& rng) const override {
    return uniform(rng, lo_, hi_);
  }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  double upper_bound() const override { return hi_; }
  double lower_bound() const override { return lo_; }

 private:
  double lo_, hi_;
};

class ConstantModel final : public DistributionModel {
 public:
  explicit ConstantModel(double v) : v_(v) {}
  double sample(Xoshiro256&) const override { return v_; }
  double mean() const override { return v_; }
  double upper_bound() const override { return v_; }
  double lower_bound() const override { return v_; }

 private:
  double v_;
};

/// Shared rejection-sampling helper: draws from `gen` until the value lands in
/// [lo, hi]. Throws RuntimeError if acceptance appears to be ~0.
template <typename Gen>
double rejection_sample(Xoshiro256& rng, double lo, double hi, Gen&& gen) {
  for (int i = 0; i < kMaxRejectionIters; ++i) {
    const double v = gen(rng);
    if (v >= lo && v <= hi) return v;
  }
  throw mec::RuntimeError(
      "rejection sampling failed: truncation interval carries ~zero mass");
}

class TruncatedExponentialModel final : public DistributionModel {
 public:
  TruncatedExponentialModel(double mean, double cap)
      : rate_(1.0 / mean), cap_(cap) {}
  double sample(Xoshiro256& rng) const override {
    return rejection_sample(rng, 0.0, cap_, [this](Xoshiro256& r) {
      return exponential(r, rate_);
    });
  }
  double mean() const override {
    // E[X | X <= cap] for Exp(rate):
    //   (1/rate) - cap*e^{-rate*cap}/(1-e^{-rate*cap})
    const double rc = rate_ * cap_;
    return 1.0 / rate_ - cap_ * std::exp(-rc) / (-std::expm1(-rc));
  }
  double upper_bound() const override { return cap_; }
  double lower_bound() const override { return 0.0; }

 private:
  double rate_, cap_;
};

class TruncatedNormalModel final : public DistributionModel {
 public:
  TruncatedNormalModel(double mu, double sigma, double lo, double hi)
      : mu_(mu), sigma_(sigma), lo_(lo), hi_(hi) {}
  double sample(Xoshiro256& rng) const override {
    return rejection_sample(rng, lo_, hi_, [this](Xoshiro256& r) {
      return mu_ + sigma_ * standard_normal(r);
    });
  }
  double mean() const override {
    // Exact truncated-normal mean via the standard phi/Phi formula.
    const auto phi = [](double z) {
      return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::acos(-1.0));
    };
    const auto Phi = [](double z) {
      return 0.5 * std::erfc(-z / std::sqrt(2.0));
    };
    const double a = (lo_ - mu_) / sigma_;
    const double b = (hi_ - mu_) / sigma_;
    const double z = Phi(b) - Phi(a);
    return mu_ + sigma_ * (phi(a) - phi(b)) / z;
  }
  double upper_bound() const override { return hi_; }
  double lower_bound() const override { return lo_; }

 private:
  double mu_, sigma_, lo_, hi_;
};

class TruncatedLognormalModel final : public DistributionModel {
 public:
  TruncatedLognormalModel(double mu, double sigma, double cap)
      : mu_(mu), sigma_(sigma), cap_(cap) {}
  double sample(Xoshiro256& rng) const override {
    return rejection_sample(rng, 0.0, cap_, [this](Xoshiro256& r) {
      return std::exp(mu_ + sigma_ * standard_normal(r));
    });
  }
  double mean() const override {
    // Truncated lognormal mean: E[X | X<=cap] =
    //   exp(mu+sigma^2/2) * Phi((ln cap - mu - sigma^2)/sigma)
    //     / Phi((ln cap - mu)/sigma)
    const auto Phi = [](double z) {
      return 0.5 * std::erfc(-z / std::sqrt(2.0));
    };
    const double lc = std::log(cap_);
    const double num = Phi((lc - mu_ - sigma_ * sigma_) / sigma_);
    const double den = Phi((lc - mu_) / sigma_);
    return std::exp(mu_ + 0.5 * sigma_ * sigma_) * num / den;
  }
  double upper_bound() const override { return cap_; }
  double lower_bound() const override { return 0.0; }

 private:
  double mu_, sigma_, cap_;
};

/// Marsaglia–Tsang gamma sampler; valid for shape >= 1, with the standard
/// boost trick for shape < 1.
double gamma_sample(Xoshiro256& rng, double shape, double scale) {
  if (shape < 1.0) {
    const double u = uniform01(rng);
    return gamma_sample(rng, shape + 1.0, scale) *
           std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = standard_normal(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = uniform01(rng);
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

class TruncatedGammaModel final : public DistributionModel {
 public:
  TruncatedGammaModel(double shape, double scale, double cap)
      : shape_(shape), scale_(scale), cap_(cap) {
    // Estimate the truncated mean once, numerically, by fine Riemann sum of
    // x * pdf over [0, cap] (pdf renormalized to the cap).
    constexpr int kCells = 20000;
    const double h = cap_ / kCells;
    double mass = 0.0, first = 0.0;
    for (int i = 0; i < kCells; ++i) {
      const double x = (i + 0.5) * h;
      const double logpdf = (shape_ - 1.0) * std::log(x) - x / scale_ -
                            std::lgamma(shape_) - shape_ * std::log(scale_);
      const double p = std::exp(logpdf) * h;
      mass += p;
      first += x * p;
    }
    mean_ = first / mass;
  }
  double sample(Xoshiro256& rng) const override {
    return rejection_sample(rng, 0.0, cap_, [this](Xoshiro256& r) {
      return gamma_sample(r, shape_, scale_);
    });
  }
  double mean() const override { return mean_; }
  double upper_bound() const override { return cap_; }
  double lower_bound() const override { return 0.0; }

 private:
  double shape_, scale_, cap_;
  double mean_;
};

class ResamplingModel final : public DistributionModel {
 public:
  explicit ResamplingModel(std::vector<double> data) : data_(std::move(data)) {
    mean_ = std::accumulate(data_.begin(), data_.end(), 0.0) /
            static_cast<double>(data_.size());
    const auto [lo, hi] = std::minmax_element(data_.begin(), data_.end());
    lo_ = *lo;
    hi_ = *hi;
  }
  double sample(Xoshiro256& rng) const override {
    return data_[uniform_index(rng, data_.size())];
  }
  double mean() const override { return mean_; }
  double upper_bound() const override { return hi_; }
  double lower_bound() const override { return lo_; }

 private:
  std::vector<double> data_;
  double mean_, lo_, hi_;
};

class MixtureModel final : public DistributionModel {
 public:
  MixtureModel(std::vector<Distribution> components, std::vector<double> cdf,
               double mean)
      : components_(std::move(components)), cdf_(std::move(cdf)), mean_(mean) {}
  double sample(Xoshiro256& rng) const override {
    const double u = uniform01(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto idx = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return components_[idx].sample(rng);
  }
  double mean() const override { return mean_; }
  double upper_bound() const override {
    double hi = components_.front().upper_bound();
    for (const auto& component : components_)
      hi = std::max(hi, component.upper_bound());
    return hi;
  }
  double lower_bound() const override {
    double lo = components_.front().lower_bound();
    for (const auto& component : components_)
      lo = std::min(lo, component.lower_bound());
    return lo;
  }

 private:
  std::vector<Distribution> components_;
  std::vector<double> cdf_;  // cumulative weights, last entry == 1
  double mean_;
};

}  // namespace

Distribution make_uniform(double lo, double hi) {
  check_option(lo <= hi, "uniform", "hi", hi, "a value >= lo");
  return Distribution(std::make_shared<UniformModel>(lo, hi));
}

Distribution make_constant(double value) {
  return Distribution(std::make_shared<ConstantModel>(value));
}

Distribution make_truncated_exponential(double mean, double cap) {
  check_option(mean > 0.0, "exponential", "mean", mean, "a value > 0");
  check_option(cap > mean / 4.0, "exponential", "cap", cap,
               "a value > mean / 4 (for rejection sampling)");
  return Distribution(std::make_shared<TruncatedExponentialModel>(mean, cap));
}

Distribution make_truncated_normal(double mu, double sigma, double lo,
                                   double hi) {
  check_option(sigma > 0.0, "normal", "sigma", sigma, "a value > 0");
  check_option(lo < hi, "normal", "hi", hi, "a value > lo");
  return Distribution(
      std::make_shared<TruncatedNormalModel>(mu, sigma, lo, hi));
}

Distribution make_truncated_lognormal(double mu, double sigma, double cap) {
  check_option(sigma > 0.0, "lognormal", "sigma", sigma, "a value > 0");
  check_option(cap > 0.0, "lognormal", "cap", cap, "a value > 0");
  return Distribution(
      std::make_shared<TruncatedLognormalModel>(mu, sigma, cap));
}

Distribution make_truncated_gamma(double shape, double scale, double cap) {
  check_option(shape > 0.0, "gamma", "shape", shape, "a value > 0");
  check_option(scale > 0.0, "gamma", "scale", scale, "a value > 0");
  check_option(cap > 0.0, "gamma", "cap", cap, "a value > 0");
  return Distribution(std::make_shared<TruncatedGammaModel>(shape, scale, cap));
}

Distribution make_resampling(std::vector<double> data) {
  check_option(!data.empty(), "resampling", "the sample count", data.size(),
               "at least 1");
  for (const double v : data)
    check_option(v >= 0.0, "resampling", "a sample", v, "a value >= 0");
  return Distribution(std::make_shared<ResamplingModel>(std::move(data)));
}

Distribution make_mixture(std::vector<Distribution> components,
                          std::vector<double> weights) {
  check_option(!components.empty() && weights.size() == components.size(),
               "mixture", "the weight count", weights.size(),
               "one per component, at least 1");
  for (const double w : weights)
    check_option(w >= 0.0, "mixture", "a weight", w, "a value >= 0");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  check_option(total > 0.0, "mixture", "the total weight", total,
               "a value > 0");

  std::vector<double> cdf(weights.size());
  double acc = 0.0, mean = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cdf[i] = acc;
    mean += weights[i] / total * components[i].mean();
  }
  cdf.back() = 1.0;
  return Distribution(std::make_shared<MixtureModel>(std::move(components),
                                                     std::move(cdf), mean));
}

}  // namespace mec::random
