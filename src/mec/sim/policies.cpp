#include "mec/sim/policies.hpp"

#include <cmath>
#include <sstream>

#include "mec/common/error.hpp"

namespace mec::sim {

namespace {

class TroPolicy final : public OffloadPolicy {
 public:
  explicit TroPolicy(double threshold)
      : threshold_(threshold),
        floor_(static_cast<std::uint64_t>(std::floor(threshold))),
        local_prob_(threshold - std::floor(threshold)) {}

  bool offload(std::uint64_t queue_length,
               random::Xoshiro256& rng) const override {
    if (queue_length < floor_) return false;
    if (queue_length == floor_)
      return !random::bernoulli(rng, local_prob_);
    return true;
  }
  std::string describe() const override {
    std::ostringstream os;
    os << "TRO(x=" << threshold_ << ")";
    return os.str();
  }
 private:
  double threshold_;
  std::uint64_t floor_;
  double local_prob_;
};

class DpoPolicy final : public OffloadPolicy {
 public:
  explicit DpoPolicy(double rho) : rho_(rho) {}
  bool offload(std::uint64_t, random::Xoshiro256& rng) const override {
    return random::bernoulli(rng, rho_);
  }
  std::string describe() const override {
    std::ostringstream os;
    os << "DPO(rho=" << rho_ << ")";
    return os.str();
  }

 private:
  double rho_;
};

class LocalOnlyPolicy final : public OffloadPolicy {
 public:
  bool offload(std::uint64_t, random::Xoshiro256&) const override {
    return false;
  }
  std::string describe() const override { return "local-only"; }
};

class OffloadAllPolicy final : public OffloadPolicy {
 public:
  bool offload(std::uint64_t, random::Xoshiro256&) const override {
    return true;
  }
  std::string describe() const override { return "offload-all"; }
};

}  // namespace

std::unique_ptr<OffloadPolicy> make_tro_policy(double threshold) {
  MEC_EXPECTS(threshold >= 0.0);
  return std::make_unique<TroPolicy>(threshold);
}

std::unique_ptr<OffloadPolicy> make_dpo_policy(double rho) {
  MEC_EXPECTS(rho >= 0.0 && rho <= 1.0);
  return std::make_unique<DpoPolicy>(rho);
}

std::unique_ptr<OffloadPolicy> make_local_only_policy() {
  return std::make_unique<LocalOnlyPolicy>();
}

std::unique_ptr<OffloadPolicy> make_offload_all_policy() {
  return std::make_unique<OffloadAllPolicy>();
}

}  // namespace mec::sim
