// Service- and latency-sampler construction from SamplerSpec (the pluggable
// distribution layer of SimulationOptions).  Split from the engine so
// distribution changes never touch — or recompile — the event-loop
// translation units.  The same code builds the in-process rank's samplers
// and every framed rank's, which is what keeps their RNG streams identical.
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/random/empirical.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {

namespace {

const char* kind_name(SamplerSpec::Kind kind) {
  switch (kind) {
    case SamplerSpec::Kind::kExponential:
      return "exponential";
    case SamplerSpec::Kind::kDeterministic:
      return "deterministic";
    case SamplerSpec::Kind::kErlang:
      return "erlang";
    case SamplerSpec::Kind::kHyperExponential:
      return "hyperexponential";
    case SamplerSpec::Kind::kEmpirical:
      return "empirical";
  }
  return nullptr;
}

/// "<role> sampler spec (kind <kind>): <field> = <got>, expected <want>".
[[noreturn]] void reject(const char* role, const SamplerSpec& spec,
                         const std::string& field, double got,
                         const std::string& want) {
  std::ostringstream os;
  os << role << " sampler spec (kind ";
  if (const char* name = kind_name(spec.kind))
    os << name;
  else
    os << static_cast<int>(spec.kind);
  os << "): " << field << " = " << got << ", expected " << want;
  throw RuntimeError(os.str());
}

[[noreturn]] void reject_kind(const char* role, const SamplerSpec& spec,
                              const std::string& accepted) {
  reject(role, spec, "kind", static_cast<int>(spec.kind), accepted);
}

/// The spec's samples as a dataset whose mean the per-device rescaling can
/// divide by.  EmpiricalDataset keeps its samples sorted, so a dataset
/// rebuilt from a shipped spec resamples the exact sequence the
/// coordinator's would.
random::EmpiricalDataset spec_dataset(const char* role,
                                      const SamplerSpec& spec) {
  if (spec.data.empty())
    reject(role, spec, "sample count", 0.0, "at least 1");
  for (std::size_t i = 0; i < spec.data.size(); ++i)
    if (!(std::isfinite(spec.data[i]) && spec.data[i] >= 0.0))
      reject(role, spec, "data[" + std::to_string(i) + "]", spec.data[i],
             "a finite value >= 0");
  random::EmpiricalDataset dataset(spec.data, "spec");
  if (!(dataset.mean() > 0.0))
    reject(role, spec, "sample mean", dataset.mean(), "a value > 0");
  return dataset;
}

}  // namespace

ServiceSampler make_service_sampler(const SamplerSpec& spec) {
  constexpr const char* kRole = "service";
  switch (spec.kind) {
    case SamplerSpec::Kind::kExponential:
      return [](random::Xoshiro256& rng, const core::UserParams& u) {
        return random::exponential(rng, u.service_rate);
      };
    case SamplerSpec::Kind::kDeterministic:
      return [](random::Xoshiro256&, const core::UserParams& u) {
        return 1.0 / u.service_rate;
      };
    case SamplerSpec::Kind::kErlang: {
      const double k = spec.param;
      if (!(k >= 1.0 && k <= SamplerSpec::kMaxErlangStages) ||
          k != std::floor(k))
        reject(kRole, spec, "stage count", k,
               "an integer in [1, " +
                   std::to_string(SamplerSpec::kMaxErlangStages) + "]");
      const auto stages = static_cast<std::size_t>(k);
      return [stages](random::Xoshiro256& rng, const core::UserParams& u) {
        const double stage_rate =
            static_cast<double>(stages) * u.service_rate;
        double total = 0.0;
        for (std::size_t i = 0; i < stages; ++i)
          total += random::exponential(rng, stage_rate);
        return total;
      };
    }
    case SamplerSpec::Kind::kHyperExponential: {
      const double scv = spec.param;
      if (!(scv >= 1.0 && std::isfinite(scv)))
        reject(kRole, spec, "SCV", scv, "a finite value >= 1");
      // Balanced-means H2 fit (cf. queueing::hyperexponential_from_scv):
      // branch probability p with rates 2p*s and 2(1-p)*s for mean 1/s.
      const double p = 0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
      return [p](random::Xoshiro256& rng, const core::UserParams& u) {
        const bool first = random::bernoulli(rng, p);
        const double rate = first ? 2.0 * p * u.service_rate
                                  : 2.0 * (1.0 - p) * u.service_rate;
        return random::exponential(rng, rate);
      };
    }
    case SamplerSpec::Kind::kEmpirical: {
      random::EmpiricalDataset times = spec_dataset(kRole, spec);
      const double dataset_mean = times.mean();
      return [times = std::move(times), dataset_mean](
                 random::Xoshiro256& rng, const core::UserParams& u) {
        return times.resample(rng) / (dataset_mean * u.service_rate);
      };
    }
  }
  reject_kind(kRole, spec,
              "0-4 (exponential, deterministic, erlang, hyperexponential, "
              "empirical)");
}

LatencySampler make_latency_sampler(const SamplerSpec& spec) {
  constexpr const char* kRole = "latency";
  switch (spec.kind) {
    case SamplerSpec::Kind::kExponential:
      return [](random::Xoshiro256& rng, const core::UserParams& u) {
        if (u.offload_latency <= 0.0) return 0.0;
        return random::exponential(rng, 1.0 / u.offload_latency);
      };
    case SamplerSpec::Kind::kDeterministic:
      return [](random::Xoshiro256&, const core::UserParams& u) {
        return u.offload_latency;
      };
    case SamplerSpec::Kind::kEmpirical: {
      random::EmpiricalDataset latencies = spec_dataset(kRole, spec);
      const double dataset_mean = latencies.mean();
      return [latencies = std::move(latencies), dataset_mean](
                 random::Xoshiro256& rng, const core::UserParams& u) {
        return latencies.resample(rng) * (u.offload_latency / dataset_mean);
      };
    }
    case SamplerSpec::Kind::kErlang:
    case SamplerSpec::Kind::kHyperExponential:
      break;
  }
  reject_kind(kRole, spec,
              "0, 1 or 4 (exponential, deterministic or empirical; the "
              "erlang and hyperexponential kinds are service-only)");
}

}  // namespace mec::sim
