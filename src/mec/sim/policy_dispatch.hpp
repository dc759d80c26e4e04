// Policy-dispatch layer: how the engine asks "offload this arrival?".
//
// Two interchangeable decision providers are instantiated into the event
// loop as a template parameter: the sealed TRO fast path over a threshold
// array (run_tro, and through it run_closed_loop and run_price_based,
// whose epoch callbacks rewrite the array), and the generic virtual
// dispatch over policy objects (DPO, the minority game).  Determinism
// contract: the TRO rule consumes *exactly* the RNG draws the equivalent
// OffloadPolicy::offload() would (one Bernoulli at the boundary state,
// none elsewhere), so both providers are bit-identical for a given seed,
// and the decision depends only on (device, queue length, device RNG) —
// never on other devices or the edge state — which is what lets shards
// decide independently between barriers.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>

#include "mec/random/rng.hpp"
#include "mec/sim/policies.hpp"

namespace mec::sim {

/// The TRO decision rule of Section II: local below floor(x), randomized at
/// floor(x) with local-probability x - floor(x), offloaded above.  Consumes
/// exactly one Bernoulli draw at the boundary state and none elsewhere.
/// Requires 0 <= x < 2^64 (engine::check_thresholds).
inline bool tro_offload(double threshold, std::uint64_t queue_length,
                        random::Xoshiro256& rng) {
  const double fl = std::floor(threshold);
  const auto floor_int = static_cast<std::uint64_t>(fl);
  if (queue_length < floor_int) return false;
  if (queue_length == floor_int)
    return !random::bernoulli(rng, threshold - fl);
  return true;
}

/// Fast path for run_tro: thresholds read straight from the caller's array
/// on every decision, no policy objects at all.  Epoch callbacks may
/// rewrite the array between legs; a framed rank reads its own copy.
struct TroValueDecide {
  const double* thresholds;
  bool operator()(std::uint32_t device, std::uint64_t queue_length,
                  random::Xoshiro256& rng) const {
    return tro_offload(thresholds[device], queue_length, rng);
  }
};

/// Generic path: one virtual call per arrival (DPO, custom policies).
struct VirtualDecide {
  const std::unique_ptr<OffloadPolicy>* policies;
  bool operator()(std::uint32_t device, std::uint64_t queue_length,
                  random::Xoshiro256& rng) const {
    return policies[device]->offload(queue_length, rng);
  }
};

}  // namespace mec::sim
