// Policy-dispatch layer: how the engine asks "offload this arrival?".
//
// Every run decides on one per-device value array, and the decision
// provider is instantiated into the event loop as a template parameter:
// TroValueDecide over a threshold array (run_tro, and through it
// run_closed_loop, run_price_based and run_minority_game, whose epoch
// callbacks rewrite the array), and DpoValueDecide over an offload
// probability array (run_dpo).  Determinism contract: the TRO rule draws
// one Bernoulli at the boundary state and none elsewhere, the DPO rule one
// Bernoulli per arrival (none at rho = 0 or 1), and the decision depends
// only on (device, queue length, device RNG) — never on other devices or
// the edge state — which is what lets shards decide independently between
// barriers.
#pragma once

#include <cmath>
#include <cstdint>

#include "mec/common/prefetch.hpp"
#include "mec/random/rng.hpp"

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

/// TRO over the caller's threshold array, read on every decision.  Epoch
/// callbacks may rewrite the array between legs; a framed rank reads its
/// own copy.
struct TroValueDecide {
  const double* thresholds;
  /// Starts loading the value a later decision for `device` reads.
  void prefetch(std::uint32_t device) const {
    MEC_PREFETCH(thresholds + device);
  }
  bool operator()(std::uint32_t device, std::uint64_t queue_length,
                  random::Xoshiro256& rng) const {
    return tro_offload(thresholds[device], queue_length, rng);
  }
};

/// DPO over the caller's offload probabilities (rho_n in [0, 1]): offload
/// independently of the queue, one bernoulli(rho_n) per arrival.
struct DpoValueDecide {
  const double* rhos;
  void prefetch(std::uint32_t device) const { MEC_PREFETCH(rhos + device); }
  bool operator()(std::uint32_t device, std::uint64_t /*queue_length*/,
                  random::Xoshiro256& rng) const {
    return random::bernoulli(rng, rhos[device]);
  }
};

}  // namespace mec::sim
