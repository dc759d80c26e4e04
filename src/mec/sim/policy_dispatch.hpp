// Policy-dispatch layer: how the engine asks "offload this arrival?".
//
// Every run decides on one per-device value array under one offload rule,
// both plain data: OffloadRule::kTro over a threshold array (run_tro, and
// through it run_closed_loop, run_price_based and run_minority_game, whose
// epoch callbacks rewrite the array), and OffloadRule::kDpo over an offload
// probability array (run_dpo).  The rule travels in the run's shape
// (parallel::RunShape), so forked and remote ranks decide exactly as the
// in-process rank does.  Determinism contract: the TRO rule draws one
// Bernoulli at the boundary state and none elsewhere, the DPO rule one
// Bernoulli per arrival (none at rho = 0 or 1), and the decision depends
// only on (device value, queue length, device RNG) — never on other devices
// or the edge state — which is what lets shards decide independently
// between barriers.
#pragma once

#include <cmath>
#include <cstdint>

#include "mec/random/rng.hpp"

namespace mec::sim {

/// The per-device offload rule of a run, and what its values mean.
enum class OffloadRule : std::uint8_t {
  kTro = 0,  ///< values are TRO thresholds x_n in [0, 2^64)
  kDpo = 1,  ///< values are DPO offload probabilities rho_n in [0, 1]
};

/// The TRO decision rule of Section II: local below floor(x), randomized at
/// floor(x) with local-probability x - floor(x), offloaded above.  Consumes
/// exactly one Bernoulli draw at the boundary state and none elsewhere.
/// Requires 0 <= x < 2^64 (engine::check_values).
inline bool tro_offload(double threshold, std::uint64_t queue_length,
                        random::Xoshiro256& rng) {
  const double fl = std::floor(threshold);
  const auto floor_int = static_cast<std::uint64_t>(fl);
  if (queue_length < floor_int) return false;
  if (queue_length == floor_int)
    return !random::bernoulli(rng, threshold - fl);
  return true;
}

/// One arrival's decision under `rule` on its device's value: TRO on the
/// threshold, or DPO's bernoulli(rho), independent of the queue.
inline bool decide(OffloadRule rule, double value, std::uint64_t queue_length,
                   random::Xoshiro256& rng) {
  if (rule == OffloadRule::kTro) return tro_offload(value, queue_length, rng);
  return random::bernoulli(rng, value);
}

}  // namespace mec::sim
