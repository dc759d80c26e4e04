// Runtime admission policies executed by the simulator on every arrival.
//
// The analytic layer (mec/core) reasons about TRO thresholds in closed form;
// this layer is the operational counterpart: given the *current* local queue
// length, decide whether the newly arrived task is offloaded.
#pragma once

#include <memory>
#include <string>

#include "mec/random/rng.hpp"

namespace mec::sim {

/// Per-arrival admission decision. Implementations must be stateless apart
/// from their parameters (the queue and RNG carry all dynamic state).
class OffloadPolicy {
 public:
  virtual ~OffloadPolicy() = default;
  /// True => offload this arrival; false => enqueue locally.
  /// `queue_length` counts tasks in the local system (waiting + in service).
  virtual bool offload(std::uint64_t queue_length,
                       random::Xoshiro256& rng) const = 0;
  virtual std::string describe() const = 0;
};

/// TRO policy with real threshold x >= 0 (Section II): local below floor(x),
/// randomized at floor(x) with local-probability x - floor(x), offloaded
/// above.  A simulation over per-device thresholds is faster as
/// MecSimulation::run_tro, which draws the same RNG sequence.
std::unique_ptr<OffloadPolicy> make_tro_policy(double threshold);

/// DPO policy: offload independently with probability rho in [0,1].
std::unique_ptr<OffloadPolicy> make_dpo_policy(double rho);

/// Degenerate policies for tests and baselines.
std::unique_ptr<OffloadPolicy> make_local_only_policy();
std::unique_ptr<OffloadPolicy> make_offload_all_policy();

}  // namespace mec::sim
