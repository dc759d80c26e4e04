// Barrier-serial coordinator: the half of the engine that is the same for
// every transport and every offload rule.
//
// The coordinator walks the run's observation grid, starting every rank's
// leg to each barrier and collecting it through the transport, then
// performs the work that must be serial and global, in four stages:
// replay (the GammaReplay over the merged offload logs), sample (the
// timeline point and stream window), epoch (the callbacks, and the
// threshold check and broadcast that follow them), and finish (the result
// assembly over per-device totals).  At a barrier with no epoch the next
// leg is started before replay and sample run, so ranks work while the
// coordinator does (see Coordinator::run in coordinator.cpp).  It
// never touches a DeviceState or an event queue directly — everything it
// knows about rank state arrives through ShardBarrierView and DeviceTotals
// — which is exactly what lets the same function drive the in-process rank
// and a fleet of framed ranks to byte-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim::engine {

/// Everything coordinator_run needs that is not rank state: the run's shape
/// and plain pointers into the caller's run setup (run_sharded owns all of
/// it for the run's duration).  `with_faults` is the runtime mirror of the
/// engine's WithFaults template flag — the coordinator is deliberately
/// untemplated, so there is exactly one serial barrier path for every
/// engine instantiation.
struct CoordinatorContext : parallel::RunShape {
  const core::UserParams* users = nullptr;  ///< n_devices entries
  const SimulationOptions* options = nullptr;
  const core::EdgeDelay* delay = nullptr;
  const fault::FaultPlan* plan = nullptr;
  /// The run's per-device values under `rule` (n_devices entries), which
  /// epoch callbacks may rewrite: checked and broadcast after every epoch;
  /// TRO thresholds also feed the stream's threshold histogram.
  const double* values = nullptr;
  double capacity = 0.0;       ///< per-device nominal edge capacity
  double edge_capacity = 0.0;  ///< n_initial * capacity
};

/// Throws mec::ContractViolation naming the first device whose value lies
/// outside the rule's range — a TRO threshold in [0, 2^64) (floor(x) must
/// be a queue length for tro_offload), a DPO offload probability in
/// [0, 1]; NaN and infinities are refused either way — with its value and
/// `context` (the caller, or the epoch whose callbacks wrote it).
void check_values(OffloadRule rule, std::span<const double> values,
                  const std::string& context);

/// One full run over an already-initialized rank fleet: grid-stepped
/// barriers, replay, observation, result assembly.  Bit-identical across
/// transports and shard/worker splits (determinism contract #8).
SimulationResult coordinator_run(const CoordinatorContext& cc,
                                 parallel::Transport& transport);

}  // namespace mec::sim::engine
