// Barrier-serial coordinator: the half of the engine that is the same for
// every transport and every decision provider.
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

namespace mec::sim::engine {

/// Everything coordinator_run needs that is not rank state.  Plain pointers
/// into the caller's run setup (run_sharded owns all of it for the run's
/// duration); `with_faults` is the runtime mirror of the engine's WithFaults
/// template flag — the coordinator is deliberately untemplated, so there is
/// exactly one serial barrier path for every engine instantiation.
struct CoordinatorContext {
  const core::UserParams* users = nullptr;  ///< total_devices() entries
  const SimulationOptions* options = nullptr;
  const core::EdgeDelay* delay = nullptr;
  const fault::FaultPlan* plan = nullptr;
  /// The run_tro threshold array (n_devices entries), which epoch callbacks
  /// may rewrite: feeds the stream's threshold histogram and the post-epoch
  /// check and broadcast.  Null for a run_dpo run.
  const double* thresholds = nullptr;
  std::uint32_t n_devices = 0;
  std::uint32_t n_initial = 0;
  std::uint32_t n_clusters = 1;
  double capacity = 0.0;       ///< per-device nominal edge capacity
  double edge_capacity = 0.0;  ///< n_initial * capacity
  double t_end = 0.0;
  bool with_faults = false;
  bool measuring_from_start = false;
  std::size_t shard_count = 1;
};

/// Throws mec::ContractViolation naming the first device whose threshold
/// lies outside [0, 2^64) — NaN and infinities included; floor(x) must be
/// a queue length for tro_offload — with its value and `context` (the
/// caller, or the epoch whose callbacks wrote it).
void check_thresholds(std::span<const double> thresholds,
                      const std::string& context);

/// One full run over an already-initialized rank fleet: grid-stepped
/// barriers, replay, observation, result assembly.  Bit-identical across
/// transports and shard/worker splits (determinism contract #8).
SimulationResult coordinator_run(const CoordinatorContext& cc,
                                 parallel::Transport& transport);

}  // namespace mec::sim::engine
