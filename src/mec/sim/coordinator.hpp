// Barrier-serial coordinator: the half of the engine that is the same for
// every transport and every decision provider.
//
// The coordinator walks the run's observation grid, asking the transport to
// advance every rank to each barrier, then performs the work that must be
// serial and global: the GammaReplay over the merged offload logs, sample
// recording and stream windows, epoch callbacks (and the threshold
// broadcast that follows them when ranks hold mirrored policy state), and
// the final result assembly over per-device totals.  It never touches a
// DeviceState or an event queue directly — everything it knows about rank
// state arrives through ShardBarrierView and DeviceTotals — which is
// exactly what lets the same function drive the in-process rank and a fleet
// of framed ranks to byte-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

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
  /// Authoritative per-device threshold read (the coordinator's live
  /// decision provider): feeds the stream's threshold histogram and the
  /// post-epoch broadcast.  Returns < 0 for devices without a TRO
  /// threshold.
  std::function<double(std::uint32_t)> threshold_of;
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

/// One full run over an already-initialized rank fleet: grid-stepped
/// barriers, replay, observation, result assembly.  Bit-identical across
/// transports and shard/worker splits (determinism contract #8).
SimulationResult coordinator_run(const CoordinatorContext& cc,
                                 parallel::Transport& transport);

}  // namespace mec::sim::engine
