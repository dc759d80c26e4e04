// The sharded simulation engine: thin composition of the layer headers.
//
//   device model   (device_state.hpp)  per-device queues + accumulators
//   policy dispatch (policy_dispatch.hpp) the offload rule: decide()
//   edge coupling  (coupling.hpp)      EWMA gamma + g(gamma) replay
//   fault plan     (fault/fault_plan.hpp) resolved schedule + shard views
//   observers      (observer.hpp)      grid barriers, one instant at a time
//   leg runner     (leg_runner.hpp)    per-rank event loop; the in-process
//                                      transport
//   transport      (parallel/transport.hpp) rank <-> coordinator seam
//   coordinator    (coordinator.hpp)   serial barrier work + result assembly
//
// One run executes as alternating phases: parallel *legs*, where every
// rank advances its owned shards to the next observation-grid barrier,
// and serial *barrier work*, where the coordinator replays the merged
// offload log, records samples, and fires epoch callbacks (the closed
// loop retunes thresholds only here, so shard legs always see a frozen
// policy).  Framed ranks already run the next leg during a sample-only
// barrier's work, which writes nothing a leg reads; an epoch barrier's
// work ends before the next leg starts.  run_sharded only assembles the
// pieces: it fills the run's shape (parallel::RunShape) once, splits the
// RNG streams, resolves the fault plan, picks the transport — the
// in-process rank over the shared workspace, or framed ranks (forked or
// remote `mec worker`s) fed population frames — and hands the rank fleet
// to coordinator_run.  Every run, TRO or DPO, may take either transport.
// Results are bit-identical for every shard count and every transport —
// including K = 1 in-process, which is the only serial path; there is no
// separate monolithic engine left to diverge from.  The golden-trace suite
// pins this equivalence against the pre-shard engine's exact output, and
// tests/test_transport.cpp pins in-process == framed.
//
// This header is internal to mec_simulation.cpp: run_sharded is
// instantiated once per fault mode in that TU.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/net/address.hpp"
#include "mec/net/framed_transport.hpp"
#include "mec/net/protocol.hpp"
#include "mec/net/worker.hpp"
#include "mec/parallel/shard_executor.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/sim/coordinator.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/device_state.hpp"
#include "mec/sim/leg_runner.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim {

struct SimWorkspace::Impl {
  std::vector<random::Xoshiro256> rngs;  ///< batched per-device streams
  std::vector<DeviceState> devices;
  std::vector<parallel::ShardContext> shards;
  std::unique_ptr<parallel::ThreadPool> pool;  ///< lazily built when K > 1

  /// Post-split per-device RNG snapshot, keyed by (seed, population size).
  /// Splitting is ~1us per device (xoshiro long_jump), so re-deriving 1e5+
  /// streams dominates the setup of repeated same-seed runs; restoring the
  /// snapshot is a memcpy and bit-identical by construction.
  std::vector<random::Xoshiro256> rng_init;
  std::uint64_t rng_seed = 0;
  bool rng_cached = false;

  /// Sizes the global buffers for an n-device run and resets all run state
  /// while keeping every allocation.
  void prepare(std::size_t n) {
    rngs.resize(n);
    devices.resize(n);
    for (DeviceState& d : devices) d.reset_run();
  }
};

namespace engine {

/// Runs the coordinator over W framed ranks (transport=process or tcp):
/// one population frame per rank, then spawn local ranks or connect to
/// daemons.  Ranks decide on a copy of the run's values, refreshed by the
/// post-epoch broadcast.  The coordinator needs only the RNG split
/// (rng_init) here — the ranks rebuild device states and seed their shards
/// themselves — so nothing rank-side is initialized in this process.
inline SimulationResult run_framed(const SimulationOptions& options,
                                   const CoordinatorContext& cc,
                                   const SimWorkspace::Impl& ws) {
  const bool local = options.transport == TransportKind::kProcess;
  std::vector<net::Address> addresses;
  std::size_t ranks = std::min<std::size_t>(
      options.workers == 0 ? 2 : options.workers, cc.shard_count);
  if (!local) {
    for (const std::string& spec : options.worker_addresses)
      addresses.push_back(net::parse_address(spec));
    net::check_unique_worker_addresses(addresses);
    ranks = addresses.size();
    if (ranks > cc.shard_count)
      throw RuntimeError("transport=tcp lists " + std::to_string(ranks) +
                         " workers but the run has only " +
                         std::to_string(cc.shard_count) +
                         " shards; drop workers or raise --shards");
  }

  // Each rank's slice travels in its population frame.  The RNG words are
  // the *pre-init* snapshots (rng_init); the rank seeds its shards itself
  // and reproduces the initial-arrival draws bit for bit.
  net::wire::WorkerPopulation base;
  static_cast<parallel::RunShape&>(base) = cc;
  base.ranks = static_cast<std::uint32_t>(ranks);
  base.seed = options.seed;
  base.service = options.service;
  base.latency = options.latency;
  base.actions.assign(cc.plan->actions.begin(), cc.plan->actions.end());
  std::vector<std::vector<std::uint8_t>> populations;
  populations.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    net::wire::WorkerPopulation pop = base;
    pop.rank = static_cast<std::uint32_t>(r);
    pop.shard_lo = static_cast<std::uint32_t>(cc.shard_count * r / ranks);
    pop.shard_hi =
        static_cast<std::uint32_t>(cc.shard_count * (r + 1) / ranks);
    pop.device_lo =
        parallel::shard_bound(cc.n_devices, cc.shard_count, pop.shard_lo);
    pop.device_hi =
        parallel::shard_bound(cc.n_devices, cc.shard_count, pop.shard_hi);
    pop.users.assign(cc.users + pop.device_lo, cc.users + pop.device_hi);
    pop.rng_states.reserve(pop.device_hi - pop.device_lo);
    for (std::uint32_t d = pop.device_lo; d < pop.device_hi; ++d)
      pop.rng_states.push_back(ws.rng_init[d].state());
    populations.push_back(net::wire::encode_population(pop));
  }

  net::FramedTransport transport(
      cc,
      local ? net::spawn_local_workers(ranks) : net::connect_workers(addresses),
      populations, {cc.values, cc.n_devices});
  populations = {};  // shipped; the ranks own their slices now
  return coordinator_run(cc, transport);
}

/// One full simulation run of `rule` over `values` (n_devices entries, the
/// caller's array, which epoch callbacks may rewrite): the run's shape, RNG
/// split, fault plan, transport selection, and the coordinator's
/// barrier-stepped loop.  `service` and `latency` are the samplers built
/// from options.service / options.latency.
template <bool WithFaults>
SimulationResult run_sharded(const std::vector<core::UserParams>& users,
                             std::size_t n_initial_devices, double capacity,
                             const core::EdgeDelay& delay,
                             const SimulationOptions& options,
                             const ServiceSampler& service,
                             const LatencySampler& latency,
                             SimWorkspace::Impl& ws, OffloadRule rule,
                             const double* values) {
  parallel::RunShape shape;
  shape.n_devices = static_cast<std::uint32_t>(users.size());
  shape.n_initial = static_cast<std::uint32_t>(n_initial_devices);
  shape.n_clusters = static_cast<std::uint32_t>(options.topology.clusters);
  shape.shard_count = static_cast<std::uint32_t>(std::min<std::size_t>(
      parallel::resolve_shard_count(options.shards, users.size()),
      users.size()));
  shape.warmup = options.warmup;
  shape.t_end = options.warmup + options.horizon;
  shape.has_fixed_gamma = options.fixed_gamma.has_value();
  shape.fixed_delay = shape.has_fixed_gamma ? delay(*options.fixed_gamma) : 0.0;
  shape.with_faults = WithFaults;
  shape.rule = rule;

  if (!(ws.rng_cached && ws.rng_seed == options.seed &&
        ws.rng_init.size() == shape.n_devices)) {
    random::Xoshiro256 master(options.seed);
    ws.rng_init.resize(shape.n_devices);
    for (std::uint32_t n = 0; n < shape.n_devices; ++n)
      ws.rng_init[n] = master.split();
    ws.rng_seed = options.seed;
    ws.rng_cached = true;
  }

  fault::FaultPlan plan;
  if constexpr (WithFaults)
    plan = fault::resolve_fault_plan(options.faults->actions(),
                                     shape.n_initial, shape.n_devices,
                                     shape.warmup, shape.t_end);

  // Nominal capacity is anchored to the initial population: churn changes
  // the offered load, not the installed edge hardware.
  const CoordinatorContext cc{
      shape,  users.data(), &options, &delay, &plan,
      values, capacity,     static_cast<double>(shape.n_initial) * capacity};
  if (options.transport != TransportKind::kInProcess)
    return run_framed(options, cc, ws);

  ws.prepare(users.size());
  std::copy(ws.rng_init.begin(), ws.rng_init.end(), ws.rngs.begin());
  ws.shards.resize(shape.shard_count);
  const LegContext lc{shape,          users.data(), ws.devices.data(),
                      ws.rngs.data(), values,       &service,
                      &latency,       plan.actions};
  LegRunner<WithFaults> runner(ws.shards, lc, 0, shape.shard_count, ws.pool,
                               nullptr);
  return coordinator_run(cc, runner);
}

}  // namespace engine
}  // namespace mec::sim
