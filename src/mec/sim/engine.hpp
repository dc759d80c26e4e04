// The sharded simulation engine: thin composition of the layer headers.
//
//   device model   (device_state.hpp)  per-device queues + accumulators
//   policy dispatch (policy_dispatch.hpp) TRO/DPO value-array deciders
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
// pieces: it splits the RNG streams, resolves the fault plan, picks the
// transport — the in-process rank over the shared workspace, or framed
// ranks (forked or remote `mec worker`s) fed population frames — and
// hands the rank fleet to coordinator_run.  Results are bit-identical for every shard count and
// every transport — including K = 1 in-process, which is the only serial
// path; there is no separate monolithic engine left to diverge from.  The
// golden-trace suite pins this equivalence against the pre-shard engine's
// exact output, and tests/test_transport.cpp pins in-process == framed.
//
// This header is internal to mec_simulation.cpp: the templates here are
// instantiated once per (fault mode x decision provider) pair in that TU,
// run_framed once per fault mode (framed ranks always decide on a threshold
// array, so a DPO run stays in process).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
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
/// daemons.  Ranks decide on a copy of the run's threshold array, refreshed
/// by the post-epoch broadcast, so a run with no threshold array (run_dpo)
/// is refused before forking or connecting.  The coordinator needs only the
/// RNG split (rng_init) here — the ranks rebuild device states and re-run
/// init_shard themselves — so nothing rank-side is initialized in this
/// process.
template <bool WithFaults>
SimulationResult run_framed(const SimulationOptions& options,
                            const CoordinatorContext& cc,
                            const SimWorkspace::Impl& ws) {
  const bool local = options.transport == TransportKind::kProcess;
  const std::string kind = local ? "process" : "tcp";
  if (cc.thresholds == nullptr)
    throw RuntimeError(
        "transport=" + kind +
        " requires per-device TRO thresholds (run_tro), but this run "
        "decides on DPO offload probabilities (only threshold arrays are "
        "shipped across a " +
        (local ? "process" : "machine") + " boundary)");
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
  // the *pre-init* snapshots (rng_init); the rank re-runs init_shard and
  // reproduces the initial-arrival draws bit for bit.
  net::wire::WorkerPopulation base;
  base.ranks = static_cast<std::uint32_t>(ranks);
  base.seed = options.seed;
  base.n_devices = cc.n_devices;
  base.n_initial = cc.n_initial;
  base.n_clusters = cc.n_clusters;
  base.shard_count = static_cast<std::uint32_t>(cc.shard_count);
  base.warmup = options.warmup;
  base.t_end = cc.t_end;
  base.has_fixed_gamma = options.fixed_gamma.has_value();
  base.fixed_delay =
      base.has_fixed_gamma ? (*cc.delay)(*options.fixed_gamma) : 0.0;
  base.with_faults = WithFaults;
  base.service = options.service;
  base.latency = options.latency;
  if constexpr (WithFaults)
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

  net::FramedTransport::Config cfg;
  cfg.shard_count = cc.shard_count;
  cfg.n_devices = cc.n_devices;
  cfg.n_clusters = cc.n_clusters;
  net::FramedTransport transport(
      cfg,
      local ? net::spawn_local_workers(ranks) : net::connect_workers(addresses),
      populations, {cc.thresholds, cc.n_devices});
  populations = {};  // shipped; the ranks own their slices now
  return coordinator_run(cc, transport);
}

/// One full simulation run: RNG split, fault plan, transport selection, and
/// the coordinator's barrier-stepped loop.  `service` and `latency` are the
/// samplers built from options.service / options.latency.
template <bool WithFaults, class Decide>
SimulationResult run_sharded(const std::vector<core::UserParams>& users,
                             std::size_t n_initial_devices, double capacity,
                             const core::EdgeDelay& delay,
                             const SimulationOptions& options,
                             const ServiceSampler& service,
                             const LatencySampler& latency,
                             SimWorkspace::Impl& ws, const Decide& decide) {
  const auto n_devices = static_cast<std::uint32_t>(users.size());
  const auto n_initial = static_cast<std::uint32_t>(n_initial_devices);
  const auto n_clusters =
      static_cast<std::uint32_t>(options.topology.clusters);
  const double t_end = options.warmup + options.horizon;
  const std::size_t shard_count = std::min<std::size_t>(
      parallel::resolve_shard_count(options.shards, n_devices), n_devices);

  if (!(ws.rng_cached && ws.rng_seed == options.seed &&
        ws.rng_init.size() == n_devices)) {
    random::Xoshiro256 master(options.seed);
    ws.rng_init.resize(n_devices);
    for (std::uint32_t n = 0; n < n_devices; ++n)
      ws.rng_init[n] = master.split();
    ws.rng_seed = options.seed;
    ws.rng_cached = true;
  }

  fault::FaultPlan plan;
  if constexpr (WithFaults)
    plan = fault::resolve_fault_plan(options.faults->actions(), n_initial,
                                     n_devices, options.warmup, t_end);

  CoordinatorContext cc;
  cc.users = users.data();
  cc.options = &options;
  cc.delay = &delay;
  cc.plan = &plan;
  if constexpr (std::is_same_v<Decide, TroValueDecide>)
    cc.thresholds = decide.thresholds;
  cc.n_devices = n_devices;
  cc.n_initial = n_initial;
  cc.n_clusters = n_clusters;
  cc.capacity = capacity;
  // Nominal capacity is anchored to the initial population: churn changes
  // the offered load, not the installed edge hardware.
  cc.edge_capacity = static_cast<double>(n_initial) * capacity;
  cc.t_end = t_end;
  cc.with_faults = WithFaults;
  cc.measuring_from_start = options.warmup == 0.0;
  cc.shard_count = shard_count;

  if (options.transport != TransportKind::kInProcess)
    return run_framed<WithFaults>(options, cc, ws);

  ws.prepare(users.size());
  std::copy(ws.rng_init.begin(), ws.rng_init.end(), ws.rngs.begin());
  ws.shards.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    parallel::ShardContext& sc = ws.shards[s];
    sc.reset(parallel::shard_bound(n_devices, shard_count, s),
             parallel::shard_bound(n_devices, shard_count, s + 1),
             cc.measuring_from_start);
    sc.cluster_offloads.assign(n_clusters, 0);
    init_shard<WithFaults>(sc, users.data(), n_initial, ws.rngs.data(),
                           plan.actions);
  }
  if (shard_count > 1) {
    const std::size_t lanes =
        std::min(shard_count, parallel::resolve_thread_count(0));
    if (!ws.pool || ws.pool->thread_count() != lanes)
      ws.pool = std::make_unique<parallel::ThreadPool>(lanes);
  }
  const bool has_fixed_gamma = options.fixed_gamma.has_value();
  const LegContext<Decide> lc{users.data(),   ws.devices.data(),
                              ws.rngs.data(), &decide,
                              &service,       &latency,
                              options.warmup, t_end,
                              n_devices,      n_clusters,
                              has_fixed_gamma,
                              has_fixed_gamma ? delay(*options.fixed_gamma)
                                              : 0.0};
  LegRunner<WithFaults, Decide> runner(ws.shards, decide, lc, 0, shard_count,
                                       shard_count > 1 ? ws.pool.get()
                                                       : nullptr,
                                       nullptr);
  return coordinator_run(cc, runner);
}

}  // namespace engine
}  // namespace mec::sim
