// Full-system discrete-event simulator of the heterogeneous MEC model.
//
// N devices receive Poisson task streams; an admission policy (TRO or DPO,
// one value per device) routes each arrival to the local FCFS queue or to
// the edge.  Local service times come from a pluggable sampler (exponential
// by default; resampled measured datasets for the practical settings).
// Offloaded tasks pay a wireless latency sample plus the edge processing
// delay g(gamma), where gamma is either held fixed (quasi-stationary
// evaluation, mirroring the theory) or tracked online with an
// exponentially-weighted rate estimator.
//
// The simulator is the library's ground truth: tests validate the closed
// forms (Eq. 7-8) against it, and the practical-settings experiments use it
// to measure utilization and cost under non-exponential service.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/metrics.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim {

/// Draws one local service time for a device. Must have mean 1/s_n.
using ServiceSampler =
    std::function<double(random::Xoshiro256&, const core::UserParams&)>;

/// Draws one wireless offload latency for a device. Must have mean tau_n.
using LatencySampler =
    std::function<double(random::Xoshiro256&, const core::UserParams&)>;

/// A run's service or latency distribution, as data.  Every run option that
/// picks a sampler takes a spec, so a run description can always be shipped
/// to framed ranks: the population frame carries the spec and each rank
/// rebuilds the same sampler (same parameters, same RNG-draw order) that the
/// in-process rank uses, hence bit-identical streams.  Service samplers have
/// mean 1/s_n and latency samplers mean tau_n for every device.
struct SamplerSpec {
  enum class Kind : std::uint8_t {
    kExponential = 0,
    kDeterministic = 1,
    /// Erlang-k service (SCV = 1/k); param = stage count k, an integer in
    /// [1, kMaxErlangStages].  Service only.
    kErlang = 2,
    /// Two-phase balanced-means hyperexponential service; param = SCV, a
    /// finite value >= 1.  Service only.
    kHyperExponential = 3,
    /// data = measured samples (finite, >= 0, positive mean), resampled and
    /// rescaled per device to the target mean.
    kEmpirical = 4,
  };
  static constexpr std::uint32_t kMaxErlangStages = core::kMaxErlangOrder;

  Kind kind = Kind::kExponential;
  double param = 0.0;
  std::vector<double> data;

  bool operator==(const SamplerSpec&) const = default;
};

/// Builds the sampler a spec describes.  An invalid spec throws
/// mec::RuntimeError naming the role (service or latency), the kind, the
/// received value and the accepted range; latency samplers accept the
/// exponential, deterministic and empirical kinds only.
ServiceSampler make_service_sampler(const SamplerSpec& spec);
LatencySampler make_latency_sampler(const SamplerSpec& spec);

/// How a run's shard legs execute relative to the coordinating process.
/// Either way the coordinator/worker split goes through the same
/// parallel::Transport seam and results are bit-identical — the transport
/// trades nothing but wall-clock and isolation (determinism contract #8,
/// docs/ARCHITECTURE.md).
enum class TransportKind {
  /// Workers are plain objects in this process sharing the workspace
  /// (today's default; zero-copy barrier views).
  kInProcess,
  /// The run forks W local `mec worker` ranks over socketpairs, each
  /// owning a contiguous slice of the shards and speaking the daemon
  /// protocol: handshake, population frame, then barrier payloads as
  /// length-prefixed CRC-checked frames.
  kProcess,
  /// The same framed ranks, hosted by `mec worker` daemons reached over TCP
  /// (SimulationOptions::worker_addresses, one rank per address).
  kTcp,
  // Both framed kinds run run_tro and run_dpo alike: the population frame
  // carries the offload rule, and ranks decide on a copy of the caller's
  // value array, refreshed after every epoch.
};

struct SimulationOptions {
  double warmup = 20.0;    ///< discarded transient, in simulated seconds
  double horizon = 200.0;  ///< measurement window length
  std::uint64_t seed = 1;
  SamplerSpec service;  ///< local service times (default exponential)
  SamplerSpec latency;  ///< wireless offload latencies (default exponential)
  /// If set, the edge delay uses this constant utilization (quasi-stationary
  /// evaluation); otherwise an online EWMA estimate with time constant
  /// `utilization_ewma_tau` is used, seeded from `initial_gamma`.
  std::optional<double> fixed_gamma;
  double utilization_ewma_tau = 10.0;
  double initial_gamma = 0.0;
  /// When > 0, the run records a TimelinePoint every `sample_interval`
  /// simulated seconds (from time 0 through warm-up and measurement).  A
  /// cadence (this or epoch_period) is 0 or at least (warmup + horizon) /
  /// 2^20, so a run has at most 2^20 grid instants.
  double sample_interval = 0.0;
  /// When > 0 and on_epoch is set, the engine invokes on_epoch(now, gamma)
  /// every `epoch_period` simulated seconds, where gamma is the engine's
  /// current utilization estimate.  The callback may rewrite elements of
  /// the threshold array the run was started with (run_tro) — this is how
  /// the closed-loop DTU runs *inside* the simulator (see
  /// mec/sim/closed_loop.hpp).  After the epoch's callbacks the coordinator
  /// checks the array once (every value finite and >= 0; a violation names
  /// the device, the value and the epoch time) and hands it to framed ranks
  /// before the next leg.
  double epoch_period = 0.0;
  std::function<void(double now, double gamma_estimate)> on_epoch;
  /// Per-cluster epoch hook: invoked at every epoch instant with the
  /// per-cluster utilization estimates (one entry per topology cluster;
  /// the fixed_gamma value replicated per cluster in quasi-stationary
  /// mode).  Controllers mutating decision state (thresholds driven by
  /// prices or cluster activation) must do so only here or in on_epoch —
  /// epoch instants are shard barriers, which is what keeps the policy
  /// families bit-identical across shard counts.  May be combined with
  /// on_epoch (it fires after); threshold rewrites are checked as for
  /// on_epoch.
  std::function<void(double now, std::span<const double> cluster_gammas)>
      on_cluster_epoch;
  /// Edge-cluster layout (defaults to one cluster covering the whole
  /// capacity — the scalar-gamma engine, bit-for-bit).  Devices route to
  /// cluster `device % clusters`; cluster k owns capacity
  /// `initial_devices * capacity * share(k)`.
  ClusterTopology topology;
  /// Optional deterministic fault/churn schedule (see mec/fault/).  Fault
  /// actions are injected as first-class events into the future-event list,
  /// so a schedule replays bit-identically for any thread count.  A null or
  /// empty schedule leaves the engine on the fault-free fast path with
  /// bit-identical results to a build without this feature.
  ///
  /// Semantics under faults:
  ///   - Capacity scaling rescales the *denominator* of the utilization
  ///     estimate (the EWMA path); a pinned `fixed_gamma` stays pinned.
  ///   - During an outage window, offload decisions are rerouted to the
  ///     local queue (kReject) or pay extra latency (kPenalty).
  ///   - Crashes drop the device's local queue (counted in
  ///     FaultStats::tasks_lost) and stop its arrivals until a restart.
  ///   - Churn joins append devices after the initial population, in
  ///     schedule order; threshold/probability spans must cover them (see
  ///     total_devices()).  Departures retire an active device for good.
  std::shared_ptr<const fault::FaultSchedule> faults;
  /// Shard count for the run's device partition: an explicit value >= 1
  /// wins; 0 (default) defers to the MEC_SHARDS environment variable, and
  /// with neither set the count is autotuned from the population size and
  /// hardware_concurrency() (parallel::auto_shard_count — K = 1 below
  /// ~10^4 devices).  Either way the count is capped at the population
  /// size.  Results are bit-identical for every shard count — sharding
  /// trades nothing but wall-clock (see parallel/shard_executor.hpp and
  /// docs/ARCHITECTURE.md for the exactness argument).
  std::size_t shards = 0;
  /// Execution transport for the shard legs (see TransportKind).  Results
  /// are bit-identical across transports for any shard/worker split.
  TransportKind transport = TransportKind::kInProcess;
  /// Forked-rank count for TransportKind::kProcess: 0 (default) picks 2;
  /// any value is capped at the run's shard count.  Ignored by kInProcess.
  /// Worker rank r owns the contiguous shard slice [K*r/W, K*(r+1)/W).
  std::size_t workers = 0;
  /// Worker daemon addresses ("host:port") for TransportKind::kTcp, one
  /// rank per entry in rank order.  The list must be duplicate-free and no
  /// longer than the run's shard count (every rank needs at least one
  /// shard).  Shard slices follow the same [K*r/W, K*(r+1)/W) rule, so any
  /// placement streams the exact inproc bytes.
  std::vector<std::string> worker_addresses;
  /// When non-empty, the run streams windowed telemetry to this .meclog
  /// path: one fixed-size window record per sample instant, flushed at the
  /// observation-grid barrier (see src/mec/obs/ and docs/OBSERVABILITY.md).
  /// Requires sample_interval > 0.  Window records are bit-identical to
  /// the in-memory timeline for every shard count.
  std::string stream_log;
  /// Emit engine-counter frames (events/s per shard, event-queue retunes,
  /// barrier wait, replay backlog, ...) into the stream log.  Counter
  /// frames are wall-clock diagnostics — useful, but not deterministic.
  /// No effect without stream_log.
  bool stream_counters = true;
  /// Record the in-memory SimulationResult::timeline.  Default on; long
  /// streamed runs turn it off so telemetry memory stays O(devices + one
  /// window) instead of O(samples).
  bool record_timeline = true;
};

/// Checks the fields a controller driver (run_closed_loop, run_price_based,
/// run_minority_game) cannot take from its caller, throwing
/// ContractViolation that names `driver` and the field: update_period must
/// be finite and > 0, and epoch_period, on_epoch and on_cluster_epoch must
/// be unset, because the driver sets them.  A driver that steers on measured
/// utilization (`steers_on_gamma`) also refuses fixed_gamma: under a pinned
/// gamma its callback would get the pinned value instead of a measurement.
void check_driver_options(const SimulationOptions& options,
                          double update_period, std::string_view driver,
                          bool steers_on_gamma);

/// Reusable per-run simulation state (device states, RNG streams, the
/// future-event list).  A default-constructed workspace is empty; the first
/// run sizes it, and reusing it across runs of same-sized populations makes
/// steady-state simulation allocation-free — the replication engine runs
/// thousands of same-shape simulations.  The event queues keep their block
/// pools, which hold about one block per 16 pending events plus one per
/// ring bucket, so a reused workspace stays near the pending count's
/// footprint.  Results are bit-identical whether or not a workspace is
/// reused.  A workspace must not be shared between concurrent runs.
class SimWorkspace {
 public:
  SimWorkspace();
  ~SimWorkspace();
  SimWorkspace(SimWorkspace&&) noexcept;
  SimWorkspace& operator=(SimWorkspace&&) noexcept;

  /// Opaque buffer block (defined in mec_simulation.cpp; the event loop
  /// there takes it by reference, which is why it cannot be private).
  struct Impl;

 private:
  friend class MecSimulation;
  std::unique_ptr<Impl> impl_;
};

/// One reusable simulator bound to a population and an edge configuration.
class MecSimulation {
 public:
  /// Copies the population. Requires non-empty users, capacity > 0, valid
  /// delay, warmup >= 0, horizon > 0.  Builds the samplers the options'
  /// specs describe, so an invalid spec throws here, before any rank is
  /// forked or connected.  When the options carry a fault
  /// schedule with churn, the joining users are appended to the population
  /// at construction (in schedule order): the spans passed to run_tro() and
  /// run_dpo() must then have total_devices() entries.  The nominal
  /// edge capacity stays `initial_devices() * capacity` — churn moves load,
  /// not infrastructure.
  MecSimulation(std::span<const core::UserParams> users, double capacity,
                core::EdgeDelay delay, SimulationOptions options = {});

  /// Runs the TRO policy with per-device thresholds (finite, x_n >= 0) read
  /// straight from the caller's array on every arrival.  The array must
  /// outlive the run; epoch callbacks may rewrite its elements (never
  /// resize it), and the next leg decides on the new values.
  SimulationResult run_tro(std::span<const double> thresholds) const;
  SimulationResult run_tro(std::span<const double> thresholds,
                           SimWorkspace& workspace) const;

  /// Runs the DPO policy with per-device offload probabilities: one
  /// bernoulli(rho_n) per arrival.  Every rho_n must lie in [0, 1]; a
  /// violation names the device and the value.
  SimulationResult run_dpo(std::span<const double> rhos) const;

  /// Initial population plus any churn users from the fault schedule, in
  /// device order: the population the threshold and probability spans of
  /// run_tro() and run_dpo() cover.
  std::span<const core::UserParams> users() const noexcept { return users_; }
  std::size_t total_devices() const noexcept { return users_.size(); }
  /// The population passed to the constructor (pre-churn).
  std::size_t initial_devices() const noexcept { return n_initial_; }

 private:
  /// Checks `values` for `rule` and runs the fault-free or fault-aware
  /// instantiation of the engine.
  SimulationResult dispatch(OffloadRule rule, std::span<const double> values,
                            SimWorkspace& workspace) const;

  std::vector<core::UserParams> users_;  ///< initial population + churn users
  std::size_t n_initial_ = 0;
  double capacity_;
  core::EdgeDelay delay_;
  SimulationOptions options_;
  ServiceSampler service_;  ///< built from options_.service
  LatencySampler latency_;  ///< built from options_.latency
};

}  // namespace mec::sim
