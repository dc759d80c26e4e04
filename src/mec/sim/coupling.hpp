// Edge-coupling layer: the only channel through which devices interact.
//
// In the paper's mean-field model users are coupled *exclusively* through
// the edge utilization gamma (Sec. III): an offload decision depends on the
// device's own queue and threshold, never on gamma, while gamma determines
// only the edge processing delay g(gamma) paid by offloaded tasks.  The
// sharded engine exploits that structure: shards simulate device dynamics
// independently and log each offload as an OffloadRecord; the
// gamma-dependent quantities (EWMA touchpoints, g(gamma) applications,
// delivery completion times, offload-delay metrics) are then reproduced by
// GammaReplay, a serial pass over the merged, time-ordered log.
//
// Determinism contract: EwmaRate's exponential decay is *not* decomposable
// (exp(-a)*exp(-b) != exp(-(a+b)) in floating point), so the replay touches
// the estimator at exactly the same instants, in exactly the same order, as
// the single-queue engine did — a rate read followed by a record_event per
// offload, in global time order, interleaved with a rate read at every
// sample/epoch grid instant (grid reads happen before same-time offloads,
// matching the flush-before-event rule).  Under that replay the K-shard run
// is bit-identical to K = 1 for any K.
//
// With a ClusterTopology the edge is a vector of clusters, each with its
// own capacity share and EwmaRate: records carry the cluster id their
// device routes to, and the replay touches exactly that cluster's
// estimator, still in global time order.  A 1-cluster topology reduces to
// the scalar engine bit-for-bit (share 1.0 multiplies capacities by exactly
// 1.0, and the bank is read directly, never through a weighted average).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/sim/device_state.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::sim {

/// Static description of the edge-cluster layout.  The single-cluster
/// default reproduces the scalar-gamma engine bit-for-bit: cluster 0 owns
/// the whole capacity (share 1.0, and x * 1.0 == x in IEEE arithmetic) and
/// every device routes to it.  Routing is a pure function of the device id
/// (device % clusters), so it is identical for every shard count and never
/// consumes RNG.
struct ClusterTopology {
  std::size_t clusters = 1;
  /// Per-cluster capacity shares; empty means an equal split.  When given,
  /// must have `clusters` entries, each > 0, summing to 1.
  std::vector<double> shares;

  std::size_t route(std::uint32_t device) const noexcept {
    return device % clusters;
  }
  double share(std::size_t cluster) const {
    return shares.empty() ? 1.0 / static_cast<double>(clusters)
                          : shares[cluster];
  }
  /// Throws ContractViolation naming the field, the value and the accepted
  /// range: clusters in [1, 65534] (cluster ids are u16 on the wire, 0xFFFF
  /// is reserved), and shares, when given, one per cluster, each > 0,
  /// summing to 1.
  void check() const;
};

/// Exponentially-weighted estimator of the aggregate offload task rate.
class EwmaRate {
 public:
  EwmaRate(double time_constant, double initial_rate)
      : tau_(time_constant), rate_(initial_rate) {
    MEC_EXPECTS(tau_ > 0.0);
    MEC_EXPECTS(initial_rate >= 0.0);
  }

  void record_event(double now) {
    decay_to(now);
    rate_ += 1.0 / tau_;
  }

  double rate_at(double now) {
    decay_to(now);
    return rate_;
  }

 private:
  void decay_to(double now) {
    if (now > last_) {
      rate_ *= std::exp(-(now - last_) / tau_);
      last_ = now;
    }
  }
  double tau_;
  double rate_;
  double last_ = 0.0;
};

/// One offload decision, logged by a shard leg for the central replay.
/// Everything gamma-independent is already resolved (the wireless latency
/// draw, the outage-penalty amount in effect, the measurement-window flag);
/// the replay only adds the g(gamma) edge delay.
struct OffloadRecord {
  double time = 0.0;       ///< arrival/decision instant
  double latency = 0.0;    ///< wireless latency sample (device RNG)
  double penalty = 0.0;    ///< outage latency penalty in effect, else 0
  std::uint32_t device = 0;
  std::uint16_t cluster = 0;  ///< target edge cluster (topology routing)
  bool measured = false;   ///< decision fell inside the measurement window
  bool penalized = false;  ///< a kPenalty outage window was open
};

/// Serial replay of the gamma-coupled quantities over merged shard logs.
/// Lives for one run; consume() is called once per leg (all records
/// produced by that leg), gamma_at() once per sample/epoch grid read, in
/// strict time order.  Each shard's log is time-sorted by construction;
/// ties across shards break by shard index (contiguous partitions put the
/// lower device first, matching the single-queue tie-break; exact
/// cross-shard time ties have probability zero under the model's
/// continuous inter-event distributions).
class GammaReplay {
 public:
  GammaReplay(const core::EdgeDelay& delay, double ewma_tau,
              double initial_gamma, double edge_capacity, double warmup,
              double t_end, std::uint32_t n_initial,
              std::span<const fault::ResolvedAction> plan_actions,
              const ClusterTopology& topology = {})
      : delay_(&delay), warmup_(warmup), t_end_(t_end) {
    caps_.reserve(topology.clusters);
    bank_.reserve(topology.clusters);
    for (std::size_t k = 0; k < topology.clusters; ++k) {
      caps_.push_back(edge_capacity * topology.share(k));
      bank_.emplace_back(ewma_tau, initial_gamma * caps_[k]);
    }
    walk_.actions = plan_actions;
    walk_.active = n_initial;
    walk_.cluster_scale.assign(topology.clusters, 1.0);
  }

  /// Replays every record of `logs` in merged time order: advances the
  /// environment walk, applies g(gamma) (+ the outage penalty), touches the
  /// EWMA, accumulates the measured per-device offload-delay sums and the
  /// delay sketch, and counts edge deliveries landing inside the horizon.
  ///
  /// `offload_delay_sums` is an n_devices array owned by the coordinator,
  /// not the DeviceState field: the replay runs in the coordinator while
  /// device states may live in worker processes, and the two accumulations
  /// never mix — a tracked-gamma run leaves every DeviceState's
  /// offload_delay_sum at 0.0, so the final per-device delay is exactly one
  /// of the two sources.
  void consume(std::span<const std::span<const OffloadRecord>> logs,
               double* offload_delay_sums,
               stats::LatencySketch& offload_delays);

  /// Utilization estimate at a grid instant (left limit: environment
  /// actions at exactly `at` are not yet applied).  Mutates the EWMA decay
  /// state, exactly like the single-queue engine's sample/epoch reads.
  /// Single cluster reads its bank entry directly (never a weighted
  /// average, which would perturb the bits); multiple clusters aggregate
  /// total rate over total effective capacity.
  double gamma_at(double at) {
    walk_.advance_to(at, /*inclusive=*/false);
    if (bank_.size() == 1) return clamped_gamma(bank_[0].rate_at(at), 0);
    double rate = 0.0;
    double cap = 0.0;
    for (std::size_t k = 0; k < bank_.size(); ++k) {
      rate += bank_[k].rate_at(at);
      cap += caps_[k] * walk_.scale * walk_.cluster_scale[k];
    }
    return std::clamp(rate / cap, 0.0, 1.0);
  }

  /// Per-cluster utilization estimates at a grid instant (same left-limit
  /// and decay semantics as gamma_at; the two may be called at the same
  /// instant — decay is idempotent at a fixed time).
  std::span<const double> cluster_gammas(double at) {
    walk_.advance_to(at, /*inclusive=*/false);
    gammas_.resize(bank_.size());
    for (std::size_t k = 0; k < bank_.size(); ++k)
      gammas_[k] = clamped_gamma(bank_[k].rate_at(at), k);
    return gammas_;
  }

  std::size_t clusters() const noexcept { return bank_.size(); }
  /// Offload deliveries with completion time <= t_end (they pop as events
  /// in the single-queue engine and count toward total_events).
  std::uint64_t deliveries() const noexcept { return deliveries_; }
  /// True when a delivery lands inside [warmup, t_end]: its pop alone
  /// would have flipped the measurement window open.
  bool delivery_flip_trigger() const noexcept { return flip_trigger_; }

 private:
  double clamped_gamma(double rate, std::size_t cluster) const;

  const core::EdgeDelay* delay_;
  std::vector<EwmaRate> bank_;  ///< one EWMA per cluster
  std::vector<double> caps_;    ///< per-cluster nominal capacity
  fault::EnvWalk walk_;
  double warmup_;
  double t_end_;
  std::uint64_t deliveries_ = 0;
  bool flip_trigger_ = false;
  std::vector<std::size_t> cursors_;  ///< per-shard scratch for the merge
  std::vector<double> gammas_;        ///< cluster_gammas() scratch
};

}  // namespace mec::sim
