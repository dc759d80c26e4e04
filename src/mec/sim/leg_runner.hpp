// Per-rank leg execution: the hot event loop and the LegRunner that serves
// it to the coordinator as a parallel::Transport (see
// parallel/transport.hpp).
//
// Everything in this header runs *between* barriers and touches only the
// rank's own shards — device states, RNG streams, per-shard queues and
// counters.  The serial barrier work (gamma replay, epoch callbacks,
// stream windows) lives in sim/coordinator.hpp; the two halves communicate
// only through BarrierRequest/ShardBarrierView, which is what lets the
// same code serve the in-process rank and a forked worker process
// unchanged.
//
// This header is internal to the engine: the templates here are
// instantiated once per fault mode, in mec_simulation.cpp and in
// net/worker.cpp.  The offload rule is data (LegContext::rule), decided by
// sim::decide on every arrival.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/common/prefetch.hpp"
#include "mec/fault/fault_plan.hpp"
#include "mec/parallel/shard_executor.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/des.hpp"
#include "mec/sim/device_state.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/policy_dispatch.hpp"

namespace mec::sim::engine {

/// Immutable per-run parameters shared by every shard leg: the run's shape
/// and the run's arrays, each indexed by global device id.
struct LegContext : parallel::RunShape {
  const core::UserParams* users = nullptr;
  DeviceState* devices = nullptr;
  random::Xoshiro256* rngs = nullptr;
  /// The per-device values `rule` decides on, read on every arrival.  Epoch
  /// callbacks may rewrite them between legs; a framed rank reads its own
  /// copy.
  const double* values = nullptr;
  const ServiceSampler* service = nullptr;
  const LatencySampler* latency = nullptr;
  /// The resolved fault plan (empty without faults); each shard seeds its
  /// view from it.
  std::span<const fault::ResolvedAction> actions;
};

/// Applies one resolved fault action inside a shard leg.  Views contain
/// only outage toggles and *effective* membership actions for this shard's
/// range, so no state checks are needed here — the plan already made them.
inline void apply_shard_fault(parallel::ShardContext& sc, const LegContext& lc,
                              const fault::ResolvedAction& a, double now) {
  switch (a.kind) {
    case fault::FaultKind::kOutageBegin:
      sc.outage = true;
      sc.outage_mode = a.outage_mode;
      sc.outage_penalty = a.value;
      break;
    case fault::FaultKind::kOutageEnd:
      sc.outage = false;
      break;
    case fault::FaultKind::kDeviceCrash:
    case fault::FaultKind::kUserDeparture: {
      DeviceState& victim = lc.devices[a.device];
      victim.integrate_to(now);
      if (sc.measuring) sc.tasks_lost += victim.local_queue.size();
      victim.local_queue.clear();
      sc.arrival_seq[a.device - sc.lo] = parallel::ShardContext::kNoEvent;
      sc.departure_seq[a.device - sc.lo] = parallel::ShardContext::kNoEvent;
      break;
    }
    case fault::FaultKind::kDeviceRestart:
      sc.arrival_seq[a.device - sc.lo] = sc.queue.scheduled_count();
      sc.queue.push(now + random::exponential(lc.rngs[a.device],
                                              lc.users[a.device].arrival_rate),
                    EventKind::kArrival, a.device);
      break;
    case fault::FaultKind::kUserArrival:
      // The device's measurement clock starts at its join, not at 0.
      lc.devices[a.device].last_change = now;
      sc.arrival_seq[a.device - sc.lo] = sc.queue.scheduled_count();
      sc.queue.push(now + random::exponential(lc.rngs[a.device],
                                              lc.users[a.device].arrival_rate),
                    EventKind::kArrival, a.device);
      break;
    case fault::FaultKind::kCapacityScale:
      break;  // central-only; never enters a shard view
  }
}

/// Books one fixed-gamma delivery that lands at `delivery` inside the
/// current leg.  In the single-queue engine its pop only counts as an event
/// and, at or after warm-up, opens the window (ShardContext::delivery_flip).
inline void count_delivery(parallel::ShardContext& sc, double delivery,
                           double warmup) {
  ++sc.events;
  if (delivery >= warmup) sc.delivery_flip = true;
}

/// How many pops ahead, in the sorted window, run_leg prefetches an event's
/// device state: far enough for the loads to land before the pop, near
/// enough that they are not evicted first.  Chosen against 2 and 8 on the
/// suite (EXPERIMENTS.md, "An O(pending) calendar ring").
inline constexpr std::size_t kPrefetchAhead = 4;

/// Starts loading everything an event of `device` touches: its two
/// DeviceState lines, its RNG, its UserParams and its decision value.
inline void prefetch_device(const LegContext& lc, std::uint32_t device) {
  const char* dev_lines = reinterpret_cast<const char*>(&lc.devices[device]);
  MEC_PREFETCH(dev_lines);
  MEC_PREFETCH(dev_lines + 64);
  MEC_PREFETCH(&lc.rngs[device]);
  MEC_PREFETCH(&lc.users[device]);
  MEC_PREFETCH(&lc.values[device]);
}

/// One shard leg: drains the shard's queue up to `limit` (exclusive at
/// barriers, inclusive for the final leg to t_end).  This is the hot loop,
/// instantiated per fault mode so fault-free runs fold every fault branch
/// away; the offload rule is one predictable branch per arrival.
template <bool WithFaults>
void run_leg(parallel::ShardContext& sc, const LegContext& lc, double limit,
             bool inclusive) {
  const auto in_leg = [&](double t) {
    return inclusive ? t <= limit : t < limit;
  };
  // Fixed-gamma deliveries carried over the last barrier: count those that
  // land in this leg, keep the rest for a later one.
  std::erase_if(sc.carried_deliveries, [&](double delivery) {
    if (!in_leg(delivery)) return false;
    count_delivery(sc, delivery, lc.warmup);
    return true;
  });
  EventQueue& queue = sc.queue;
  while (!queue.empty()) {
    {
      const double t = queue.next_time();
      if (t > lc.t_end || !in_leg(t)) return;
    }
    const Event e = queue.pop();
    if (!queue.empty()) {
      // Start pulling the state of the next pending event, which is
      // (usually) the next one processed, and of the event kPrefetchAhead
      // places further on in the sorted window, while this event is
      // handled.  A pending kFault's `device` is a view index, so it must
      // not index the device arrays (prefetching a wrong-but-valid slot is
      // harmless; forming an out-of-range pointer is not); the window
      // reports kMaxDevices when it holds too few nodes.
      const std::uint32_t upcoming = queue.next_device();
      if (!WithFaults || upcoming < lc.n_devices) prefetch_device(lc, upcoming);
      const std::uint32_t ahead = queue.window_device_ahead(kPrefetchAhead);
      if (ahead < lc.n_devices) prefetch_device(lc, ahead);
    }
    const double now = e.time;
    if (!sc.measuring && now >= lc.warmup) {
      // First pop at or past the warm-up boundary opens this shard's
      // measurement window.  Resetting only the owned range is equivalent
      // to the single-queue engine's global reset: devices of other shards
      // had no events since the global first-crossing either, and the
      // reset value depends only on `warmup`.
      sc.measuring = true;
      sc.flipped = true;
      for (std::uint32_t d = sc.lo; d < sc.hi; ++d)
        lc.devices[d].reset_measurements(lc.warmup);
    }

    if constexpr (WithFaults) {
      if (e.kind == EventKind::kFault) {
        // No ++sc.events here: outage toggles sit in every shard's view, so
        // fault pops are counted centrally, once per schedule action.
        apply_shard_fault(sc, lc, sc.view[e.device], now);
        continue;
      }
    }
    ++sc.events;

    DeviceState& dev = lc.devices[e.device];
    random::Xoshiro256& rng = lc.rngs[e.device];
    const core::UserParams& u = lc.users[e.device];

    switch (e.kind) {
      case EventKind::kArrival: {
        if constexpr (WithFaults) {
          // A stale arrival chain (pre-crash or pre-departure) is skipped
          // without consuming RNG draws; the live chain — if the device is
          // alive — has a matching sequence number by construction.
          if (e.seq != sc.arrival_seq[e.device - sc.lo]) break;
        }
        dev.integrate_to(now);
        if (sc.measuring) ++dev.arrivals;
        bool offload = decide(lc.rule, lc.values[e.device],
                              dev.local_queue.size(), rng);
        if constexpr (WithFaults) {
          // Outage check sits *after* the decision so the Bernoulli draw at
          // the boundary state is consumed either way (RNG alignment).
          if (offload && sc.outage &&
              sc.outage_mode == fault::OutageMode::kReject) {
            offload = false;
            if (sc.measuring) ++sc.offloads_rejected;
          }
        }
        if (offload) {
          // Static routing: device d feeds cluster d mod K.  The branch
          // keeps the 1-cluster fast path free of the modulo.
          const std::uint16_t cluster =
              lc.n_clusters > 1
                  ? static_cast<std::uint16_t>(e.device % lc.n_clusters)
                  : std::uint16_t{0};
          double penalty = 0.0;
          bool penalized = false;
          if constexpr (WithFaults) {
            if (sc.outage && sc.outage_mode == fault::OutageMode::kPenalty) {
              penalty = sc.outage_penalty;
              penalized = true;
              if (sc.measuring) ++sc.offloads_penalized;
            }
          }
          const double latency = (*lc.latency)(rng, u);
          if (lc.has_fixed_gamma) {
            // Pinned gamma: the edge delay is shard-local, so the delivery
            // and all offload metrics complete right here.
            double delay_value = lc.fixed_delay;
            if (penalized) delay_value += penalty;
            if (sc.measuring) {
              ++dev.offloaded;
              ++sc.offloads_in_window;
              ++sc.cluster_offloads[cluster];
              dev.offload_delay_sum += latency + delay_value;
              dev.energy_sum += u.energy_offload;
              sc.offload_delays.add(latency + delay_value);
            }
            // A delivery touches no state, so it is counted in the leg it
            // lands in (limit <= t_end) rather than queued, and one landing
            // after t_end is not counted at all.  Leaving it out of the
            // queue keeps the (time, seq) order of every other event.
            const double delivery = now + latency + delay_value;
            MEC_EXPECTS(std::isfinite(delivery));
            MEC_EXPECTS(delivery >= 0.0);
            if (in_leg(delivery))
              count_delivery(sc, delivery, lc.warmup);
            else if (delivery <= lc.t_end)
              sc.carried_deliveries.push_back(delivery);
          } else {
            // Tracked gamma: everything g(gamma)-dependent (edge delay,
            // delivery time, delay metrics) is deferred to the central
            // replay; the gamma-free parts stay shard-local.
            sc.log.push_back(OffloadRecord{now, latency, penalty, e.device,
                                           cluster, sc.measuring, penalized});
            if (sc.measuring) {
              ++dev.offloaded;
              ++sc.offloads_in_window;
              ++sc.cluster_offloads[cluster];
              dev.energy_sum += u.energy_offload;
            }
          }
        } else {
          dev.local_queue.push_back(now);
          if (sc.measuring) dev.energy_sum += u.energy_local;
          if (dev.local_queue.size() == 1) {  // idle server: start service
            if constexpr (WithFaults)
              sc.departure_seq[e.device - sc.lo] = queue.scheduled_count();
            queue.push(now + (*lc.service)(rng, u),
                       EventKind::kLocalDeparture, e.device);
          }
        }
        if constexpr (WithFaults)
          sc.arrival_seq[e.device - sc.lo] = queue.scheduled_count();
        queue.push(now + random::exponential(rng, u.arrival_rate),
                   EventKind::kArrival, e.device);
        break;
      }
      case EventKind::kLocalDeparture: {
        if constexpr (WithFaults) {
          if (e.seq != sc.departure_seq[e.device - sc.lo]) break;  // stale
        }
        dev.integrate_to(now);
        MEC_ASSERT(!dev.local_queue.empty());
        const double arrived_at = dev.local_queue.front();
        dev.local_queue.pop_front();
        if (sc.measuring) {
          ++dev.local_completed;
          // Sojourn clipped to the window start for tasks arriving in
          // warm-up: only the portion spent inside the measurement window
          // counts, so a long transient backlog cannot leak into the
          // steady-state mean.
          const double sojourn = now - std::max(arrived_at, lc.warmup);
          dev.local_sojourn_sum += sojourn;
          sc.local_sojourns.add(sojourn);
        }
        if (!dev.local_queue.empty()) {
          if constexpr (WithFaults)
            sc.departure_seq[e.device - sc.lo] = queue.scheduled_count();
          queue.push(now + (*lc.service)(rng, u),
                     EventKind::kLocalDeparture, e.device);
        } else {
          if constexpr (WithFaults)
            sc.departure_seq[e.device - sc.lo] =
                parallel::ShardContext::kNoEvent;
        }
        break;
      }
      case EventKind::kFault:
        // Handled (and `continue`d) before the device references above.
        MEC_ASSERT(WithFaults);
        break;
    }
  }
}

/// Builds a shard's fault view and seeds its queue: view actions first (at
/// equal times the environment change applies before any task event —
/// lower sequence number), then the initial arrivals of the owned range in
/// device order (matching the global RNG-consumption order per device).
/// Only the owned range of the run's arrays is read.
template <bool WithFaults>
void init_shard(parallel::ShardContext& sc, const LegContext& lc) {
  if constexpr (WithFaults) {
    for (const fault::ResolvedAction& a : lc.actions) {
      const bool outage_toggle = a.kind == fault::FaultKind::kOutageBegin ||
                                 a.kind == fault::FaultKind::kOutageEnd;
      const bool owned_membership =
          a.effective && a.device != fault::ResolvedAction::kNoDevice &&
          a.device >= sc.lo && a.device < sc.hi;
      if (outage_toggle || owned_membership) sc.view.push_back(a);
    }
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(sc.view.size()); ++i)
      sc.queue.push(sc.view[i].time, EventKind::kFault, i);
    sc.arrival_seq.assign(sc.hi - sc.lo, parallel::ShardContext::kNoEvent);
    sc.departure_seq.assign(sc.hi - sc.lo, parallel::ShardContext::kNoEvent);
  }
  for (std::uint32_t d = sc.lo; d < sc.hi && d < lc.n_initial; ++d) {
    if constexpr (WithFaults)
      sc.arrival_seq[d - sc.lo] = sc.queue.scheduled_count();
    sc.queue.push(random::exponential(lc.rngs[d], lc.users[d].arrival_rate),
                  EventKind::kArrival, d);
  }
}

/// One rank's executable side: owns the shard slice [shard_lo, shard_hi)
/// of the run's shard contexts and advances it barrier by barrier.  The
/// in-process run hands one LegRunner covering every shard to the
/// coordinator as its transport; a framed rank (net/worker.cpp) builds one
/// for its slice (deciding on its copy of the run's values, refreshed by
/// broadcast_thresholds at epochs) and serves it over its fd.
template <bool WithFaults>
class LegRunner final : public parallel::Transport {
 public:
  /// Resets and seeds the owned shards from `lc`; `shards` holds the run's
  /// shard_count contexts, and the devices and RNG streams of the owned
  /// range must hold their pre-run state.  A single-shard rank runs
  /// serially; a multi-shard one runs on `pool`, rebuilt here unless it has
  /// one lane per owned shard (capped at the hardware concurrency), so a
  /// caller that keeps the pool reuses it across runs.  `value_mirror` is
  /// the buffer a framed rank's lc.values points into (null for the
  /// in-process rank, which reads the caller's array).
  LegRunner(std::vector<parallel::ShardContext>& shards, const LegContext& lc,
            std::size_t shard_lo, std::size_t shard_hi,
            std::unique_ptr<parallel::ThreadPool>& pool,
            std::vector<double>* value_mirror)
      : shards_(shards),
        lc_(lc),
        shard_lo_(shard_lo),
        shard_hi_(shard_hi),
        mirror_(value_mirror) {
    MEC_EXPECTS(shard_lo_ < shard_hi_ && shard_hi_ <= shards_.size());
    MEC_EXPECTS(shards_.size() == lc_.shard_count);
    for (std::size_t s = shard_lo_; s < shard_hi_; ++s) {
      parallel::ShardContext& sc = shards_[s];
      sc.reset(parallel::shard_bound(lc_.n_devices, lc_.shard_count, s),
               parallel::shard_bound(lc_.n_devices, lc_.shard_count, s + 1),
               /*measuring_from_start=*/lc_.warmup == 0.0);
      sc.cluster_offloads.assign(lc_.n_clusters, 0);
      init_shard<WithFaults>(sc, lc_);
    }
    const std::size_t owned = shard_hi_ - shard_lo_;
    const std::size_t lanes =
        std::min(owned, parallel::resolve_thread_count(0));
    if (owned > 1 && (!pool || pool->thread_count() != lanes))
      pool = std::make_unique<parallel::ThreadPool>(lanes);
    pool_ = pool.get();
    leg_seconds_.assign(owned, 0.0);
  }

  std::size_t ranks() const override { return 1; }

  /// Records the leg; collect() runs it, so the previous barrier's views,
  /// which point into the shards' logs, stay valid until then.
  void start(const parallel::BarrierRequest& req) override { request_ = req; }

  /// Advances every owned shard to the started request's limit and returns
  /// the rebuilt barrier views (and, per the request flags, the queue
  /// sums).
  std::span<const parallel::ShardBarrierView> collect() override {
    const parallel::BarrierRequest& req = request_;
    // The previous leg's offload log was consumed (or serialized) at the
    // last barrier; freeing it here keeps the in-process views zero-copy.
    for (std::size_t s = shard_lo_; s < shard_hi_; ++s)
      shards_[s].log.clear();
    // Every leg is timed; a queue-stats request reports (and restarts)
    // each shard's total since the previous one, so a window's leg time
    // covers its epoch-only legs too.
    const auto run_one = [&](std::size_t s) {
      const auto t0 = std::chrono::steady_clock::now();
      run_leg<WithFaults>(shards_[s], lc_, req.limit, req.inclusive);
      const std::chrono::duration<double> leg =
          std::chrono::steady_clock::now() - t0;
      leg_seconds_[s - shard_lo_] += leg.count();
    };
    const std::size_t owned = shard_hi_ - shard_lo_;
    if (owned == 1) {
      run_one(shard_lo_);
    } else {
      pool_->parallel_for_each(
          owned, [&](std::size_t i) { run_one(shard_lo_ + i); });
    }
    views_.clear();
    for (std::size_t s = shard_lo_; s < shard_hi_; ++s) {
      const parallel::ShardContext& sc = shards_[s];
      parallel::ShardBarrierView v;
      v.shard = static_cast<std::uint32_t>(s);
      v.log = {sc.log.data(), sc.log.size()};
      v.events = sc.events;
      v.offloads_in_window = sc.offloads_in_window;
      v.tasks_lost = sc.tasks_lost;
      v.offloads_rejected = sc.offloads_rejected;
      v.offloads_penalized = sc.offloads_penalized;
      v.cluster_offloads = sc.cluster_offloads;
      v.flipped = sc.flipped || sc.delivery_flip;
      if (req.want_sketches) {
        v.local_sojourns = &sc.local_sojourns;
        v.offload_delays = &sc.offload_delays;
      }
      if (req.want_queue_stats) {
        v.has_queue_stats = true;
        v.queue_depth = static_cast<double>(sc.queue.size());
        v.calendar_gear = sc.queue.tuned() ? 1.0 : 0.0;
        v.gear_switches = static_cast<double>(sc.queue.tuned_transitions());
        v.calendar_retunes = static_cast<double>(sc.queue.calendar_retunes());
        v.leg_seconds = std::exchange(leg_seconds_[s - shard_lo_], 0.0);
      }
      views_.push_back(v);
    }
    total_q_ = 0.0;
    total_q2_ = 0.0;
    if (req.want_q) {
      // Same loop shapes as the pre-rank engine: the q^2 accumulation is
      // taken only when a stream needs the second moment.
      if (req.want_q2) {
        for (std::uint32_t d = device_lo(); d < device_hi(); ++d) {
          const double q =
              static_cast<double>(lc_.devices[d].local_queue.size());
          total_q_ += q;
          total_q2_ += q * q;
        }
      } else {
        for (std::uint32_t d = device_lo(); d < device_hi(); ++d)
          total_q_ += static_cast<double>(lc_.devices[d].local_queue.size());
      }
    }
    return views_;
  }

  double total_q() const override { return total_q_; }
  double total_q2() const override { return total_q2_; }

  void broadcast_thresholds(std::span<const double> values) override {
    if (mirror_ == nullptr) return;  // the in-process rank has no copy
    MEC_EXPECTS(values.size() == mirror_->size());
    std::copy(values.begin(), values.end(), mirror_->begin());
  }

  void finalize(bool flipped) override {
    if (flipped) {
      for (std::size_t s = shard_lo_; s < shard_hi_; ++s) {
        const parallel::ShardContext& sc = shards_[s];
        if (sc.flipped) continue;
        for (std::uint32_t d = sc.lo; d < sc.hi; ++d)
          lc_.devices[d].reset_measurements(lc_.warmup);
      }
    }
    for (std::uint32_t d = device_lo(); d < device_hi(); ++d)
      lc_.devices[d].integrate_to(lc_.t_end);
  }

  parallel::DeviceTotals device_totals(std::uint32_t device) const override {
    const DeviceState& dev = lc_.devices[device];
    parallel::DeviceTotals t;
    t.arrivals = dev.arrivals;
    t.offloaded = dev.offloaded;
    t.local_completed = dev.local_completed;
    t.queue_integral = dev.queue_integral;
    t.local_sojourn_sum = dev.local_sojourn_sum;
    t.offload_delay_sum = dev.offload_delay_sum;
    t.energy_sum = dev.energy_sum;
    return t;
  }

  bool metered() const override { return false; }
  parallel::RankStats rank_stats(std::size_t) const override { return {}; }

  /// The owned device range, [device_lo(), device_hi()).
  std::uint32_t device_lo() const { return shards_[shard_lo_].lo; }
  std::uint32_t device_hi() const { return shards_[shard_hi_ - 1].hi; }

 private:
  std::span<parallel::ShardContext> shards_;
  LegContext lc_;
  std::size_t shard_lo_;
  std::size_t shard_hi_;
  parallel::ThreadPool* pool_;  ///< used only with more than one shard
  std::vector<double>* mirror_;
  parallel::BarrierRequest request_;  ///< the started leg
  std::vector<parallel::ShardBarrierView> views_;
  /// Per owned shard: wall seconds of its legs since the last queue-stats
  /// request.
  std::vector<double> leg_seconds_;
  double total_q_ = 0.0;
  double total_q2_ = 0.0;
};

}  // namespace mec::sim::engine
