#include "mec/sim/coordinator.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/observer.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::sim::engine {
namespace {

/// Self-describing meta frame for a run's stream log: scenario shape,
/// cadences, gamma mode, and the counter catalogue.  Values here describe
/// the run, so they are identical for every shard count except `shards`
/// itself — and deliberately carry nothing transport-specific, which is
/// what lets CI byte-compare a framed-transport stream against the
/// in-process one.  Determinism tests compare window frames, not metadata.
obs::RunLogMeta make_stream_meta(const CoordinatorContext& cc) {
  const SimulationOptions& options = *cc.options;
  obs::RunLogMeta meta;
  meta.emplace_back("n_devices", std::to_string(cc.n_devices));
  meta.emplace_back("n_initial", std::to_string(cc.n_initial));
  meta.emplace_back("capacity", obs::meta_double(cc.capacity));
  meta.emplace_back("clusters", std::to_string(cc.n_clusters));
  meta.emplace_back("seed", std::to_string(options.seed));
  meta.emplace_back("warmup", obs::meta_double(cc.warmup));
  meta.emplace_back("horizon", obs::meta_double(options.horizon));
  meta.emplace_back("window", obs::meta_double(options.sample_interval));
  meta.emplace_back("epoch_period", obs::meta_double(options.epoch_period));
  meta.emplace_back("gamma",
                    cc.has_fixed_gamma
                        ? "fixed=" + obs::meta_double(*options.fixed_gamma)
                        : std::string("tracked"));
  meta.emplace_back("shards", std::to_string(cc.shard_count));
  meta.emplace_back("faults", cc.with_faults ? "1" : "0");
  std::string catalogue;
  for (std::uint16_t id = 0; id < obs::kCounterCount; ++id) {
    if (!catalogue.empty()) catalogue += ';';
    catalogue += std::to_string(id) + "=" +
                 obs::counter_name(static_cast<obs::Counter>(id));
  }
  meta.emplace_back("counters", catalogue);
  return meta;
}

/// Snapshot of a cumulative sketch; all zeros while the sketch is empty
/// (min()/max() of an empty sketch are sentinels, not data).
void snapshot(const stats::LatencySketch& sketch, std::uint64_t& count,
              double& min, double& max, double& p50, double& p95,
              double& p99) {
  count = sketch.count();
  if (count == 0) return;
  min = sketch.min();
  max = sketch.max();
  p50 = sketch.p50();
  p95 = sketch.p95();
  p99 = sketch.p99();
}

/// One barrier's views summed over shards, and their latency sketches
/// merged into fresh ones when the views carry them.  Every sum and the
/// log-binned merge are exact in any order, so the fold is K-invariant.
struct ViewFold {
  std::uint64_t events = 0;
  std::uint64_t offloads_in_window = 0;
  std::uint64_t tasks_lost = 0;
  std::uint64_t offloads_rejected = 0;
  std::uint64_t offloads_penalized = 0;
  std::vector<std::uint64_t> cluster_offloads;
  stats::LatencySketch local_sojourns;
  stats::LatencySketch offload_delays;  ///< the shards' own (fixed gamma)
};

using Views = std::span<const parallel::ShardBarrierView>;

/// The barrier-serial half of one run.  run() walks the observation grid:
/// at each instant the transport collects every rank's leg to the barrier,
/// and the stages consume the barrier's views in a fixed order — replay(),
/// then sample() at sample instants and epoch() at epoch instants.  The
/// final barrier closes the run through replay() and finish().  Members
/// hold the state that lives across barriers; everything else is a stage's
/// input.
///
/// run() looks one grid instant ahead.  A rank's leg reads nothing the
/// stages write except the thresholds, which change only at epochs, so at a
/// barrier with no epoch the next leg starts before replay() and sample(),
/// and the ranks run it while the coordinator works.  At an epoch barrier
/// the next leg starts after epoch()'s threshold broadcast.  Either way
/// every rank receives the same frames in the same order.
class Coordinator {
 public:
  Coordinator(const CoordinatorContext& cc, parallel::Transport& transport)
      : cc_(cc), transport_(transport) {
    if (!options_.stream_log.empty())
      log_.emplace(options_.stream_log, make_stream_meta(cc));
    if (cc_.has_fixed_gamma) {
      fixed_cluster_gammas_.assign(cc.n_clusters, *options_.fixed_gamma);
    } else {
      gamma_.emplace(*cc.delay, options_.utilization_ewma_tau,
                     options_.initial_gamma, cc.edge_capacity, cc.warmup,
                     cc.t_end, cc.n_initial, plan_.actions, options_.topology);
      replay_delay_.assign(cc.n_devices, 0.0);
    }
    walk_.actions = plan_.actions;
    walk_.active = cc.n_initial;
  }

  SimulationResult run() {
    ObservationGrid grid(options_.sample_interval, options_.epoch_period,
                         cc_.t_end);
    GridInstant next;
    bool more = grid.next(next);
    // The leg to `next`, or the final leg once the grid is done.
    const auto start_next = [&] {
      transport_.start(request(more ? &next : nullptr));
    };
    start_next();
    while (more) {
      const GridInstant g = next;
      const Views views = transport_.collect();
      more = grid.next(next);
      if (!g.epoch) start_next();
      replay(views);
      if (g.sample) sample(g.time, views);
      if (g.epoch) {
        epoch(g.time);
        start_next();
      }
    }
    const Views final_views = transport_.collect();
    replay(final_views);
    return finish(final_views);
  }

 private:
  /// The leg to grid instant `g`, or the final inclusive leg to t_end
  /// when `g` is null.
  parallel::BarrierRequest request(const GridInstant* g) const {
    parallel::BarrierRequest req;
    if (g == nullptr) {
      req.limit = cc_.t_end;
      req.inclusive = true;
      req.want_sketches = true;  // run-end percentile merges in finish()
      return req;
    }
    req.limit = g->time;
    req.want_q = g->sample;
    req.want_q2 = req.want_sketches = g->sample && log_.has_value();
    req.want_queue_stats = g->sample && counters_;
    return req;
  }

  ViewFold fold_views(Views views, bool sketches) const {
    ViewFold f;
    f.cluster_offloads.assign(cc_.n_clusters, 0);
    for (const parallel::ShardBarrierView& v : views) {
      f.events += v.events;
      f.offloads_in_window += v.offloads_in_window;
      f.tasks_lost += v.tasks_lost;
      f.offloads_rejected += v.offloads_rejected;
      f.offloads_penalized += v.offloads_penalized;
      for (std::uint32_t k = 0; k < cc_.n_clusters; ++k)
        f.cluster_offloads[k] += v.cluster_offloads[k];
      if (sketches) {
        f.local_sojourns.merge(*v.local_sojourns);
        if (cc_.has_fixed_gamma) f.offload_delays.merge(*v.offload_delays);
      }
    }
    return f;
  }

  /// Feeds the legs' offload logs — fully drained, they cover exactly the
  /// records before the current barrier — through the replay.  The logs
  /// stay valid until the next collect().
  void replay(Views views) {
    if (cc_.has_fixed_gamma) return;
    log_spans_.clear();
    for (const parallel::ShardBarrierView& v : views) {
      log_spans_.push_back(v.log);
      replay_backlog_ += v.log.size();
    }
    gamma_->consume(log_spans_, replay_delay_.data(), offload_delays_);
  }

  /// Gamma reads at a grid instant, shared by the samples, the window
  /// frames and the epoch hooks.  Quasi-stationary runs read the pinned
  /// value (once per cluster); tracked runs read the replay's EWMA bank.
  double gamma_at(double t) {
    return cc_.has_fixed_gamma ? *options_.fixed_gamma : gamma_->gamma_at(t);
  }
  std::span<const double> cluster_gammas(double t) {
    if (cc_.has_fixed_gamma) return fixed_cluster_gammas_;
    return gamma_->cluster_gammas(t);
  }

  /// The timeline point at `t` and, for a streamed run, its window frame
  /// and counter frame.
  void sample(double t, Views views) {
    // Cumulative so far; the sketches equal what a single queue would have
    // accumulated.
    const ViewFold fold = fold_views(views, log_.has_value());
    walk_.advance_to(t, /*inclusive=*/false);
    TimelinePoint p;
    p.time = t;
    p.utilization_estimate = gamma_at(t);
    p.active_devices = cc_.n_devices;
    if (cc_.with_faults) {
      // Dead/retired queues are empty, so the sum already covers exactly
      // the active population.
      p.capacity_scale = walk_.scale;
      p.active_devices = walk_.active;
    }
    const double active = static_cast<double>(p.active_devices);
    p.mean_queue_length =
        p.active_devices == 0 ? 0.0 : transport_.total_q() / active;
    p.offloads_so_far = fold.offloads_in_window;
    if (options_.record_timeline) timeline_.push_back(p);
    if (!log_) return;

    obs::WindowRecord w;
    w.time = p.time;
    w.gamma = p.utilization_estimate;
    w.mean_queue_length = p.mean_queue_length;
    w.queue_second_moment =
        p.active_devices == 0 ? 0.0 : transport_.total_q2() / active;
    w.capacity_scale = p.capacity_scale;
    w.active_devices = p.active_devices;
    w.offloads_so_far = p.offloads_so_far;
    w.offloads_delta = p.offloads_so_far - prev_offloads_;
    prev_offloads_ = p.offloads_so_far;
    // Cumulative event total at this barrier: shard task-event pops and
    // fixed-gamma deliveries (order-invariant sum) + fault actions popped
    // (the walk's cursor) + replay deliveries (serial) — each term
    // K-invariant by construction.
    w.events_so_far = fold.events;
    if (cc_.with_faults) {
      w.events_so_far += walk_.cursor;
      w.tasks_lost = fold.tasks_lost;
      w.offloads_rejected = fold.offloads_rejected;
      w.offloads_penalized = fold.offloads_penalized;
      w.fault_events_applied = walk_.cursor;
    }
    if (!cc_.has_fixed_gamma) w.events_so_far += gamma_->deliveries();
    w.events_delta = w.events_so_far - prev_events_;
    prev_events_ = w.events_so_far;
    snapshot(fold.local_sojourns, w.sojourn_count, w.sojourn_min,
             w.sojourn_max, w.sojourn_p50, w.sojourn_p95, w.sojourn_p99);
    snapshot(cc_.has_fixed_gamma ? fold.offload_delays : offload_delays_,
             w.offload_count, w.offload_min, w.offload_max, w.offload_p50,
             w.offload_p95, w.offload_p99);
    if (cc_.rule == OffloadRule::kTro) {
      for (std::uint32_t d = 0; d < cc_.n_devices; ++d) {
        const double th = cc_.values[d];
        const std::size_t bin =
            th >= static_cast<double>(obs::kThresholdBins - 1)
                ? obs::kThresholdBins - 1
                : static_cast<std::size_t>(th);
        ++w.threshold_histogram[bin];
      }
    }
    const std::span<const double> gammas = cluster_gammas(t);
    w.cluster_gamma.assign(gammas.begin(), gammas.end());
    w.cluster_offloads = fold.cluster_offloads;
    log_->append_window(w);
    if (counters_) write_counters(views, w.events_delta);
  }

  /// One counter frame; `events_delta` counts the events since the
  /// previous one (one frame follows every window).
  void write_counters(Views views, std::uint64_t events_delta) {
    counter_scratch_.clear();
    const auto add = [&](obs::Counter id, std::uint16_t shard, double value) {
      counter_scratch_.push_back(
          {static_cast<std::uint16_t>(id), shard, value});
    };
    double leg_min = views[0].leg_seconds;
    double leg_max = views[0].leg_seconds;
    for (const parallel::ShardBarrierView& v : views) {
      const auto sid = static_cast<std::uint16_t>(v.shard);
      add(obs::Counter::kShardEvents, sid, static_cast<double>(v.events));
      add(obs::Counter::kShardQueueDepth, sid, v.queue_depth);
      add(obs::Counter::kShardCalendarGear, sid, v.calendar_gear);
      add(obs::Counter::kShardGearSwitches, sid, v.gear_switches);
      add(obs::Counter::kShardCalendarRetunes, sid, v.calendar_retunes);
      add(obs::Counter::kShardLegSeconds, sid, v.leg_seconds);
      leg_min = std::min(leg_min, v.leg_seconds);
      leg_max = std::max(leg_max, v.leg_seconds);
    }
    add(obs::Counter::kBarrierWaitSeconds, obs::kGlobalShard,
        cc_.shard_count > 1 ? leg_max - leg_min : 0.0);
    add(obs::Counter::kReplayRecords, obs::kGlobalShard,
        static_cast<double>(replay_backlog_));
    replay_backlog_ = 0;
    if (!cc_.has_fixed_gamma)
      add(obs::Counter::kReplayDeliveries, obs::kGlobalShard,
          static_cast<double>(gamma_->deliveries()));
    if (cc_.with_faults)
      add(obs::Counter::kFaultEventsApplied, obs::kGlobalShard,
          static_cast<double>(walk_.cursor));
    add(obs::Counter::kEventsPerSecond, obs::kGlobalShard,
        leg_max > 0.0 ? static_cast<double>(events_delta) / leg_max : 0.0);
    if (transport_.metered()) {
      for (std::size_t r = 0; r < transport_.ranks(); ++r) {
        const parallel::RankStats rs = transport_.rank_stats(r);
        const auto rid = static_cast<std::uint16_t>(r);
        add(obs::Counter::kRankBarrierWaitSeconds, rid,
            rs.barrier_wait_seconds);
        add(obs::Counter::kRankPayloadBytes, rid,
            static_cast<double>(rs.payload_bytes));
        add(obs::Counter::kTransportFramesSent, rid,
            static_cast<double>(rs.frames_sent));
        add(obs::Counter::kTransportFramesReceived, rid,
            static_cast<double>(rs.frames_received));
      }
    }
    log_->append_counters(counter_scratch_);
  }

  void epoch(double t) {
    if (options_.on_epoch) options_.on_epoch(t, gamma_at(t));
    // Fires after on_epoch; epoch instants are barriers, so controller
    // state mutated here is seen identically by every shard count.
    if (options_.on_cluster_epoch)
      options_.on_cluster_epoch(t, cluster_gammas(t));
    // Epoch callbacks are the only place the run's values change.  The
    // array is checked once, then framed ranks get a copy before their next
    // leg (the in-process rank reads the array itself).  Shards always see
    // frozen values between barriers either way, so every rank decides on
    // the same values.
    const std::span<const double> values(cc_.values, cc_.n_devices);
    std::ostringstream when;
    when << "epoch callback at t=" << t;
    check_values(cc_.rule, values, when.str());
    transport_.broadcast_thresholds(values);
  }

  SimulationResult finish(Views final_views);

  const CoordinatorContext& cc_;
  parallel::Transport& transport_;
  const SimulationOptions& options_ = *cc_.options;
  const fault::FaultPlan& plan_ = *cc_.plan;

  // Streaming telemetry (src/mec/obs/): sample() folds each sample
  // instant into one window frame (and, with counters on, one counter
  // frame) at the barrier.  Everything here runs at barrier cadence only —
  // a run without a stream log takes none of these branches inside the
  // legs themselves.
  std::optional<obs::RunLogWriter> log_;
  const bool counters_ =
      !options_.stream_log.empty() && options_.stream_counters;
  std::vector<obs::CounterValue> counter_scratch_;
  std::uint64_t prev_offloads_ = 0;  ///< at the previous window
  std::uint64_t prev_events_ = 0;    ///< at the previous window

  std::optional<GammaReplay> gamma_;  ///< tracked gamma only
  // Tracked-mode per-device offload-delay sums, accumulated by the replay.
  // Kept coordinator-side (device states may live in worker processes); a
  // device's final delay sum is this entry in tracked mode and the rank's
  // DeviceTotals field in fixed-gamma mode — never a mix (the rank-side
  // field provably stays 0.0 in tracked mode).
  std::vector<double> replay_delay_;
  stats::LatencySketch offload_delays_;  ///< the replay's (tracked gamma)
  std::vector<std::span<const OffloadRecord>> log_spans_;
  std::uint64_t replay_backlog_ = 0;  ///< records drained since last counters
  std::vector<double> fixed_cluster_gammas_;  ///< fixed gamma only

  // The environment at sample instants, in both gamma modes.  Actions
  // strictly before a barrier have all been popped by the exclusive legs,
  // so its cursor, the count of fault events applied, is exact — and
  // K-invariant — at every barrier.
  fault::EnvWalk walk_;
  std::vector<TimelinePoint> timeline_;
};

/// The window flip, run totals, finalize exchange and result of one run.
SimulationResult Coordinator::finish(Views final_views) {
  // Close the measurement window.  A shard whose own events never crossed
  // the warm-up boundary still needs its devices reset if *any* pop did in
  // the single-queue engine — its own, another shard's, a fault action, or
  // an edge delivery (the shard's trigger in fixed-gamma mode, the
  // replay's in tracked-gamma mode).
  bool flipped = cc_.warmup == 0.0;  // measuring from the start
  for (const parallel::ShardBarrierView& v : final_views)
    flipped |= v.flipped;
  if (cc_.with_faults) flipped |= plan_.flip_trigger;
  if (!cc_.has_fixed_gamma) flipped |= gamma_->delivery_flip_trigger();

  // Everything view-derived is folded *before* finalize(): the final
  // views reference rank-side storage the finalize exchange may replace.
  ViewFold totals = fold_views(final_views, /*sketches=*/true);
  std::uint64_t events = totals.events;
  if (cc_.with_faults)
    events += plan_.actions.size();  // every schedule action popped once
  if (!cc_.has_fixed_gamma) events += gamma_->deliveries();

  // Ranks reset never-flipped shards, integrate every device to t_end, and
  // (framed ranks) ship their DeviceTotals.
  transport_.finalize(flipped);

  double scale_integral = options_.horizon;
  fault::EnvWindowStats env;
  if (cc_.with_faults) {
    env = fault::integrate_environment(plan_.actions, cc_.warmup, cc_.t_end,
                                       flipped);
    scale_integral = env.scale_integral;
    // A run so short no event crossed the warm-up boundary (or a fully
    // dark window): treat the whole window as nominal so the utilization
    // denominator stays finite.
    if (scale_integral == 0.0) scale_integral = options_.horizon;
  }

  SimulationResult result;
  result.horizon = options_.horizon;
  result.total_events = events;
  result.local_sojourn_percentiles = std::move(totals.local_sojourns);
  result.offload_delay_percentiles = std::move(
      cc_.has_fixed_gamma ? totals.offload_delays : offload_delays_);
  result.timeline = std::move(timeline_);
  result.devices.reserve(cc_.n_devices);
  const double window = options_.horizon;

  double cost_acc = 0.0, q_acc = 0.0, alpha_acc = 0.0;
  std::uint32_t participating = 0;
  // Under faults the denominator is the *time-averaged* available capacity
  // over the window (edge_capacity * mean scale * window); fault-free it
  // reduces to the familiar offloads / (window * N * c).
  double gamma_denom = window * cc_.edge_capacity;
  if (cc_.with_faults) gamma_denom = cc_.edge_capacity * scale_integral;
  const double gamma_measured =
      static_cast<double>(totals.offloads_in_window) / gamma_denom;
  for (std::uint32_t n = 0; n < cc_.n_devices; ++n) {
    if (cc_.with_faults) {
      // Churn slots that never joined report all-zero stats and must not
      // dilute the population means (their empirical cost is not zero —
      // the Eq.-(1) functional of an idle device is w*p_L).
      if (n >= cc_.n_initial + plan_.joins) {
        result.devices.emplace_back();
        continue;
      }
    }
    ++participating;
    const parallel::DeviceTotals dev = transport_.device_totals(n);
    const core::UserParams& u = cc_.users[n];
    const double delay_sum =
        cc_.has_fixed_gamma ? dev.offload_delay_sum : replay_delay_[n];
    DeviceStats s;
    s.arrivals = dev.arrivals;
    s.offloaded = dev.offloaded;
    s.local_completed = dev.local_completed;
    s.mean_queue_length = dev.queue_integral / window;
    s.offload_fraction =
        dev.arrivals > 0
            ? static_cast<double>(dev.offloaded) /
                  static_cast<double>(dev.arrivals)
            : 0.0;
    s.mean_local_sojourn =
        dev.local_completed > 0
            ? dev.local_sojourn_sum / static_cast<double>(dev.local_completed)
            : 0.0;
    s.mean_offload_delay =
        dev.offloaded > 0
            ? delay_sum / static_cast<double>(dev.offloaded)
            : 0.0;
    s.energy_per_task =
        dev.arrivals > 0
            ? dev.energy_sum / static_cast<double>(dev.arrivals)
            : 0.0;
    // Empirical Eq.-(1) cost: measured alpha, measured mean queue, measured
    // per-offload delay (latency + edge processing).
    s.empirical_cost =
        u.weight * u.energy_local * (1.0 - s.offload_fraction) +
        s.mean_queue_length / u.arrival_rate +
        (u.weight * u.energy_offload + s.mean_offload_delay) *
            s.offload_fraction;
    cost_acc += s.empirical_cost;
    q_acc += s.mean_queue_length;
    alpha_acc += s.offload_fraction;
    result.devices.push_back(s);
  }
  result.measured_utilization = gamma_measured;
  // Per-cluster utilization divides each cluster's offload count by its
  // capacity share of the same denominator; with one cluster share(0) is
  // exactly 1.0, so cluster_utilization[0] == measured_utilization bitwise.
  result.cluster_offloads = std::move(totals.cluster_offloads);
  result.cluster_utilization.reserve(cc_.n_clusters);
  for (std::uint32_t k = 0; k < cc_.n_clusters; ++k)
    result.cluster_utilization.push_back(
        static_cast<double>(result.cluster_offloads[k]) /
        (gamma_denom * options_.topology.share(k)));
  result.mean_cost = cost_acc / static_cast<double>(participating);
  result.mean_queue_length = q_acc / static_cast<double>(participating);
  result.mean_offload_fraction = alpha_acc / static_cast<double>(participating);
  if (cc_.with_faults) {
    FaultStats fs;
    fs.crashes = plan_.crashes;
    fs.restarts = plan_.restarts;
    fs.churn_joined = plan_.churn_joined;
    fs.churn_departed = plan_.churn_departed;
    fs.tasks_lost = totals.tasks_lost;
    fs.offloads_rejected = totals.offloads_rejected;
    fs.offloads_penalized = totals.offloads_penalized;
    fs.min_capacity_scale = env.min_capacity_scale;
    fs.mean_capacity_scale = scale_integral / window;
    fs.degraded_time = env.degraded_time;
    fs.participating_devices = participating;
    result.faults = fs;
  }
  if (log_) {
    obs::RunFooter footer;
    footer.windows = log_->windows_written();
    footer.total_events = result.total_events;
    footer.measured_utilization = result.measured_utilization;
    footer.mean_cost = result.mean_cost;
    footer.horizon = result.horizon;
    log_->finish(footer);
  }
  return result;
}

}  // namespace

void check_values(OffloadRule rule, std::span<const double> values,
                  const std::string& context) {
  const bool tro = rule == OffloadRule::kTro;
  for (std::size_t d = 0; d < values.size(); ++d) {
    const double x = values[d];
    if (tro ? x >= 0.0 && x < 0x1p64 : x >= 0.0 && x <= 1.0) continue;
    std::ostringstream os;
    os << context << ": device " << d << " has "
       << (tro ? "threshold " : "offload probability ") << x
       << ", expected a value in " << (tro ? "[0, 2^64)" : "[0, 1]");
    throw ContractViolation(os.str());
  }
}

SimulationResult coordinator_run(const CoordinatorContext& cc,
                                 parallel::Transport& transport) {
  return Coordinator(cc, transport).run();
}

}  // namespace mec::sim::engine
