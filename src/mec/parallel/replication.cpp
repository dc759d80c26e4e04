#include "mec/parallel/replication.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/sim/metrics.hpp"

namespace mec::parallel {

std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::size_t replication) noexcept {
  return base_seed +
         0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(replication) + 1);
}

namespace {

void finalize(MetricSummary& metric, double confidence) {
  if (metric.samples.count() >= 2) {
    metric.ci = stats::mean_confidence_interval(metric.samples, confidence);
  } else {
    // A single replication carries no width information: NaN (printed as
    // n/a), never 0 — a degenerate run must not masquerade as a perfectly
    // certain one.
    metric.ci = stats::ConfidenceInterval{
        metric.samples.mean(), std::numeric_limits<double>::quiet_NaN(),
        confidence};
  }
}

}  // namespace

void check_replication_config(std::span<const core::UserParams> users,
                              const sim::SimulationOptions& base_options,
                              std::span<const double> thresholds) {
  // With churn in the fault schedule, the thresholds span must also cover
  // the joining devices (appended after the initial population).
  std::size_t expected_thresholds = users.size();
  if (base_options.faults) expected_thresholds +=
      base_options.faults->churn_arrivals();
  MEC_EXPECTS(expected_thresholds == thresholds.size());
  MEC_EXPECTS_MSG(base_options.epoch_period == 0.0,
                  "replication engines cannot share an on_epoch callback "
                  "across concurrent replications");
}

void run_replication_range(std::span<const core::UserParams> users,
                           double capacity, const core::EdgeDelay& delay,
                           const sim::SimulationOptions& base_options,
                           std::span<const double> thresholds,
                           std::size_t first, std::size_t last,
                           std::span<sim::SimulationResult> results,
                           ThreadPool& pool) {
  MEC_EXPECTS(first <= last && last <= results.size());
  pool.parallel_for_each(last - first, [&](std::size_t i) {
    const std::size_t r = first + i;
    // One workspace per worker thread, reused across replications (and
    // across calls on the same pool): successive same-shape runs are then
    // allocation-free.  Reuse cannot change results — the workspace is
    // fully reset at run start (verified by the equivalence tests).
    thread_local sim::SimWorkspace workspace;
    sim::SimulationOptions run_options = base_options;
    run_options.seed = replication_seed(base_options.seed, r);
    // Concurrent replications must not race on one stream-log path; a
    // caller who wants telemetry streams a single representative run.
    run_options.stream_log.clear();
    const sim::MecSimulation simulation(users, capacity, delay,
                                        std::move(run_options));
    results[r] = simulation.run_tro(thresholds, workspace);
  });
}

ReplicationResult aggregate_replications(
    std::span<const sim::SimulationResult> results, double confidence) {
  MEC_EXPECTS(!results.empty());
  MEC_EXPECTS(confidence > 0.0 && confidence < 1.0);
  // Serial merge in replication order keeps the aggregates independent of
  // the thread count (and of the pool's dynamic chunk assignment).
  ReplicationResult out;
  out.replications = results.size();
  out.faults = results.front().faults;  // same trajectory every replication
  out.faults.tasks_lost = 0;
  out.faults.offloads_rejected = 0;
  out.faults.offloads_penalized = 0;
  for (const sim::SimulationResult& r : results) {
    out.faults.tasks_lost += r.faults.tasks_lost;
    out.faults.offloads_rejected += r.faults.offloads_rejected;
    out.faults.offloads_penalized += r.faults.offloads_penalized;
    out.mean_cost.samples.add(r.mean_cost);
    out.mean_queue_length.samples.add(r.mean_queue_length);
    out.mean_offload_fraction.samples.add(r.mean_offload_fraction);
    out.measured_utilization.samples.add(r.measured_utilization);
    out.mean_local_sojourn.samples.add(r.device_mean(
        [](const sim::DeviceStats& d) { return d.mean_local_sojourn; }));
    out.mean_offload_delay.samples.add(r.device_mean(
        [](const sim::DeviceStats& d) { return d.mean_offload_delay; }));
    out.total_events += r.total_events;
  }
  finalize(out.mean_cost, confidence);
  finalize(out.mean_queue_length, confidence);
  finalize(out.mean_offload_fraction, confidence);
  finalize(out.measured_utilization, confidence);
  finalize(out.mean_local_sojourn, confidence);
  finalize(out.mean_offload_delay, confidence);
  return out;
}

ReplicationResult run_replications(std::span<const core::UserParams> users,
                                   double capacity,
                                   const core::EdgeDelay& delay,
                                   const sim::SimulationOptions& base_options,
                                   std::span<const double> thresholds,
                                   const ReplicationOptions& options,
                                   ThreadPool* pool) {
  constexpr std::string_view kRun = "ReplicationOptions";
  check_option(options.replications >= 1, kRun, "replications",
               options.replications, "a value >= 1");
  check_option(options.confidence > 0.0 && options.confidence < 1.0, kRun,
               "confidence", options.confidence, "a value in (0, 1)");
  check_replication_config(users, base_options, thresholds);

  const std::size_t r_total = options.replications;
  std::vector<sim::SimulationResult> results(r_total);

  std::optional<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(options.threads);
    pool = &*own_pool;
  }
  run_replication_range(users, capacity, delay, base_options, thresholds, 0,
                        r_total, results, *pool);

  ReplicationResult out = aggregate_replications(results, options.confidence);
  if (options.keep_runs) out.runs = std::move(results);
  return out;
}

std::string summarize(const ReplicationResult& result) {
  const auto line = [](const char* name, const MetricSummary& m) {
    char buf[160];
    if (std::isnan(m.ci.half_width))
      std::snprintf(buf, sizeof buf,
                    "  %-24s %10.6f +/- n/a  (%.0f%% CI, R=1)\n", name,
                    m.ci.mean, m.ci.confidence * 100.0);
    else
      std::snprintf(buf, sizeof buf, "  %-24s %10.6f +/- %.6f  (%.0f%% CI)\n",
                    name, m.ci.mean, m.ci.half_width,
                    m.ci.confidence * 100.0);
    return std::string(buf);
  };
  std::string out = "replications: " + std::to_string(result.replications) +
                    "  (" + std::to_string(result.total_events) +
                    " events total)\n";
  out += line("mean cost", result.mean_cost);
  out += line("mean queue length", result.mean_queue_length);
  out += line("mean offload fraction", result.mean_offload_fraction);
  out += line("measured utilization", result.measured_utilization);
  out += line("mean local sojourn", result.mean_local_sojourn);
  out += line("mean offload delay", result.mean_offload_delay);
  if (result.faults.any()) {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "  faults: capacity min/mean %.3f/%.3f, degraded %.1fs, "
                  "crashes=%llu joined=%llu departed=%llu, across all "
                  "replications: tasks_lost=%llu rejected=%llu "
                  "penalized=%llu\n",
                  result.faults.min_capacity_scale,
                  result.faults.mean_capacity_scale,
                  result.faults.degraded_time,
                  static_cast<unsigned long long>(result.faults.crashes),
                  static_cast<unsigned long long>(result.faults.churn_joined),
                  static_cast<unsigned long long>(result.faults.churn_departed),
                  static_cast<unsigned long long>(result.faults.tasks_lost),
                  static_cast<unsigned long long>(
                      result.faults.offloads_rejected),
                  static_cast<unsigned long long>(
                      result.faults.offloads_penalized));
    out += buf;
  }
  return out;
}

}  // namespace mec::parallel
