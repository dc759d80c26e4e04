// Monte-Carlo replication engine: R independent MecSimulation runs, executed
// concurrently on a ThreadPool and aggregated per metric into mean / stddev /
// confidence intervals.
//
// Reproducibility contract: replication r runs with the deterministically
// derived seed
//
//     seed_r = base_seed + 0x9E3779B97F4A7C15 * (r + 1)
//
// (the splitmix64 golden-ratio increment), each replication writes its
// result into its own slot, and the slots are merged serially in
// replication order.  The aggregated output is therefore bit-identical for
// any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/stats/confidence.hpp"
#include "mec/stats/summary.hpp"

namespace mec::parallel {

/// Seed of replication `r` derived from `base_seed` (see file comment).
std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::size_t replication) noexcept;

struct ReplicationOptions {
  std::size_t replications = 8;  ///< R >= 1 independent runs
  std::size_t threads = 0;       ///< 0 selects the hardware concurrency
  double confidence = 0.95;      ///< CI level, in (0, 1)
  bool keep_runs = false;        ///< retain every SimulationResult in `runs`
};

/// One scalar metric across replications: the replication-level samples plus
/// the two-sided Student-t/normal interval (half_width NaN at R=1 — a
/// single run carries no width information).
struct MetricSummary {
  stats::RunningSummary samples;
  stats::ConfidenceInterval ci{0.0, 0.0, 0.0};

  double mean() const { return samples.mean(); }
};

/// Aggregates of the population-level outputs of SimulationResult.
struct ReplicationResult {
  std::size_t replications = 0;
  MetricSummary mean_cost;
  MetricSummary mean_queue_length;
  MetricSummary mean_offload_fraction;
  MetricSummary measured_utilization;
  MetricSummary mean_local_sojourn;  ///< population mean of device sojourns
  MetricSummary mean_offload_delay;  ///< population mean of device delays
  std::uint64_t total_events = 0;    ///< summed across replications
  /// Degraded-mode accounting when the base options carried a FaultSchedule
  /// (all nominal otherwise).  Every replication replays the *same*
  /// environment trajectory, so the structural counters and capacity
  /// figures are copied from replication 0; the simulation-noise counters
  /// (tasks_lost, offloads_rejected/penalized) are summed across
  /// replications.
  sim::FaultStats faults;
  /// Per-replication results, in replication order; empty unless
  /// ReplicationOptions::keep_runs was set.
  std::vector<sim::SimulationResult> runs;
};

/// Runs R independent TRO simulations of the same population/thresholds with
/// decorrelated seeds (see replication_seed) across `options.threads` lanes
/// of `pool` (or an internal pool when null) and merges the results.
/// Requires R >= 1, matching sizes, and base_options without an epoch
/// callback (callbacks would be invoked concurrently across replications).
ReplicationResult run_replications(std::span<const core::UserParams> users,
                                   double capacity,
                                   const core::EdgeDelay& delay,
                                   const sim::SimulationOptions& base_options,
                                   std::span<const double> thresholds,
                                   const ReplicationOptions& options,
                                   ThreadPool* pool = nullptr);

/// Validates a replication configuration: the thresholds span must cover the
/// population (plus churn joiners when the options carry a FaultSchedule)
/// and base_options must not install an epoch callback.  Shared by
/// run_replications and the sequential engine.
void check_replication_config(std::span<const core::UserParams> users,
                              const sim::SimulationOptions& base_options,
                              std::span<const double> thresholds);

/// Runs replications [first, last) — replication r seeded with
/// replication_seed(base_options.seed, r), independent of first/last —
/// across `pool`, writing each result into results[r].
/// Requires first <= last <= results.size().
void run_replication_range(std::span<const core::UserParams> users,
                           double capacity, const core::EdgeDelay& delay,
                           const sim::SimulationOptions& base_options,
                           std::span<const double> thresholds,
                           std::size_t first, std::size_t last,
                           std::span<sim::SimulationResult> results,
                           ThreadPool& pool);

/// Serial in-replication-order merge of per-replication results into the
/// aggregate (the second half of run_replications).  Because the merge only
/// sees the results array, the aggregate over results[0..R) is bit-identical
/// whether the runs were produced in one batch or grown wave by wave, on any
/// thread count.  Requires a non-empty span.
ReplicationResult aggregate_replications(
    std::span<const sim::SimulationResult> results, double confidence);

/// Multi-line human-readable mean +/- half-width table of the aggregates.
std::string summarize(const ReplicationResult& result);

}  // namespace mec::parallel
