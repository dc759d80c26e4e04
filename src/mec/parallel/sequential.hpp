// Sequential-stopping (run-until-confident) replication engine.
//
// Inverts the fixed-R protocol of replication.hpp: instead of burning a
// preset replication budget and reporting the confidence interval after the
// fact, the caller states the question —
//
//   * run_until_confident: "estimate this metric to a target CI half-width
//     (absolute or relative)" — and the engine grows the replication set in
//     waves until the interval is tight enough (or a budget cap is hit);
//
//   * compare_sequential: "is configuration A cheaper than B here?" — paired
//     per-replication differences on common random numbers, a paired-t
//     interval on the gap, and early elimination once the interval excludes
//     zero.  Repeated interim looks are corrected with a geometric
//     alpha-spending schedule (stats/confidence.hpp) so the overall type-I
//     error rate stays below 1 - confidence no matter how many waves run.
//
// Replayability contract: replication r always runs with
// replication_seed(base_seed, r) — the golden-ratio derivation of
// replication.hpp — so a replication's randomness is independent of where
// the run stops.  A sequential run stopped at R replications is therefore
// bit-identical to run_replications with a fixed R (pinned by
// tests/test_sequential.cpp), and any published result can be reproduced
// without re-running the stopping rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mec/parallel/replication.hpp"

namespace mec::parallel {

/// The population-level scalar metrics a sequential run can target (the
/// aggregates of ReplicationResult).
enum class Metric {
  kMeanCost,
  kMeanQueueLength,
  kMeanOffloadFraction,
  kMeasuredUtilization,
  kMeanLocalSojourn,
  kMeanOffloadDelay,
};

/// CLI spelling of a metric ("mean-cost", "queue-length", ...).
const char* to_string(Metric metric) noexcept;

/// Inverse of to_string; throws RuntimeError on an unknown name.
Metric parse_metric(const std::string& name);

/// The selected metric's summary inside an aggregate.
const MetricSummary& select_metric(const ReplicationResult& result,
                                   Metric metric) noexcept;

struct SequentialOptions {
  Metric metric = Metric::kMeanCost;  ///< the targeted estimate
  double confidence = 0.95;           ///< CI level, in (0, 1)
  /// Stop once the CI half-width is <= target_half_width (absolute) and
  /// <= target_relative * |mean| (relative).  A target of 0 disables that
  /// criterion; at least one must be enabled.
  double target_half_width = 0.0;
  double target_relative = 0.0;
  std::size_t min_replications = 4;    ///< first look happens here (>= 2)
  std::size_t max_replications = 512;  ///< hard budget cap (>= min)
  std::size_t wave = 8;                ///< replications added per wave (>= 1)
  std::size_t threads = 0;             ///< 0 selects hardware concurrency
  bool keep_runs = false;              ///< retain per-replication results
};

/// One interim look of a sequential run, for tracing/reporting.
struct SequentialLook {
  std::size_t replications;
  double mean;
  double half_width;
};

struct SequentialResult {
  /// Aggregate over the replications actually run — bit-identical to
  /// run_replications with this exact count (see file comment).
  ReplicationResult aggregate;
  std::size_t replications = 0;  ///< == aggregate.replications
  std::size_t waves = 0;         ///< waves executed (== interim looks)
  bool target_met = false;       ///< false iff stopped by max_replications
  std::vector<SequentialLook> looks;  ///< one entry per interim look

  const MetricSummary& metric(Metric m) const noexcept {
    return select_metric(aggregate, m);
  }
};

/// Grows the replication set in waves until the selected metric's CI meets
/// the target (or max_replications is reached).  Width-based stopping uses
/// the plain fixed-sample interval at each look (the standard sequential
/// estimation procedure); hypothesis-style questions belong to
/// compare_sequential, which does correct for repeated looks.
/// Requires at least one enabled target, 2 <= min <= max, wave >= 1, and a
/// valid replication configuration (check_replication_config).
SequentialResult run_until_confident(std::span<const core::UserParams> users,
                                     double capacity,
                                     const core::EdgeDelay& delay,
                                     const sim::SimulationOptions& base_options,
                                     std::span<const double> thresholds,
                                     const SequentialOptions& options,
                                     ThreadPool* pool = nullptr);

/// One paired observation: the two arms evaluated on common random numbers.
struct PairedSample {
  double a;
  double b;
};

/// Evaluates both arms for replication `r`.  `seed` is
/// replication_seed(base_seed, r); implementations should drive all their
/// randomness from it so the pair shares common random numbers and the
/// replication is replayable in isolation.  Called concurrently for
/// distinct r — must be thread-safe.
using PairedEvaluator =
    std::function<PairedSample(std::size_t r, std::uint64_t seed)>;

struct CompareOptions {
  double confidence = 0.95;  ///< overall (family-wise) level, in (0, 1)
  std::size_t min_replications = 8;    ///< first look happens here (>= 2)
  std::size_t max_replications = 512;  ///< budget cap (>= min)
  std::size_t wave = 16;               ///< replications added per wave
  std::size_t threads = 0;             ///< 0 selects hardware concurrency
  std::uint64_t base_seed = 0x5eed0000ULL;
};

enum class Verdict {
  kFirstLower,   ///< CI on E[a - b] entirely below 0: arm A is smaller
  kSecondLower,  ///< CI entirely above 0: arm B is smaller
  kUndecided,    ///< budget exhausted with 0 still inside the interval
};

struct CompareResult {
  Verdict verdict = Verdict::kUndecided;
  std::size_t replications = 0;
  std::size_t looks = 0;  ///< interim analyses performed
  /// Spending-adjusted paired-t interval on E[a - b] at the final look.
  stats::ConfidenceInterval difference{0.0, 0.0, 0.0};
  double mean_a = 0.0;
  double mean_b = 0.0;
  /// Per-replication arm values, in replication order (CRN pairs).
  std::vector<double> samples_a;
  std::vector<double> samples_b;

  bool decided() const noexcept { return verdict != Verdict::kUndecided; }
};

/// Paired sequential comparison: evaluates both arms replication by
/// replication (in waves), stops as soon as the spending-adjusted paired-t
/// interval on E[a - b] excludes zero, and reports the verdict plus the
/// replications spent.  With the geometric spending schedule the
/// probability of *any* false elimination under E[a] = E[b] is at most
/// 1 - confidence, for any number of looks.
CompareResult compare_sequential(const PairedEvaluator& evaluate,
                                 const CompareOptions& options,
                                 ThreadPool* pool = nullptr);

/// Human-readable stopping trace ("R=24 mean=2.31 +/- 0.04 ...").
std::string summarize(const SequentialResult& result, Metric metric);

}  // namespace mec::parallel
