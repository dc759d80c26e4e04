#include "mec/parallel/sequential.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/sim/metrics.hpp"

namespace mec::parallel {

const char* to_string(Metric metric) noexcept {
  switch (metric) {
    case Metric::kMeanCost: return "mean-cost";
    case Metric::kMeanQueueLength: return "queue-length";
    case Metric::kMeanOffloadFraction: return "offload-fraction";
    case Metric::kMeasuredUtilization: return "utilization";
    case Metric::kMeanLocalSojourn: return "local-sojourn";
    case Metric::kMeanOffloadDelay: return "offload-delay";
  }
  return "unknown";
}

Metric parse_metric(const std::string& name) {
  for (const Metric m :
       {Metric::kMeanCost, Metric::kMeanQueueLength,
        Metric::kMeanOffloadFraction, Metric::kMeasuredUtilization,
        Metric::kMeanLocalSojourn, Metric::kMeanOffloadDelay}) {
    if (name == to_string(m)) return m;
  }
  throw RuntimeError(
      "unknown metric '" + name +
      "' (mean-cost|queue-length|offload-fraction|utilization|"
      "local-sojourn|offload-delay)");
}

const MetricSummary& select_metric(const ReplicationResult& result,
                                   Metric metric) noexcept {
  switch (metric) {
    case Metric::kMeanCost: return result.mean_cost;
    case Metric::kMeanQueueLength: return result.mean_queue_length;
    case Metric::kMeanOffloadFraction: return result.mean_offload_fraction;
    case Metric::kMeasuredUtilization: return result.measured_utilization;
    case Metric::kMeanLocalSojourn: return result.mean_local_sojourn;
    case Metric::kMeanOffloadDelay: return result.mean_offload_delay;
  }
  return result.mean_cost;  // unreachable
}

namespace {

/// True once every enabled width target is satisfied at this look.
bool target_met(const SequentialOptions& options, double mean,
                double half_width) {
  bool met = true;
  if (options.target_half_width > 0.0)
    met = met && half_width <= options.target_half_width;
  if (options.target_relative > 0.0)
    met = met && half_width <= options.target_relative * std::fabs(mean);
  return met;
}

/// The fields SequentialOptions and CompareOptions share, each refused by
/// name (`run` is the struct) with its value and range.
void check_budget(std::string_view run, double confidence,
                  std::size_t min_replications, std::size_t max_replications,
                  std::size_t wave) {
  check_option(confidence > 0.0 && confidence < 1.0, run, "confidence",
               confidence, "a value in (0, 1)");
  check_option(min_replications >= 2, run, "min_replications",
               min_replications, "a value >= 2");
  check_option(max_replications >= min_replications, run, "max_replications",
               max_replications,
               "a value >= min_replications (" +
                   std::to_string(min_replications) + ")");
  check_option(wave >= 1, run, "wave", wave, "a value >= 1");
}

}  // namespace

SequentialResult run_until_confident(std::span<const core::UserParams> users,
                                     double capacity,
                                     const core::EdgeDelay& delay,
                                     const sim::SimulationOptions& base_options,
                                     std::span<const double> thresholds,
                                     const SequentialOptions& options,
                                     ThreadPool* pool) {
  constexpr std::string_view kRun = "SequentialOptions";
  check_budget(kRun, options.confidence, options.min_replications,
               options.max_replications, options.wave);
  check_option(options.target_half_width >= 0.0, kRun, "target_half_width",
               options.target_half_width, "a value >= 0");
  check_option(options.target_relative >= 0.0, kRun, "target_relative",
               options.target_relative, "a value >= 0");
  check_option(
      options.target_half_width > 0.0 || options.target_relative > 0.0, kRun,
      "target_half_width", options.target_half_width,
      "a value > 0 when target_relative is 0 (the run needs a target)");
  check_replication_config(users, base_options, thresholds);

  std::optional<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(options.threads);
    pool = &*own_pool;
  }

  SequentialResult out;
  std::vector<sim::SimulationResult> results;
  results.reserve(options.max_replications);
  std::size_t r_done = 0;
  for (;;) {
    // First wave runs to the minimum; later waves add `wave`, clipped to
    // the budget cap.
    const std::size_t r_next =
        r_done == 0 ? options.min_replications
                    : std::min(options.max_replications, r_done + options.wave);
    results.resize(r_next);
    run_replication_range(users, capacity, delay, base_options, thresholds,
                          r_done, r_next, results, *pool);
    r_done = r_next;
    ++out.waves;

    out.aggregate = aggregate_replications(results, options.confidence);
    const MetricSummary& m = select_metric(out.aggregate, options.metric);
    out.looks.push_back(
        SequentialLook{r_done, m.ci.mean, m.ci.half_width});
    if (target_met(options, m.ci.mean, m.ci.half_width)) {
      out.target_met = true;
      break;
    }
    if (r_done >= options.max_replications) break;
  }
  out.replications = r_done;
  if (options.keep_runs) out.aggregate.runs = std::move(results);
  return out;
}

CompareResult compare_sequential(const PairedEvaluator& evaluate,
                                 const CompareOptions& options,
                                 ThreadPool* pool) {
  MEC_EXPECTS(static_cast<bool>(evaluate));
  check_budget("CompareOptions", options.confidence, options.min_replications,
               options.max_replications, options.wave);

  std::optional<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool.emplace(options.threads);
    pool = &*own_pool;
  }

  CompareResult out;
  out.samples_a.reserve(options.max_replications);
  out.samples_b.reserve(options.max_replications);
  std::size_t r_done = 0;
  for (;;) {
    const std::size_t r_next =
        r_done == 0 ? options.min_replications
                    : std::min(options.max_replications, r_done + options.wave);
    out.samples_a.resize(r_next);
    out.samples_b.resize(r_next);
    pool->parallel_for_each(r_next - r_done, [&](std::size_t i) {
      const std::size_t r = r_done + i;
      const PairedSample s =
          evaluate(r, replication_seed(options.base_seed, r));
      out.samples_a[r] = s.a;
      out.samples_b[r] = s.b;
    });
    r_done = r_next;
    ++out.looks;

    // Paired differences merged serially in replication order: the interval
    // is bit-identical for any thread count and any wave partition.
    stats::RunningSummary diff;
    for (std::size_t r = 0; r < r_done; ++r)
      diff.add(out.samples_a[r] - out.samples_b[r]);
    const double q = stats::spending_adjusted_quantile(
        options.confidence, out.looks, r_done - 1);
    out.difference = stats::ConfidenceInterval{
        diff.mean(), q * diff.standard_error(), options.confidence};
    if (out.difference.upper() < 0.0) {
      out.verdict = Verdict::kFirstLower;
      break;
    }
    if (out.difference.lower() > 0.0) {
      out.verdict = Verdict::kSecondLower;
      break;
    }
    if (r_done >= options.max_replications) break;
  }
  out.replications = r_done;
  stats::RunningSummary a, b;
  for (std::size_t r = 0; r < r_done; ++r) {
    a.add(out.samples_a[r]);
    b.add(out.samples_b[r]);
  }
  out.mean_a = a.mean();
  out.mean_b = b.mean();
  return out;
}

std::string summarize(const SequentialResult& result, Metric metric) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "sequential %s: %zu replications in %zu wave%s, target %s\n",
                to_string(metric), result.replications, result.waves,
                result.waves == 1 ? "" : "s",
                result.target_met ? "met" : "NOT met (budget exhausted)");
  std::string out = buf;
  for (const SequentialLook& look : result.looks) {
    std::snprintf(buf, sizeof buf, "  look R=%-5zu mean=%.6f +/- %.6f\n",
                  look.replications, look.mean, look.half_width);
    out += buf;
  }
  return out;
}

}  // namespace mec::parallel
