// The sequential engine's contract: it stops exactly when the width target
// is met (or the budget runs out), any stopped run replays bit-identically
// as a fixed-R run of the same count, and the paired comparison's repeated
// looks keep the false-decision rate under control via alpha spending.
#include "mec/parallel/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/best_response.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::parallel {
namespace {

std::vector<core::UserParams> homogeneous(std::size_t n, double a, double s,
                                          double tau = 0.5) {
  std::vector<core::UserParams> users(n);
  for (auto& u : users) {
    u.arrival_rate = a;
    u.service_rate = s;
    u.offload_latency = tau;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  return users;
}

sim::SimulationOptions short_options(std::uint64_t seed = 5) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = seed;
  o.fixed_gamma = 0.2;
  return o;
}

TEST(MetricSelector, RoundTripsAllNames) {
  for (const Metric m :
       {Metric::kMeanCost, Metric::kMeanQueueLength,
        Metric::kMeanOffloadFraction, Metric::kMeasuredUtilization,
        Metric::kMeanLocalSojourn, Metric::kMeanOffloadDelay}) {
    EXPECT_EQ(parse_metric(to_string(m)), m);
  }
  EXPECT_THROW(parse_metric("p99-vibes"), RuntimeError);
}

TEST(RunUntilConfident, StopsExactlyWhenTheTargetIsMet) {
  const auto users = homogeneous(30, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  const auto delay = core::make_reciprocal_delay();

  SequentialOptions opt;
  opt.target_relative = 0.02;
  opt.min_replications = 2;
  opt.wave = 2;
  opt.max_replications = 128;
  opt.threads = 2;
  const SequentialResult r = run_until_confident(users, 10.0, delay,
                                                 short_options(), xs, opt);
  ASSERT_TRUE(r.target_met);
  ASSERT_GE(r.looks.size(), 1u);
  // The final look satisfies the target...
  const SequentialLook& last = r.looks.back();
  EXPECT_EQ(last.replications, r.replications);
  EXPECT_LE(last.half_width, opt.target_relative * std::fabs(last.mean));
  // ...and no earlier look does (otherwise it would have stopped there).
  for (std::size_t i = 0; i + 1 < r.looks.size(); ++i) {
    EXPECT_GT(r.looks[i].half_width,
              opt.target_relative * std::fabs(r.looks[i].mean))
        << "look " << i << " already met the target but did not stop";
  }
  EXPECT_EQ(r.waves, r.looks.size());
}

TEST(RunUntilConfident, ExhaustsTheBudgetOnAnUnreachableTarget) {
  const auto users = homogeneous(20, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);

  SequentialOptions opt;
  opt.target_relative = 1e-9;  // unreachable in 6 replications
  opt.min_replications = 2;
  opt.wave = 2;
  opt.max_replications = 6;
  opt.threads = 1;
  const SequentialResult r = run_until_confident(
      users, 10.0, core::make_reciprocal_delay(), short_options(), xs, opt);
  EXPECT_FALSE(r.target_met);
  EXPECT_EQ(r.replications, 6u);
  EXPECT_EQ(r.waves, 3u);
  const std::string text = summarize(r, opt.metric);
  EXPECT_NE(text.find("NOT met"), std::string::npos);
}

TEST(RunUntilConfident, StoppedRunReplaysBitIdenticallyAtFixedR) {
  // The replayability contract: whatever R the stopping rule lands on, a
  // fixed-R run with the same base seed reproduces the aggregate exactly —
  // same per-replication seeds, same serial merge order.
  const auto users = homogeneous(35, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  const auto delay = core::make_reciprocal_delay();

  SequentialOptions sq;
  sq.target_relative = 0.05;
  sq.min_replications = 2;
  sq.wave = 3;  // deliberately not a divisor of min so waves are ragged
  sq.max_replications = 64;
  sq.threads = 3;
  const SequentialResult stopped = run_until_confident(
      users, 10.0, delay, short_options(9), xs, sq);

  ReplicationOptions fixed;
  fixed.replications = stopped.replications;
  fixed.threads = 1;  // different thread count on purpose
  const ReplicationResult replay =
      run_replications(users, 10.0, delay, short_options(9), xs, fixed);

  EXPECT_EQ(stopped.aggregate.total_events, replay.total_events);
  const auto expect_metric_eq = [](const MetricSummary& a,
                                   const MetricSummary& b) {
    ASSERT_EQ(a.samples.count(), b.samples.count());
    EXPECT_DOUBLE_EQ(a.samples.mean(), b.samples.mean());
    if (a.samples.count() >= 2) {
      EXPECT_DOUBLE_EQ(a.samples.stddev(), b.samples.stddev());
      EXPECT_DOUBLE_EQ(a.ci.half_width, b.ci.half_width);
    }
    EXPECT_DOUBLE_EQ(a.ci.mean, b.ci.mean);
  };
  expect_metric_eq(stopped.aggregate.mean_cost, replay.mean_cost);
  expect_metric_eq(stopped.aggregate.mean_queue_length,
                   replay.mean_queue_length);
  expect_metric_eq(stopped.aggregate.mean_offload_fraction,
                   replay.mean_offload_fraction);
  expect_metric_eq(stopped.aggregate.measured_utilization,
                   replay.measured_utilization);
  expect_metric_eq(stopped.aggregate.mean_local_sojourn,
                   replay.mean_local_sojourn);
  expect_metric_eq(stopped.aggregate.mean_offload_delay,
                   replay.mean_offload_delay);
}

TEST(RunUntilConfident, AbsoluteAndRelativeTargetsCompose) {
  const auto users = homogeneous(20, 1.5, 2.0);
  const std::vector<double> xs(users.size(), 2.0);
  const auto delay = core::make_reciprocal_delay();

  // A loose relative target alone stops early...
  SequentialOptions loose;
  loose.target_relative = 0.05;
  loose.min_replications = 2;
  loose.wave = 2;
  loose.max_replications = 64;
  loose.threads = 1;
  const SequentialResult early =
      run_until_confident(users, 10.0, delay, short_options(), xs, loose);
  // ...but adding a tight absolute target forces more replications: the
  // conjunction must be at least as demanding as either target alone.
  SequentialOptions both = loose;
  both.target_half_width = 1e-4;
  const SequentialResult late =
      run_until_confident(users, 10.0, delay, short_options(), xs, both);
  EXPECT_GE(late.replications, early.replications);
  if (late.target_met) {
    EXPECT_LE(late.looks.back().half_width, 1e-4);
  }
}

TEST(RunUntilConfident, RejectsAMissingTarget) {
  const auto users = homogeneous(5, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  SequentialOptions opt;  // neither target set
  EXPECT_THROW(
      run_until_confident(users, 10.0, core::make_reciprocal_delay(),
                          short_options(), xs, opt),
      ContractViolation);
}

/// The message of the ContractViolation `run` throws, or "" without one.
std::string refusal(const std::function<void()>& run) {
  try {
    run();
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

// Every replication, sequential and comparison option is refused by name:
// struct, field, value and accepted range, NaN included.
TEST(OptionRefusals, NameTheStructFieldValueAndRange) {
  const auto users = homogeneous(5, 1.0, 2.0);
  const std::vector<double> xs(users.size(), 1.0);
  const auto delay = core::make_reciprocal_delay();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto replicate = [&](const ReplicationOptions& o) {
    return refusal([&] {
      run_replications(users, 10.0, delay, short_options(), xs, o);
    });
  };
  ReplicationOptions ro;
  ro.replications = 0;
  EXPECT_EQ(replicate(ro),
            "ReplicationOptions: replications is 0, expected a value >= 1");
  ro.replications = 2;
  ro.confidence = 1.5;
  EXPECT_EQ(replicate(ro),
            "ReplicationOptions: confidence is 1.5, expected a value in "
            "(0, 1)");
  ro.confidence = 0.0;
  EXPECT_EQ(replicate(ro),
            "ReplicationOptions: confidence is 0, expected a value in (0, 1)");

  const auto sequential = [&](const SequentialOptions& o) {
    return refusal([&] {
      run_until_confident(users, 10.0, delay, short_options(), xs, o);
    });
  };
  SequentialOptions so;
  so.target_half_width = -1.0;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: target_half_width is -1, expected a value "
            ">= 0");
  so.target_half_width = 0.0;
  so.target_relative = -1.0;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: target_relative is -1, expected a value >= 0");
  so.target_relative = 0.0;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: target_half_width is 0, expected a value > 0 "
            "when target_relative is 0 (the run needs a target)");
  so.target_half_width = 0.1;
  so.confidence = nan;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: confidence is nan, expected a value in (0, 1)");
  so.confidence = 0.95;
  so.max_replications = 1;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: max_replications is 1, expected a value >= "
            "min_replications (4)");
  so.min_replications = 6;
  so.max_replications = 3;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: max_replications is 3, expected a value >= "
            "min_replications (6)");
  so.max_replications = 512;
  so.min_replications = 1;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: min_replications is 1, expected a value >= 2");
  so.min_replications = 4;
  so.wave = 0;
  EXPECT_EQ(sequential(so),
            "SequentialOptions: wave is 0, expected a value >= 1");

  const auto compare = [&](const CompareOptions& o) {
    return refusal([&] {
      compare_sequential(
          [](std::size_t, std::uint64_t) { return PairedSample{0.0, 1.0}; },
          o);
    });
  };
  CompareOptions co;
  co.confidence = nan;
  EXPECT_EQ(compare(co),
            "CompareOptions: confidence is nan, expected a value in (0, 1)");
  co.confidence = 0.95;
  co.max_replications = 4;
  EXPECT_EQ(compare(co),
            "CompareOptions: max_replications is 4, expected a value >= "
            "min_replications (8)");
}

TEST(CompareSequential, DecidesAClearGapEarly) {
  // Deterministic-gap evaluator: arm a is always 0.5 below arm b with a
  // little common noise.  The comparison must decide "first lower" on the
  // very first look instead of spending the whole budget.
  CompareOptions opt;
  opt.min_replications = 4;
  opt.wave = 8;
  opt.max_replications = 256;
  opt.threads = 2;
  const CompareResult r = compare_sequential(
      [](std::size_t, std::uint64_t seed) {
        random::Xoshiro256 rng(seed);
        const double noise = 0.05 * random::standard_normal(rng);
        return PairedSample{1.0 + noise, 1.5 + noise};
      },
      opt);
  EXPECT_EQ(r.verdict, Verdict::kFirstLower);
  EXPECT_TRUE(r.decided());
  EXPECT_EQ(r.replications, opt.min_replications);
  EXPECT_EQ(r.looks, 1u);
  EXPECT_LT(r.difference.upper(), 0.0);
  EXPECT_NEAR(r.mean_a - r.mean_b, -0.5, 1e-12);
}

TEST(CompareSequential, IsDeterministicAcrossThreadCounts) {
  const auto evaluate = [](std::size_t, std::uint64_t seed) {
    random::Xoshiro256 rng(seed);
    const double noise = random::standard_normal(rng);
    return PairedSample{noise + 0.3 * random::standard_normal(rng), noise};
  };
  CompareOptions opt;
  opt.min_replications = 8;
  opt.wave = 8;
  opt.max_replications = 64;
  opt.threads = 1;
  const CompareResult serial = compare_sequential(evaluate, opt);
  opt.threads = 4;
  const CompareResult parallel = compare_sequential(evaluate, opt);
  EXPECT_EQ(parallel.verdict, serial.verdict);
  EXPECT_EQ(parallel.replications, serial.replications);
  EXPECT_DOUBLE_EQ(parallel.difference.mean, serial.difference.mean);
  EXPECT_DOUBLE_EQ(parallel.difference.half_width,
                   serial.difference.half_width);
}

TEST(CompareSequential, FalseDecisionRateUnderTheNullIsControlled) {
  // Both arms identical in distribution (independent noise, no true gap):
  // over many repetitions, the fraction of runs that reach ANY decision —
  // despite looking repeatedly — must stay near the spending budget
  // alpha = 0.05, nowhere near the uncorrected multiple-looks rate.
  int decided = 0;
  const int trials = 200;
  ThreadPool pool(2);
  for (int t = 0; t < trials; ++t) {
    CompareOptions opt;
    opt.min_replications = 8;
    opt.wave = 8;
    opt.max_replications = 48;  // 6 looks per trial
    opt.base_seed = 0xFACEu + static_cast<std::uint64_t>(t) * 1000003u;
    const CompareResult r = compare_sequential(
        [](std::size_t, std::uint64_t seed) {
          random::Xoshiro256 rng(seed);
          const double a = random::standard_normal(rng);
          const double b = random::standard_normal(rng);
          return PairedSample{a, b};
        },
        opt, &pool);
    decided += r.decided();
  }
  // Binomial(200, 0.05) has sd ~3: 18 failures is > 2.5 sd above the
  // budget; an uncontrolled 6-look procedure at ~0.2 would show ~40.
  EXPECT_LE(decided, 18) << "null rejected in " << decided << "/" << trials;
}

TEST(CompareSequential, CommonRandomNumbersSharpenTheComparison) {
  // With CRN the shared noise cancels in the pairing, so a gap far smaller
  // than the noise floor is still decided within a modest budget.
  CompareOptions opt;
  opt.min_replications = 8;
  opt.wave = 8;
  opt.max_replications = 128;
  opt.threads = 2;
  const CompareResult r = compare_sequential(
      [](std::size_t, std::uint64_t seed) {
        random::Xoshiro256 rng(seed);
        const double noise = random::standard_normal(rng);  // shared, sd 1.0
        const double ia = 0.02 * random::standard_normal(rng);
        const double ib = 0.02 * random::standard_normal(rng);
        return PairedSample{noise + ia, noise + 0.05 + ib};  // gap 0.05
      },
      opt);
  EXPECT_EQ(r.verdict, Verdict::kFirstLower);
  EXPECT_LE(r.replications, opt.max_replications);
}

}  // namespace
}  // namespace mec::parallel
