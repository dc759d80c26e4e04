// Shard-merge exactness: the contract that makes the sharded engine safe.
//
// Two layers of proof.  First, the merge algebra itself: combining
// per-shard LatencySketch partials is associative, commutative, and equal
// to the single-stream sketch — integer bin counts make every grouping
// exact.  Second, the engine: a run partitioned over K shards must produce
// a bit-identical SimulationResult for every K, on every code path —
// fixed-gamma, tracked-gamma (EWMA replay), fault schedules exercising all
// seven action kinds, and the closed-loop DTU whose epoch callbacks mutate
// thresholds at shard barriers.  No tolerances anywhere in this file.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/observer.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec {
namespace {

// --- LatencySketch merge algebra ------------------------------------------

std::vector<double> lognormal_like_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> values;
  random::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    // Spread across many octaves, including sub-1 values and exact ties.
    const double base = random::exponential(rng, 0.8);
    values.push_back(base * base + 1e-3);
    if (i % 17 == 0) values.push_back(0.25);  // repeated exact value
  }
  return values;
}

void expect_sketch_equal(const stats::LatencySketch& a,
                         const stats::LatencySketch& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0})
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "quantile " << q;
}

TEST(SketchMerge, PartitionedMergeEqualsSingleStream) {
  const auto values = lognormal_like_values(5000, 7);
  stats::LatencySketch whole;
  for (const double v : values) whole.add(v);
  for (const std::size_t parts : {2u, 4u, 7u}) {
    std::vector<stats::LatencySketch> partial(parts);
    for (std::size_t i = 0; i < values.size(); ++i)
      partial[i % parts].add(values[i]);
    stats::LatencySketch merged;
    for (const auto& p : partial) merged.merge(p);
    expect_sketch_equal(merged, whole);
  }
}

TEST(SketchMerge, MergeIsAssociativeAndOrderInvariant) {
  const auto values = lognormal_like_values(3000, 21);
  stats::LatencySketch a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(values[i]);

  stats::LatencySketch left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  stats::LatencySketch bc = b;     // a + (b + c)
  bc.merge(c);
  stats::LatencySketch right = a;
  right.merge(bc);
  expect_sketch_equal(left, right);

  stats::LatencySketch reversed = c;  // c + b + a
  reversed.merge(b);
  reversed.merge(a);
  expect_sketch_equal(left, reversed);
}

TEST(SketchMerge, EmptyIsTheMergeIdentity) {
  const auto values = lognormal_like_values(100, 3);
  stats::LatencySketch sketch;
  for (const double v : values) sketch.add(v);
  stats::LatencySketch empty;
  stats::LatencySketch merged = sketch;
  merged.merge(empty);
  expect_sketch_equal(merged, sketch);
  stats::LatencySketch other;   // identity on the left too
  other.merge(sketch);
  expect_sketch_equal(other, sketch);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.p50(), 0.0);
}

// --- Barrier schedule -------------------------------------------------------

/// The grid as the engine built it before ObservationGrid generated one
/// instant at a time: each cadence accumulated into a vector, then the two
/// merged.  Kept here as the oracle for ObservationGrid::next.
std::vector<sim::GridInstant> merged_grid(double sample_interval,
                                          double epoch_period, double t_end) {
  const auto accumulate = [t_end](double interval) {
    std::vector<double> times;
    if (interval > 0.0)
      for (double next = interval; next <= t_end; next += interval)
        times.push_back(next);
    return times;
  };
  const std::vector<double> samples = accumulate(sample_interval);
  const std::vector<double> epochs = accumulate(epoch_period);
  std::vector<sim::GridInstant> instants;
  std::size_t i = 0, j = 0;
  while (i < samples.size() || j < epochs.size()) {
    const bool take_sample =
        i < samples.size() && (j >= epochs.size() || samples[i] <= epochs[j]);
    sim::GridInstant g;
    g.time = take_sample ? samples[i] : epochs[j];
    if (i < samples.size() && samples[i] == g.time) {
      g.sample = true;
      ++i;
    }
    if (j < epochs.size() && epochs[j] == g.time) {
      g.epoch = true;
      ++j;
    }
    instants.push_back(g);
  }
  return instants;
}

TEST(ObservationGrid, MatchesTheTwoVectorMergeInstantForInstant) {
  struct Case {
    double sample_interval, epoch_period, t_end;
  };
  const Case cases[] = {
      {2.0, 2.0, 20.0},   // coinciding cadences: every instant is both
      {1.0, 5.0, 50.0},   // every fifth sample is an epoch
      {2.5, 2.0, 60.0},   // coinciding every 10 s
      {0.7, 2.0, 60.0},   // incommensurate: inexact sums never meet
      {3.0, 2.5, 60.0},
      {0.1, 2.0, 30.0},
      {0.7, 2.5, 45.0},
      {0.0, 2.0, 20.0},   // no samples
      {2.0, 0.0, 20.0},   // no epochs
      {0.0, 0.0, 20.0},   // no grid at all
      {2.0, 5.0, 20.0},   // t_end exactly on a shared grid point
      {0.5, 0.0, 10.0},   // t_end on the last sample (0.5 sums exactly)
      {0.1, 0.25, 1.0},   // ten 0.1 steps fall just short of t_end
      {5.0, 7.0, 3.0},    // t_end before the first instant
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "sample " << c.sample_interval << ", epoch "
                 << c.epoch_period << ", t_end " << c.t_end);
    const std::vector<sim::GridInstant> want =
        merged_grid(c.sample_interval, c.epoch_period, c.t_end);
    sim::ObservationGrid grid(c.sample_interval, c.epoch_period, c.t_end);
    std::vector<sim::GridInstant> got;
    for (sim::GridInstant g; grid.next(g);) got.push_back(g);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("instant " + std::to_string(i));
      EXPECT_EQ(got[i].time, want[i].time);  // bit for bit
      EXPECT_EQ(got[i].sample, want[i].sample);
      EXPECT_EQ(got[i].epoch, want[i].epoch);
    }
    sim::GridInstant past;
    EXPECT_FALSE(grid.next(past));  // an exhausted grid stays exhausted
  }
}

// --- Cross-shard-count engine equivalence ---------------------------------

std::vector<core::UserParams> mixed_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(777);
  for (std::size_t i = 0; i < n; ++i) {
    core::UserParams u;
    u.arrival_rate = random::uniform(rng, 0.5, 3.0);
    u.service_rate = random::uniform(rng, 2.0, 5.0);
    u.offload_latency = random::uniform(rng, 0.05, 0.6);
    u.energy_local = random::uniform(rng, 0.8, 1.2);
    u.energy_offload = random::uniform(rng, 0.3, 0.7);
    users.push_back(u);
  }
  return users;
}

std::vector<double> mixed_thresholds(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(0.25 * static_cast<double>(i % 9));  // incl. fractional
  return xs;
}

void expect_result_identical(const sim::SimulationResult& a,
                             const sim::SimulationResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  ASSERT_EQ(a.cluster_utilization.size(), b.cluster_utilization.size());
  for (std::size_t i = 0; i < a.cluster_utilization.size(); ++i)
    EXPECT_EQ(a.cluster_utilization[i], b.cluster_utilization[i])
        << "cluster " << i;
  ASSERT_EQ(a.cluster_offloads.size(), b.cluster_offloads.size());
  for (std::size_t i = 0; i < a.cluster_offloads.size(); ++i)
    EXPECT_EQ(a.cluster_offloads[i], b.cluster_offloads[i]) << "cluster " << i;
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.mean_offload_fraction, b.mean_offload_fraction);
  expect_sketch_equal(a.local_sojourn_percentiles, b.local_sojourn_percentiles);
  expect_sketch_equal(a.offload_delay_percentiles, b.offload_delay_percentiles);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const sim::DeviceStats& x = a.devices[i];
    const sim::DeviceStats& y = b.devices[i];
    EXPECT_EQ(x.arrivals, y.arrivals) << "device " << i;
    EXPECT_EQ(x.offloaded, y.offloaded) << "device " << i;
    EXPECT_EQ(x.local_completed, y.local_completed) << "device " << i;
    EXPECT_EQ(x.mean_queue_length, y.mean_queue_length) << "device " << i;
    EXPECT_EQ(x.mean_local_sojourn, y.mean_local_sojourn) << "device " << i;
    EXPECT_EQ(x.mean_offload_delay, y.mean_offload_delay) << "device " << i;
    EXPECT_EQ(x.energy_per_task, y.energy_per_task) << "device " << i;
    EXPECT_EQ(x.empirical_cost, y.empirical_cost) << "device " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    const sim::TimelinePoint& x = a.timeline[i];
    const sim::TimelinePoint& y = b.timeline[i];
    EXPECT_EQ(x.time, y.time) << "sample " << i;
    EXPECT_EQ(x.utilization_estimate, y.utilization_estimate) << "sample " << i;
    EXPECT_EQ(x.mean_queue_length, y.mean_queue_length) << "sample " << i;
    EXPECT_EQ(x.offloads_so_far, y.offloads_so_far) << "sample " << i;
    EXPECT_EQ(x.capacity_scale, y.capacity_scale) << "sample " << i;
    EXPECT_EQ(x.active_devices, y.active_devices) << "sample " << i;
  }
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.restarts, b.faults.restarts);
  EXPECT_EQ(a.faults.churn_joined, b.faults.churn_joined);
  EXPECT_EQ(a.faults.churn_departed, b.faults.churn_departed);
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.offloads_rejected, b.faults.offloads_rejected);
  EXPECT_EQ(a.faults.offloads_penalized, b.faults.offloads_penalized);
  EXPECT_EQ(a.faults.min_capacity_scale, b.faults.min_capacity_scale);
  EXPECT_EQ(a.faults.mean_capacity_scale, b.faults.mean_capacity_scale);
  EXPECT_EQ(a.faults.degraded_time, b.faults.degraded_time);
  EXPECT_EQ(a.faults.participating_devices, b.faults.participating_devices);
}

void expect_shard_invariant(sim::SimulationOptions options,
                            const std::shared_ptr<const fault::FaultSchedule>&
                                schedule = nullptr) {
  const auto users = mixed_users(41);  // odd size: uneven shard bounds
  options.faults = schedule;
  options.shards = 1;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(),
                               options);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));
  for (const std::size_t k : {2u, 4u, 7u}) {
    options.shards = k;
    sim::MecSimulation sharded(users, 8.0, core::make_reciprocal_delay(),
                               options);
    const sim::SimulationResult r =
        sharded.run_tro(mixed_thresholds(sharded.total_devices()));
    SCOPED_TRACE("shards = " + std::to_string(k));
    expect_result_identical(base, r);
  }
}

TEST(ShardEquivalence, FixedGammaWithSampling) {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  expect_shard_invariant(o);
}

TEST(ShardEquivalence, TrackedGammaWithSampling) {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 80.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 3.0;
  expect_shard_invariant(o);
}

TEST(ShardEquivalence, FaultScheduleAllActionKinds) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(20.0, 0.5);
  schedule->add_capacity_scale(45.0, 1.0);
  schedule->add_outage(12.0, 18.0, fault::OutageMode::kReject);
  schedule->add_outage(30.0, 38.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_crash(10.0, 3);
  schedule->add_crash(10.0, 17);     // second crash at the same instant
  schedule->add_restart(25.0, 3);
  schedule->add_restart(26.0, 9);    // no-op: device 9 is alive
  schedule->add_user_departure(22.0, 0.37);
  schedule->add_user_departure(23.0, 0.91);
  core::UserParams joiner;
  joiner.arrival_rate = 1.5;
  joiner.service_rate = 3.0;
  joiner.offload_latency = 0.2;
  joiner.energy_local = 1.0;
  joiner.energy_offload = 0.5;
  schedule->add_user_arrival(15.0, joiner);
  schedule->add_user_arrival(75.0, joiner);  // beyond t_end: never joins

  sim::SimulationOptions tracked;
  tracked.warmup = 4.0;
  tracked.horizon = 60.0;
  tracked.seed = 2024;
  tracked.utilization_ewma_tau = 8.0;
  tracked.initial_gamma = 0.2;
  tracked.sample_interval = 4.0;
  expect_shard_invariant(tracked, schedule);

  sim::SimulationOptions pinned;
  pinned.warmup = 4.0;
  pinned.horizon = 60.0;
  pinned.seed = 2024;
  pinned.fixed_gamma = 0.3;
  pinned.sample_interval = 4.0;
  expect_shard_invariant(pinned, schedule);
}

TEST(ShardEquivalence, ClosedLoopDtuMatchesAcrossShardCounts) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 120.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.shards = 1;
  const sim::ClosedLoopResult base =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  for (const std::size_t k : {2u, 4u, 7u}) {
    opt.shards = k;
    const sim::ClosedLoopResult r =
        run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
    SCOPED_TRACE("shards = " + std::to_string(k));
    EXPECT_EQ(base.final_gamma_hat, r.final_gamma_hat);
    EXPECT_EQ(base.estimate_settled, r.estimate_settled);
    ASSERT_EQ(base.thresholds.size(), r.thresholds.size());
    for (std::size_t i = 0; i < base.thresholds.size(); ++i)
      EXPECT_EQ(base.thresholds[i], r.thresholds[i]) << "device " << i;
    ASSERT_EQ(base.epochs.size(), r.epochs.size());
    for (std::size_t i = 0; i < base.epochs.size(); ++i) {
      EXPECT_EQ(base.epochs[i].time, r.epochs[i].time) << "epoch " << i;
      EXPECT_EQ(base.epochs[i].gamma_measured, r.epochs[i].gamma_measured)
          << "epoch " << i;
      EXPECT_EQ(base.epochs[i].gamma_hat, r.epochs[i].gamma_hat)
          << "epoch " << i;
      EXPECT_EQ(base.epochs[i].mean_threshold, r.epochs[i].mean_threshold)
          << "epoch " << i;
    }
    expect_result_identical(base.run, r.run);
  }
}

TEST(ShardEquivalence, MultiClusterTrackedGamma) {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 60.0;
  o.seed = 4242;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 3.0;
  o.topology.clusters = 3;
  o.topology.shares = {0.5, 0.3, 0.2};  // heterogeneous capacities
  expect_shard_invariant(o);
}

TEST(ShardEquivalence, MultiClusterPerClusterBrownouts) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(10.0, 0.5, 1);  // cluster 1 browns out
  schedule->add_capacity_scale(15.0, 0.7, 0);  // then cluster 0, overlapping
  schedule->add_capacity_scale(24.0, 1.0, 1);
  schedule->add_capacity_scale(30.0, 0.8);     // global scale on top
  schedule->add_outage(18.0, 22.0, fault::OutageMode::kPenalty, 0.4);

  sim::SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 50.0;
  o.seed = 777;
  o.utilization_ewma_tau = 6.0;
  o.initial_gamma = 0.25;
  o.sample_interval = 5.0;
  o.topology.clusters = 2;
  expect_shard_invariant(o, schedule);
}

TEST(ShardEquivalence, MultiClusterClosedLoopDtu) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 80.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.topology.clusters = 2;
  opt.topology.shares = {0.6, 0.4};
  opt.shards = 1;
  const sim::ClosedLoopResult base =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  for (const std::size_t k : {2u, 4u, 7u}) {
    opt.shards = k;
    const sim::ClosedLoopResult r =
        run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
    SCOPED_TRACE("shards = " + std::to_string(k));
    EXPECT_EQ(base.final_gamma_hat, r.final_gamma_hat);
    ASSERT_EQ(base.epochs.size(), r.epochs.size());
    for (std::size_t i = 0; i < base.epochs.size(); ++i)
      EXPECT_EQ(base.epochs[i].gamma_measured, r.epochs[i].gamma_measured)
          << "epoch " << i;
    expect_result_identical(base.run, r.run);
  }
}

TEST(ShardEquivalence, ShardCountIsCappedAtThePopulation) {
  sim::SimulationOptions o;
  o.warmup = 1.0;
  o.horizon = 20.0;
  o.seed = 5;
  o.fixed_gamma = 0.2;
  o.shards = 1;
  const auto users = mixed_users(3);
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(), o);
  const auto base = reference.run_tro(mixed_thresholds(3));
  o.shards = 64;  // far more shards than devices: clamps to 3
  sim::MecSimulation clamped(users, 8.0, core::make_reciprocal_delay(), o);
  expect_result_identical(base, clamped.run_tro(mixed_thresholds(3)));
}

}  // namespace
}  // namespace mec
