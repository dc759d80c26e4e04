// Golden-trace equivalence for the DES hot-path overhaul.
//
// The calendar event queue, the ring-buffer task FIFO, the sealed TRO
// arrival fast path, and workspace reuse are pure performance changes: the
// simulator must pop the identical event sequence and therefore produce
// bit-identical metrics.  The hexfloat constants below were captured from
// the pre-overhaul simulator (std::priority_queue + per-device deque,
// virtual dispatch on every arrival); every comparison is exact — no
// tolerances anywhere in this file.
#include "mec/sim/mec_simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bit_digest.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/des.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec::sim {
namespace {

// The fixed heterogeneous population shared by all golden scenarios.
std::vector<core::UserParams> golden_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(424242);
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

SimulationOptions scenario_a_options() {
  SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 60.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  return o;
}

std::vector<double> scenario_a_thresholds(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < n; ++i)
    xs.push_back(0.5 * static_cast<double>(i % 7));
  return xs;
}

SimulationOptions scenario_b_options() {
  SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 80.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  return o;
}

void expect_bitwise_equal(const SimulationResult& a,
                          const SimulationResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.mean_offload_fraction, b.mean_offload_fraction);
  EXPECT_EQ(a.local_sojourn_percentiles.count(),
            b.local_sojourn_percentiles.count());
  EXPECT_EQ(a.local_sojourn_percentiles.p50(),
            b.local_sojourn_percentiles.p50());
  EXPECT_EQ(a.offload_delay_percentiles.p99(),
            b.offload_delay_percentiles.p99());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].arrivals, b.devices[i].arrivals) << "device " << i;
    EXPECT_EQ(a.devices[i].offloaded, b.devices[i].offloaded) << "device " << i;
    EXPECT_EQ(a.devices[i].local_completed, b.devices[i].local_completed)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_queue_length, b.devices[i].mean_queue_length)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_local_sojourn, b.devices[i].mean_local_sojourn)
        << "device " << i;
    EXPECT_EQ(a.devices[i].mean_offload_delay, b.devices[i].mean_offload_delay)
        << "device " << i;
    EXPECT_EQ(a.devices[i].empirical_cost, b.devices[i].empirical_cost)
        << "device " << i;
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate);
    EXPECT_EQ(a.timeline[i].mean_queue_length, b.timeline[i].mean_queue_length);
    EXPECT_EQ(a.timeline[i].offloads_so_far, b.timeline[i].offloads_so_far);
  }
}

TEST(GoldenTrace, FixedGammaMixedThresholdsWithSampling) {
  const auto users = golden_users(40);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_a_options());
  const SimulationResult r = s.run_tro(scenario_a_thresholds(users.size()));
  EXPECT_EQ(r.total_events, 8754u);
  EXPECT_EQ(r.measured_utilization, 0x1.551eb851eb852p-4);
  EXPECT_EQ(r.mean_cost, 0x1.a949dce689f98p+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.b6c7910db35f5p-2);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.7e7abbf6a030bp-2);
  const DeviceStats& d7 = r.devices[7];  // threshold 0: pure offloader
  EXPECT_EQ(d7.arrivals, 141u);
  EXPECT_EQ(d7.offloaded, 141u);
  EXPECT_EQ(d7.local_completed, 0u);
  EXPECT_EQ(d7.mean_queue_length, 0.0);
  EXPECT_EQ(d7.mean_local_sojourn, 0.0);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.b07bf525f70c1p+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.9c10b47aaa3ddp-2);
  EXPECT_EQ(d7.empirical_cost, 0x1.0bc0112250cd9p+1);
  ASSERT_EQ(r.timeline.size(), 26u);
  EXPECT_EQ(r.timeline.back().time, 0x1.04p+6);  // 65.0 = warmup + horizon
  EXPECT_EQ(r.timeline.back().utilization_estimate, 0x1p-2);
  EXPECT_EQ(r.timeline.back().mean_queue_length, 0x1.ccccccccccccdp-2);
  EXPECT_EQ(r.timeline.back().offloads_so_far, 1599u);
}

TEST(GoldenTrace, OnlineEwmaGammaHomogeneousFractionalThreshold) {
  const auto users = golden_users(40);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_b_options());
  const SimulationResult r = s.run_tro(std::vector<double>(users.size(), 1.75));
  EXPECT_EQ(r.total_events, 11497u);
  EXPECT_EQ(r.measured_utilization, 0x1.ab851eb851eb8p-5);
  EXPECT_EQ(r.mean_cost, 0x1.811e34317c14p+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.132c4df8412fep-1);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.a23b4b244b725p-3);
  const DeviceStats& d7 = r.devices[7];
  EXPECT_EQ(d7.arrivals, 205u);
  EXPECT_EQ(d7.offloaded, 55u);
  EXPECT_EQ(d7.local_completed, 151u);
  EXPECT_EQ(d7.mean_queue_length, 0x1.58ddb17af037ap-1);
  EXPECT_EQ(d7.mean_local_sojourn, 0x1.6d6bc1250551p-2);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.921d6ade446e8p+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.be8c9cde3bd54p-1);
  EXPECT_EQ(d7.empirical_cost, 0x1.93c78f57e91e3p+0);
}

// Captured when DPO ran through virtual policy objects; run_dpo's
// DpoValueDecide must draw the same sequence.
TEST(GoldenTrace, DpoPoliciesOnTheGenericVirtualPath) {
  const auto users = golden_users(40);
  SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 50.0;
  o.seed = 5;
  o.latency.kind = SamplerSpec::Kind::kDeterministic;
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(), o);
  std::vector<double> rhos;
  for (std::size_t i = 0; i < users.size(); ++i)
    rhos.push_back(0.1 + 0.02 * static_cast<double>(i % 10));
  const SimulationResult r = s.run_dpo(rhos);
  EXPECT_EQ(r.total_events, 6622u);
  EXPECT_EQ(r.measured_utilization, 0x1.5916872b020c5p-5);
  EXPECT_EQ(r.mean_cost, 0x1.b54a91cbe50ap+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.03acf3fee5504p+0);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.8ef1ca8a2a9f5p-3);
  const DeviceStats& d7 = r.devices[7];
  EXPECT_EQ(d7.arrivals, 139u);
  EXPECT_EQ(d7.offloaded, 31u);
  EXPECT_EQ(d7.local_completed, 105u);
  EXPECT_EQ(d7.mean_queue_length, 0x1.1ea5532a93dd7p+0);
  EXPECT_EQ(d7.mean_local_sojourn, 0x1.076f1d6702d7ap-1);
  EXPECT_EQ(d7.mean_offload_delay, 0x1.7791115f1ffadp+0);
  EXPECT_EQ(d7.energy_per_task, 0x1.cd6e1e98a04d2p-1);
  EXPECT_EQ(d7.empirical_cost, 0x1.b332232937deap+0);
}

/// FNV-1a digest of every field of a result.
std::uint64_t result_digest(const SimulationResult& r) {
  test::BitDigest h;
  for (const DeviceStats& d : r.devices) {
    h.word(d.arrivals);
    h.word(d.offloaded);
    h.word(d.local_completed);
    h.real(d.mean_queue_length);
    h.real(d.offload_fraction);
    h.real(d.mean_local_sojourn);
    h.real(d.mean_offload_delay);
    h.real(d.energy_per_task);
    h.real(d.empirical_cost);
  }
  for (const stats::LatencySketch* s :
       {&r.local_sojourn_percentiles, &r.offload_delay_percentiles}) {
    h.word(s->count());
    h.real(s->min());
    h.real(s->max());
    for (const std::uint64_t c : s->bin_counts()) h.word(c);
  }
  for (const TimelinePoint& p : r.timeline) {
    h.real(p.time);
    h.real(p.utilization_estimate);
    h.real(p.mean_queue_length);
    h.word(p.offloads_so_far);
    h.real(p.capacity_scale);
    h.word(p.active_devices);
  }
  const FaultStats& f = r.faults;
  for (const std::uint64_t c :
       {f.crashes, f.restarts, f.churn_joined, f.churn_departed, f.tasks_lost,
        f.offloads_rejected, f.offloads_penalized, f.participating_devices})
    h.word(c);
  h.real(f.min_capacity_scale);
  h.real(f.mean_capacity_scale);
  h.real(f.degraded_time);
  h.real(r.measured_utilization);
  h.reals(r.cluster_utilization);
  for (const std::uint64_t c : r.cluster_offloads) h.word(c);
  h.real(r.mean_cost);
  h.real(r.mean_queue_length);
  h.real(r.mean_offload_fraction);
  h.real(r.horizon);
  h.word(r.total_events);
  return h.value();
}

// run_dpo under every kind of device and edge fault — a crash and its
// restart, a reject and a penalty outage, a churn join and a departure —
// on two clusters, with fixed and tracked gamma, at K = 1 and K = 3.  The
// probabilities include 0 and 1, which draw nothing.  Each digest covers
// every field of the result; they were captured while each offload rule
// was its own template instantiation of the event loop.
TEST(GoldenTrace, DpoUnderFaultsKeepsItsBits) {
  const auto users = golden_users(40);
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_crash(6.0, 3);
  schedule->add_restart(15.0, 3);
  schedule->add_outage(10.0, 16.0, fault::OutageMode::kReject);
  schedule->add_outage(22.0, 28.0, fault::OutageMode::kPenalty, 0.3);
  schedule->add_user_arrival(12.0, users[5]);
  schedule->add_user_departure(19.0, 0.61);
  // Fixed gamma, then tracked gamma; equal at every shard count.
  const std::uint64_t want[] = {0x94670863b2e655a1ull, 0x9cd794fbe9672f55ull};
  for (const bool tracked : {false, true}) {
    for (const std::size_t shards : {1u, 3u}) {
      SCOPED_TRACE(std::string(tracked ? "tracked" : "fixed") +
                   " gamma, K = " + std::to_string(shards));
      SimulationOptions o;
      o.warmup = 4.0;
      o.horizon = 36.0;
      o.seed = 808;
      o.sample_interval = 3.0;
      o.topology.clusters = 2;
      o.shards = shards;
      o.faults = schedule;
      if (tracked) {
        o.utilization_ewma_tau = 6.0;
        o.initial_gamma = 0.2;
      } else {
        o.fixed_gamma = 0.3;
      }
      MecSimulation s(users, 8.0, core::make_reciprocal_delay(), o);
      std::vector<double> rhos;
      for (std::size_t i = 0; i < s.total_devices(); ++i)
        rhos.push_back(0.2 * static_cast<double>(i % 6));
      const SimulationResult r = s.run_dpo(rhos);
      EXPECT_EQ(r.faults.crashes, 1u);
      EXPECT_EQ(r.faults.restarts, 1u);
      EXPECT_EQ(r.faults.churn_joined, 1u);
      EXPECT_EQ(r.faults.churn_departed, 1u);
      EXPECT_GT(r.faults.offloads_rejected, 0u);
      EXPECT_GT(r.faults.offloads_penalized, 0u);
      EXPECT_EQ(result_digest(r), want[tracked])
          << "0x" << std::hex << result_digest(r);
    }
  }
}

// The paper's heterogeneous population at a size whose future-event list
// (over 20,000 pending events) runs on a tuned ring of many buckets, so the
// run pops its events through sorted calendar windows; the 40-device goldens
// above stay below the minimum tuned size and pop from the side heap.  The
// run streams engine counters, which never perturb the event stream, and
// every counter frame must show the ring tuned.
SimulationResult calendar_gear_run(bool tracked) {
  const population::Population pop = population::sample_population(
      population::theoretical_comparison_scenario(
          population::LoadRegime::kAtService, 20000),
      1729);
  SimulationOptions o;
  o.warmup = 1.0;
  o.horizon = 3.0;
  o.seed = 1729;
  o.shards = 1;
  o.record_timeline = false;
  if (tracked)
    o.initial_gamma = 0.3;
  else
    o.fixed_gamma = 0.3;
  o.sample_interval = 0.5;
  const std::string tag = tracked ? "tracked" : "fixed";
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  o.stream_log = (dir / ("mec_calendar_gear_" + tag + ".meclog")).string();
  MecSimulation s(pop.users, pop.config.capacity, pop.config.delay, o);
  const SimulationResult r = s.run_tro(scenario_a_thresholds(pop.users.size()));

  const obs::LogScan scan = obs::scan_log(o.stream_log);
  EXPECT_TRUE(scan.complete()) << scan.error;
  const auto gear_id =
      static_cast<std::uint16_t>(obs::Counter::kShardCalendarGear);
  std::size_t gear_samples = 0;
  for (const std::vector<obs::CounterValue>& frame : scan.counters)
    for (const obs::CounterValue& c : frame)
      if (c.id == gear_id) {
        EXPECT_EQ(c.value, 1.0);
        ++gear_samples;
      }
  EXPECT_GE(gear_samples, 8u);
  std::filesystem::remove(o.stream_log);
  return r;
}

// Captured while each calendar window was sorted whole.
TEST(GoldenTrace, HeterogeneousPopulationInCalendarGear) {
  const SimulationResult fixed = calendar_gear_run(false);
  EXPECT_EQ(fixed.total_events, 375354u);
  EXPECT_EQ(fixed.measured_utilization, 0x1.581221b24904ap-3);
  EXPECT_EQ(fixed.mean_cost, 0x1.80b4dde050f7p+1);
  const DeviceStats& f = fixed.devices[1234];
  EXPECT_EQ(f.arrivals, 8u);
  EXPECT_EQ(f.offloaded, 3u);
  EXPECT_EQ(f.local_completed, 5u);
  EXPECT_EQ(f.mean_queue_length, 0x1.8192e4d58b6b8p-2);
  EXPECT_EQ(f.mean_local_sojourn, 0x1.bfc5644e1a21p-3);
  EXPECT_EQ(f.mean_offload_delay, 0x1.5cb1ecbcf318cp+0);
  EXPECT_EQ(f.empirical_cost, 0x1.383319d427cbcp+0);

  const SimulationResult tracked = calendar_gear_run(true);
  EXPECT_EQ(tracked.total_events, 376283u);
  EXPECT_EQ(tracked.measured_utilization, 0x1.581221b24904ap-3);
  EXPECT_EQ(tracked.mean_cost, 0x1.7df73b38bbcffp+1);
  const DeviceStats& t = tracked.devices[1234];
  EXPECT_EQ(t.arrivals, 8u);
  EXPECT_EQ(t.offloaded, 3u);
  EXPECT_EQ(t.local_completed, 5u);
  EXPECT_EQ(t.mean_queue_length, 0x1.8192e4d58b6b8p-2);
  EXPECT_EQ(t.mean_local_sojourn, 0x1.bfc5644e1a21p-3);
  EXPECT_EQ(t.mean_offload_delay, 0x1.52041cba41521p+0);
  EXPECT_EQ(t.empirical_cost, 0x1.3431ebd325214p+0);
}

TEST(FastPathEquivalence, EpochRewrittenArrayMatchesAVirtualReaderBitForBit) {
  // Both epoch hooks rewrite the array the run decides on: on_epoch from
  // the scalar gamma, on_cluster_epoch (after it) from each device's
  // cluster gamma.  The in-process rank reads the array itself; forked
  // ranks (transport=process, one per shard) decide on the copies the
  // coordinator broadcasts after every epoch.  Fractional values keep the
  // boundary Bernoulli draw in play.
  const auto users = golden_users(40);
  std::vector<double> xs;
  std::size_t epochs = 0;
  SimulationOptions o = scenario_b_options();
  o.topology.clusters = 2;
  o.sample_interval = 4.0;
  o.epoch_period = 6.0;
  o.on_epoch = [&](double, double gamma) {
    ++epochs;
    for (std::size_t n = 0; n < xs.size(); ++n)
      xs[n] = 0.5 * static_cast<double>((n + epochs) % 7) + gamma;
  };
  o.on_cluster_epoch = [&](double, std::span<const double> cluster_gammas) {
    for (std::size_t n = 0; n < xs.size(); ++n)
      xs[n] += 2.0 * cluster_gammas[n % cluster_gammas.size()];
  };
  for (const std::size_t k : {1u, 4u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    o.shards = k;
    o.transport = TransportKind::kInProcess;
    MecSimulation inproc(users, 8.0, core::make_reciprocal_delay(), o);
    xs = scenario_a_thresholds(users.size());
    epochs = 0;
    const SimulationResult direct = inproc.run_tro(xs);
    const std::vector<double> direct_final = xs;
    ASSERT_GT(epochs, 10u);

    o.transport = TransportKind::kProcess;
    o.workers = k;
    MecSimulation forked(users, 8.0, core::make_reciprocal_delay(), o);
    xs = scenario_a_thresholds(users.size());
    epochs = 0;
    expect_bitwise_equal(direct, forked.run_tro(xs));
    EXPECT_EQ(direct_final, xs);
  }
}

TEST(WorkspaceReuse, ReusedWorkspaceReproducesFreshRunsBitForBit) {
  // Scenario B exercises the EWMA estimator and the RNG-stream snapshot:
  // run 1 sizes the workspace and caches the split streams, runs 2 and 3
  // restore them.  All runs — with or without a workspace — must agree.
  const auto users = golden_users(40);
  const std::vector<double> xs(users.size(), 1.75);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_b_options());
  const SimulationResult fresh = s.run_tro(xs);
  SimWorkspace ws;
  const SimulationResult first = s.run_tro(xs, ws);
  const SimulationResult second = s.run_tro(xs, ws);
  const SimulationResult third = s.run_tro(xs, ws);
  expect_bitwise_equal(fresh, first);
  expect_bitwise_equal(fresh, second);
  expect_bitwise_equal(fresh, third);
}

TEST(WorkspaceReuse, MovedWorkspaceKeepsItsCachedState) {
  // A workspace moves with its sized buffers and cached RNG streams: runs on
  // the move-constructed and the move-assigned copy still reproduce a
  // fresh run bit for bit.
  const auto users = golden_users(40);
  const std::vector<double> xs(users.size(), 1.75);
  MecSimulation s(users, 8.0, core::make_reciprocal_delay(),
                  scenario_b_options());
  const SimulationResult fresh = s.run_tro(xs);
  SimWorkspace ws;
  expect_bitwise_equal(fresh, s.run_tro(xs, ws));
  SimWorkspace moved(std::move(ws));
  expect_bitwise_equal(fresh, s.run_tro(xs, moved));
  ws = std::move(moved);
  expect_bitwise_equal(fresh, s.run_tro(xs, ws));
}

TEST(WorkspaceReuse, WorkspaceSurvivesPopulationSizeChanges) {
  // The same workspace driven by differently-sized simulations must resize
  // and still reproduce the fresh-run results exactly.
  SimWorkspace ws;
  for (const std::size_t n : {60u, 15u, 90u}) {
    const auto users = golden_users(n);
    const std::vector<double> xs(n, 2.0);
    SimulationOptions o;
    o.warmup = 1.0;
    o.horizon = 30.0;
    o.seed = 7 + n;
    o.fixed_gamma = 0.2;
    MecSimulation s(users, 8.0, core::make_reciprocal_delay(), o);
    expect_bitwise_equal(s.run_tro(xs), s.run_tro(xs, ws));
  }
}

// --- EventQueue order equivalence against a reference model ----------------

using RefNode = std::tuple<double, std::uint64_t, std::uint32_t, int>;

void check_pop(EventQueue& q, std::set<RefNode>& ref) {
  ASSERT_FALSE(ref.empty());
  const RefNode expected = *ref.begin();
  ref.erase(ref.begin());
  EXPECT_EQ(q.next_time(), std::get<0>(expected));
  const Event e = q.pop();
  ASSERT_EQ(e.time, std::get<0>(expected));
  ASSERT_EQ(e.seq, std::get<1>(expected));
  ASSERT_EQ(e.device, std::get<2>(expected));
  ASSERT_EQ(static_cast<int>(e.kind), std::get<3>(expected));
}

TEST(EventQueueEquivalence, MatchesReferenceOrderAcrossGearSwitches) {
  // Drive the queue through every regime — untuned, the first tune,
  // growth retunes, overflow-tier hits, in-window (side-heap) pushes, the
  // shrink retunes, and the return to untuned — checking each pop against
  // an ordered (time, seq) reference model.
  EventQueue q;
  std::set<RefNode> ref;
  random::Xoshiro256 rng(2718281828u);
  std::uint64_t seq = 0;
  double clock = 0.0;

  const auto push = [&](double t, EventKind k, std::uint32_t dev) {
    q.push(t, k, dev);
    ref.emplace(t, seq++, dev, static_cast<int>(k));
  };

  // Grow well past the minimum tuned size (256).
  for (std::uint32_t i = 0; i < 30000; ++i)
    push(random::exponential(rng, 0.5), EventKind::kArrival, i % 1000);

  // Steady churn with a net-growth phase (two pushes per pop, growing the
  // population past 4x its size at the last retune) to force a growth
  // retune, mixing short delays (side heap), typical delays, same-time
  // ties, and far-future outliers (overflow tier).
  for (int step = 0; step < 120000 && !ref.empty(); ++step) {
    check_pop(q, ref);
    clock = std::get<0>(*ref.begin());
    const int fanout = step < 40000 ? 2 : 1;
    for (int j = 0; j < fanout; ++j) {
      const double u = random::uniform(rng, 0.0, 1.0);
      double t;
      if (u < 0.05) {
        t = clock;  // exact tie: FIFO order must hold
      } else if (u < 0.15) {
        t = clock + random::exponential(rng, 5000.0);  // inside the window
      } else if (u < 0.97) {
        t = clock + random::exponential(rng, 0.5);
      } else {
        t = clock + random::uniform(rng, 1e4, 1e7);  // overflow tier
      }
      push(t, static_cast<EventKind>(step % 3), static_cast<std::uint32_t>(
                                                    (step + 7 * j) % 1000));
    }
    if (step == 60000) {
      // Burst of simultaneous events deep in the tuned regime.
      for (int j = 0; j < 500; ++j)
        push(clock + 1.0, EventKind::kLocalDeparture,
             static_cast<std::uint32_t>(j));
    }
  }

  // Drain completely: crosses the shrink retunes and the return to
  // untuned.
  while (!ref.empty()) check_pop(q, ref);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.tuned());

  // clear() keeps capacity but restarts the sequence: reuse must still
  // order correctly and report fresh seq numbers.
  q.clear();
  seq = 0;
  for (std::uint32_t i = 0; i < 5000; ++i)
    push(random::exponential(rng, 1.0), EventKind::kArrival, i % 64);
  while (!ref.empty()) check_pop(q, ref);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueEquivalence, DenseHeterogeneousWindowsMatchReferenceOrder) {
  // The paper's rate law: every node re-pushes itself Exp(r_i) later, with
  // r_i drawn from U(0, 6].  The slowest nodes stretch the mean residual
  // the calendar sizes its buckets from, so each window holds hundreds of
  // nodes, the case the window's distribution pass exists for.  A tie
  // flood sits in the side heap when a growth retune fires, so it reaches
  // a window in heap-array order rather than insertion order, and nodes at
  // the largest double below bucket edges probe the top sub-range.
  constexpr std::uint32_t kNodes = 100000;
  constexpr std::uint32_t kTies = 6000;
  EventQueue q;
  std::set<RefNode> ref;
  random::Xoshiro256 rng(6022140857u);
  std::vector<double> rates(kNodes);
  for (double& r : rates) r = 6.0 - random::uniform(rng, 0.0, 6.0);
  std::uint64_t seq = 0;
  std::uint32_t one_shot = kNodes;  // ties and edge probes: never re-pushed
  const auto push = [&](double t, EventKind k, std::uint32_t dev) {
    q.push(t, k, dev);
    ref.emplace(t, seq++, dev, static_cast<int>(k));
  };
  const auto hold = [&] {
    const double t = std::get<0>(*ref.begin());
    const std::uint32_t dev = std::get<2>(*ref.begin());
    check_pop(q, ref);
    if (dev < kNodes)
      push(t + random::exponential(rng, rates[dev]), EventKind::kArrival, dev);
  };

  // Tuned, short of the next 4x growth retune.
  constexpr std::uint32_t kFirst = 20000;
  for (std::uint32_t d = 0; d < kFirst; ++d)
    push(random::exponential(rng, rates[d]), EventKind::kArrival, d);
  ASSERT_TRUE(q.tuned());
  const std::uint64_t retunes = q.calendar_retunes();

  // The tie flood, at the front's time: inside the live window, so it
  // lands in the side heap.  A few pops move its last node to the root and
  // sift it down, so the heap array leaves insertion order.
  const double tie = q.next_time();
  for (std::uint32_t j = 0; j < kTies; ++j)
    push(tie, EventKind::kLocalDeparture, one_shot++);
  for (int j = 0; j < 16 && !HasFailure(); ++j) hold();
  ASSERT_EQ(q.calendar_retunes(), retunes);

  // Growing 4x retunes while the ties are pending: the rebuild re-bins the
  // side heap in heap-array order.
  for (std::uint32_t d = kFirst; d < kNodes; ++d)
    push(tie + random::exponential(rng, rates[d]), EventKind::kArrival, d);
  ASSERT_GT(q.calendar_retunes(), retunes);
  ASSERT_GE(q.size(), std::size_t{kNodes});
  ASSERT_EQ(std::get<0>(*ref.begin()), tie);
  const RefNode last_tie(tie, ~std::uint64_t{0}, 0, 0);
  ASSERT_GE(std::distance(ref.begin(), ref.upper_bound(last_tie)), 5000);

  // Equal-time pairs at the largest double below a bucket edge (in-bucket
  // fraction 1 - ulp, the top sub-range) and on the edge itself.
  const double w = q.calendar_bucket_width();
  const double first_edge = std::floor(tie / w) + 1.0;
  for (int k = 0; k < 8; ++k) {
    const double edge = (first_edge + k) * w;
    const double below = std::nextafter(edge, 0.0);
    push(below, EventKind::kArrival, one_shot++);
    push(edge, EventKind::kArrival, one_shot++);
    push(below, EventKind::kFault, one_shot++);
  }

  // Steady state: every pop re-pushes.  Every 1,024 holds, count the
  // pending nodes within one bucket width of the front.
  std::ptrdiff_t densest = 0;
  for (int step = 0; step < 200000 && !HasFailure(); ++step) {
    hold();
    if (step % 1024 != 0) continue;
    ASSERT_TRUE(q.tuned());
    const double limit = std::get<0>(*ref.begin()) + q.calendar_bucket_width();
    const auto end = ref.lower_bound(RefNode(limit, 0, 0, 0));
    densest = std::max(densest, std::distance(ref.begin(), end));
  }
  EXPECT_GE(densest, 256);

  // Drain: crosses the shrink retunes and the return to untuned.
  while (!ref.empty() && !HasFailure()) check_pop(q, ref);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.tuned());
}

TEST(EventQueueEquivalence, AllSimultaneousEventsStayFifoAtScale) {
  // A degenerate spread (every event at the same instant) cannot be
  // separated by time buckets; the queue must stay untuned and still pop in
  // insertion order far above the minimum tuned size.
  EventQueue q;
  const std::uint32_t n = 20000;
  for (std::uint32_t i = 0; i < n; ++i)
    q.push(3.5, EventKind::kArrival, i % 997);
  EXPECT_FALSE(q.tuned());
  for (std::uint32_t i = 0; i < n; ++i) {
    const Event e = q.pop();
    ASSERT_EQ(e.seq, i);
    ASSERT_EQ(e.device, i % 997);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueEquivalence, ScheduledCountTracksPushesAcrossClear) {
  EventQueue q;
  q.push(1.0, EventKind::kArrival, 0);
  q.push(2.0, EventKind::kArrival, 1);
  EXPECT_EQ(q.scheduled_count(), 2u);
  q.clear();
  EXPECT_EQ(q.scheduled_count(), 0u);
  q.push(1.0, EventKind::kArrival, 2);
  EXPECT_EQ(q.scheduled_count(), 1u);
  EXPECT_EQ(q.pop().seq, 0u);
}

}  // namespace
}  // namespace mec::sim
