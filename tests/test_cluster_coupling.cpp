// Multi-cluster edge-coupling battery.
//
// Pins the vector-gamma generalization of the coupling layer to the scalar
// engine it replaced:
//   - the 1-cluster default topology reproduces pre-change engine output
//     bit-for-bit (hexfloat goldens captured from the scalar-gamma build,
//     with and without a fault schedule);
//   - per-cluster offload accounting conserves the total offload mass for
//     every cluster count, and the offload *decisions* are invariant to the
//     topology (devices never see gamma when deciding);
//   - GammaReplay's cross-leg merge produces per-cluster gamma trajectories
//     bit-identical to a serial replay of the pre-merged log;
//   - malformed topologies are rejected up front.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace {

using namespace mec;

// Same population generator as the stream-log battery: the goldens below
// were captured against exactly these draws.
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
    xs.push_back(0.25 * static_cast<double>(i % 9));
  return xs;
}

sim::SimulationOptions golden_options() {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = 2024;
  o.sample_interval = 2.0;
  o.initial_gamma = 0.25;
  o.utilization_ewma_tau = 6.0;
  o.shards = 1;
  return o;
}

sim::SimulationResult run_golden_scenario(
    const std::shared_ptr<const fault::FaultSchedule>& schedule,
    const sim::ClusterTopology& topology = {}) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o = golden_options();
  o.faults = schedule;
  o.topology = topology;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  return des.run_tro(mixed_thresholds(users.size()));
}

// --- scalar-engine goldens (pre-change build, bitwise) ----------------------

// Captured from the scalar-gamma engine at the commit before the topology
// change, same toolchain and flags as CI.  Any bit that moves here means the
// 1-cluster reduction is no longer the identity.
TEST(SingleClusterBitCompat, ReproducesScalarEngineGoldenNoFaults) {
  const sim::SimulationResult r = run_golden_scenario(nullptr);
  EXPECT_EQ(r.total_events, 5570u);
  EXPECT_EQ(r.measured_utilization, 0x1.5a895da895da9p-4);
  EXPECT_EQ(r.mean_cost, 0x1.8f7932fe299aep+0);
  EXPECT_EQ(r.mean_queue_length, 0x1.2ea01029419fbp-2);
  EXPECT_EQ(r.mean_offload_fraction, 0x1.d463e580b0f88p-2);
  const double golden_gamma[] = {
      0x1.977368e33fc32p-3, 0x1.454aba45ca21bp-3, 0x1.1854b5ef9270ap-3,
      0x1.d328ee0d12093p-4, 0x1.aa8884dace7b2p-4, 0x1.6d855d8766ac3p-4,
      0x1.5c0fd3c563a93p-4, 0x1.6b52e621a21a7p-4, 0x1.63c1e831a0d49p-4,
      0x1.609a34c3c3665p-4, 0x1.678f1c0c7be7fp-4, 0x1.5cc2d4d873138p-4,
      0x1.64bd12f0d5f37p-4, 0x1.58d0b994a3368p-4, 0x1.6f19dd91f8493p-4,
      0x1.6d11c83eadf3ep-4, 0x1.64468295a3485p-4, 0x1.721c2757da8e4p-4,
      0x1.7adaae4d476fap-4, 0x1.71c7e63888397p-4, 0x1.6fac321700dc2p-4,
      0x1.837c47a879408p-4};
  ASSERT_EQ(r.timeline.size(), std::size(golden_gamma));
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(r.timeline[i].time, 2.0 * static_cast<double>(i + 1));
    EXPECT_EQ(r.timeline[i].utilization_estimate, golden_gamma[i]);
  }
  // The default topology's per-cluster view is the scalar view, bitwise.
  ASSERT_EQ(r.cluster_utilization.size(), 1u);
  EXPECT_EQ(r.cluster_utilization[0], r.measured_utilization);
  ASSERT_EQ(r.cluster_offloads.size(), 1u);
}

TEST(SingleClusterBitCompat, ReproducesScalarEngineGoldenUnderFaults) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(12.0, 0.6);
  schedule->add_outage(18.0, 24.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_capacity_scale(30.0, 1.0);
  const sim::SimulationResult r = run_golden_scenario(schedule);
  EXPECT_EQ(r.total_events, 5574u);
  EXPECT_EQ(r.measured_utilization, 0x1.a69b0812465bbp-4);
  EXPECT_EQ(r.mean_cost, 0x1.99588f5aa6434p+0);
  const double golden_gamma[] = {
      0x1.977368e33fc32p-3, 0x1.454aba45ca21bp-3, 0x1.1854b5ef9270ap-3,
      0x1.d328ee0d12093p-4, 0x1.aa8884dace7b2p-4, 0x1.6d855d8766ac3p-4,
      0x1.220d3079d30dp-3,  0x1.2ec5151c07161p-3, 0x1.2876ec295b5bdp-3,
      0x1.25d5d6a322d55p-3, 0x1.2ba1ecb511ecp-3,  0x1.22a25c09b53afp-3,
      0x1.29483a735cf59p-3, 0x1.1f589aa68802cp-3, 0x1.31eae34ef9925p-3,
      0x1.6d11c83eadf3ep-4, 0x1.64468295a3485p-4, 0x1.721c2757da8e4p-4,
      0x1.7adaae4d476fap-4, 0x1.71c7e63888397p-4, 0x1.6fac321700dc2p-4,
      0x1.837c47a879408p-4};
  ASSERT_EQ(r.timeline.size(), std::size(golden_gamma));
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(r.timeline[i].utilization_estimate, golden_gamma[i]);
  }
}

// An *explicit* 1-cluster topology (share vector {1.0}, one price) must be
// indistinguishable from the default-constructed one.
TEST(SingleClusterBitCompat, ExplicitOneClusterTopologyIsTheIdentity) {
  sim::ClusterTopology one;
  one.clusters = 1;
  one.shares = {1.0};
  const sim::SimulationResult a = run_golden_scenario(nullptr);
  const sim::SimulationResult b = run_golden_scenario(nullptr, one);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i)
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate);
}

// --- offload-mass conservation ----------------------------------------------

// Per-cluster accounting must conserve the total offload mass for any
// cluster count, and the decisions themselves are topology-invariant: an
// offload depends only on the device's queue and RNG stream, never on which
// cluster it routes to.
TEST(ClusterConservation, PerClusterOffloadsConserveTotalMass) {
  const auto users = mixed_users(41);
  std::vector<std::uint64_t> per_device_baseline;
  for (const std::size_t clusters : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("clusters = " + std::to_string(clusters));
    sim::SimulationOptions o = golden_options();
    o.topology.clusters = clusters;
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
    const sim::SimulationResult r =
        des.run_tro(mixed_thresholds(users.size()));
    ASSERT_EQ(r.cluster_offloads.size(), clusters);
    ASSERT_EQ(r.cluster_utilization.size(), clusters);
    std::uint64_t cluster_sum = 0;
    for (const std::uint64_t n : r.cluster_offloads) cluster_sum += n;
    std::uint64_t device_sum = 0;
    for (const auto& d : r.devices) device_sum += d.offloaded;
    EXPECT_EQ(cluster_sum, device_sum);
    if (per_device_baseline.empty()) {
      for (const auto& d : r.devices)
        per_device_baseline.push_back(d.offloaded);
    } else {
      ASSERT_EQ(r.devices.size(), per_device_baseline.size());
      for (std::size_t n = 0; n < r.devices.size(); ++n)
        EXPECT_EQ(r.devices[n].offloaded, per_device_baseline[n])
            << "device " << n << ": offload decisions moved with the topology";
    }
  }
}

// Heterogeneous shares: each cluster's measured utilization is its offload
// mass over its *own* capacity slice, so shrinking a share inflates that
// cluster's utilization relative to the even split.
TEST(ClusterConservation, HeterogeneousSharesScaleUtilization) {
  const auto users = mixed_users(41);
  sim::SimulationOptions o = golden_options();
  o.topology.clusters = 2;
  o.topology.shares = {0.8, 0.2};
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult r = des.run_tro(mixed_thresholds(users.size()));
  ASSERT_EQ(r.cluster_utilization.size(), 2u);
  // Devices split evenly (even/odd ids) but cluster 1 owns a quarter of the
  // capacity of cluster 0, so its utilization must come out higher.
  EXPECT_GT(r.cluster_utilization[1], r.cluster_utilization[0]);
  for (const double g : r.cluster_utilization) EXPECT_GT(g, 0.0);
}

// --- GammaReplay: cross-leg merge == serial reference ----------------------

// Feeds the same synthetic offload log to GammaReplay twice: once as three
// shard legs (the engine's view) and once pre-merged into a single serial
// log (the reference).  The merged replay must touch every per-cluster EWMA
// in exactly the same order, so trajectories agree bit-for-bit.
TEST(GammaReplayMerge, MultiLegMergeMatchesSerialReference) {
  sim::ClusterTopology topology;
  topology.clusters = 3;
  topology.shares = {0.5, 0.3, 0.2};
  const double capacity = 8.0;
  const double tau = 4.0;
  const double initial_gamma = 0.2;
  constexpr std::uint32_t kDevices = 12;

  // Synthetic per-leg logs: contiguous device partitions, each leg sorted in
  // time, no cross-leg ties (distinct irrational-ish offsets).
  std::vector<std::vector<sim::OffloadRecord>> legs(3);
  random::Xoshiro256 rng(99);
  for (std::uint32_t dev = 0; dev < kDevices; ++dev) {
    const std::size_t leg = dev / 4;  // 3 legs x 4 devices
    double t = 0.1 + 0.37 * static_cast<double>(dev);
    for (int j = 0; j < 6; ++j) {
      t += random::uniform(rng, 0.5, 4.0);
      sim::OffloadRecord rec;
      rec.time = t;
      rec.latency = random::uniform(rng, 0.1, 0.5);
      rec.device = dev;
      rec.cluster = static_cast<std::uint16_t>(topology.route(dev));
      rec.measured = true;
      legs[leg].push_back(rec);
    }
    std::sort(legs[leg].begin(), legs[leg].end(),
              [](const auto& a, const auto& b) { return a.time < b.time; });
  }
  // Serial reference: one log, globally time-ordered.
  std::vector<sim::OffloadRecord> merged;
  for (const auto& leg : legs)
    merged.insert(merged.end(), leg.begin(), leg.end());
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  const core::EdgeDelay delay = core::make_reciprocal_delay();
  const auto run_replay = [&](
      std::span<const std::span<const sim::OffloadRecord>> logs,
      std::vector<std::vector<double>>& trajectories,
      std::vector<double>& delay_sums) {
    sim::GammaReplay replay(delay, tau, initial_gamma, capacity,
                            /*warmup=*/0.0, /*t_end=*/100.0, kDevices, {},
                            topology);
    stats::LatencySketch sketch;
    replay.consume(logs, delay_sums.data(), sketch);
    for (const double at : {30.0, 34.0, 38.0, 42.0}) {
      const auto gammas = replay.cluster_gammas(at);
      trajectories.emplace_back(gammas.begin(), gammas.end());
      trajectories.back().push_back(replay.gamma_at(at));
    }
  };

  std::vector<std::span<const sim::OffloadRecord>> multi_view(legs.begin(),
                                                              legs.end());
  std::vector<std::vector<double>> multi_traj, serial_traj;
  std::vector<double> multi_delay_sums(kDevices, 0.0);
  std::vector<double> serial_delay_sums(kDevices, 0.0);
  run_replay(multi_view, multi_traj, multi_delay_sums);
  const std::span<const sim::OffloadRecord> serial_view[] = {merged};
  run_replay(serial_view, serial_traj, serial_delay_sums);

  ASSERT_EQ(multi_traj.size(), serial_traj.size());
  for (std::size_t i = 0; i < multi_traj.size(); ++i) {
    SCOPED_TRACE("grid read " + std::to_string(i));
    ASSERT_EQ(multi_traj[i].size(), serial_traj[i].size());
    for (std::size_t k = 0; k < multi_traj[i].size(); ++k)
      EXPECT_EQ(multi_traj[i][k], serial_traj[i][k]) << "entry " << k;
  }
  for (std::uint32_t dev = 0; dev < kDevices; ++dev) {
    EXPECT_EQ(multi_delay_sums[dev], serial_delay_sums[dev])
        << "device " << dev;
  }
}

// --- topology validation ----------------------------------------------------

TEST(TopologyValidation, RefusesBadLayoutsAndScenariosByName) {
  // Each bad cluster layout or scenario field is refused with
  // "<type>: <field> is <value>, expected <range>", never a raw contract
  // expression.
  const auto topology = [](std::size_t clusters, std::vector<double> shares) {
    sim::ClusterTopology t;
    t.clusters = clusters;
    t.shares = std::move(shares);
    t.check();
  };
  const auto scenario = [](auto edit) {
    population::ScenarioConfig c = population::theoretical_scenario(
        population::LoadRegime::kAtService, 10);
    edit(c);
    c.check();
  };
  const struct {
    const char* message;
    std::function<void()> check;
  } bad[] = {
      {"ClusterTopology: clusters is 0, expected a value in [1, 65534]",
       [&] { topology(0, {}); }},
      {"ClusterTopology: clusters is 70000, expected a value in [1, 65534]",
       [&] { topology(70000, {}); }},
      {"ClusterTopology: shares.size() is 1, expected one share per "
       "cluster (2)",
       [&] { topology(2, {0.5}); }},
      {"ClusterTopology: shares[1] is -0, expected a value > 0",
       [&] { topology(2, {1.0, -0.0}); }},
      {"ClusterTopology: the sum of shares is 1.1, expected 1",
       [&] { topology(2, {0.5, 0.6}); }},
      {"ScenarioConfig: capacity is 0, expected a value > 0",
       [&] { scenario([](auto& c) { c.capacity = 0.0; }); }},
      {"ScenarioConfig: weight is -1, expected a value > 0",
       [&] { scenario([](auto& c) { c.weight = -1.0; }); }},
      {"ScenarioConfig: n_users is 0, expected a value >= 1",
       [&] { scenario([](auto& c) { c.n_users = 0; }); }},
      {"ScenarioConfig: arrival is unset, expected a distribution",
       [&] { scenario([](auto& c) { c.arrival = {}; }); }},
      {"ScenarioConfig: delay is unset, expected an edge delay",
       [&] { scenario([](auto& c) { c.delay = {}; }); }},
      {"ScenarioConfig: clusters is 0, expected a value in [1, 65534]",
       [&] { scenario([](auto& c) { c.clusters = 0; }); }},
      {"ScenarioConfig: cluster_shares[0] is -1, expected a value > 0",
       [&] {
         scenario([](auto& c) {
           c.clusters = 2;
           c.cluster_shares = {-1.0, 2.0};
         });
       }},
      {"ScenarioConfig: the sum of cluster_shares is 0.5, expected 1",
       [&] {
         scenario([](auto& c) {
           c.clusters = 2;
           c.cluster_shares = {0.25, 0.25};
         });
       }},
  };
  for (const auto& b : bad) {
    SCOPED_TRACE(b.message);
    try {
      b.check();
      ADD_FAILURE() << "accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(b.message), std::string::npos) << what;
      EXPECT_EQ(what.find("precondition violated"), std::string::npos) << what;
    }
  }
}

TEST(TopologyValidation, MalformedTopologiesAreRejected) {
  const auto users = mixed_users(5);
  const auto expect_rejected = [&](sim::ClusterTopology t) {
    sim::SimulationOptions o;
    o.horizon = 10.0;
    o.topology = std::move(t);
    EXPECT_THROW(
        sim::MecSimulation(users, 8.0, core::make_reciprocal_delay(), o),
        ContractViolation);
  };
  {
    sim::ClusterTopology t;
    t.clusters = 0;
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {0.5};  // wrong arity
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {0.9, 0.3};  // does not sum to 1
    expect_rejected(std::move(t));
  }
  {
    sim::ClusterTopology t;
    t.clusters = 2;
    t.shares = {1.2, -0.2};  // negative share
    expect_rejected(std::move(t));
  }
}

// Per-cluster fault targets referencing a cluster outside the topology are
// caught at construction, not silently dropped.
TEST(TopologyValidation, FaultClusterOutOfRangeIsRejected) {
  const auto users = mixed_users(5);
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(5.0, 0.5, /*cluster=*/3);
  sim::SimulationOptions o;
  o.horizon = 10.0;
  o.topology.clusters = 2;
  o.faults = schedule;
  EXPECT_THROW(
      sim::MecSimulation(users, 8.0, core::make_reciprocal_delay(), o),
      ContractViolation);
}

}  // namespace
