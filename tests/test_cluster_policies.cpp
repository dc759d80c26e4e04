// Differential battery for the cluster-aware policy families.
//
// Price-based offloading: on a 2-cluster symmetric scenario the dual ascent
// must drive every cluster's utilization to the target (the MFNE gamma*, the
// closed-form capacity-constrained equilibrium of the scenario) with
// near-equal prices — and the check is shown to be *sensitive*: freezing the
// ascent (price_step = 0) breaks convergence by a measurable margin.
//
// Minority-game activation: the standalone game reproduces the Challet-Zhang
// statistics (mean attendance ~ N/2, herding at small memory, deterministic
// trajectories), and the perturbation switch (scoring the majority instead)
// destroys the self-organization.  The simulator driver is pinned to the
// standalone engine: one epoch = one round, same seed, same trajectory —
// and its results to hexfloat goldens, with and without faults.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/fault/fault_text.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/minority_game.hpp"

namespace {

using namespace mec;

// --- price-based offloading -------------------------------------------------

struct PriceFixture {
  population::Population pop;
  core::MfneResult mfne;
};

PriceFixture price_fixture(std::size_t n = 60) {
  PriceFixture f{population::sample_population(
                     population::theoretical_scenario(
                         population::LoadRegime::kAtService, n),
                     7),
                 {}};
  f.mfne = core::solve_mfne(f.pop.users, f.pop.config.delay,
                            f.pop.config.capacity);
  return f;
}

sim::PriceBasedOptions price_options(const PriceFixture& f) {
  sim::PriceBasedOptions po;
  po.gamma_target = f.mfne.gamma_star;
  po.update_period = 5.0;
  po.warmup = 5.0;
  po.horizon = 150.0;
  po.seed = 11;
  po.topology.clusters = 2;
  po.record_timeline = false;
  return po;
}

/// Mean |gamma_k - target| over the last `tail` epochs, worst cluster.
double tail_deviation(const sim::PriceBasedResult& r, double target,
                      std::size_t tail) {
  const std::size_t epochs = r.gamma_epochs.size();
  const std::size_t first = epochs > tail ? epochs - tail : 0;
  const std::size_t clusters = r.final_prices.size();
  double worst = 0.0;
  for (std::size_t k = 0; k < clusters; ++k) {
    double acc = 0.0;
    for (std::size_t e = first; e < epochs; ++e)
      acc += std::abs(r.gamma_epochs[e][k] - target);
    worst = std::max(worst, acc / static_cast<double>(epochs - first));
  }
  return worst;
}

TEST(PriceBasedPolicy, ConvergesToEquilibriumOnSymmetricTwoClusters) {
  const PriceFixture f = price_fixture();
  const sim::PriceBasedOptions po = price_options(f);
  const sim::PriceBasedResult r = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);

  ASSERT_EQ(r.final_prices.size(), 2u);
  ASSERT_FALSE(r.gamma_epochs.empty());
  // Each cluster's utilization settles near the closed-form equilibrium.
  EXPECT_LT(tail_deviation(r, f.mfne.gamma_star, 6), 0.10);
  // The scenario is symmetric (equal shares, even/odd device split of one
  // homogeneous-regime population), so the two dual prices agree closely.
  EXPECT_LT(std::abs(r.final_prices[0] - r.final_prices[1]),
            0.25 * (1.0 + r.final_prices[0] + r.final_prices[1]));
  // Prices moved at all: the ascent engaged.
  EXPECT_GT(r.final_prices[0] + r.final_prices[1], 0.0);
  // The whole-run aggregate tracks the target too.
  EXPECT_NEAR(r.run.measured_utilization, f.mfne.gamma_star, 0.12);
}

// Sensitivity: with the ascent frozen the prices never leave zero and the
// un-priced thresholds over-offload, so the deviation from the equilibrium
// must be clearly larger than in the converged run.
TEST(PriceBasedPolicy, FrozenAscentFailsTheConvergenceCheck) {
  const PriceFixture f = price_fixture();
  sim::PriceBasedOptions po = price_options(f);
  const sim::PriceBasedResult good = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
  po.price_step = 0.0;  // intentional perturbation
  const sim::PriceBasedResult frozen = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);

  EXPECT_EQ(frozen.final_prices[0], 0.0);
  EXPECT_EQ(frozen.final_prices[1], 0.0);
  const double dev_good = tail_deviation(good, f.mfne.gamma_star, 6);
  const double dev_frozen = tail_deviation(frozen, f.mfne.gamma_star, 6);
  EXPECT_GT(dev_frozen, 2.0 * dev_good)
      << "good " << dev_good << " vs frozen " << dev_frozen;
}

// Prices and activation flags mutate only at epoch barriers, so the whole
// price-based run is bit-identical for every shard count.
TEST(PriceBasedPolicy, RunIsBitwiseInvariantAcrossShardCounts) {
  const PriceFixture f = price_fixture(41);
  sim::PriceBasedOptions po = price_options(f);
  po.horizon = 60.0;
  po.shards = 1;
  const sim::PriceBasedResult base = sim::run_price_based(
      f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
  for (const std::size_t k : {2u, 4u, 7u}) {
    SCOPED_TRACE("shards = " + std::to_string(k));
    po.shards = k;
    const sim::PriceBasedResult r = sim::run_price_based(
        f.pop.users, f.pop.config.capacity, f.pop.config.delay, po);
    ASSERT_EQ(r.final_prices.size(), base.final_prices.size());
    for (std::size_t c = 0; c < base.final_prices.size(); ++c)
      EXPECT_EQ(r.final_prices[c], base.final_prices[c]) << "cluster " << c;
    EXPECT_EQ(r.run.measured_utilization, base.run.measured_utilization);
    EXPECT_EQ(r.run.mean_cost, base.run.mean_cost);
    ASSERT_EQ(r.run.cluster_utilization.size(),
              base.run.cluster_utilization.size());
    for (std::size_t c = 0; c < base.run.cluster_utilization.size(); ++c)
      EXPECT_EQ(r.run.cluster_utilization[c], base.run.cluster_utilization[c]);
  }
}

// --- option refusals --------------------------------------------------------

/// Runs `run` and expects a ContractViolation naming `what_run`, the field
/// and the value received, never a raw contract expression.
template <class Run>
void expect_refused(Run run, const std::string& what_run,
                    const std::string& field, const std::string& value) {
  SCOPED_TRACE(what_run + " " + field);
  try {
    run();
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    const std::string message = what_run + ": " + field + " is " + value;
    EXPECT_NE(what.find(message + ", expected"), std::string::npos) << what;
    EXPECT_EQ(what.find("precondition violated"), std::string::npos) << what;
  }
}

// Both drivers refuse a bad controller parameter and the epoch fields they
// own by name; the price driver steers on measured utilization, so it also
// refuses a pinned gamma, which the minority game (blind to gamma) honours.
TEST(ClusterPolicyDrivers, RejectBadOptionsByName) {
  const PriceFixture f = price_fixture(12);
  const auto& cfg = f.pop.config;
  struct BadPrice {
    const char* field;
    const char* value;
    void (*set)(sim::PriceBasedOptions&);
  };
  const BadPrice bad_price[] = {
      {"update_period", "0",
       [](sim::PriceBasedOptions& o) { o.update_period = 0.0; }},
      {"update_period", "inf",
       [](sim::PriceBasedOptions& o) {
         o.update_period = std::numeric_limits<double>::infinity();
       }},
      {"gamma_target", "2",
       [](sim::PriceBasedOptions& o) { o.gamma_target = 2.0; }},
      {"gamma_target", "0",
       [](sim::PriceBasedOptions& o) { o.gamma_target = 0.0; }},
      {"price_step", "-1",
       [](sim::PriceBasedOptions& o) { o.price_step = -1.0; }},
      {"max_price", "-5",
       [](sim::PriceBasedOptions& o) { o.max_price = -5.0; }},
      {"fixed_gamma", "0.3",
       [](sim::PriceBasedOptions& o) { o.fixed_gamma = 0.3; }},
      {"epoch_period", "2",
       [](sim::PriceBasedOptions& o) { o.epoch_period = 2.0; }},
      {"on_epoch", "set",
       [](sim::PriceBasedOptions& o) { o.on_epoch = [](double, double) {}; }},
      {"on_cluster_epoch", "set",
       [](sim::PriceBasedOptions& o) {
         o.on_cluster_epoch = [](double, std::span<const double>) {};
       }},
  };
  for (const BadPrice& b : bad_price) {
    sim::PriceBasedOptions po = price_options(f);
    b.set(po);
    expect_refused(
        [&] { sim::run_price_based(f.pop.users, cfg.capacity, cfg.delay, po); },
        "run_price_based", b.field, b.value);
  }

  sim::MinorityGameRunOptions good;
  good.thresholds.assign(f.mfne.thresholds.begin(), f.mfne.thresholds.end());
  good.warmup = 1.0;
  good.horizon = 20.0;
  good.topology.clusters = 2;
  struct BadMinority {
    const char* run;
    const char* field;
    const char* value;
    void (*set)(sim::MinorityGameRunOptions&);
  };
  const BadMinority bad_minority[] = {
      {"run_minority_game", "update_period", "-1",
       [](sim::MinorityGameRunOptions& o) { o.update_period = -1.0; }},
      {"run_minority_game", "update_period", "inf",
       [](sim::MinorityGameRunOptions& o) {
         o.update_period = std::numeric_limits<double>::infinity();
       }},
      {"run_minority_game", "thresholds.size()", "3",
       [](sim::MinorityGameRunOptions& o) { o.thresholds.resize(3); }},
      {"run_minority_game", "epoch_period", "2",
       [](sim::MinorityGameRunOptions& o) { o.epoch_period = 2.0; }},
      {"run_minority_game", "on_epoch", "set",
       [](sim::MinorityGameRunOptions& o) {
         o.on_epoch = [](double, double) {};
       }},
      {"run_minority_game", "on_cluster_epoch", "set",
       [](sim::MinorityGameRunOptions& o) {
         o.on_cluster_epoch = [](double, std::span<const double>) {};
       }},
      {"MinorityGame", "memory", "0",
       [](sim::MinorityGameRunOptions& o) { o.game.memory = 0; }},
      {"MinorityGame", "strategies", "0",
       [](sim::MinorityGameRunOptions& o) { o.game.strategies = 0; }},
  };
  for (const BadMinority& b : bad_minority) {
    sim::MinorityGameRunOptions mo = good;
    b.set(mo);
    expect_refused(
        [&] {
          sim::run_minority_game(f.pop.users, cfg.capacity, cfg.delay, mo);
        },
        b.run, b.field, b.value);
  }
  sim::MinorityGameRunOptions pinned = good;
  pinned.fixed_gamma = 0.3;
  EXPECT_GT(sim::run_minority_game(f.pop.users, cfg.capacity, cfg.delay,
                                   pinned)
                .run.total_events,
            0u);
}

// --- minority game ----------------------------------------------------------

struct AttendanceStats {
  double mean = 0.0;
  double variance = 0.0;
  /// Mean |attendance - N/2|: small iff attendance concentrates at half.
  double half_deviation = 0.0;
};

AttendanceStats play(sim::MinorityGameConfig cfg, int rounds,
                     int warmup = 200) {
  sim::MinorityGame game(cfg);
  const double half = static_cast<double>(cfg.agents) / 2.0;
  for (int i = 0; i < warmup; ++i) (void)game.step();
  double sum = 0.0, sq = 0.0, dev = 0.0;
  for (int i = 0; i < rounds; ++i) {
    const double a = static_cast<double>(game.step());
    sum += a;
    sq += a * a;
    dev += std::abs(a - half);
  }
  const double n = static_cast<double>(rounds);
  AttendanceStats s;
  s.mean = sum / n;
  s.variance = sq / n - s.mean * s.mean;
  s.half_deviation = dev / n;
  return s;
}

TEST(MinorityGameEngine, AttendanceConcentratesAtHalfThePopulation) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.memory = 5;
  cfg.strategies = 2;
  cfg.seed = 3;
  const AttendanceStats s = play(cfg, 3000);
  // Challet-Zhang: mean attendance self-organizes to N/2 and the variance
  // stays at or below the random-choice level N/4.
  EXPECT_NEAR(s.mean, 50.5, 3.0);
  EXPECT_LT(s.variance, 0.3 * 101.0);
}

TEST(MinorityGameEngine, SmallMemoryHerdsHarderThanLargeMemory) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.strategies = 2;
  cfg.seed = 12;
  cfg.memory = 2;  // alpha = 2^m/N << alpha_c: crowded, strong herding
  const AttendanceStats crowded = play(cfg, 3000);
  cfg.memory = 8;  // alpha >> alpha_c: near random-agent behavior
  const AttendanceStats dilute = play(cfg, 3000);
  EXPECT_GT(crowded.variance, 2.0 * dilute.variance)
      << "crowded " << crowded.variance << " vs dilute " << dilute.variance;
}

// The differential perturbation: scoring the majority side as the winner
// flips the feedback positive and attendance stops concentrating at N/2 —
// the population herds to one extreme (frozen or flip-flopping together),
// so the mean deviation from half the population blows up.
TEST(MinorityGameEngine, InvertedScoringDestroysSelfOrganization) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 101;
  cfg.memory = 3;
  cfg.strategies = 2;
  cfg.seed = 5;
  const AttendanceStats minority = play(cfg, 3000);
  cfg.invert = true;
  const AttendanceStats majority = play(cfg, 3000);
  EXPECT_LT(minority.half_deviation, 10.0);
  EXPECT_GT(majority.half_deviation, 20.0)
      << "inverted scoring still concentrates at N/2";
  EXPECT_GT(majority.half_deviation, 2.5 * minority.half_deviation)
      << "minority " << minority.half_deviation << " vs majority "
      << majority.half_deviation;
}

TEST(MinorityGameEngine, TrajectoriesAreDeterministicPerSeed) {
  sim::MinorityGameConfig cfg;
  cfg.agents = 7;
  cfg.memory = 3;
  cfg.seed = 2024;
  sim::MinorityGame a(cfg), b(cfg);
  cfg.seed = 2025;
  sim::MinorityGame c(cfg);
  bool seed_differs = false;
  for (int i = 0; i < 500; ++i) {
    const std::size_t sa = a.step();
    EXPECT_EQ(sa, b.step()) << "round " << i;
    EXPECT_EQ(a.actions(), b.actions()) << "round " << i;
    if (c.step() != sa) seed_differs = true;
  }
  EXPECT_TRUE(seed_differs) << "seed does not influence the trajectory";
}

// The simulator driver steps exactly one game round per epoch barrier with
// agents == clusters, so its attendance trajectory must replicate the
// standalone engine's under the same config.
TEST(MinorityGameDriver, EpochAttendanceMatchesStandaloneGame) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 40),
      19);
  const core::MfneResult mfne = core::solve_mfne(
      pop.users, pop.config.delay, pop.config.capacity);

  sim::MinorityGameRunOptions mo;
  mo.game.seed = 77;
  mo.game.memory = 3;
  mo.game.strategies = 2;
  mo.thresholds.assign(mfne.thresholds.begin(), mfne.thresholds.end());
  mo.update_period = 5.0;
  mo.warmup = 2.0;
  mo.horizon = 80.0;
  mo.seed = 77;
  mo.topology.clusters = 4;
  mo.record_timeline = false;
  const sim::MinorityGameRunResult r = sim::run_minority_game(
      pop.users, pop.config.capacity, pop.config.delay, mo);

  ASSERT_FALSE(r.attendance.empty());
  sim::MinorityGameConfig ref_cfg = mo.game;
  ref_cfg.agents = mo.topology.clusters;
  sim::MinorityGame reference(ref_cfg);
  double acc = 0.0;
  for (std::size_t e = 0; e < r.attendance.size(); ++e) {
    EXPECT_EQ(r.attendance[e], reference.step()) << "epoch " << e;
    acc += static_cast<double>(r.attendance[e]);
  }
  EXPECT_NEAR(r.mean_attendance, acc / static_cast<double>(r.attendance.size()),
              1e-12);
  // Attendance stays inside the playable range and the run itself is sane.
  for (const std::size_t a : r.attendance) EXPECT_LE(a, 4u);
  EXPECT_GT(r.run.mean_cost, 0.0);
  ASSERT_EQ(r.run.cluster_utilization.size(), 4u);
}


// --- minority driver golden -------------------------------------------------

/// A 400-device, 4-cluster minority run, optionally under a schedule with a
/// brown-out, an outage, a per-cluster capacity step, churn and a
/// crash/restart, all inside the horizon.
sim::MinorityGameRunResult golden_minority_run(bool with_faults,
                                               std::size_t shards) {
  const auto cfg = population::theoretical_scenario(
      population::LoadRegime::kAtService, 400);
  const auto pop = population::sample_population(cfg, 19);
  const core::MfneResult mfne =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity);

  sim::MinorityGameRunOptions mo;
  mo.game.seed = 77;
  mo.thresholds.assign(mfne.thresholds.begin(), mfne.thresholds.end());
  mo.update_period = 5.0;
  mo.warmup = 2.0;
  mo.horizon = 80.0;
  mo.seed = 77;
  mo.topology.clusters = 4;
  mo.shards = shards;
  mo.record_timeline = false;
  if (with_faults) {
    const auto schedule = std::make_shared<const fault::FaultSchedule>(
        fault::parse_fault_schedule("capacity 20 0.6\n"
                                    "outage 25 30 reject\n"
                                    "capacity 35 1.0 cluster 1\n"
                                    "churn 5 70 2 1 7\n"
                                    "crash 15 10\n"
                                    "restart 40 10\n",
                                    &cfg));
    // Joiners best-respond to the equilibrium edge delay.
    const double delay_star = cfg.delay(mfne.gamma_star);
    for (const core::UserParams& u : schedule->churn_users())
      mo.thresholds.push_back(
          static_cast<double>(core::best_threshold(u, delay_star)));
    mo.faults = schedule;
  }
  return sim::run_minority_game(pop.users, cfg.capacity, cfg.delay, mo);
}

// Captured when inactive clusters' devices decided through gated policy
// objects that skipped the TRO rule.  Their 2^63 threshold in the run_tro
// array must reproduce every draw and result bit for bit, at one and at
// four shards.
TEST(MinorityGameDriver, RunMatchesGoldenAtEveryShardCountAndUnderFaults) {
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("fault-free, shards = " + std::to_string(shards));
    const sim::SimulationResult r = golden_minority_run(false, shards).run;
    EXPECT_EQ(r.total_events, 185632u);
    EXPECT_EQ(r.measured_utilization, 0x1.c99ce075f6fd2p-4);
    EXPECT_EQ(r.mean_cost, 0x1.f47708574eba5p+1);
    const sim::DeviceStats& d = r.devices[10];
    EXPECT_EQ(d.arrivals, 221u);
    EXPECT_EQ(d.offloaded, 32u);
    EXPECT_EQ(d.local_completed, 189u);
    EXPECT_EQ(d.mean_queue_length, 0x1.3625c0383b7abp+1);
    EXPECT_EQ(d.offload_fraction, 0x1.288b01288b013p-3);
    EXPECT_EQ(d.mean_local_sojourn, 0x1.068f06f55c57bp+0);
    EXPECT_EQ(d.mean_offload_delay, 0x1.a1fe8eed0e62cp+0);
    EXPECT_EQ(d.energy_per_task, 0x1.6cbcda5377c9p-1);
    EXPECT_EQ(d.empirical_cost, 0x1.d438268f1194p+0);
    ASSERT_EQ(r.cluster_utilization.size(), 4u);
    EXPECT_EQ(r.cluster_utilization[0], 0x1.cc226809d4952p-4);
    EXPECT_EQ(r.cluster_utilization[1], 0x1.116872b020c4ap-3);
    EXPECT_EQ(r.cluster_utilization[2], 0x1.4902de00d1b71p-4);
    EXPECT_EQ(r.cluster_utilization[3], 0x1.ee7d566cf41f2p-4);
  }
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE("faults, shards = " + std::to_string(shards));
    const sim::SimulationResult r = golden_minority_run(true, shards).run;
    EXPECT_EQ(r.total_events, 208335u);
    EXPECT_EQ(r.measured_utilization, 0x1.6b6180aaf6a68p-3);
    EXPECT_EQ(r.mean_cost, 0x1.bbf46f3cd01a4p+1);
    const sim::DeviceStats& d = r.devices[10];  // crashes at 15, back at 40
    EXPECT_EQ(d.arrivals, 150u);
    EXPECT_EQ(d.offloaded, 24u);
    EXPECT_EQ(d.local_completed, 124u);
    EXPECT_EQ(d.mean_queue_length, 0x1.bd4f409040e4p+0);
    EXPECT_EQ(d.offload_fraction, 0x1.47ae147ae147bp-3);
    EXPECT_EQ(d.mean_local_sojourn, 0x1.1d180785e279bp+0);
    EXPECT_EQ(d.mean_offload_delay, 0x1.96c75a0ccb5ebp+0);
    EXPECT_EQ(d.energy_per_task, 0x1.69a9731cc7da1p-1);
    EXPECT_EQ(d.empirical_cost, 0x1.97ad656f51b32p+0);
    ASSERT_EQ(r.cluster_utilization.size(), 4u);
    EXPECT_EQ(r.cluster_utilization[0], 0x1.63f388ae8674ap-3);
    EXPECT_EQ(r.cluster_utilization[1], 0x1.b9525d7ee30f9p-3);
    EXPECT_EQ(r.cluster_utilization[2], 0x1.0bdf59c91700cp-3);
    EXPECT_EQ(r.cluster_utilization[3], 0x1.8460c2b55a151p-3);
  }
}

}  // namespace
