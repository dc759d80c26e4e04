// Closed-loop operation: Algorithm 1 driven by live EWMA measurements
// inside one continuous simulation.
#include "mec/sim/closed_loop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bit_digest.hpp"
#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {
namespace {

population::Population sampled(std::size_t n, std::uint64_t seed = 91) {
  return population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, n),
      seed);
}

TEST(ClosedLoop, ConvergesToTheMfneUnderMeasurementNoise) {
  const auto pop = sampled(500);
  const auto& cfg = pop.config;
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;

  ClosedLoopOptions opt;
  opt.horizon = 600.0;
  opt.update_period = 5.0;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_NEAR(r.final_gamma_hat, star, 0.05);
  // The realized offload rate over the run's tail should be near gamma*;
  // the run-wide measurement includes the transient, so allow more slack.
  EXPECT_NEAR(r.run.measured_utilization, star, 0.1);
}

TEST(ClosedLoop, EpochTraceFollowsAlgorithmOneStructure) {
  const auto pop = sampled(300);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 300.0;
  opt.update_period = 4.0;
  opt.eta0 = 0.2;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  ASSERT_GE(r.epochs.size(), 10u);
  // Epochs land on the broadcast grid.
  EXPECT_DOUBLE_EQ(r.epochs[0].time, 4.0);
  EXPECT_DOUBLE_EQ(r.epochs[1].time, 8.0);
  // Step sizes never grow, and estimates move by at most the current step.
  double prev_eta = opt.eta0;
  double prev_hat = 0.0;
  for (const ClosedLoopEpoch& e : r.epochs) {
    EXPECT_LE(e.eta, prev_eta + 1e-15);
    EXPECT_LE(std::abs(e.gamma_hat - prev_hat), prev_eta + 1e-12);
    EXPECT_GE(e.gamma_measured, 0.0);
    EXPECT_LE(e.gamma_measured, 1.0);
    prev_eta = e.eta;
    prev_hat = e.gamma_hat;
  }
}

TEST(ClosedLoop, AsynchronousGateStillSettles) {
  const auto pop = sampled(400, 92);
  const auto& cfg = pop.config;
  const double star =
      core::solve_mfne(pop.users, cfg.delay, cfg.capacity).gamma_star;
  ClosedLoopOptions opt;
  opt.horizon = 600.0;
  opt.update_gate = core::make_bernoulli_gate(0.8, 3);
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_NEAR(r.final_gamma_hat, star, 0.06);
}

TEST(ClosedLoop, WorksWithEmpiricalServiceTimes) {
  // The practical story: measured (non-exponential) service, live loop.
  auto pop = population::sample_population(
      population::practical_scenario(population::LoadRegime::kBelowService,
                                     300),
      93);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 400.0;
  opt.service = {.kind = SamplerSpec::Kind::kEmpirical,
                 .data = random::synthetic_yolo_processing_times().samples()};
  opt.latency = {.kind = SamplerSpec::Kind::kEmpirical,
                 .data = random::synthetic_wifi_offload_latencies().samples()};
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  EXPECT_TRUE(r.estimate_settled);
  EXPECT_GT(r.final_gamma_hat, 0.2);
  EXPECT_LT(r.final_gamma_hat, 0.8);
}

TEST(ClosedLoop, ThresholdsFreezeOnceSettled) {
  const auto pop = sampled(200, 94);
  const auto& cfg = pop.config;
  ClosedLoopOptions opt;
  opt.horizon = 800.0;
  const ClosedLoopResult r =
      run_closed_loop(pop.users, cfg.capacity, cfg.delay, opt);
  ASSERT_TRUE(r.estimate_settled);
  // Once the estimate settles, devices stop retuning: the tail of the epoch
  // trace must show a constant mean threshold (the horizon is long enough
  // that settling happens well before the end).
  ASSERT_GE(r.epochs.size(), 10u);
  const double settled_mean = r.epochs.back().mean_threshold;
  for (std::size_t i = r.epochs.size() - 5; i < r.epochs.size(); ++i)
    EXPECT_DOUBLE_EQ(r.epochs[i].mean_threshold, settled_mean);
}

std::shared_ptr<const fault::FaultSchedule> capacity_drop(double time,
                                                          double scale) {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(time, scale);
  return schedule;
}

// Every epoch field and the run's totals of five loops, pinned by digest: a
// larger step on a shorter period, an asynchronous gate, 2 shards over 3
// clusters, and a brown-out with and without the drift restart.  Captured
// before Algorithm 1 had one implementation shared with run_dtu; a refactor
// of the update must leave them unmoved.
TEST(ClosedLoop, EpochsKeepTheirBits) {
  const auto pop = sampled(300);
  struct Row {
    const char* name;
    void (*set)(ClosedLoopOptions&);
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"eta0 0.2, period 4",
       [](ClosedLoopOptions& o) {
         o.eta0 = 0.2;
         o.update_period = 4.0;
       },
       0x67aad4f2200e2d61ull},
      {"async 0.8",
       [](ClosedLoopOptions& o) {
         o.update_gate = core::make_bernoulli_gate(0.8, 3);
       },
       0x950255dc366263aaull},
      {"2 shards x 3 clusters",
       [](ClosedLoopOptions& o) {
         o.shards = 2;
         o.topology.clusters = 3;
       },
       0xaaead6463e4d6d60ull},
      {"brown-out, resume on drift",
       [](ClosedLoopOptions& o) {
         o.horizon = 500.0;
         o.faults = capacity_drop(200.0, 0.6);
         o.resume_on_drift = true;
       },
       0xf99468235cff7726ull},
      {"brown-out, frozen",
       [](ClosedLoopOptions& o) {
         o.horizon = 500.0;
         o.faults = capacity_drop(200.0, 0.6);
       },
       0x7140f97f35fb6796ull},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    ClosedLoopOptions opt;
    opt.horizon = 300.0;
    opt.seed = 7;
    row.set(opt);
    const ClosedLoopResult r =
        run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
    test::BitDigest d;
    for (const ClosedLoopEpoch& e : r.epochs) {
      d.real(e.time);
      d.real(e.gamma_measured);
      d.real(e.gamma_hat);
      d.real(e.eta);
      d.real(e.mean_threshold);
    }
    d.reals(r.thresholds);
    d.real(r.final_gamma_hat);
    d.word(r.estimate_settled);
    d.word(r.drift_resumes);
    d.word(r.run.total_events);
    d.real(r.run.measured_utilization);
    d.real(r.run.mean_cost);
    EXPECT_EQ(d.value(), row.digest) << std::hex << "0x" << d.value();
  }
}

TEST(ClosedLoop, RejectsBadOptions) {
  const auto pop = sampled(10, 95);
  // Each bad option is refused by name, with the value received: Algorithm
  // 1's parameters, the fields the loop cannot honour (warm-up, a pinned
  // gamma), the epoch fields the driver owns, and the shared simulation
  // fields, which MecSimulation checks.
  struct BadOption {
    const char* run;
    const char* field;
    const char* value;
    void (*set)(ClosedLoopOptions&);
  };
  const BadOption bad[] = {
      {"run_closed_loop", "update_period", "0",
       [](ClosedLoopOptions& o) { o.update_period = 0.0; }},
      {"run_closed_loop", "update_period", "inf",
       [](ClosedLoopOptions& o) {
         o.update_period = std::numeric_limits<double>::infinity();
       }},
      {"run_closed_loop", "horizon", "1",  // below the update period
       [](ClosedLoopOptions& o) { o.horizon = 1.0; }},
      {"run_closed_loop", "eta0", "1.5",
       [](ClosedLoopOptions& o) { o.eta0 = 1.5; }},
      {"run_closed_loop", "epsilon", "0",
       [](ClosedLoopOptions& o) { o.epsilon = 0.0; }},
      {"run_closed_loop", "drift_margin", "-0.1",
       [](ClosedLoopOptions& o) { o.drift_margin = -0.1; }},
      {"run_closed_loop", "warmup", "20",
       [](ClosedLoopOptions& o) { o.warmup = 20.0; }},
      {"run_closed_loop", "fixed_gamma", "0.3",
       [](ClosedLoopOptions& o) { o.fixed_gamma = 0.3; }},
      {"run_closed_loop", "epoch_period", "2",
       [](ClosedLoopOptions& o) { o.epoch_period = 2.0; }},
      {"run_closed_loop", "on_epoch", "set",
       [](ClosedLoopOptions& o) { o.on_epoch = [](double, double) {}; }},
      {"run_closed_loop", "on_cluster_epoch", "set",
       [](ClosedLoopOptions& o) {
         o.on_cluster_epoch = [](double, std::span<const double>) {};
       }},
      {"MecSimulation", "utilization_ewma_tau", "0",
       [](ClosedLoopOptions& o) { o.utilization_ewma_tau = 0.0; }},
  };
  for (const BadOption& b : bad) {
    SCOPED_TRACE(b.field);
    ClosedLoopOptions opt;
    b.set(opt);
    try {
      run_closed_loop(pop.users, 10.0, pop.config.delay, opt);
      ADD_FAILURE() << "accepted a bad " << b.field;
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(b.run) + ": " + b.field + " is " +
                          b.value + ", expected"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find("precondition violated"), std::string::npos) << what;
    }
  }
}

TEST(EpochFlush, TrailingEpochsFireThroughTheEndOfTheHorizon) {
  // Regression for the dropped end-of-horizon epochs: callbacks were only
  // fired from inside the event loop, so every broadcast epoch between the
  // last event <= t_end and t_end itself was silently skipped.  With sparse
  // arrivals (mean inter-arrival 20 s vs a 10 s horizon) most epochs — and
  // always the one at exactly t_end, which no continuous arrival time can
  // trigger — fall in that gap.
  std::vector<core::UserParams> users(2);
  for (auto& u : users) {
    u.arrival_rate = 0.05;
    u.service_rate = 1.0;
    u.offload_latency = 0.1;
    u.energy_local = 1.0;
    u.energy_offload = 0.5;
  }
  SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 10.0;
  o.seed = 123;
  o.fixed_gamma = 0.1;
  o.epoch_period = 2.5;
  std::vector<double> fired;
  o.on_epoch = [&](double now, double gamma) {
    EXPECT_GE(gamma, 0.0);
    fired.push_back(now);
  };
  MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
  sim.run_tro(std::vector<double>(users.size(), 1.0));
  // floor(horizon / epoch_period) epochs: 2.5, 5, 7.5, and 10 (= t_end).
  ASSERT_EQ(fired.size(), 4u);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_DOUBLE_EQ(fired[i], 2.5 * static_cast<double>(i + 1));
}

TEST(EpochFlush, EpochCountMatchesTheGridForAnActivePopulation) {
  // Same property under a dense event stream: epochs land exactly on the
  // broadcast grid over warm-up plus horizon, never more, never fewer.
  const auto pop = sampled(50, 96);
  SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 21.0;
  o.seed = 321;
  o.fixed_gamma = 0.2;
  o.epoch_period = 4.0;
  std::vector<double> fired;
  o.on_epoch = [&](double now, double) { fired.push_back(now); };
  MecSimulation sim(pop.users, pop.config.capacity, pop.config.delay, o);
  sim.run_tro(std::vector<double>(pop.users.size(), 2.0));
  // t_end = 24: epochs at 4, 8, 12, 16, 20, 24.
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_DOUBLE_EQ(fired.back(), 24.0);
}

// The epoch callbacks rewrite the run_tro array in place; the coordinator
// checks it once per epoch, before any leg decides on it (floor(x) of a
// negative, NaN or infinite threshold is no queue length).
TEST(EpochThresholdCheck, InvalidRewriteFailsNamingDeviceValueAndTime) {
  const auto pop = sampled(20, 97);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool per_cluster : {false, true}) {
    for (const double bad : {-1.0, nan, inf, 0x1p64}) {
      SCOPED_TRACE(std::string(per_cluster ? "on_cluster_epoch" : "on_epoch") +
                   " writes " + std::to_string(bad));
      std::vector<double> xs(pop.users.size(), 1.5);
      SimulationOptions o;
      o.warmup = 0.0;
      o.horizon = 20.0;
      o.seed = 5;
      o.fixed_gamma = 0.2;
      o.epoch_period = 5.0;
      const auto rewrite = [&](double now) {
        if (now >= 10.0) xs[3] = bad;
      };
      if (per_cluster)
        o.on_cluster_epoch = [&](double now, std::span<const double>) {
          rewrite(now);
        };
      else
        o.on_epoch = [&](double now, double) { rewrite(now); };
      MecSimulation sim(pop.users, pop.config.capacity, pop.config.delay, o);
      try {
        sim.run_tro(xs);
        ADD_FAILURE() << "an invalid epoch threshold must fail the run";
      } catch (const ContractViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("epoch callback at t=10: device 3 has threshold"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("expected a value in [0, 2^64)"),
                  std::string::npos)
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace mec::sim
