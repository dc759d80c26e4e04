// Framed-rank battery: cross-transport equivalence, robustness, refusals,
// payload validation, and the worker daemon's handshake.
//
// transport=process (ranks forked over socketpairs) and transport=tcp
// (loopback daemons) are one net::FramedTransport driving `mec worker`
// ranks, so each case is one function run over both placements wherever
// both apply: TransportEquivalence / ProcessTransport* suites fork W in
// {1, 2, 3, 4} ranks (3 gives the uneven slices {0}, {1}, {2,3}), and
// TcpTransport* suites dial W in {1, 2, 4} daemons.  Determinism contract
// #8 (docs/ARCHITECTURE.md): results and streamed .meclog bytes (counter
// frames off — they carry wall-clock values) equal the in-process run's on
// fixed and tracked gamma, faults with churn across clusters,
// non-exponential sampler specs, the closed-loop DTU, and the price and
// minority-game controllers.  A rank that
// dies or stalls fails the run naming the rank, its peer, and its last
// completed barrier, and leaves no forked rank behind; runs over policy
// objects and invalid sampler specs are refused up front; scripted peers
// check that malformed payloads are refused by name.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/fault/fault_schedule.hpp"
#include "mec/net/address.hpp"
#include "mec/net/framed_transport.hpp"
#include "mec/net/protocol.hpp"
#include "mec/net/socket.hpp"
#include "mec/net/worker.hpp"
#include "mec/obs/wire.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario.hpp"
#include "mec/random/empirical_data.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/closed_loop.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/stats/latency_sketch.hpp"

namespace mec {
namespace {

namespace pwire = parallel::wire;
using sim::TransportKind;

/// Sets an environment variable for the enclosing scope and restores the
/// prior state on exit, so a failing test cannot leak robustness hooks into
/// the rest of the suite.
class ScopedEnv {
 public:
  ScopedEnv(const std::string& name, const std::string& value) : name_(name) {
    if (const char* prev = std::getenv(name.c_str())) previous_ = prev;
    ::setenv(name.c_str(), value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (previous_.has_value())
      ::setenv(name_.c_str(), previous_->c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> previous_;
};

std::vector<core::UserParams> mixed_users(std::size_t n) {
  std::vector<core::UserParams> users;
  random::Xoshiro256 rng(4242);
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

void expect_sketch_equal(const stats::LatencySketch& a,
                         const stats::LatencySketch& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.25, 0.5, 0.95, 0.99})
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "quantile " << q;
}

void expect_result_identical(const sim::SimulationResult& a,
                             const sim::SimulationResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.mean_cost, b.mean_cost);
  EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
  EXPECT_EQ(a.mean_offload_fraction, b.mean_offload_fraction);
  ASSERT_EQ(a.cluster_utilization.size(), b.cluster_utilization.size());
  for (std::size_t i = 0; i < a.cluster_utilization.size(); ++i)
    EXPECT_EQ(a.cluster_utilization[i], b.cluster_utilization[i])
        << "cluster " << i;
  ASSERT_EQ(a.cluster_offloads.size(), b.cluster_offloads.size());
  for (std::size_t i = 0; i < a.cluster_offloads.size(); ++i)
    EXPECT_EQ(a.cluster_offloads[i], b.cluster_offloads[i]) << "cluster " << i;
  expect_sketch_equal(a.local_sojourn_percentiles, b.local_sojourn_percentiles);
  expect_sketch_equal(a.offload_delay_percentiles,
                      b.offload_delay_percentiles);
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
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time) << "sample " << i;
    EXPECT_EQ(a.timeline[i].utilization_estimate,
              b.timeline[i].utilization_estimate)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].mean_queue_length, b.timeline[i].mean_queue_length)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].offloads_so_far, b.timeline[i].offloads_so_far)
        << "sample " << i;
    EXPECT_EQ(a.timeline[i].active_devices, b.timeline[i].active_devices)
        << "sample " << i;
  }
  EXPECT_EQ(a.faults.tasks_lost, b.faults.tasks_lost);
  EXPECT_EQ(a.faults.offloads_rejected, b.faults.offloads_rejected);
  EXPECT_EQ(a.faults.offloads_penalized, b.faults.offloads_penalized);
  EXPECT_EQ(a.faults.churn_joined, b.faults.churn_joined);
  EXPECT_EQ(a.faults.churn_departed, b.faults.churn_departed);
}

/// N quiet daemons on ephemeral loopback ports, each served from its own
/// thread inside this process.  The destructor pokes every accept loop via
/// shutdown(), so a failing test cannot strand a serve() thread.
class DaemonFleet {
 public:
  explicit DaemonFleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      net::WorkerDaemon::Options o;
      o.listen = net::Address{"127.0.0.1", 0};
      o.quiet = true;
      daemons_.push_back(std::make_unique<net::WorkerDaemon>(o));
      addresses_.push_back("127.0.0.1:" +
                           std::to_string(daemons_.back()->port()));
    }
    for (const auto& d : daemons_)
      threads_.emplace_back([daemon = d.get()] { daemon->serve(); });
  }
  ~DaemonFleet() {
    for (const auto& d : daemons_) d->shutdown();
    for (std::thread& t : threads_) t.join();
  }
  const std::vector<std::string>& addresses() const { return addresses_; }

 private:
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons_;
  std::vector<std::thread> threads_;
  std::vector<std::string> addresses_;
};

/// The worker counts each placement runs at.
std::vector<std::size_t> worker_counts(TransportKind kind) {
  if (kind == TransportKind::kProcess) return {1, 2, 3, 4};
  return {1, 2, 4};
}

/// W framed ranks for the enclosing scope: forked ranks are spawned by each
/// run; tcp ranks are W loopback daemons that live as long as this object.
struct Ranks {
  Ranks(TransportKind kind, std::size_t w) : transport(kind), workers(w) {
    if (kind == TransportKind::kTcp) fleet.emplace(w);
  }
  /// Points simulation or closed-loop options at these ranks.
  template <class Options>
  void place(Options& o) const {
    o.transport = transport;
    o.workers = workers;
    if (fleet) o.worker_addresses = fleet->addresses();
  }
  TransportKind transport;
  std::size_t workers;
  std::optional<DaemonFleet> fleet;
};

/// Every failure path must reap the forked ranks: after it, this process
/// has no child left to wait for.
void expect_no_child_left() {
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1)
      << "a forked rank outlived the failed run";
  EXPECT_EQ(errno, ECHILD);
}

// --- byte equality ---------------------------------------------------------

/// Runs the scenario once in process (shards = 4) and once per worker count
/// over framed ranks, expecting bit-identical results.
void expect_transport_invariant(
    TransportKind kind, sim::SimulationOptions options,
    const std::shared_ptr<const fault::FaultSchedule>& schedule = nullptr) {
  const auto users = mixed_users(41);
  options.faults = schedule;
  options.shards = 4;
  options.transport = TransportKind::kInProcess;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(),
                               options);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));
  for (const std::size_t w : worker_counts(kind)) {
    const Ranks ranks(kind, w);
    ranks.place(options);
    sim::MecSimulation framed(users, 8.0, core::make_reciprocal_delay(),
                              options);
    const sim::SimulationResult r =
        framed.run_tro(mixed_thresholds(framed.total_devices()));
    SCOPED_TRACE("workers = " + std::to_string(w));
    expect_result_identical(base, r);
  }
}

sim::SimulationOptions fixed_gamma_options() {
  sim::SimulationOptions o;
  o.warmup = 5.0;
  o.horizon = 40.0;
  o.seed = 31337;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.5;
  return o;
}

sim::SimulationOptions tracked_gamma_options() {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 50.0;
  o.seed = 99;
  o.utilization_ewma_tau = 5.0;
  o.initial_gamma = 0.3;
  o.sample_interval = 3.0;
  return o;
}

sim::SimulationOptions faulted_cluster_options() {
  sim::SimulationOptions o;
  o.warmup = 3.0;
  o.horizon = 40.0;
  o.seed = 2024;
  o.utilization_ewma_tau = 8.0;
  o.initial_gamma = 0.2;
  o.sample_interval = 4.0;
  o.topology.clusters = 2;
  return o;
}

std::shared_ptr<fault::FaultSchedule> faulted_cluster_schedule() {
  auto schedule = std::make_shared<fault::FaultSchedule>();
  schedule->add_capacity_scale(10.0, 0.5, 1);  // cluster 1 browns out
  schedule->add_capacity_scale(24.0, 1.0, 1);
  schedule->add_outage(12.0, 18.0, fault::OutageMode::kReject);
  schedule->add_outage(26.0, 32.0, fault::OutageMode::kPenalty, 0.4);
  schedule->add_crash(8.0, 3);
  schedule->add_restart(20.0, 3);
  schedule->add_user_departure(22.0, 0.37);
  core::UserParams joiner;
  joiner.arrival_rate = 1.5;
  joiner.service_rate = 3.0;
  joiner.offload_latency = 0.2;
  joiner.energy_local = 1.0;
  joiner.energy_offload = 0.5;
  schedule->add_user_arrival(15.0, joiner);
  return schedule;
}

/// Non-exponential samplers through the population frame: the ranks must
/// rebuild the exact Erlang-4 service and empirical latency samplers the
/// in-process engine materializes from the same specs.
sim::SimulationOptions sampler_spec_options() {
  sim::SimulationOptions o = tracked_gamma_options();
  sim::SamplerSpec service;
  service.kind = sim::SamplerSpec::Kind::kErlang;
  service.param = 4.0;
  sim::SamplerSpec latency;
  latency.kind = sim::SamplerSpec::Kind::kEmpirical;
  latency.data = random::synthetic_wifi_offload_latencies().samples();
  o.service = service;
  o.latency = latency;
  return o;
}

TEST(TransportEquivalence, FixedGammaWithSampling) {
  expect_transport_invariant(TransportKind::kProcess, fixed_gamma_options());
}

TEST(TcpTransportEquivalence, FixedGammaWithSampling) {
  expect_transport_invariant(TransportKind::kTcp, fixed_gamma_options());
}

TEST(TransportEquivalence, TrackedGammaWithSampling) {
  expect_transport_invariant(TransportKind::kProcess, tracked_gamma_options());
}

TEST(TcpTransportEquivalence, TrackedGammaWithSampling) {
  expect_transport_invariant(TransportKind::kTcp, tracked_gamma_options());
}

TEST(TransportEquivalence, FaultsAndChurnAcrossClusters) {
  expect_transport_invariant(TransportKind::kProcess,
                             faulted_cluster_options(),
                             faulted_cluster_schedule());
}

TEST(TcpTransportEquivalence, FaultsAndChurnAcrossClustersMatchInProcess) {
  expect_transport_invariant(TransportKind::kTcp, faulted_cluster_options(),
                             faulted_cluster_schedule());
}

TEST(TransportEquivalence, NonExponentialSamplerSpecsCrossTheProcessBoundary) {
  expect_transport_invariant(TransportKind::kProcess, sampler_spec_options());
}

TEST(TcpTransportEquivalence,
     NonExponentialSamplerSpecsCrossTheMachineBoundary) {
  expect_transport_invariant(TransportKind::kTcp, sampler_spec_options());
}

/// The closed loop is the hardest case for framed ranks: every epoch
/// callback rewrites the threshold array in the coordinator, which must
/// reach the ranks' copies before the next leg.
void expect_closed_loop_invariant(TransportKind kind) {
  const auto pop = population::sample_population(
      population::theoretical_scenario(population::LoadRegime::kAtService, 60),
      91);
  sim::ClosedLoopOptions opt;
  opt.horizon = 80.0;
  opt.update_period = 5.0;
  opt.eta0 = 0.2;
  opt.shards = 4;
  opt.transport = TransportKind::kInProcess;
  const sim::ClosedLoopResult base =
      run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
  for (const std::size_t w : worker_counts(kind)) {
    const Ranks ranks(kind, w);
    ranks.place(opt);
    const sim::ClosedLoopResult r =
        run_closed_loop(pop.users, pop.config.capacity, pop.config.delay, opt);
    SCOPED_TRACE("workers = " + std::to_string(w));
    EXPECT_EQ(base.final_gamma_hat, r.final_gamma_hat);
    EXPECT_EQ(base.estimate_settled, r.estimate_settled);
    ASSERT_EQ(base.thresholds.size(), r.thresholds.size());
    for (std::size_t i = 0; i < base.thresholds.size(); ++i)
      EXPECT_EQ(base.thresholds[i], r.thresholds[i]) << "device " << i;
    ASSERT_EQ(base.epochs.size(), r.epochs.size());
    for (std::size_t i = 0; i < base.epochs.size(); ++i) {
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

TEST(TransportEquivalence, ClosedLoopDtuCrossesTheProcessBoundary) {
  expect_closed_loop_invariant(TransportKind::kProcess);
}

TEST(TcpTransportEquivalence, ClosedLoopDtuCrossesTheMachineBoundary) {
  expect_closed_loop_invariant(TransportKind::kTcp);
}

std::string test_scoped_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string(info->test_suite_name()) + "_" +
                           info->name() + "_" + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

/// Streams the two-cluster tracked-gamma scenario in process and over
/// framed ranks, fault-free and under its fault schedule; the .meclog files
/// must match byte for byte.
void expect_streamed_logs_identical(TransportKind kind) {
  const auto users = mixed_users(41);
  const std::string in_path = test_scoped_path("inproc.meclog");
  const std::string framed_path = test_scoped_path("framed.meclog");
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "fault-free");
    sim::SimulationOptions o = faulted_cluster_options();
    if (faulted) o.faults = faulted_cluster_schedule();
    o.seed = 7;
    o.sample_interval = 2.0;
    o.shards = 4;
    o.stream_counters = false;  // counter frames carry wall-clock values
    o.transport = TransportKind::kInProcess;
    o.stream_log = in_path;
    sim::MecSimulation a(users, 8.0, core::make_reciprocal_delay(), o);
    a.run_tro(mixed_thresholds(a.total_devices()));
    const std::vector<char> in_bytes = slurp(in_path);
    ASSERT_FALSE(in_bytes.empty());

    for (const std::size_t w : worker_counts(kind)) {
      const Ranks ranks(kind, w);
      ranks.place(o);
      o.stream_log = framed_path;
      sim::MecSimulation b(users, 8.0, core::make_reciprocal_delay(), o);
      b.run_tro(mixed_thresholds(b.total_devices()));
      SCOPED_TRACE("workers = " + std::to_string(w));
      EXPECT_EQ(in_bytes, slurp(framed_path));
    }
  }
  std::filesystem::remove(in_path);
  std::filesystem::remove(framed_path);
}

TEST(TransportEquivalence, StreamedLogsAreByteIdentical) {
  expect_streamed_logs_identical(TransportKind::kProcess);
}

TEST(TcpTransportEquivalence, StreamedLogsAreByteIdentical) {
  expect_streamed_logs_identical(TransportKind::kTcp);
}

/// A controller driver's run: its simulation result and its controller's
/// trajectory (prices per epoch, or attendance per round).
struct DriverRun {
  sim::SimulationResult run;
  std::vector<double> trajectory;
};

/// Runs a controller driver in process (shards = 4) and over framed ranks
/// at every worker count, fault-free and under faulted_cluster_schedule(),
/// streaming each run.  The driver rewrites the threshold array at every
/// epoch, and the coordinator must hand each rewrite to the ranks before
/// the next leg: results, trajectories and .meclog bytes all match.
template <class Options, class Run>
void expect_driver_invariant(TransportKind kind, Options options, Run run) {
  const std::string in_path = test_scoped_path("inproc.meclog");
  const std::string framed_path = test_scoped_path("framed.meclog");
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "fault-free");
    options.faults = nullptr;
    if (faulted) options.faults = faulted_cluster_schedule();
    options.shards = 4;
    options.stream_counters = false;  // counter frames carry wall-clock values
    options.transport = TransportKind::kInProcess;
    options.worker_addresses.clear();
    options.stream_log = in_path;
    const DriverRun base = run(options);
    const std::vector<char> in_bytes = slurp(in_path);
    ASSERT_FALSE(in_bytes.empty());
    ASSERT_FALSE(base.trajectory.empty());

    for (const std::size_t w : worker_counts(kind)) {
      const Ranks ranks(kind, w);
      ranks.place(options);
      options.stream_log = framed_path;
      const DriverRun r = run(options);
      SCOPED_TRACE("workers = " + std::to_string(w));
      expect_result_identical(base.run, r.run);
      EXPECT_EQ(base.trajectory, r.trajectory);
      EXPECT_EQ(in_bytes, slurp(framed_path));
    }
  }
  std::filesystem::remove(in_path);
  std::filesystem::remove(framed_path);
}

DriverRun price_run(const sim::PriceBasedOptions& options) {
  const sim::PriceBasedResult r = sim::run_price_based(
      mixed_users(41), 8.0, core::make_reciprocal_delay(), options);
  DriverRun out{r.run, {}};
  for (const std::vector<double>& prices : r.price_epochs)
    out.trajectory.insert(out.trajectory.end(), prices.begin(), prices.end());
  return out;
}

void expect_price_invariant(TransportKind kind) {
  // A target below the unpriced utilization (about 0.22), so prices rise
  // and every epoch rewrites thresholds.
  sim::PriceBasedOptions o{faulted_cluster_options()};
  o.gamma_target = 0.1;
  o.update_period = 5.0;
  expect_driver_invariant(kind, o, price_run);
}

DriverRun minority_run(sim::MinorityGameRunOptions options) {
  const auto users = mixed_users(41);
  options.thresholds = mixed_thresholds(
      users.size() + (options.faults ? options.faults->churn_arrivals() : 0));
  const sim::MinorityGameRunResult r = sim::run_minority_game(
      users, 8.0, core::make_reciprocal_delay(), options);
  return {r.run, std::vector<double>(r.attendance.begin(), r.attendance.end())};
}

void expect_minority_invariant(TransportKind kind) {
  sim::MinorityGameRunOptions o{faulted_cluster_options()};
  o.topology.clusters = 4;
  o.game.seed = 77;
  o.update_period = 5.0;
  expect_driver_invariant(kind, o, minority_run);
}

TEST(TransportEquivalence, PriceBasedRunCrossesTheProcessBoundary) {
  expect_price_invariant(TransportKind::kProcess);
}

TEST(TcpTransportEquivalence, PriceBasedRunCrossesTheMachineBoundary) {
  expect_price_invariant(TransportKind::kTcp);
}

TEST(TransportEquivalence, MinorityGameRunCrossesTheProcessBoundary) {
  expect_minority_invariant(TransportKind::kProcess);
}

TEST(TcpTransportEquivalence, MinorityGameRunCrossesTheMachineBoundary) {
  expect_minority_invariant(TransportKind::kTcp);
}

TEST(TcpTransportEquivalence, OneDaemonServesManyRunsBackToBack) {
  const auto users = mixed_users(17);
  sim::SimulationOptions o;
  o.warmup = 1.0;
  o.horizon = 15.0;
  o.seed = 11;
  o.fixed_gamma = 0.25;
  o.shards = 2;
  o.transport = TransportKind::kInProcess;
  sim::MecSimulation reference(users, 8.0, core::make_reciprocal_delay(), o);
  const sim::SimulationResult base =
      reference.run_tro(mixed_thresholds(reference.total_devices()));

  DaemonFleet fleet(1);
  o.transport = TransportKind::kTcp;
  o.worker_addresses = fleet.addresses();
  sim::MecSimulation remote(users, 8.0, core::make_reciprocal_delay(), o);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    expect_result_identical(
        base, remote.run_tro(mixed_thresholds(remote.total_devices())));
  }
}

// --- crashed / stalled / failing runs --------------------------------------

/// Builds a simulation of `users` with `o`, runs TRO, and returns the
/// message of the `Error` that either step throws; `must` says why one has
/// to.
template <class Error = RuntimeError>
std::string run_error(const std::vector<core::UserParams>& users,
                      const sim::SimulationOptions& o,
                      const std::string& must) {
  try {
    sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
    des.run_tro(mixed_thresholds(des.total_devices()));
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << must;
  return "";
}

/// Forks a child process that serves `daemon` (already bound in the parent,
/// so the port is known) with the `hooks` variables set in its environment.
/// The crash hook hard-exits the child, which is the point: the sacrificial
/// process stands in for a machine that dies mid-run.
pid_t fork_daemon(net::WorkerDaemon& daemon,
                  const std::vector<std::pair<std::string, std::string>>&
                      hooks) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [name, value] : hooks)
      ::setenv(name.c_str(), value.c_str(), 1);
    int status = 1;
    try {
      status = daemon.serve();
    } catch (...) {
    }
    ::_exit(status);
  }
  return pid;
}

void reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

sim::SimulationOptions hooked_run_options() {
  sim::SimulationOptions o;
  o.warmup = 2.0;
  o.horizon = 30.0;
  o.seed = 5;
  o.fixed_gamma = 0.25;
  o.sample_interval = 2.0;  // plenty of barriers for the hooks to hit
  o.shards = 4;
  return o;
}

/// Runs the hooked scenario on two ranks of `kind` with the robustness hook
/// `<hook>_RANK=rank`, `<hook>_BARRIER=barrier` on the hosting process, and
/// returns the run's error message.  Forked ranks inherit the hook from
/// this process; for tcp only the hooked rank's daemon carries it.
std::string failing_run(TransportKind kind, const std::string& hook,
                        int rank, int barrier) {
  const std::vector<std::pair<std::string, std::string>> hooks = {
      {hook + "_RANK", std::to_string(rank)},
      {hook + "_BARRIER", std::to_string(barrier)}};
  const auto users = mixed_users(41);
  sim::SimulationOptions o = hooked_run_options();
  const std::string must = "a " + hook + " rank must fail the run, not hang it";
  if (kind == TransportKind::kProcess) {
    const ScopedEnv rank_env(hooks[0].first, hooks[0].second);
    const ScopedEnv barrier_env(hooks[1].first, hooks[1].second);
    o.transport = TransportKind::kProcess;
    o.workers = 2;
    const std::string what = run_error(users, o, must);
    expect_no_child_left();
    return what;
  }
  net::WorkerDaemon::Options d;
  d.listen = net::Address{"127.0.0.1", 0};
  d.quiet = true;
  net::WorkerDaemon d0(d), d1(d);
  o.transport = TransportKind::kTcp;
  o.worker_addresses = {"127.0.0.1:" + std::to_string(d0.port()),
                        "127.0.0.1:" + std::to_string(d1.port())};
  const std::vector<std::pair<std::string, std::string>> none;
  const pid_t pid0 = fork_daemon(d0, rank == 0 ? hooks : none);
  const pid_t pid1 = fork_daemon(d1, rank == 1 ? hooks : none);
  const std::string what = run_error(users, o, must);
  reap(pid0);
  reap(pid1);
  return what;
}

/// Rank 1 _exit(17)s after its third advance: the peer just vanishes.
void expect_crash_diagnostic(const std::string& what) {
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  EXPECT_NE(what.find("closed the connection"), std::string::npos) << what;
  EXPECT_NE(what.find("last completed barrier #2"), std::string::npos)
      << what;
  // The diagnostic names the frame the coordinator was still waiting for,
  // so a hung-vs-crashed rank is distinguishable from the message alone.
  EXPECT_NE(what.find("pending frame: barrier payload"), std::string::npos)
      << what;
}

/// Rank 0 stops heartbeating after its second advance but keeps its channel
/// open: only the read deadline can unstick the coordinator.
void expect_stall_diagnostic(const std::string& what) {
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("stopped responding"), std::string::npos) << what;
  EXPECT_NE(what.find("last completed barrier #1"), std::string::npos)
      << what;
  EXPECT_NE(what.find("pending frame: barrier payload"), std::string::npos)
      << what;
}

TEST(ProcessTransportRobustness, WorkerCrashFailsWithRankAndBarrier) {
  const std::string what = failing_run(TransportKind::kProcess,
                                       "MEC_TEST_WORKER_CRASH", 1, 3);
  expect_crash_diagnostic(what);
  EXPECT_NE(what.find("process transport worker rank 1 (pid "),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("exit status 17"), std::string::npos) << what;
}

TEST(TcpTransportRobustness, KilledWorkerFailsWithRankAddressAndBarrier) {
  const std::string what =
      failing_run(TransportKind::kTcp, "MEC_TEST_WORKER_CRASH", 1, 3);
  expect_crash_diagnostic(what);
  EXPECT_NE(what.find("tcp transport worker rank 1 at 127.0.0.1:"),
            std::string::npos)
      << what;
}

TEST(ProcessTransportRobustness, WorkerStallFailsInsteadOfHanging) {
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "500");
  const std::string what = failing_run(TransportKind::kProcess,
                                       "MEC_TEST_WORKER_STALL", 0, 2);
  expect_stall_diagnostic(what);
  EXPECT_NE(what.find("unresponsive, killed"), std::string::npos) << what;
}

TEST(TcpTransportRobustness, StalledWorkerFailsInsteadOfHanging) {
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "500");
  const std::string what =
      failing_run(TransportKind::kTcp, "MEC_TEST_WORKER_STALL", 0, 2);
  expect_stall_diagnostic(what);
  EXPECT_NE(what.find("tcp transport worker rank 0 at 127.0.0.1:"),
            std::string::npos)
      << what;
}

TEST(ProcessTransportRobustness, ThrowingEpochCallbackLeavesNoWorkerBehind) {
  // The coordinator itself fails mid-run while every rank is healthy and
  // blocked on its next frame: unwinding the transport must kill and reap
  // them all.
  const auto users = mixed_users(41);
  sim::SimulationOptions o = hooked_run_options();
  o.epoch_period = 5.0;
  o.on_epoch = [](double now, double) {
    if (now >= 10.0) throw std::runtime_error("epoch callback failed");
  };
  o.transport = TransportKind::kProcess;
  o.workers = 3;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  EXPECT_THROW(des.run_tro(mixed_thresholds(des.total_devices())),
               std::runtime_error);
  expect_no_child_left();
}

TEST(ProcessTransportRobustness, InvalidEpochThresholdFailsAndLeavesNoWorker) {
  // The coordinator checks the rewritten array before broadcasting it, so
  // the ranks never decide on -1; they are killed and reaped on unwind.
  const auto users = mixed_users(41);
  std::vector<double> xs = mixed_thresholds(users.size());
  sim::SimulationOptions o = hooked_run_options();
  o.epoch_period = 5.0;
  o.on_epoch = [&xs](double now, double) {
    if (now >= 10.0) xs[7] = -1.0;
  };
  o.transport = TransportKind::kProcess;
  o.workers = 2;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  try {
    des.run_tro(xs);
    ADD_FAILURE() << "an invalid epoch threshold must fail the run";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("epoch callback at t=10: device 7 has threshold -1"),
              std::string::npos)
        << what;
  }
  expect_no_child_left();
}

TEST(TransportTimeout, EnvOverrideIsValidatedLoudly) {
  // A malformed or out-of-range MEC_TRANSPORT_TIMEOUT_MS must throw naming
  // the variable and the accepted range — a typo'd deadline silently
  // falling back to 5 minutes would make stall tests pass vacuously.
  for (const char* bad : {"banana", "0", "-5", "1e3", "250ms", "86400001",
                          "999999999999999999999"}) {
    const ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", bad);
    try {
      parallel::resolve_transport_timeout_ms();
      FAIL() << "value '" << bad << "' must be rejected";
    } catch (const RuntimeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MEC_TRANSPORT_TIMEOUT_MS"), std::string::npos)
          << what;
      EXPECT_NE(what.find("[1, 86400000]"), std::string::npos) << what;
    }
  }
}

TEST(TransportTimeout, EnvOverrideAndFallbackResolve) {
  {
    const ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "250");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(), 250);
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(9000), 250);
  }
  {
    const ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "86400000");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(),
              parallel::kMaxTransportTimeoutMs);
  }
  {
    // Unset and empty both mean "use the fallback", matching MEC_SHARDS.
    const ScopedEnv env("MEC_TRANSPORT_TIMEOUT_MS", "");
    EXPECT_EQ(parallel::resolve_transport_timeout_ms(1234), 1234);
  }
}

// --- refusals --------------------------------------------------------------

/// Framed ranks decide on a copy of a threshold array; a DPO run has none,
/// so it must be refused up front — before any fork or connect — not fail
/// mid-run or silently diverge.
void expect_non_tro_refused(TransportKind kind) {
  const auto users = mixed_users(8);
  sim::SimulationOptions o = hooked_run_options();
  o.transport = kind;
  if (kind == TransportKind::kTcp) o.worker_addresses = {"127.0.0.1:9"};
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  const bool local = kind == TransportKind::kProcess;
  try {
    des.run_dpo(std::vector<double>(users.size(), 0.5));
    FAIL() << "non-TRO policies must be rejected under framed transports";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(local ? "transport=process" : "transport=tcp"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("TRO"), std::string::npos) << what;
    EXPECT_NE(what.find(local ? "process boundary" : "machine boundary"),
              std::string::npos)
        << what;
  }
  if (local) expect_no_child_left();
}

TEST(ProcessTransportRobustness, RejectsPoliciesWithoutTroThresholds) {
  expect_non_tro_refused(TransportKind::kProcess);
}

TEST(TcpTransportRobustness, RejectsPoliciesWithoutTroThresholds) {
  expect_non_tro_refused(TransportKind::kTcp);
}

/// Invalid sampler specs, each with the message naming its role, kind,
/// received value and accepted range.  Specs are the only sampler input, so
/// this check is the user-facing gate.
struct BadSpec {
  bool latency;  ///< the spec goes to options.latency, else to .service
  sim::SamplerSpec spec;
  const char* message;
};
const BadSpec kBadSpecs[] = {
    {false,
     {.kind = sim::SamplerSpec::Kind::kErlang, .param = 2.5, .data = {}},
     "service sampler spec (kind erlang): stage count = 2.5, expected an "
     "integer in [1, 1000000]"},
    {false,
     {.kind = sim::SamplerSpec::Kind::kHyperExponential,
      .param = 0.5,
      .data = {}},
     "service sampler spec (kind hyperexponential): SCV = 0.5, expected a "
     "finite value >= 1"},
    {false,
     {.kind = sim::SamplerSpec::Kind::kEmpirical, .param = 0.0, .data = {}},
     "service sampler spec (kind empirical): sample count = 0, expected at "
     "least 1"},
    {true,
     {.kind = sim::SamplerSpec::Kind::kEmpirical, .data = {0.1, -0.2}},
     "latency sampler spec (kind empirical): data[1] = -0.2, expected a "
     "finite value >= 0"},
    {true,
     {.kind = sim::SamplerSpec::Kind::kErlang, .param = 4.0, .data = {}},
     "latency sampler spec (kind erlang): kind = 2, expected 0, 1 or 4"},
};

/// The MecSimulation constructor must refuse every bad spec before a rank
/// is forked or dialled.
void expect_bad_specs_refused(TransportKind kind) {
  // Were a spec accepted, the tcp run would dial a closed port: fail fast.
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "400");
  for (const BadSpec& c : kBadSpecs) {
    SCOPED_TRACE(c.message);
    sim::SimulationOptions o = hooked_run_options();
    o.transport = kind;
    if (kind == TransportKind::kTcp) o.worker_addresses = {"127.0.0.1:9"};
    (c.latency ? o.latency : o.service) = c.spec;
    const std::string what = run_error(mixed_users(8), o,
                                       "an invalid sampler spec must be "
                                       "rejected");
    EXPECT_NE(what.find(c.message), std::string::npos) << what;
    expect_no_child_left();
  }
}

TEST(ProcessTransportRobustness, InvalidSamplerSpecsAreRejectedByName) {
  expect_bad_specs_refused(TransportKind::kProcess);
}

TEST(TcpTransportRobustness, InvalidSamplerSpecsAreRejectedByName) {
  expect_bad_specs_refused(TransportKind::kTcp);
}

sim::SimulationOptions tcp_run_options(
    const std::vector<std::string>& addresses) {
  sim::SimulationOptions o = hooked_run_options();
  o.transport = TransportKind::kTcp;
  o.worker_addresses = addresses;
  return o;
}

TEST(TcpTransportRobustness, UnreachableWorkerFailsWithAddress) {
  // Nothing listens here: connect must give up within the budget and name
  // the address instead of retrying forever.
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "400");
  sim::SimulationOptions o = tcp_run_options({"127.0.0.1:9"});
  o.shards = 1;
  const std::string what = run_error(mixed_users(9), o,
                                     "an unreachable daemon must fail the run");
  EXPECT_NE(what.find("127.0.0.1:9"), std::string::npos) << what;
}

// --- daemon handshake ------------------------------------------------------

void expect_tiny_tcp_run_succeeds(const std::vector<std::string>& addresses) {
  const auto users = mixed_users(9);
  sim::SimulationOptions o = tcp_run_options(addresses);
  o.shards = 1;
  sim::MecSimulation des(users, 8.0, core::make_reciprocal_delay(), o);
  EXPECT_GT(des.run_tro(mixed_thresholds(des.total_devices())).total_events,
            0u);
}

TEST(TcpTransportHandshake, WorkerRejectsACoordinatorRevisionMismatch) {
  DaemonFleet fleet(1);
  const net::Address addr = net::parse_address(fleet.addresses()[0]);
  net::ScopedFd fd = net::connect_with_backoff(addr, 2000);
  net::wire::Hello hello;
  hello.revision = 99;
  hello.ranks = 1;
  pwire::write_frame(fd.get(), pwire::kFrameHello,
                     net::wire::encode_hello(hello));
  // The daemon answers with an error frame naming both revisions, then
  // closes this connection and survives to serve a real run.
  const pwire::DecodedFrame reply = pwire::read_frame_deadline(fd.get(), 5000);
  ASSERT_EQ(reply.kind, pwire::kFrameError);
  obs::wire::ByteReader r(reply.payload);
  const std::string what = r.get_string(r.get_u32());
  EXPECT_NE(what.find("revision 99"), std::string::npos) << what;
  EXPECT_NE(what.find("revision 1"), std::string::npos) << what;
  fd.reset();
  expect_tiny_tcp_run_succeeds(fleet.addresses());
}

TEST(TcpTransportHandshake, CoordinatorRejectsAWorkerRevisionMismatch) {
  // A fake "newer worker": accepts one connection, answers the hello with
  // an ack carrying revision 99.  The coordinator must refuse, naming both
  // revisions and the peer address.
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "2000");
  net::ScopedFd listener = net::listen_on(net::Address{"127.0.0.1", 0});
  const std::uint16_t port = net::bound_port(listener.get());
  std::thread fake([&listener] {
    net::ScopedFd conn = net::accept_connection(listener.get());
    const pwire::DecodedFrame frame =
        pwire::read_frame_deadline(conn.get(), 5000);
    const net::wire::Hello hello = net::wire::decode_hello(frame.payload);
    net::wire::HelloAck ack;
    ack.revision = 99;
    ack.rank = hello.rank;
    pwire::write_frame(conn.get(), pwire::kFrameHelloAck,
                       net::wire::encode_hello_ack(ack));
  });
  net::FramedTransport::Config cfg;
  cfg.shard_count = 1;
  cfg.n_devices = 1;
  const std::vector<net::Address> workers = {net::Address{"127.0.0.1", port}};
  const std::vector<std::vector<std::uint8_t>> populations(1);
  const std::vector<double> thresholds(1, 1.0);
  try {
    net::FramedTransport transport(cfg, net::connect_workers(workers),
                                   populations, thresholds);
    FAIL() << "a worker revision mismatch must be refused";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this coordinator speaks revision 1"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("answered revision 99"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1:"), std::string::npos) << what;
    EXPECT_NE(what.find("during start-up; last completed barrier #0 (t=0)"),
              std::string::npos)
        << what;
  }
  fake.join();
}

TEST(TcpTransportHandshake, GarbageBytesOnConnectAreRejectedAndSurvived) {
  DaemonFleet fleet(1);
  const net::Address addr = net::parse_address(fleet.addresses()[0]);
  {
    net::ScopedFd fd = net::connect_with_backoff(addr, 2000);
    const std::string junk = "GET / HTTP/1.1\r\nHost: not-a-mec-peer\r\n\r\n";
    ASSERT_EQ(::write(fd.get(), junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    // The daemon kills this connection at the envelope decode (absurd
    // length / CRC); it must not crash, hang, or poison the next run.
  }
  expect_tiny_tcp_run_succeeds(fleet.addresses());
}

TEST(TcpTransportHandshake, DuplicateWorkerAddressIsRejectedUpFront) {
  DaemonFleet fleet(1);
  const std::string what = run_error(
      mixed_users(9),
      tcp_run_options({fleet.addresses()[0], fleet.addresses()[0]}),
      "a duplicated worker address must be rejected");
  EXPECT_NE(what.find("listed twice"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
}

TEST(TcpTransportHandshake, MoreWorkersThanShardsIsRejectedUpFront) {
  const std::string what = run_error(
      mixed_users(9),
      tcp_run_options({"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3",
                       "127.0.0.1:4", "127.0.0.1:5"}),
      "more workers than shards must be rejected before connecting");
  EXPECT_NE(what.find("5 workers"), std::string::npos) << what;
  EXPECT_NE(what.find("4 shards"), std::string::npos) << what;
}

// --- address parsing -------------------------------------------------------

TEST(NetAddress, ParsesHostAndPort) {
  const net::Address a = net::parse_address("127.0.0.1:8080");
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);
  EXPECT_EQ(a.str(), "127.0.0.1:8080");
}

TEST(NetAddress, RejectsMalformedSpecs) {
  for (const char* bad : {"nocolon", ":1234", "host:", "host:0", "host:abc",
                          "host:12x", "host:65536", "host:-1"})
    EXPECT_THROW(net::parse_address(bad), RuntimeError) << bad;
  // Port 0 is only an error when ephemeral binds make no sense.
  EXPECT_EQ(net::parse_address("host:0", /*allow_port_zero=*/true).port, 0);
}

TEST(NetAddress, WorkerListRejectsDuplicatesNamingBothRanks) {
  try {
    net::parse_worker_list("10.0.0.1:7000,10.0.0.2:7000,10.0.0.1:7000");
    FAIL() << "duplicate worker addresses must be rejected";
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("10.0.0.1:7000"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
  EXPECT_THROW(net::parse_worker_list(""), RuntimeError);
  EXPECT_THROW(net::parse_worker_list("a:1,,b:2"), RuntimeError);
}

// --- payload validation against scripted peers -----------------------------
//
// The run below has 10 devices in 2 shards, 2 clusters and 2 ranks: rank r
// owns shard r and devices [5r, 5r+5).  A scripted rank is the far end of a
// socketpair with every reply written up front — hello ack, ready, its
// barrier payloads, final totals — so no thread is needed (the frames are
// tiny, and the coordinator's own frames sit unread in the socket buffer).

/// What one scripted rank sends; well-formed by default for rank `rank`.
struct RankScript {
  explicit RankScript(std::uint32_t rank)
      : shard(rank), final_lo(5 * rank), final_hi(5 * rank + 5) {
    sim::OffloadRecord rec;
    rec.time = 0.5;
    rec.latency = 0.1;
    rec.device = 5 * rank + 2;
    rec.cluster = static_cast<std::uint16_t>(rec.device % 2);
    rec.measured = true;
    log.push_back(rec);
  }
  std::uint32_t shard;
  std::size_t shards = 1;
  std::vector<std::uint64_t> cluster_offloads{3, 4};
  std::vector<sim::OffloadRecord> log;
  bool sketches = true;
  bool queue_stats = false;
  bool q = true;
  std::uint32_t final_lo;
  std::uint32_t final_hi;
  /// Barrier payloads written after ready; payload b answers the barrier
  /// at t = b + 1 with log times, events and queue sums shifted by b.  With
  /// 0 the rank sends nothing after ready, not even its final totals.
  std::size_t barriers = 1;
  /// Close the far end after the barriers, before the finalize exchange.
  bool hang_up = false;
  /// Payloads sent in place of the well-formed hello ack and ready frame.
  std::optional<std::vector<std::uint8_t>> hello_ack;
  std::optional<std::vector<std::uint8_t>> ready;
  /// An error frame sent ahead of the barrier payloads, as a failed rank
  /// answers its advance request.
  std::optional<std::vector<std::uint8_t>> error;
};

/// The request scripted barrier `b` answers: sums and sketches, no stats.
parallel::BarrierRequest scripted_request(std::size_t b) {
  parallel::BarrierRequest req;
  req.limit = 1.0 + static_cast<double>(b);
  req.want_q = true;
  req.want_sketches = true;
  return req;
}

net::RankLink scripted_rank(std::uint32_t rank, const RankScript& script,
                            net::ScopedFd& far_end) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  far_end = net::ScopedFd(fds[1]);
  net::wire::HelloAck ack;
  ack.rank = rank;
  pwire::write_frame(
      fds[1], pwire::kFrameHelloAck,
      script.hello_ack.value_or(net::wire::encode_hello_ack(ack)));
  obs::wire::ByteWriter ready(4);
  ready.put_u32(rank);
  pwire::write_frame(fds[1], pwire::kFrameReady,
                     script.ready.value_or(ready.take()));
  if (script.error)
    pwire::write_frame(fds[1], pwire::kFrameError, *script.error);

  stats::LatencySketch sketch;
  sketch.add(0.25);
  for (std::size_t b = 0; b < script.barriers; ++b) {
    const auto shift = static_cast<double>(b);
    std::vector<sim::OffloadRecord> log = script.log;
    for (sim::OffloadRecord& rec : log) rec.time += shift;
    std::vector<parallel::ShardBarrierView> views(script.shards);
    for (std::size_t i = 0; i < views.size(); ++i) {
      parallel::ShardBarrierView& v = views[i];
      v.shard = script.shard + static_cast<std::uint32_t>(i);
      v.log = log;
      v.events = 7 + b;
      v.cluster_offloads = script.cluster_offloads;
      if (script.sketches) {
        v.local_sojourns = &sketch;
        v.offload_delays = &sketch;
      }
      v.has_queue_stats = script.queue_stats;
    }
    pwire::write_frame(fds[1], pwire::kFrameBarrier,
                       pwire::encode_barrier_payload(views, script.q,
                                                     2.0 + shift, 4.0 + shift));
  }
  if (script.barriers > 0) {
    std::vector<parallel::DeviceTotals> totals(script.final_hi -
                                               script.final_lo);
    for (std::uint32_t d = script.final_lo; d < script.final_hi; ++d)
      totals[d - script.final_lo].arrivals = 100 + d;
    pwire::write_frame(
        fds[1], pwire::kFrameFinal,
        pwire::encode_device_totals(script.final_lo, script.final_hi, totals));
  }

  net::RankLink link;
  link.fd = net::ScopedFd(fds[0]);
  link.label = "scripted peer " + std::to_string(rank);
  return link;
}

/// Drives the scripts' barriers — start, collect, start, collect, … — and
/// the finalize exchange against two scripted ranks; returns the error, or
/// "" when the coordinator accepted everything (then each barrier's views
/// and sums match the scripts, a barrier's views survive the next start(),
/// and device d's arrivals read 100 + d).
std::string run_scripted(const RankScript& rank1,
                         const RankScript& rank0 = RankScript(0)) {
  net::ScopedFd far0, far1;
  std::vector<net::RankLink> links;
  links.push_back(scripted_rank(0, rank0, far0));
  links.push_back(scripted_rank(1, rank1, far1));
  net::FramedTransport::Config cfg;
  cfg.shard_count = 2;
  cfg.n_devices = 10;
  cfg.n_clusters = 2;
  const std::vector<std::vector<std::uint8_t>> populations(2);
  const std::vector<double> thresholds(10, 1.0);
  const std::size_t barriers = std::max(rank0.barriers, rank1.barriers);
  try {
    net::FramedTransport transport(cfg, std::move(links), populations,
                                   thresholds);
    transport.start(scripted_request(0));
    for (std::size_t b = 0; b < barriers; ++b) {
      const auto views = transport.collect();
      if (b + 1 < barriers) transport.start(scripted_request(b + 1));
      EXPECT_EQ(views.size(), 2u);
      for (std::size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(views[i].shard, i);
        EXPECT_EQ(views[i].events, 7 + b);
        EXPECT_EQ(views[i].log.size(), 1u);
        if (views[i].log.size() == 1) {
          EXPECT_EQ(views[i].log[0].time, 0.5 + static_cast<double>(b));
        }
      }
      EXPECT_EQ(transport.total_q(), 4.0 + 2.0 * static_cast<double>(b));
      EXPECT_EQ(transport.total_q2(), 8.0 + 2.0 * static_cast<double>(b));
    }
    if (rank1.hang_up) far1.reset();
    transport.finalize(false);
    for (std::uint32_t d = 0; d < 10; ++d)
      EXPECT_EQ(transport.device_totals(d).arrivals, 100u + d) << d;
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

TEST(FramedTransportValidation, WellFormedScriptedRanksAreAccepted) {
  EXPECT_EQ(run_scripted(RankScript(1)), "");
}

TEST(FramedTransportValidation, OverlappedBarriersKeepEachBarriersViews) {
  // Barrier 2 is started before barrier 1's views are read, as the
  // coordinator does at a barrier with no epoch.
  RankScript rank0(0), rank1(1);
  rank0.barriers = rank1.barriers = 2;
  EXPECT_EQ(run_scripted(rank1, rank0), "");
}

TEST(FramedTransportValidation, MalformedPayloadIsRefusedWhileSiblingIsSilent) {
  // Payloads are read as they arrive: rank 1's refusal cannot wait on rank
  // 0, which never answers, for the whole deadline.
  const ScopedEnv timeout("MEC_TRANSPORT_TIMEOUT_MS", "60000");
  RankScript rank0(0), rank1(1);
  rank0.barriers = 0;
  rank1.shard = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string what = run_scripted(rank1, rank0);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_NE(what.find("worker rank 1 at scripted peer 1 sent a barrier "
                      "payload with shards[0].shard = 0, expected 1"),
            std::string::npos)
      << what;
  EXPECT_LT(waited, 10.0) << what;
}

TEST(FramedTransportValidation, EveryMalformedPayloadIsRefusedByName) {
  struct Case {
    void (*mutate)(RankScript&);
    const char* field;  ///< field, received value, expected value
    const char* phase;  ///< where the run stood, and the last barrier
  };
  // The barrier payload is checked before barrier #1 completes; the final
  // totals after it.
  const char* const barrier = "before the barrier at t=1; last completed "
                              "barrier #0 (t=0)";
  const char* const run_end = "at run end; last completed barrier #1 (t=1)";
  const char* const startup = "during start-up; last completed barrier #0";
  const Case cases[] = {
      {[](RankScript& s) { s.shard = 0; }, "shards[0].shard = 0, expected 1",
       barrier},
      {[](RankScript& s) { s.shards = 2; }, "shard count = 2, expected 1",
       barrier},
      {[](RankScript& s) { s.cluster_offloads = {3, 4, 5}; },
       "shards[0].cluster_offloads.size() = 3, expected 2", barrier},
      {[](RankScript& s) { s.sketches = false; },
       "shards[0].sketches = absent, expected present", barrier},
      {[](RankScript& s) { s.queue_stats = true; },
       "shards[0].queue stats = present, expected absent", barrier},
      {[](RankScript& s) { s.q = false; },
       "queue sums = absent, expected present", barrier},
      {[](RankScript& s) { s.log[0].device = 2; },
       "shards[0].log[0].device = 2, expected a device in [5, 10)", barrier},
      {[](RankScript& s) { s.log[0].cluster = 2; },
       "shards[0].log[0].cluster = 2, expected a cluster below 2", barrier},
      // The replay would merge these times silently: a non-finite time, one
      // below its predecessor in the log, and one past the leg [0, 1).
      {[](RankScript& s) {
         s.log[0].time = std::numeric_limits<double>::quiet_NaN();
       },
       "shards[0].log[0].time = nan, expected a time in [0, 1)", barrier},
      {[](RankScript& s) {
         s.log.push_back(s.log[0]);
         s.log[1].time = 0.25;
       },
       "shards[0].log[1].time = 0.25, expected a time in [0.5, 1)", barrier},
      {[](RankScript& s) { s.log[0].time = 1.0; },
       "shards[0].log[0].time = 1, expected a time in [0, 1)", barrier},
      // Accepting these would overwrite rank 0's totals and leave rank 1's
      // devices at zero.
      {[](RankScript& s) { s.final_lo = 0, s.final_hi = 5; },
       "final totals with devices = [0, 5), expected [5, 10)", run_end},
      // A send fails when the rank's end is gone.
      {[](RankScript& s) { s.hang_up = true; },
       "could not be sent the finalize request (kind 0x12) frame "
       "(transport write failed: ",
       run_end},
      // Handshake payloads and a rank's own error report are decoded under
      // the same name and phase as a barrier payload.
      {[](RankScript& s) { s.hello_ack = std::vector<std::uint8_t>{}; },
       "sent a malformed hello ack (payload underflow while decoding)",
       startup},
      {[](RankScript& s) {
         s.hello_ack = net::wire::encode_hello_ack({});
         s.hello_ack->at(0) ^= 0xFF;
       },
       "sent a malformed hello ack (hello ack magic mismatch", startup},
      {[](RankScript& s) { s.ready = std::vector<std::uint8_t>{}; },
       "sent a malformed ready frame (payload underflow while decoding)",
       startup},
      {[](RankScript& s) {
         obs::wire::ByteWriter w(8);
         w.put_u32(40);  // declares 40 message bytes, sends 3
         w.put_u8('b');
         w.put_u8('a');
         w.put_u8('d');
         s.error = w.take();
       },
       "sent a malformed error frame (payload underflow while decoding)",
       barrier},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    RankScript script(1);
    c.mutate(script);
    const std::string what = run_scripted(script);
    EXPECT_NE(what.find("worker rank 1 at scripted peer 1"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(c.field), std::string::npos) << what;
    EXPECT_NE(what.find(c.phase), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace mec
