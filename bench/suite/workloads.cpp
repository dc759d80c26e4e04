#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>

#include "mec/common/error.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/fault/fault_text.hpp"
#include "mec/population/scenario.hpp"
#include "mec/sim/closed_loop.hpp"
#include "suite.hpp"

namespace mec::suite {
namespace {

population::ScenarioConfig scenario(std::size_t n_users) {
  return population::theoretical_comparison_scenario(
      population::LoadRegime::kAtService, n_users);
}

sim::TransportKind transport(const Variant& v) {
  return v.process ? sim::TransportKind::kProcess
                   : sim::TransportKind::kInProcess;
}

sim::ClusterTopology topology(const Workload& w) {
  sim::ClusterTopology t;
  t.clusters = w.clusters;
  return t;
}

/// The simulation options of one run_tro run, or — for the closed loops —
/// the options run_closed_loop derives internally (sim/closed_loop.cpp).
sim::SimulationOptions simulation_options(const Workload& w, const Inputs& in,
                                          const Variant& v) {
  sim::SimulationOptions o;
  o.warmup = w.warmup;
  o.horizon = w.horizon;
  o.seed = in.seed;
  if (w.closed_loop) {
    o.epoch_period = w.update_period;
    o.on_epoch = [](double, double) {};
  } else if (w.tracked_gamma) {
    o.initial_gamma = in.mfne.gamma_star;
  } else {
    o.fixed_gamma = in.mfne.gamma_star;
  }
  o.topology = topology(w);
  o.faults = in.faults;
  o.shards = v.shards;
  o.transport = transport(v);
  o.workers = v.process ? 2 : 0;
  o.sample_interval = v.sample_interval;
  o.stream_log = v.stream_log;
  o.stream_counters = v.counters;
  o.record_timeline = false;
  return o;
}

sim::ClosedLoopOptions loop_options(const Workload& w, const Inputs& in,
                                    const Variant& v) {
  sim::ClosedLoopOptions o;
  o.update_period = w.update_period;
  o.horizon = w.horizon;
  o.seed = in.seed;
  o.faults = in.faults;
  o.shards = v.shards;
  o.transport = transport(v);
  o.workers = v.process ? 2 : 0;
  o.topology = topology(w);
  o.sample_interval = v.sample_interval;
  o.stream_log = v.stream_log;
  o.stream_counters = v.counters;
  o.record_timeline = false;
  return o;
}

/// Hexfloat digest of everything a run reports that a speed-only change
/// must leave bit-identical.
std::string digest(const sim::SimulationResult& r, const double* gamma_hat) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "events=%" PRIu64 ";util=%a;cost=%a",
                r.total_events, r.measured_utilization, r.mean_cost);
  std::string out = buf;
  if (gamma_hat != nullptr) {
    std::snprintf(buf, sizeof buf, ";ghat=%a", *gamma_hat);
    out += buf;
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    Workload fixed;
    fixed.name = "fixed_gamma";
    fixed.shards = 1;
    fixed.warmup = 2.0;
    fixed.horizon = 18.0;
    all.push_back(fixed);

    // One shard, not four: on a shared 4-vCPU host every barrier waits for
    // the slowest shard thread.  At four shards, and later at two, spells of
    // host load made its runs take up to twice as long while the one-thread
    // reference loop slowed by less than 10%, so its wall time was the
    // noisiest of all.  The serial replay and the per-epoch sweep still run
    // at every barrier.
    Workload loop;
    loop.name = "closed_loop";
    loop.closed_loop = true;
    loop.shards = 1;
    loop.horizon = 40.0;
    loop.update_period = 2.0;
    all.push_back(loop);

    Workload faults;
    faults.name = "faults_clusters_process";
    faults.tracked_gamma = true;
    faults.shards = 2;
    faults.process = true;
    faults.clusters = 4;
    faults.faults = true;
    faults.streams = true;
    faults.warmup = 2.0;
    faults.horizon = 18.0;
    all.push_back(faults);
    return all;
  }();
  return kAll;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw RuntimeError("unknown workload '" + name + "' (known: " + known + ")");
}

Inputs make_inputs(const Workload& w, std::size_t n_users, std::uint64_t seed,
                   const std::string& fault_file, SetupTimes& times) {
  const population::ScenarioConfig cfg = scenario(n_users);
  Inputs in;
  in.seed = seed;
  auto t0 = Clock::now();
  in.pop = population::sample_population(cfg, seed);
  times.sample_s = seconds_since(t0);

  t0 = Clock::now();
  in.mfne = core::solve_mfne(in.pop.users, cfg.delay, cfg.capacity);
  times.mfne_s = seconds_since(t0);
  in.thresholds.assign(in.mfne.thresholds.begin(), in.mfne.thresholds.end());

  times.fault_s = 0.0;
  if (w.faults) {
    t0 = Clock::now();
    auto schedule = std::make_shared<const fault::FaultSchedule>(
        fault::load_fault_schedule_file(fault_file, &cfg));
    // Joiners best-respond to the equilibrium of the initial population.
    const double g_star = cfg.delay(in.mfne.gamma_star);
    for (const core::UserParams& u : schedule->churn_users())
      in.thresholds.push_back(
          static_cast<double>(core::best_threshold(u, g_star)));
    in.faults = std::move(schedule);
    times.fault_s = seconds_since(t0);
  }
  return in;
}

Variant timed_variant(const Workload& w, const std::string& out_dir) {
  Variant v;
  v.shards = w.shards;
  v.process = w.process;
  if (w.streams) {
    v.stream_log = out_dir + "/" + w.name + ".meclog";
    // One window per simulated second.  Every window is a barrier, and on a
    // shared host waking the shard threads at 100 barriers per run made
    // the wall time twice as noisy across processes as at 20.
    v.sample_interval = t_end(w) / 20.0;
  }
  return v;
}

Variant traced_variant(const Workload& w, const std::string& out_dir) {
  Variant v = timed_variant(w, out_dir);
  v.stream_log = out_dir + "/" + w.name + ".traced.meclog";
  v.counters = true;
  if (!w.streams)
    v.sample_interval =
        w.closed_loop ? w.update_period : t_end(w) / 40.0;
  return v;
}

Variant reference_variant(const Workload& w, const std::string& out_dir) {
  Variant v = timed_variant(w, out_dir);
  v.shards = w.shards == 1 ? 4 : 1;
  v.process = false;
  if (w.streams) v.stream_log = out_dir + "/" + w.name + ".reference.meclog";
  return v;
}

Runner::Runner(const Workload& w, const Inputs& in, Variant v)
    : w_(w),
      in_(in),
      v_(std::move(v)),
      sim_(in.pop.users, in.pop.config.capacity, in.pop.config.delay,
           simulation_options(w, in, v_)) {}

RunResult Runner::run(sim::SimWorkspace& workspace) const {
  RunResult out;
  if (w_.closed_loop) {
    const sim::ClosedLoopOptions options = loop_options(w_, in_, v_);
    const auto t0 = Clock::now();
    const sim::ClosedLoopResult r =
        sim::run_closed_loop(in_.pop.users, in_.pop.config.capacity,
                             in_.pop.config.delay, options);
    out.wall_s = seconds_since(t0);
    out.digest = digest(r.run, &r.final_gamma_hat);
    out.events = r.run.total_events;
    out.final_gamma_hat = r.final_gamma_hat;
    return out;
  }
  const auto t0 = Clock::now();
  const sim::SimulationResult r = sim_.run_tro(in_.thresholds, workspace);
  out.wall_s = seconds_since(t0);
  out.digest = digest(r, nullptr);
  out.events = r.total_events;
  return out;
}

}  // namespace mec::suite
