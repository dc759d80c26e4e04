// Public simulation API: validation, population assembly, and dispatch into
// the layered engine (see engine.hpp).  The event loop itself, the device
// model, the policy fast paths, the edge coupling, and the fault plan all
// live in their own layer headers/TUs — this file only composes them.
#include "mec/sim/mec_simulation.hpp"

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/sim/engine.hpp"

namespace mec::sim {

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

SimulationResult MecSimulation::dispatch(OffloadRule rule,
                                         std::span<const double> values,
                                         SimWorkspace& workspace) const {
  MEC_EXPECTS(values.size() == users_.size());
  engine::check_values(rule, values,
                       rule == OffloadRule::kTro ? "run_tro" : "run_dpo");
  if (options_.faults && !options_.faults->empty())
    return engine::run_sharded<true>(users_, n_initial_, capacity_, delay_,
                                     options_, service_, latency_,
                                     *workspace.impl_, rule, values.data());
  return engine::run_sharded<false>(users_, n_initial_, capacity_, delay_,
                                    options_, service_, latency_,
                                    *workspace.impl_, rule, values.data());
}

MecSimulation::MecSimulation(std::span<const core::UserParams> users,
                             double capacity, core::EdgeDelay delay,
                             SimulationOptions options)
    : users_(users.begin(), users.end()),
      capacity_(capacity),
      delay_(std::move(delay)),
      options_(std::move(options)) {
  MEC_EXPECTS(!users_.empty());
  MEC_EXPECTS(capacity_ > 0.0);
  MEC_EXPECTS(delay_.valid());
  constexpr std::string_view kRun = "MecSimulation";
  const SimulationOptions& o = options_;
  // Every time is finite, and so is the run's end, warmup + horizon: a run
  // to an infinite time never ends.
  check_option(std::isfinite(o.warmup) && o.warmup >= 0.0, kRun, "warmup",
               o.warmup, "a finite value >= 0");
  check_option(std::isfinite(o.horizon) && o.horizon > 0.0, kRun, "horizon",
               o.horizon, "a finite value > 0");
  check_option(std::isfinite(o.warmup + o.horizon), kRun, "horizon",
               o.horizon, "a value with a finite warmup + horizon");
  check_option(
      std::isfinite(o.utilization_ewma_tau) && o.utilization_ewma_tau > 0.0,
      kRun, "utilization_ewma_tau", o.utilization_ewma_tau,
      "a finite value > 0");
  check_option(o.initial_gamma >= 0.0 && o.initial_gamma <= 1.0, kRun,
               "initial_gamma", o.initial_gamma, "a value in [0, 1]");
  if (o.fixed_gamma)
    check_option(*o.fixed_gamma >= 0.0 && *o.fixed_gamma <= 1.0, kRun,
                 "fixed_gamma", *o.fixed_gamma, "a value in [0, 1]");
  check_option(std::isfinite(o.sample_interval) && o.sample_interval >= 0.0,
               kRun, "sample_interval", o.sample_interval,
               "a finite value >= 0");
  check_option(o.stream_log.empty() || o.sample_interval > 0.0, kRun,
               "sample_interval", o.sample_interval,
               "a value > 0 with a stream_log (windows are cut at the "
               "observation grid)");
  check_option(std::isfinite(o.epoch_period) && o.epoch_period >= 0.0, kRun,
               "epoch_period", o.epoch_period, "a finite value >= 0");
  check_option(o.epoch_period == 0.0 || o.on_epoch || o.on_cluster_epoch, kRun,
               "epoch_period", o.epoch_period,
               "0 without an on_epoch or on_cluster_epoch callback");
  // Each cadence is walked one grid instant at a time (`next += interval`),
  // and a sampled run keeps one TimelinePoint per instant: 2^20 instants
  // bound both, and keep the cadence far above the ulp of the running time.
  const double t_end = o.warmup + o.horizon;
  const double min_cadence = t_end * 0x1p-20;
  const std::string cadence_range =
      "0 or a value >= " + obs::meta_double(min_cadence) +
      " (at most 2^20 grid instants in warmup + horizon = " +
      obs::meta_double(t_end) + ")";
  check_option(o.sample_interval == 0.0 || o.sample_interval >= min_cadence,
               kRun, "sample_interval", o.sample_interval, cadence_range);
  check_option(o.epoch_period == 0.0 || o.epoch_period >= min_cadence, kRun,
               "epoch_period", o.epoch_period, cadence_range);
  check_option(
      o.transport != TransportKind::kTcp || !o.worker_addresses.empty(), kRun,
      "worker_addresses", "empty", "one host:port per rank with transport=tcp");
  o.topology.check();
  service_ = make_service_sampler(o.service);
  latency_ = make_latency_sampler(o.latency);
  n_initial_ = users_.size();
  // The event queue carries a device id, or a fault's index in a shard's
  // view of the schedule, in a 20-bit field.
  constexpr std::size_t kMaxDevices = EventQueue::kMaxDevices;
  static_assert(fault::FaultSchedule::kMaxChurnCount == kMaxDevices);
  constexpr std::string_view kLimit =
      "a value <= 1048576 (2^20, the event queue's device field)";
  if (o.faults && !o.faults->empty()) {
    check_option(o.faults->size() <= kMaxDevices, kRun, "fault actions",
                 o.faults->size(), kLimit);
    o.faults->check(n_initial_);
    for (const fault::FaultAction& a : o.faults->actions())
      if (a.cluster != fault::FaultAction::kAllClusters &&
          a.cluster >= o.topology.clusters)
        throw ContractViolation(
            "MecSimulation: faults names cluster " + std::to_string(a.cluster) +
            ", expected a cluster below topology.clusters (" +
            std::to_string(o.topology.clusters) + ")");
    const std::vector<core::UserParams> joiners = o.faults->churn_users();
    users_.insert(users_.end(), joiners.begin(), joiners.end());
  }
  check_option(users_.size() <= kMaxDevices, kRun, "devices", users_.size(),
               kLimit);
  for (const auto& u : users_) u.check();
}

void check_driver_options(const SimulationOptions& options,
                          double update_period, std::string_view driver,
                          bool steers_on_gamma) {
  check_option(std::isfinite(update_period) && update_period > 0.0, driver,
               "update_period", update_period, "a finite value > 0");
  check_option(options.epoch_period == 0.0, driver, "epoch_period",
               options.epoch_period, "0 (the driver sets it to update_period)");
  check_option(!options.on_epoch, driver, "on_epoch", "set",
               "unset (the driver installs its own)");
  check_option(!options.on_cluster_epoch, driver, "on_cluster_epoch", "set",
               "unset (the driver installs its own)");
  check_option(!steers_on_gamma || !options.fixed_gamma, driver, "fixed_gamma",
               options.fixed_gamma.value_or(0.0),
               "unset (the driver steers on measured utilization)");
}

SimulationResult MecSimulation::run_tro(
    std::span<const double> thresholds) const {
  SimWorkspace workspace;
  return run_tro(thresholds, workspace);
}

SimulationResult MecSimulation::run_tro(std::span<const double> thresholds,
                                        SimWorkspace& workspace) const {
  return dispatch(OffloadRule::kTro, thresholds, workspace);
}

SimulationResult MecSimulation::run_dpo(std::span<const double> rhos) const {
  SimWorkspace workspace;
  return dispatch(OffloadRule::kDpo, rhos, workspace);
}

}  // namespace mec::sim
