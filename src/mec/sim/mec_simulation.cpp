// Public simulation API: validation, population assembly, and dispatch into
// the layered engine (see engine.hpp).  The event loop itself, the device
// model, the policy fast paths, the edge coupling, and the fault plan all
// live in their own layer headers/TUs — this file only composes them.
#include "mec/sim/mec_simulation.hpp"

#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/sim/engine.hpp"

namespace mec::sim {

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

namespace {

/// Picks the fault-free or fault-aware instantiation of the engine.
template <class Decide>
SimulationResult dispatch_run(const std::vector<core::UserParams>& users,
                              std::size_t n_initial, double capacity,
                              const core::EdgeDelay& delay,
                              const SimulationOptions& options,
                              SimWorkspace::Impl& ws, const Decide& decide) {
  if (options.faults && !options.faults->empty())
    return engine::run_sharded<true>(users, n_initial, capacity, delay,
                                     options, ws, decide);
  return engine::run_sharded<false>(users, n_initial, capacity, delay, options,
                                    ws, decide);
}

}  // namespace

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
  MEC_EXPECTS(options_.warmup >= 0.0);
  MEC_EXPECTS(options_.horizon > 0.0);
  MEC_EXPECTS(options_.utilization_ewma_tau > 0.0);
  MEC_EXPECTS(options_.initial_gamma >= 0.0 && options_.initial_gamma <= 1.0);
  MEC_EXPECTS(options_.sample_interval >= 0.0);
  MEC_EXPECTS(options_.epoch_period >= 0.0);
  MEC_EXPECTS_MSG(options_.epoch_period == 0.0 ||
                      static_cast<bool>(options_.on_epoch) ||
                      static_cast<bool>(options_.on_cluster_epoch),
                  "epoch_period needs an on_epoch or on_cluster_epoch "
                  "callback");
  options_.topology.check();
  MEC_EXPECTS_MSG(options_.stream_log.empty() || options_.sample_interval > 0.0,
                  "stream_log needs sample_interval > 0 (windows are cut at "
                  "the observation grid)");
  if (options_.fixed_gamma)
    MEC_EXPECTS(*options_.fixed_gamma >= 0.0 && *options_.fixed_gamma <= 1.0);
  MEC_EXPECTS_MSG(!(options_.service && options_.service_spec),
                  "set SimulationOptions::service or service_spec, not both");
  MEC_EXPECTS_MSG(!(options_.latency && options_.latency_spec),
                  "set SimulationOptions::latency or latency_spec, not both");
  if (!options_.service) {
    if (!options_.service_spec) options_.service_spec.emplace();
    options_.service = make_service_sampler(*options_.service_spec);
  }
  if (!options_.latency) {
    if (!options_.latency_spec) options_.latency_spec.emplace();
    options_.latency = make_latency_sampler(*options_.latency_spec);
  }
  if (options_.transport == TransportKind::kTcp)
    MEC_EXPECTS_MSG(!options_.worker_addresses.empty(),
                    "transport=tcp needs worker_addresses (one host:port per "
                    "rank)");
  if (options_.transport != TransportKind::kInProcess)
    MEC_EXPECTS_MSG(
        options_.service_spec && options_.latency_spec,
        "transport=process and transport=tcp need wire-describable samplers: "
        "set service_spec/latency_spec instead of raw service/latency "
        "closures (a closure cannot be shipped to a worker rank)");
  n_initial_ = users_.size();
  if (options_.faults && !options_.faults->empty()) {
    options_.faults->check(n_initial_);
    for (const fault::FaultAction& a : options_.faults->actions())
      MEC_EXPECTS_MSG(a.cluster == fault::FaultAction::kAllClusters ||
                          a.cluster < options_.topology.clusters,
                      "fault action targets a cluster outside the topology");
    const std::vector<core::UserParams> joiners = options_.faults->churn_users();
    users_.insert(users_.end(), joiners.begin(), joiners.end());
    MEC_EXPECTS_MSG(users_.size() < (std::size_t{1} << 20),
                    "population incl. churn must fit the packed event layout");
    MEC_EXPECTS_MSG(options_.faults->size() < (std::size_t{1} << 20),
                    "fault schedule must fit the packed event layout");
  }
  for (const auto& u : users_) u.check();
}

SimulationResult MecSimulation::run(
    std::span<const std::unique_ptr<OffloadPolicy>> policies) const {
  SimWorkspace workspace;
  return run(policies, workspace);
}

SimulationResult MecSimulation::run(
    std::span<const std::unique_ptr<OffloadPolicy>> policies,
    SimWorkspace& workspace) const {
  MEC_EXPECTS(policies.size() == users_.size());
  for (const auto& p : policies) MEC_EXPECTS(p != nullptr);

  // Seal the arrival decision when the whole population is TRO-family; any
  // non-threshold policy falls back to per-arrival virtual dispatch.
  std::vector<const double*>& thresholds = workspace.impl_->threshold_ptrs;
  thresholds.clear();
  thresholds.reserve(policies.size());
  for (const auto& p : policies) {
    const double* threshold = p->tro_threshold();
    if (threshold == nullptr) break;
    thresholds.push_back(threshold);
  }
  if (thresholds.size() == policies.size())
    return dispatch_run(users_, n_initial_, capacity_, delay_, options_,
                        *workspace.impl_, TroPointerDecide{thresholds.data()});
  return dispatch_run(users_, n_initial_, capacity_, delay_, options_,
                      *workspace.impl_, VirtualDecide{policies.data()});
}

SimulationResult MecSimulation::run_tro(
    std::span<const double> thresholds) const {
  SimWorkspace workspace;
  return run_tro(thresholds, workspace);
}

SimulationResult MecSimulation::run_tro(std::span<const double> thresholds,
                                        SimWorkspace& workspace) const {
  MEC_EXPECTS(thresholds.size() == users_.size());
  for (const double x : thresholds) MEC_EXPECTS(x >= 0.0);
  return dispatch_run(users_, n_initial_, capacity_, delay_, options_,
                      *workspace.impl_, TroValueDecide{thresholds.data()});
}

SimulationResult MecSimulation::run_dpo(std::span<const double> rhos) const {
  MEC_EXPECTS(rhos.size() == users_.size());
  std::vector<std::unique_ptr<OffloadPolicy>> policies;
  policies.reserve(rhos.size());
  for (const double rho : rhos) policies.push_back(make_dpo_policy(rho));
  return run(policies);
}

DesUtilizationSource::DesUtilizationSource(
    std::span<const core::UserParams> users, double capacity,
    core::EdgeDelay delay, SimulationOptions options)
    : users_(users.begin(), users.end()),
      capacity_(capacity),
      delay_(std::move(delay)),
      options_(std::move(options)) {
  MEC_EXPECTS(!users_.empty());
  MEC_EXPECTS(capacity_ > 0.0);
  MEC_EXPECTS(delay_.valid());
}

double DesUtilizationSource::utilization(std::span<const double> thresholds) {
  SimulationOptions run_options = options_;
  // Decorrelate successive DTU iterations while staying deterministic.
  run_options.seed = options_.seed + 0x9E3779B97F4A7C15ULL * ++call_count_;
  // Successive oracle calls would clobber one stream log; streaming belongs
  // to a directly-configured run, not the DTU's inner loop.
  run_options.stream_log.clear();
  MecSimulation simulation(users_, capacity_, delay_, std::move(run_options));
  last_ = simulation.run_tro(thresholds, workspace_);
  return last_->measured_utilization;
}

const SimulationResult& DesUtilizationSource::last_result() const {
  MEC_EXPECTS_MSG(last_.has_value(),
                  "last_result() before any utilization() call");
  return *last_;
}

}  // namespace mec::sim
