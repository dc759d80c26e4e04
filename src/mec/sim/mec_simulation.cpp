// Public simulation API: validation, population assembly, and dispatch into
// the layered engine (see engine.hpp).  The event loop itself, the device
// model, the policy fast paths, the edge coupling, and the fault plan all
// live in their own layer headers/TUs — this file only composes them.
#include "mec/sim/mec_simulation.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/sim/engine.hpp"

namespace mec::sim {

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

/// Picks the fault-free or fault-aware instantiation of the engine.
template <class Decide>
SimulationResult MecSimulation::dispatch(SimWorkspace& workspace,
                                         const Decide& decide) const {
  if (options_.faults && !options_.faults->empty())
    return engine::run_sharded<true>(users_, n_initial_, capacity_, delay_,
                                     options_, service_, latency_,
                                     *workspace.impl_, decide);
  return engine::run_sharded<false>(users_, n_initial_, capacity_, delay_,
                                    options_, service_, latency_,
                                    *workspace.impl_, decide);
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
  service_ = make_service_sampler(options_.service);
  latency_ = make_latency_sampler(options_.latency);
  if (options_.transport == TransportKind::kTcp)
    MEC_EXPECTS_MSG(!options_.worker_addresses.empty(),
                    "transport=tcp needs worker_addresses (one host:port per "
                    "rank)");
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

SimulationResult MecSimulation::run_tro(
    std::span<const double> thresholds) const {
  SimWorkspace workspace;
  return run_tro(thresholds, workspace);
}

SimulationResult MecSimulation::run_tro(std::span<const double> thresholds,
                                        SimWorkspace& workspace) const {
  MEC_EXPECTS(thresholds.size() == users_.size());
  engine::check_thresholds(thresholds, "run_tro");
  return dispatch(workspace, TroValueDecide{thresholds.data()});
}

SimulationResult MecSimulation::run_dpo(std::span<const double> rhos) const {
  MEC_EXPECTS(rhos.size() == users_.size());
  for (std::size_t d = 0; d < rhos.size(); ++d) {
    if (rhos[d] >= 0.0 && rhos[d] <= 1.0) continue;
    std::ostringstream os;
    os << "run_dpo: device " << d << " has offload probability " << rhos[d]
       << ", expected a value in [0, 1]";
    throw ContractViolation(os.str());
  }
  SimWorkspace workspace;
  return dispatch(workspace, DpoValueDecide{rhos.data()});
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
