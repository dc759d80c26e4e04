#include "mec/sim/cluster_policies.hpp"

#include <algorithm>

#include "mec/common/error.hpp"

namespace mec::sim {

namespace {

/// Threshold of a device whose cluster the minority game deactivated.  No
/// queue reaches 2^63, so tro_offload keeps every arrival local and draws
/// nothing: "keep every task local" is TRO at x = infinity.
constexpr double kInactiveThreshold = 0x1p63;

/// Mirrors MecSimulation's churn handling: threshold vectors must cover the
/// initial population plus schedule-order joiners.
std::vector<core::UserParams> with_churn(
    std::span<const core::UserParams> users,
    const std::shared_ptr<const fault::FaultSchedule>& faults) {
  std::vector<core::UserParams> all(users.begin(), users.end());
  if (faults && !faults->empty()) {
    const std::vector<core::UserParams> joiners = faults->churn_users();
    all.insert(all.end(), joiners.begin(), joiners.end());
  }
  return all;
}

}  // namespace

PriceBasedResult run_price_based(std::span<const core::UserParams> users,
                                 double capacity,
                                 const core::EdgeDelay& delay,
                                 const PriceBasedOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(options.update_period > 0.0);
  MEC_EXPECTS(options.gamma_target > 0.0 && options.gamma_target <= 1.0);
  MEC_EXPECTS(options.price_step >= 0.0);
  MEC_EXPECTS(options.max_price >= 0.0);
  options.topology.check();

  const std::vector<core::UserParams> all_users =
      with_churn(users, options.faults);
  const std::size_t clusters = options.topology.clusters;

  std::vector<double> prices(clusters, 0.0);

  // Per-device priceless offload handicap tau + w*(p_E - p_L), and the
  // threshold array the simulation decides on.
  std::vector<double> base_costs;
  base_costs.reserve(all_users.size());
  for (const core::UserParams& u : all_users)
    base_costs.push_back(u.offload_latency +
                         u.weight * (u.energy_offload - u.energy_local));
  std::vector<double> thresholds(all_users.size());
  const auto refresh_thresholds = [&] {
    // Offload iff w*p_E + tau + price < w*p_L + (q+1)/s, i.e. iff the local
    // queue exceeds x = s*(base + price) - 1.  The max keeps a deeply
    // subsidized edge at "offload everything" instead of a negative
    // threshold.
    for (std::size_t n = 0; n < all_users.size(); ++n) {
      const double price =
          prices[options.topology.route(static_cast<std::uint32_t>(n))];
      thresholds[n] = std::max(
          0.0, all_users[n].service_rate * (base_costs[n] + price) - 1.0);
    }
  };
  refresh_thresholds();

  PriceBasedResult result;

  SimulationOptions so;
  so.warmup = options.warmup;
  so.horizon = options.horizon;
  so.seed = options.seed;
  so.service = options.service;
  so.latency = options.latency;
  so.utilization_ewma_tau = options.utilization_ewma_tau;
  so.initial_gamma = options.initial_gamma;
  so.epoch_period = options.update_period;
  so.topology = options.topology;
  so.faults = options.faults;
  so.shards = options.shards;
  so.sample_interval = options.sample_interval;
  so.stream_log = options.stream_log;
  so.stream_counters = options.stream_counters;
  so.record_timeline = options.record_timeline;
  so.on_cluster_epoch = [&](double /*now*/,
                            std::span<const double> cluster_gammas) {
    // Dual ascent on the per-cluster congestion prices, then one threshold
    // refresh per device — all inside the barrier, so every shard count
    // sees the same thresholds on the next leg.
    for (std::size_t k = 0; k < clusters; ++k)
      prices[k] = std::clamp(
          prices[k] + options.price_step *
                          (cluster_gammas[k] - options.gamma_target),
          0.0, options.max_price);
    refresh_thresholds();
    result.price_epochs.push_back(prices);
    result.gamma_epochs.emplace_back(cluster_gammas.begin(),
                                     cluster_gammas.end());
  };

  MecSimulation simulation(users, capacity, delay, std::move(so));
  result.run = simulation.run_tro(thresholds);
  result.final_prices = std::move(prices);
  return result;
}

MinorityGameRunResult run_minority_game(
    std::span<const core::UserParams> users, double capacity,
    const core::EdgeDelay& delay, const MinorityGameRunOptions& options) {
  MEC_EXPECTS(!users.empty());
  MEC_EXPECTS(options.update_period > 0.0);
  options.topology.check();

  const std::vector<core::UserParams> all_users =
      with_churn(users, options.faults);
  MEC_EXPECTS_MSG(options.thresholds.size() == all_users.size(),
                  "minority-game run needs one threshold per device "
                  "(incl. churn joiners)");
  const std::size_t clusters = options.topology.clusters;

  MinorityGameConfig game_config = options.game;
  game_config.agents = clusters;
  MinorityGame game(game_config);

  // The array the simulation decides on.  Every cluster starts active, so
  // it starts as the caller's thresholds; the epoch callback rewrites it
  // after each game step.
  std::vector<double> thresholds = options.thresholds;

  MinorityGameRunResult result;

  SimulationOptions so;
  so.warmup = options.warmup;
  so.horizon = options.horizon;
  so.seed = options.seed;
  so.service = options.service;
  so.latency = options.latency;
  so.utilization_ewma_tau = options.utilization_ewma_tau;
  so.initial_gamma = options.initial_gamma;
  so.epoch_period = options.update_period;
  so.topology = options.topology;
  so.faults = options.faults;
  so.shards = options.shards;
  so.sample_interval = options.sample_interval;
  so.stream_log = options.stream_log;
  so.stream_counters = options.stream_counters;
  so.record_timeline = options.record_timeline;
  so.on_cluster_epoch = [&](double /*now*/,
                            std::span<const double> /*cluster_gammas*/) {
    const std::size_t attendance = game.step();
    const std::vector<std::uint8_t>& active = game.actions();
    for (std::size_t n = 0; n < thresholds.size(); ++n)
      thresholds[n] =
          active[options.topology.route(static_cast<std::uint32_t>(n))] != 0
              ? options.thresholds[n]
              : kInactiveThreshold;
    result.attendance.push_back(attendance);
  };

  MecSimulation simulation(users, capacity, delay, std::move(so));
  result.run = simulation.run_tro(thresholds);

  if (!result.attendance.empty()) {
    double acc = 0.0;
    for (const std::size_t a : result.attendance)
      acc += static_cast<double>(a);
    result.mean_attendance = acc / static_cast<double>(result.attendance.size());
  }
  return result;
}

}  // namespace mec::sim
