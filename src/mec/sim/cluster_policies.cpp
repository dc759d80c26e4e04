#include "mec/sim/cluster_policies.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "mec/common/error.hpp"

namespace mec::sim {

namespace {

/// Threshold of a device whose cluster the minority game deactivated.  No
/// queue reaches 2^63, so tro_offload keeps every arrival local and draws
/// nothing: "keep every task local" is TRO at x = infinity.
constexpr double kInactiveThreshold = 0x1p63;

}  // namespace

PriceBasedResult run_price_based(std::span<const core::UserParams> users,
                                 double capacity,
                                 const core::EdgeDelay& delay,
                                 const PriceBasedOptions& options) {
  constexpr std::string_view kRun = "run_price_based";
  check_driver_options(options, options.update_period, kRun,
                       /*steers_on_gamma=*/true);
  check_option(options.gamma_target > 0.0 && options.gamma_target <= 1.0, kRun,
               "gamma_target", options.gamma_target, "a value in (0, 1]");
  check_option(options.price_step >= 0.0, kRun, "price_step",
               options.price_step, "a value >= 0");
  check_option(options.max_price >= 0.0, kRun, "max_price", options.max_price,
               "a value >= 0");

  const std::size_t clusters = options.topology.clusters;
  std::vector<double> prices(clusters, 0.0);

  // The population (churn joiners included), each device's priceless
  // offload handicap tau + w*(p_E - p_L), and the threshold array the
  // simulation decides on; all are bound once the simulation is built.
  std::span<const core::UserParams> population;
  std::vector<double> base_costs;
  std::vector<double> thresholds;
  const auto refresh_thresholds = [&] {
    // Offload iff w*p_E + tau + price < w*p_L + (q+1)/s, i.e. iff the local
    // queue exceeds x = s*(base + price) - 1.  The max keeps a deeply
    // subsidized edge at "offload everything" instead of a negative
    // threshold.
    for (std::size_t n = 0; n < population.size(); ++n) {
      const double price =
          prices[options.topology.route(static_cast<std::uint32_t>(n))];
      thresholds[n] = std::max(
          0.0, population[n].service_rate * (base_costs[n] + price) - 1.0);
    }
  };

  PriceBasedResult result;

  SimulationOptions so = options;
  so.epoch_period = options.update_period;
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

  const MecSimulation simulation(users, capacity, delay, std::move(so));
  population = simulation.users();
  base_costs.reserve(population.size());
  for (const core::UserParams& u : population)
    base_costs.push_back(u.offload_latency +
                         u.weight * (u.energy_offload - u.energy_local));
  thresholds.resize(population.size());
  refresh_thresholds();
  result.run = simulation.run_tro(thresholds);
  result.final_prices = std::move(prices);
  return result;
}

MinorityGameRunResult run_minority_game(
    std::span<const core::UserParams> users, double capacity,
    const core::EdgeDelay& delay, const MinorityGameRunOptions& options) {
  constexpr std::string_view kRun = "run_minority_game";
  check_driver_options(options, options.update_period, kRun,
                       /*steers_on_gamma=*/false);
  options.topology.check();

  MinorityGameConfig game_config = options.game;
  game_config.agents = options.topology.clusters;
  MinorityGame game(game_config);

  // The array the simulation decides on.  Every cluster starts active, so
  // it starts as the caller's thresholds; the epoch callback rewrites it
  // after each game step.
  std::vector<double> thresholds = options.thresholds;

  MinorityGameRunResult result;

  SimulationOptions so = options;
  so.epoch_period = options.update_period;
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

  const MecSimulation simulation(users, capacity, delay, std::move(so));
  check_option(thresholds.size() == simulation.total_devices(), kRun,
               "thresholds.size()", thresholds.size(),
               "one threshold per device, churn joiners included (" +
                   std::to_string(simulation.total_devices()) + ")");
  result.run = simulation.run_tro(thresholds);

  if (!result.attendance.empty()) {
    double acc = 0.0;
    for (const std::size_t a : result.attendance)
      acc += static_cast<double>(a);
    result.mean_attendance =
        acc / static_cast<double>(result.attendance.size());
  }
  return result;
}

}  // namespace mec::sim
