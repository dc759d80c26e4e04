// Cluster-aware policy families layered on the multi-cluster edge topology:
//
//   price-based offloading  — each cluster posts a congestion price, updated
//       by dual ascent toward a target utilization at epoch barriers
//       (cf. Liu & Liu, price-based distributed offloading).  A device
//       compares its marginal local cost w*p_L + (q+1)/s against the priced
//       offload cost w*p_E + tau + price and offloads when the edge is
//       cheaper — which is exactly a TRO threshold rule with threshold
//       x_n(price) = max(0, s_n*(tau_n + w_n*(p_E - p_L) + price) - 1), so
//       run_price_based runs run_tro over a threshold array that its epoch
//       callback rewrites after every price update.
//
//   minority-game activation — each cluster is an agent of a deterministic
//       minority game (see minority_game.hpp); clusters on the minority
//       side stay active for the next epoch (Ranadheera et al., server
//       activation via minority games).  Devices of an active cluster
//       apply their own TRO threshold; devices of an inactive one get
//       threshold 2^63, which no queue reaches, so they keep every task
//       local and draw nothing.  run_minority_game runs run_tro over a
//       threshold array that its epoch callback rewrites after every game
//       step.
//
// Determinism contract (both families): decision state — prices and
// activation flags, and the thresholds derived from them — mutates only
// inside on_cluster_epoch, i.e. at observation-grid barriers where all
// shards are parked, so runs are bit-identical for every shard count.
// Both families decide through the TRO rule on one threshold array, which
// the coordinator hands to framed ranks after every epoch, so both run on
// every transport with the in-process results and stream bytes.
//
// Each driver's options are a SimulationOptions plus its controller's
// parameters.  Every SimulationOptions field applies as in any run, except
// that epoch_period, on_epoch and on_cluster_epoch belong to the driver
// and are refused by name, and the price driver, which steers on measured
// utilization, refuses fixed_gamma.  The minority game ignores gamma, so
// it honours fixed_gamma.
#pragma once

#include <span>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/sim/mec_simulation.hpp"
#include "mec/sim/minority_game.hpp"

namespace mec::sim {

// --- price-based driver ----------------------------------------------------

/// A price-based run: the simulation it runs plus the dual ascent's
/// parameters.  Every cluster starts at price 0.
struct PriceBasedOptions : SimulationOptions {
  /// Per-cluster utilization target of the dual ascent; the equilibrium
  /// gamma_star of the scenario is the natural choice.  In (0, 1].
  double gamma_target = 0.5;
  double price_step = 2.0;     ///< ascent step per unit utilization error
  double max_price = 50.0;     ///< clamp ceiling (floor is 0)
  double update_period = 5.0;  ///< seconds between price updates, > 0
};

struct PriceBasedResult {
  std::vector<double> final_prices;            ///< one per cluster
  std::vector<std::vector<double>> price_epochs;  ///< per epoch, per cluster
  std::vector<std::vector<double>> gamma_epochs;  ///< observed at each epoch
  SimulationResult run;
};

/// Runs one simulation under the price-based policy family: devices hold
/// price-modulated TRO thresholds, and every cluster's price moves by
/// price_step * (gamma_k - gamma_target) (clamped to [0, max_price]) at
/// each epoch barrier, after which every device's threshold is recomputed.
PriceBasedResult run_price_based(std::span<const core::UserParams> users,
                                 double capacity,
                                 const core::EdgeDelay& delay,
                                 const PriceBasedOptions& options);

// --- minority-game driver --------------------------------------------------

/// A minority-game run: the simulation it runs plus the game and the
/// thresholds of devices whose cluster is active.
struct MinorityGameRunOptions : SimulationOptions {
  MinorityGameConfig game{};  ///< agents is overwritten with topology.clusters
  /// Per-device TRO thresholds applied while the device's cluster is
  /// active; must cover the population incl. churn joiners.
  std::vector<double> thresholds{};
  double update_period = 5.0;  ///< seconds between game rounds, > 0
};

struct MinorityGameRunResult {
  std::vector<std::size_t> attendance;  ///< active clusters per epoch
  double mean_attendance = 0.0;
  SimulationResult run;
};

/// Runs one simulation under minority-game server activation: the game is
/// stepped at every epoch barrier, and each device's threshold is set to
/// its own (active cluster) or to 2^63 (inactive cluster) from its agent's
/// chosen side.
MinorityGameRunResult run_minority_game(
    std::span<const core::UserParams> users, double capacity,
    const core::EdgeDelay& delay, const MinorityGameRunOptions& options);

}  // namespace mec::sim
