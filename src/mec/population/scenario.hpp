// Scenario configurations: the paper's evaluation setups as reusable presets.
//
// Theoretical settings (Section IV-A): all five heterogeneity coordinates are
// uniform; three arrival regimes E[A] < / = / > E[S].
// Practical settings (Section IV-B): S and T are resampled from measured
// datasets (synthetic stand-ins here; see DESIGN.md §5), A uniform in three
// regimes around the dataset's mean service rate E[S] = 8.9437.
//
// The paper does not report the per-user edge capacity c; the presets use
// calibrated values (DESIGN.md §4) chosen so the equilibrium utilizations
// land in the bands of Tables I and II.  Every field remains overridable.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/random/distributions.hpp"

namespace mec::population {

/// Full generative description of a heterogeneous MEC system.
struct ScenarioConfig {
  std::string name;
  random::Distribution arrival;         ///< A
  random::Distribution service;         ///< S
  random::Distribution latency;         ///< T
  random::Distribution energy_local;    ///< P_L
  random::Distribution energy_offload;  ///< P_E
  double weight = 1.0;                  ///< w_n (= 1 in the paper's evaluation)
  /// Optional per-user weight heterogeneity: when set, w_n is sampled from
  /// this distribution (the paper's general model allows 0 < w_n <= w_max)
  /// and the scalar `weight` is ignored.
  random::Distribution weight_dist;
  double capacity = 10.0;               ///< c
  core::EdgeDelay delay;                ///< g(.)
  std::size_t n_users = 10'000;
  /// Edge clusters the capacity is split across (device n feeds cluster
  /// n mod clusters).  1 keeps the classic single-edge model.
  std::size_t clusters = 1;
  /// Optional per-cluster capacity shares; empty means an equal split.
  /// When set, the size must equal `clusters` and the entries must be
  /// positive and sum to 1.
  std::vector<double> cluster_shares;
  /// Raw `fault = <verb> <args...>` lines from the config file, in file
  /// order.  Stored as text (not parsed) so this layer stays independent of
  /// mec/fault/; tools join the lines and hand them to
  /// fault::parse_fault_schedule together with this scenario.
  std::vector<std::string> fault_lines;

  /// Validates model assumptions (distributions set, bounded, capacity > 0).
  void check() const;
};

/// Load regimes used across the paper's tables.
enum class LoadRegime {
  kBelowService,  ///< E[A] <  E[S]
  kAtService,     ///< E[A] == E[S]
  kAboveService,  ///< E[A] >  E[S]
};

/// Human-readable label, e.g. "E[A] < E[S]".
std::string to_string(LoadRegime regime);

/// The regime named "low", "eq" or "high"; throws mec::RuntimeError else.
LoadRegime parse_load_regime(std::string_view name);

/// Section IV-A theoretical settings: A ~ U(0, a_max) with a_max in
/// {4, 6, 8} for the three regimes, S ~ U(1,5), T ~ U(0,1), P_L ~ U(0,3),
/// P_E ~ U(0,1), w = 1, g = 1/(1.1 - gamma), N = 10^4, c = 10.
ScenarioConfig theoretical_scenario(LoadRegime regime,
                                    std::size_t n_users = 10'000);

/// Section IV-C theoretical comparison settings: same as above but
/// T ~ U(0, 5) and N = 10^3.
ScenarioConfig theoretical_comparison_scenario(LoadRegime regime,
                                               std::size_t n_users = 1'000);

/// Section IV-B practical settings: S resampled from the (synthetic)
/// YOLOv3-on-RPi4 service-rate dataset (mean 8.9437), T resampled from the
/// (synthetic) WiFi upload-latency dataset, A ~ U(4,12) / U(7.3474,10.54) /
/// U(8,12), N = 10^3.  `mean_latency` rescales the latency dataset (the raw
/// trace scale is unpublished; see DESIGN.md §5).
ScenarioConfig practical_scenario(LoadRegime regime,
                                  std::size_t n_users = 1'000,
                                  double mean_latency = 0.4);

/// The presets above by the names the tools use, in listing order.
inline constexpr std::array<std::string_view, 3> kPresetNames = {
    "theoretical", "comparison", "practical"};

/// The preset `name` at `regime`; n_users = 0 keeps its own default, and
/// `mean_latency` goes to the practical preset only.  Throws
/// mec::RuntimeError for a name not in kPresetNames.
ScenarioConfig preset_scenario(std::string_view name, LoadRegime regime,
                               std::size_t n_users = 0,
                               double mean_latency = 0.4);

}  // namespace mec::population
