// Deterministic fault-injection and churn schedule for the DES.
//
// A FaultSchedule is a time-sorted list of environment actions — edge
// capacity scaling (brown-outs and recoveries), wireless outage windows,
// per-device crash/restart with queue loss, and user churn (joins drawing
// fresh parameters from the scenario distributions, departures retiring
// devices).  The schedule is *input data*: every stochastic element (churn
// times, joining users' parameters, departure victim selectors) is
// materialized once at build time from its own seed, so a schedule replays
// bit-identically across runs, replications, and thread counts — the
// simulator injects each action as a first-class event into the same
// deterministic future-event list that orders task arrivals and departures
// (see mec/sim/des.hpp: (time, insertion sequence) is a total order).
//
// The fault process is deliberately decoupled from the simulation seed:
// replications explore the simulation noise of one fixed environment
// trajectory, which is the regime studied by the non-stationary mean-field
// offloading literature (re-convergence of the DTU after a known shock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mec/core/user.hpp"
#include "mec/population/scenario.hpp"

namespace mec::fault {

/// What an action does when its time arrives.
enum class FaultKind : std::uint8_t {
  kCapacityScale,   ///< edge capacity becomes `value` x nominal (value > 0)
  kOutageBegin,     ///< wireless outage starts (mode/penalty in the action)
  kOutageEnd,       ///< wireless outage ends
  kDeviceCrash,     ///< `device` dies; its local queue is lost
  kDeviceRestart,   ///< `device` comes back empty and resumes its arrivals
  kUserArrival,     ///< a new user joins with parameters `user`
  kUserDeparture,   ///< an active device (picked by `value`) retires for good
};

/// How offload decisions behave while an outage window is open.
enum class OutageMode : std::uint8_t {
  kReject,   ///< the offload fails; the task is executed locally instead
  kPenalty,  ///< the offload goes through but pays `value` extra latency
};

/// One scheduled environment action.
struct FaultAction {
  /// Sentinel cluster id: the action targets the whole edge (every cluster).
  static constexpr std::uint16_t kAllClusters = 0xFFFF;

  double time = 0.0;
  FaultKind kind = FaultKind::kCapacityScale;
  std::uint32_t device = 0;  ///< crash/restart target (initial-population id)
  /// Capacity scale factor, outage latency penalty, or — for departures —
  /// the victim selector in [0, 1): victim = active[floor(value * active_n)].
  double value = 0.0;
  OutageMode outage_mode = OutageMode::kReject;
  /// kCapacityScale only: a specific cluster's brown-out (its per-cluster
  /// gamma clamp scales, the global capacity accounting does not), or
  /// kAllClusters for the classic whole-edge scale.
  std::uint16_t cluster = kAllClusters;
  core::UserParams user;  ///< parameters of a joining user (kUserArrival)
};

/// A validated, time-sorted fault schedule (actions at equal times keep
/// their insertion order, so construction order is part of the contract).
class FaultSchedule {
 public:
  /// The most joins, or departures, one churn process may expect: no run
  /// holds more than 2^20 devices (the event queue's device field), and
  /// each effective departure retires a distinct device.
  static constexpr std::size_t kMaxChurnCount = std::size_t{1} << 20;

  /// Scales the edge capacity to `scale` x nominal from `time` on.
  /// Requires a finite time >= 0 and scale > 0 (1.0 restores nominal
  /// capacity); like every add_*, a refusal names the field, its value and
  /// the accepted range.
  /// With an explicit `cluster` the brown-out hits only that cluster's
  /// effective capacity (per-cluster gamma clamp); the default targets the
  /// whole edge exactly as before.
  void add_capacity_scale(double time, double scale,
                          std::uint16_t cluster = FaultAction::kAllClusters);

  /// Opens an outage window [begin, end). kPenalty adds `penalty` seconds to
  /// every offload's wireless latency; kReject reroutes offloads to the
  /// local queue. Requires 0 <= begin < end, a finite end and penalty >= 0.
  void add_outage(double begin, double end,
                  OutageMode mode = OutageMode::kReject, double penalty = 0.0);

  /// Crashes `device` (an index into the *initial* population) at `time`:
  /// its local queue is dropped and its arrival stream stops.
  void add_crash(double time, std::uint32_t device);

  /// Restarts a crashed `device` at `time` with an empty queue.
  /// Restarting an alive or retired device is a no-op at run time.
  void add_restart(double time, std::uint32_t device);

  /// A new user joins at `time`. Joined devices are appended to the
  /// population in schedule order (see MecSimulation::total_devices()).
  void add_user_arrival(double time, const core::UserParams& user);

  /// An active device retires at `time`; the victim is
  /// active[floor(selector * active_count)]. Requires selector in [0, 1).
  void add_user_departure(double time, double selector);

  /// Appends a Poisson churn process on [t_begin, t_end): joins at rate
  /// `arrival_rate` (users drawn i.i.d. from the scenario's marginals, as
  /// population::sample_population draws them) and departures at rate
  /// `departure_rate`, all materialized from `seed`.  Rates are per second;
  /// either may be 0.  Requires a finite t_end, 0 <= t_begin < t_end,
  /// finite rates >= 0 and rate * (t_end - t_begin) <= kMaxChurnCount for
  /// each process; a refusal names the field, its value and the limit, and
  /// leaves the schedule unchanged.
  void add_poisson_churn(const population::ScenarioConfig& scenario,
                         double arrival_rate, double departure_rate,
                         double t_begin, double t_end, std::uint64_t seed);

  bool empty() const noexcept { return actions_.empty(); }
  std::size_t size() const noexcept { return actions_.size(); }

  /// All actions, sorted by (time, insertion order).
  std::span<const FaultAction> actions() const noexcept { return actions_; }

  /// Number of kUserArrival actions (devices the simulator appends).
  std::size_t churn_arrivals() const noexcept { return churn_arrivals_; }

  /// Parameters of the joining users, in schedule order — the order their
  /// devices are appended to the population.
  std::vector<core::UserParams> churn_users() const;

  /// Capacity scale in effect immediately *after* `time` (1.0 before the
  /// first kCapacityScale action).
  double capacity_scale_at(double time) const noexcept;

  /// Validates the schedule against a population size: crash/restart
  /// targets must be < n_initial_devices, and outage windows must not
  /// overlap.  Throws mec::ContractViolation naming the action's kind and
  /// time, the device and the initial population size, or the outage.
  void check(std::size_t n_initial_devices) const;

 private:
  void insert(FaultAction action);

  std::vector<FaultAction> actions_;  ///< sorted by (time, insertion order)
  std::size_t churn_arrivals_ = 0;
};

}  // namespace mec::fault
