#include "mec/fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"

namespace mec::fault {

void FaultSchedule::insert(FaultAction action) {
  MEC_EXPECTS(std::isfinite(action.time));
  MEC_EXPECTS(action.time >= 0.0);
  // Stable by time: equal-time actions keep insertion order, matching the
  // event queue's (time, seq) tie-break once they are scheduled.
  const auto at = std::upper_bound(
      actions_.begin(), actions_.end(), action.time,
      [](double t, const FaultAction& a) { return t < a.time; });
  actions_.insert(at, std::move(action));
}

void FaultSchedule::add_capacity_scale(double time, double scale,
                                       std::uint16_t cluster) {
  MEC_EXPECTS_MSG(scale > 0.0, "capacity scale must be positive");
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kCapacityScale;
  a.value = scale;
  a.cluster = cluster;
  insert(a);
}

void FaultSchedule::add_outage(double begin, double end, OutageMode mode,
                               double penalty) {
  MEC_EXPECTS_MSG(begin >= 0.0 && begin < end, "outage needs 0 <= begin < end");
  MEC_EXPECTS(penalty >= 0.0);
  FaultAction open;
  open.time = begin;
  open.kind = FaultKind::kOutageBegin;
  open.outage_mode = mode;
  open.value = penalty;
  insert(open);
  FaultAction close;
  close.time = end;
  close.kind = FaultKind::kOutageEnd;
  insert(close);
}

void FaultSchedule::add_crash(double time, std::uint32_t device) {
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kDeviceCrash;
  a.device = device;
  insert(a);
}

void FaultSchedule::add_restart(double time, std::uint32_t device) {
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kDeviceRestart;
  a.device = device;
  insert(a);
}

void FaultSchedule::add_user_arrival(double time,
                                     const core::UserParams& user) {
  user.check();
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kUserArrival;
  a.user = user;
  insert(a);
  ++churn_arrivals_;
}

void FaultSchedule::add_user_departure(double time, double selector) {
  MEC_EXPECTS_MSG(selector >= 0.0 && selector < 1.0,
                  "departure selector must be in [0, 1)");
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kUserDeparture;
  a.value = selector;
  insert(a);
}

void FaultSchedule::add_poisson_churn(
    const population::ScenarioConfig& scenario, double arrival_rate,
    double departure_rate, double t_begin, double t_end, std::uint64_t seed) {
  MEC_EXPECTS_MSG(t_begin >= 0.0 && t_begin < t_end,
                  "churn window needs 0 <= t_begin < t_end");
  MEC_EXPECTS(arrival_rate >= 0.0);
  MEC_EXPECTS(departure_rate >= 0.0);
  scenario.check();
  random::Xoshiro256 rng(seed);
  // Joins: a Poisson(arrival_rate) process whose marks are users drawn
  // exactly as population::sample_population draws them (same field order,
  // same redraw-at-zero rules), so churn users are exchangeable with the
  // initial population.
  if (arrival_rate > 0.0) {
    for (double t = t_begin + random::exponential(rng, arrival_rate);
         t < t_end; t += random::exponential(rng, arrival_rate)) {
      core::UserParams u;
      do {
        u.arrival_rate = scenario.arrival.sample(rng);
      } while (u.arrival_rate <= 0.0);
      do {
        u.service_rate = scenario.service.sample(rng);
      } while (u.service_rate <= 0.0);
      u.offload_latency = scenario.latency.sample(rng);
      u.energy_local = scenario.energy_local.sample(rng);
      u.energy_offload = scenario.energy_offload.sample(rng);
      if (scenario.weight_dist.valid()) {
        do {
          u.weight = scenario.weight_dist.sample(rng);
        } while (u.weight <= 0.0);
      } else {
        u.weight = scenario.weight;
      }
      add_user_arrival(t, u);
    }
  }
  if (departure_rate > 0.0) {
    for (double t = t_begin + random::exponential(rng, departure_rate);
         t < t_end; t += random::exponential(rng, departure_rate)) {
      add_user_departure(t, random::uniform01(rng));
    }
  }
}

std::vector<core::UserParams> FaultSchedule::churn_users() const {
  std::vector<core::UserParams> users;
  users.reserve(churn_arrivals_);
  for (const FaultAction& a : actions_)
    if (a.kind == FaultKind::kUserArrival) users.push_back(a.user);
  return users;
}

double FaultSchedule::capacity_scale_at(double time) const noexcept {
  double scale = 1.0;
  for (const FaultAction& a : actions_) {
    if (a.time > time) break;
    if (a.kind == FaultKind::kCapacityScale &&
        a.cluster == FaultAction::kAllClusters)
      scale = a.value;
  }
  return scale;
}

void FaultSchedule::check(std::size_t n_initial_devices) const {
  bool outage_open = false;
  for (const FaultAction& a : actions_) {
    switch (a.kind) {
      case FaultKind::kDeviceCrash:
      case FaultKind::kDeviceRestart:
        MEC_EXPECTS_MSG(a.device < n_initial_devices,
                        "crash/restart targets an out-of-range device");
        break;
      case FaultKind::kOutageBegin:
        MEC_EXPECTS_MSG(!outage_open, "overlapping outage windows");
        outage_open = true;
        break;
      case FaultKind::kOutageEnd:
        MEC_EXPECTS_MSG(outage_open, "outage end without a begin");
        outage_open = false;
        break;
      default:
        break;
    }
  }
  MEC_EXPECTS_MSG(!outage_open, "unterminated outage window");
}

}  // namespace mec::fault
