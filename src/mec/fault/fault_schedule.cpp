#include "mec/fault/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string_view>

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"

namespace mec::fault {

namespace {

// Refuses a field by name: "<field> is <value>, expected <range>".
void check_field(bool ok, std::string_view field, double value,
                 std::string_view expected) {
  if (ok) return;
  std::ostringstream os;
  os << field << " is " << value << ", expected " << expected;
  throw ContractViolation(os.str());
}

void check_time(double time) {
  check_field(std::isfinite(time) && time >= 0.0, "time", time,
              "a finite value >= 0");
}

bool earlier(const FaultAction& a, const FaultAction& b) {
  return a.time < b.time;
}

FaultAction user_arrival(double time, const core::UserParams& user) {
  user.check();
  check_time(time);
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kUserArrival;
  a.user = user;
  return a;
}

FaultAction user_departure(double time, double selector) {
  MEC_EXPECTS_MSG(selector >= 0.0 && selector < 1.0,
                  "departure selector must be in [0, 1)");
  check_time(time);
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kUserDeparture;
  a.value = selector;
  return a;
}

// Refuses a process whose expected count no run can hold, before any draw:
// each join adds a device and each effective departure retires a distinct
// one, and no run holds more than 2^20 devices.
void check_churn_count(double rate, double t_begin, double t_end,
                       const char* what) {
  const double expected = rate * (t_end - t_begin);
  if (expected <= static_cast<double>(FaultSchedule::kMaxChurnCount)) return;
  std::ostringstream os;
  os << "expected " << expected << ' ' << what << " (rate " << rate
     << " over [" << t_begin << ", " << t_end << ")), expected at most "
     << FaultSchedule::kMaxChurnCount << " (2^20, the device ceiling)";
  throw ContractViolation(os.str());
}

}  // namespace

void FaultSchedule::insert(FaultAction action) {
  check_time(action.time);
  // Stable by time: equal-time actions keep insertion order, matching the
  // event queue's (time, seq) tie-break once they are scheduled.
  const auto at = std::upper_bound(actions_.begin(), actions_.end(), action,
                                   earlier);
  actions_.insert(at, std::move(action));
}

void FaultSchedule::add_capacity_scale(double time, double scale,
                                       std::uint16_t cluster) {
  check_field(scale > 0.0, "scale", scale, "a value > 0");
  FaultAction a;
  a.time = time;
  a.kind = FaultKind::kCapacityScale;
  a.value = scale;
  a.cluster = cluster;
  insert(a);
}

void FaultSchedule::add_outage(double begin, double end, OutageMode mode,
                               double penalty) {
  check_field(std::isfinite(end), "end", end, "a finite value");
  if (!(begin >= 0.0 && begin < end)) {
    std::ostringstream range;
    range << "a value in [0, end) = [0, " << end << ")";
    check_field(false, "begin", begin, range.str());
  }
  check_field(penalty >= 0.0, "penalty", penalty, "a value >= 0");
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
  insert(user_arrival(time, user));
  ++churn_arrivals_;
}

void FaultSchedule::add_user_departure(double time, double selector) {
  insert(user_departure(time, selector));
}

void FaultSchedule::add_poisson_churn(
    const population::ScenarioConfig& scenario, double arrival_rate,
    double departure_rate, double t_begin, double t_end, std::uint64_t seed) {
  check_field(std::isfinite(t_end), "t_end", t_end, "a finite value");
  check_field(t_begin >= 0.0 && t_begin < t_end, "t_begin", t_begin,
              "a value in [0, t_end)");
  check_field(std::isfinite(arrival_rate) && arrival_rate >= 0.0,
              "arrival rate", arrival_rate, "a finite value >= 0");
  check_field(std::isfinite(departure_rate) && departure_rate >= 0.0,
              "departure rate", departure_rate, "a finite value >= 0");
  check_churn_count(arrival_rate, t_begin, t_end, "joins");
  check_churn_count(departure_rate, t_begin, t_end, "departures");
  scenario.check();
  random::Xoshiro256 rng(seed);
  // Each process is drawn in time order into its own vector, then merged
  // into the schedule once.  A stable merge puts an existing action ahead
  // of a drawn one at the same time, where one insert per action would put
  // it, and a refused draw leaves the schedule as it was.
  //
  // Joins: a Poisson(arrival_rate) process whose marks are users drawn
  // exactly as population::sample_population draws them (same field order,
  // same redraw-at-zero rules), so churn users are exchangeable with the
  // initial population.
  std::vector<FaultAction> joins;
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
      joins.push_back(user_arrival(t, u));
    }
  }
  std::vector<FaultAction> departures;
  if (departure_rate > 0.0) {
    for (double t = t_begin + random::exponential(rng, departure_rate);
         t < t_end; t += random::exponential(rng, departure_rate)) {
      departures.push_back(user_departure(t, random::uniform01(rng)));
    }
  }
  for (std::vector<FaultAction>* drawn : {&joins, &departures}) {
    const auto mid =
        actions_.insert(actions_.end(), std::make_move_iterator(drawn->begin()),
                        std::make_move_iterator(drawn->end()));
    std::inplace_merge(actions_.begin(), mid, actions_.end(), earlier);
  }
  churn_arrivals_ += joins.size();
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
        if (a.device >= n_initial_devices) {
          std::ostringstream os;
          os << "fault schedule: "
             << (a.kind == FaultKind::kDeviceCrash ? "crash" : "restart")
             << " at t=" << a.time << ": device is " << a.device
             << ", expected an index < " << n_initial_devices
             << " (the initial population)";
          throw ContractViolation(os.str());
        }
        break;
      case FaultKind::kOutageBegin:
        if (outage_open) {
          std::ostringstream os;
          os << "fault schedule: outage at t=" << a.time
             << " begins inside another outage, expected outage windows "
                "that do not overlap";
          throw ContractViolation(os.str());
        }
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
