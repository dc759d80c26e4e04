// Text-format fault schedules.
//
// Lets users describe an environment trajectory in a small file (or inline
// `fault =` lines of a scenario config) and replay it against any tool:
//
//     # brownout.fault
//     capacity 150 0.6          # at t=150 s the edge drops to 60%
//     capacity 300 1.0          # full recovery at t=300 s
//     outage 50 60 reject       # offloads fail (run locally) in [50, 60)
//     outage 80 90 penalty 0.5  # offloads pay +0.5 s latency in [80, 90)
//     crash 10 3                # device 3 dies at t=10, queue lost
//     restart 40 3              # ... and comes back empty at t=40
//     churn 0 400 0.5 0.3 7     # joins at 0.5/s, departures at 0.3/s,
//                               # on [0, 400), materialized from seed 7
//
// Lines are `<verb> <args...>`; '#' starts a comment; blank lines are
// ignored.  `churn` draws joining users from a scenario's distributions, so
// parsing a schedule containing churn requires the scenario it will run
// against.
#pragma once

#include <string>

#include "mec/fault/fault_schedule.hpp"
#include "mec/population/scenario.hpp"

namespace mec::fault {

/// Parses a schedule from config text. `churn_scenario` supplies the
/// distributions that churn joins draw from; passing nullptr makes `churn`
/// lines an error.  Throws mec::RuntimeError with a line-numbered message
/// on any syntax or semantic problem.
FaultSchedule parse_fault_schedule(
    const std::string& text,
    const population::ScenarioConfig* churn_scenario = nullptr);

/// Parses `scenario`'s embedded `fault =` lines (an empty schedule when it
/// has none), with the scenario as the churn scenario.
FaultSchedule embedded_fault_schedule(
    const population::ScenarioConfig& scenario);

/// Reads and parses a fault-schedule file.
FaultSchedule load_fault_schedule_file(
    const std::string& path,
    const population::ScenarioConfig* churn_scenario = nullptr);

}  // namespace mec::fault
