#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/obs/counters.hpp"
#include "suite.hpp"

namespace mec::suite {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw RuntimeError(
      "traced log " + path + ": " + what +
      ". The suite reads engine counters from the traced run, so the library "
      "must be built with MEC_OBS_COUNTERS=ON and every window must be "
      "followed by its counter frame; refusing to report zeros");
}

}  // namespace

std::vector<obs::Counter> required_counters(const Workload& w) {
  using obs::Counter;
  std::vector<Counter> ids = {
      Counter::kShardEvents,       Counter::kShardQueueDepth,
      Counter::kShardCalendarGear, Counter::kShardGearSwitches,
      Counter::kShardCalendarRetunes, Counter::kShardLegSeconds,
      Counter::kBarrierWaitSeconds,   Counter::kReplayRecords,
      Counter::kEventsPerSecond};
  if (w.closed_loop || w.tracked_gamma)
    ids.push_back(Counter::kReplayDeliveries);
  if (w.faults) ids.push_back(Counter::kFaultEventsApplied);
  if (w.process) {
    ids.push_back(Counter::kRankBarrierWaitSeconds);
    ids.push_back(Counter::kRankPayloadBytes);
    ids.push_back(Counter::kTransportFramesSent);
    ids.push_back(Counter::kTransportFramesReceived);
  }
  return ids;
}

TraceCounters read_trace_counters(const obs::LogScan& scan,
                                  const std::string& path,
                                  std::span<const obs::Counter> required) {
  if (!scan.complete())
    fail(path, scan.corrupt ? "corrupt (" + scan.error + ")"
                            : "no footer frame (the run did not finish)");
  if (scan.windows.empty()) fail(path, "no window frames");
  if (scan.counters.size() != scan.windows.size())
    fail(path, std::to_string(scan.counters.size()) + " counter frames for " +
                   std::to_string(scan.windows.size()) + " windows");

  TraceCounters t;
  t.frames = scan.counters.size();
  double depth_sum = 0.0;
  std::size_t depth_samples = 0;
  for (std::size_t f = 0; f < scan.counters.size(); ++f) {
    const std::vector<obs::CounterValue>& frame = scan.counters[f];
    for (const obs::Counter id : required) {
      const auto raw = static_cast<std::uint16_t>(id);
      if (std::none_of(frame.begin(), frame.end(),
                       [raw](const obs::CounterValue& c) {
                         return c.id == raw;
                       }))
        fail(path, "counter frame " + std::to_string(f) + " lacks counter " +
                       std::to_string(raw) + " (" + obs::counter_name(id) +
                       ")");
    }
    const bool last = f + 1 == scan.counters.size();
    double leg_max = 0.0;
    for (const obs::CounterValue& c : frame) {
      switch (static_cast<obs::Counter>(c.id)) {
        case obs::Counter::kShardLegSeconds:
          leg_max = std::max(leg_max, c.value);
          t.leg_busy_s += c.value;
          break;
        case obs::Counter::kShardQueueDepth:
          t.queue_depth_max = std::max(t.queue_depth_max, c.value);
          depth_sum += c.value;
          ++depth_samples;
          break;
        case obs::Counter::kBarrierWaitSeconds:
          t.imbalance_s += c.value;
          break;
        case obs::Counter::kReplayRecords:
          t.replay_records += c.value;
          break;
        case obs::Counter::kRankBarrierWaitSeconds:
          t.rank_wait_s += c.value;
          break;
        default:
          break;
      }
      if (!last) continue;
      // Cumulative counters: their final sample is the run total.
      switch (static_cast<obs::Counter>(c.id)) {
        case obs::Counter::kShardEvents: t.events += c.value; break;
        case obs::Counter::kShardGearSwitches:
          t.gear_switches += c.value;
          break;
        case obs::Counter::kShardCalendarRetunes:
          t.calendar_retunes += c.value;
          break;
        case obs::Counter::kReplayDeliveries:
          t.replay_deliveries = c.value;
          break;
        case obs::Counter::kFaultEventsApplied:
          t.fault_events = c.value;
          break;
        case obs::Counter::kRankPayloadBytes:
          t.payload_bytes += c.value;
          break;
        case obs::Counter::kTransportFramesSent:
          t.frames_sent += c.value;
          break;
        case obs::Counter::kTransportFramesReceived:
          t.frames_received += c.value;
          break;
        default:
          break;
      }
    }
    t.leg_critical_s += leg_max;
  }
  t.queue_depth_mean =
      depth_samples == 0 ? 0.0 : depth_sum / static_cast<double>(depth_samples);
  return t;
}

}  // namespace mec::suite
