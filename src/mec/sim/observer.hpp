// Observer layer: how measurements leave the engine.
//
// The engine never appends to result vectors directly; it hands sampled
// TimelinePoints to a TimelineRecorder (and, for a streamed run, to
// obs::StreamingSink) at scheduled grid instants.  The grid itself
// (ObservationGrid) is precomputed from the sample/epoch cadences and
// doubles as the sharded engine's barrier schedule: every grid instant
// is a synchronization point where shard legs stop, the gamma replay
// catches up, and observers read a globally consistent left-limit state.
//
// Determinism contract: grid times are generated with the same repeated
// floating-point accumulation (`next += interval`) the single-queue engine
// used, so sample timestamps — and therefore every downstream value — are
// bit-identical.  Observers see the state *before* any event at the grid
// instant itself (left-limit semantics, see TimelinePoint), and when a
// sample and an epoch share an instant the sample fires first.
#pragma once

#include <vector>

#include "mec/sim/metrics.hpp"

namespace mec::sim {

/// Collects the sampled trajectory for SimulationResult.
class TimelineRecorder {
 public:
  void on_sample(const TimelinePoint& point) { points_.push_back(point); }
  std::vector<TimelinePoint> take() noexcept { return std::move(points_); }

 private:
  std::vector<TimelinePoint> points_;
};

/// One synchronization instant of a run; at least one flag is set.
struct GridInstant {
  double time = 0.0;
  bool sample = false;  ///< record a TimelinePoint here
  bool epoch = false;   ///< invoke the on_epoch callback here
};

/// The merged sample/epoch schedule of one run: every grid instant in
/// (0, t_end], in increasing time order, with coinciding sample and epoch
/// points folded into one instant (exact float equality — the same-cadence
/// case; nearly-equal points from incommensurate cadences stay distinct
/// and fire in time order).
class ObservationGrid {
 public:
  ObservationGrid(double sample_interval, double epoch_period, double t_end) {
    std::vector<double> samples = accumulate(sample_interval, t_end);
    std::vector<double> epochs = accumulate(epoch_period, t_end);
    instants_.reserve(samples.size() + epochs.size());
    std::size_t i = 0, j = 0;
    while (i < samples.size() || j < epochs.size()) {
      const bool take_sample =
          i < samples.size() &&
          (j >= epochs.size() || samples[i] <= epochs[j]);
      GridInstant g;
      g.time = take_sample ? samples[i] : epochs[j];
      if (i < samples.size() && samples[i] == g.time) {
        g.sample = true;
        ++i;
      }
      if (j < epochs.size() && epochs[j] == g.time) {
        g.epoch = true;
        ++j;
      }
      instants_.push_back(g);
    }
  }

  const std::vector<GridInstant>& instants() const noexcept {
    return instants_;
  }

 private:
  // The exact accumulation the event loop used (`next += interval` from
  // `interval`): summing k*interval directly would round differently.
  static std::vector<double> accumulate(double interval, double t_end) {
    std::vector<double> times;
    if (interval > 0.0)
      for (double next = interval; next <= t_end; next += interval)
        times.push_back(next);
    return times;
  }

  std::vector<GridInstant> instants_;
};

}  // namespace mec::sim
