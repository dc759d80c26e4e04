// Observer layer: when measurements leave the engine.
//
// The coordinator samples a TimelinePoint at each scheduled grid instant,
// keeps it in the result's timeline and, for a streamed run, folds it into
// the window frame of the run log.  The grid itself (ObservationGrid) is
// generated one instant at a time from the sample/epoch cadences and
// doubles as the sharded engine's barrier schedule: every grid instant is a
// synchronization point where shard legs stop, the gamma replay catches
// up, and observers read a globally consistent left-limit state.
//
// Determinism contract: grid times are generated with the same repeated
// floating-point accumulation (`next += interval`) the single-queue engine
// used, so sample timestamps — and therefore every downstream value — are
// bit-identical.  Observers see the state *before* any event at the grid
// instant itself (left-limit semantics, see TimelinePoint), and when a
// sample and an epoch share an instant the sample fires first.
#pragma once

namespace mec::sim {

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
/// and fire in time order).  A cadence of 0 contributes no instants.  The
/// grid holds two running times, so it costs the same for any run length.
class ObservationGrid {
 public:
  ObservationGrid(double sample_interval, double epoch_period, double t_end)
      : sample_interval_(sample_interval),
        epoch_period_(epoch_period),
        t_end_(t_end),
        next_sample_(sample_interval),
        next_epoch_(epoch_period) {}

  /// Writes the next instant to `g` and returns true, or returns false once
  /// both cadences have passed t_end.
  bool next(GridInstant& g) {
    const bool samples = sample_interval_ > 0.0 && next_sample_ <= t_end_;
    const bool epochs = epoch_period_ > 0.0 && next_epoch_ <= t_end_;
    if (!samples && !epochs) return false;
    g.time = samples && (!epochs || next_sample_ <= next_epoch_)
                 ? next_sample_
                 : next_epoch_;
    g.sample = samples && next_sample_ == g.time;
    g.epoch = epochs && next_epoch_ == g.time;
    // The exact accumulation the event loop used (`next += interval` from
    // `interval`): summing k*interval directly would round differently.
    if (g.sample) next_sample_ += sample_interval_;
    if (g.epoch) next_epoch_ += epoch_period_;
    return true;
  }

 private:
  double sample_interval_;
  double epoch_period_;
  double t_end_;
  double next_sample_;
  double next_epoch_;
};

}  // namespace mec::sim
