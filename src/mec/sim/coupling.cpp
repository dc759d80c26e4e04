#include "mec/sim/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

namespace mec::sim {

void ClusterTopology::check() const {
  constexpr std::string_view kRun = "ClusterTopology";
  check_option(clusters >= 1 && clusters < 0xFFFF, kRun, "clusters", clusters,
               "a value in [1, 65534]");
  if (shares.empty()) return;
  check_option(shares.size() == clusters, kRun, "shares.size()", shares.size(),
               "one share per cluster (" + std::to_string(clusters) + ")");
  double sum = 0.0;
  for (std::size_t k = 0; k < shares.size(); ++k) {
    check_option(shares[k] > 0.0, kRun, "shares[" + std::to_string(k) + "]",
                 shares[k], "a value > 0");
    sum += shares[k];
  }
  check_option(std::abs(sum - 1.0) <= 1e-9, kRun, "the sum of shares", sum,
               "1 (within 1e-9)");
}

double GammaReplay::clamped_gamma(double rate, std::size_t cluster) const {
  // Single-cluster bit-compat: caps_[0] == edge_capacity (share 1.0) and
  // cluster_scale stays 1.0 without cluster faults, so this reduces to the
  // pre-cluster `rate / (edge_capacity * scale)` bit-for-bit.
  return std::clamp(
      rate / (caps_[cluster] * walk_.scale * walk_.cluster_scale[cluster]),
      0.0, 1.0);
}

void GammaReplay::consume(
    std::span<const std::span<const OffloadRecord>> logs,
    double* offload_delay_sums, stats::LatencySketch& offload_delays) {
  cursors_.assign(logs.size(), 0);
  for (;;) {
    // K-way merge head: earliest record, lowest shard first at exact ties.
    std::size_t best = logs.size();
    double best_time = 0.0;
    for (std::size_t s = 0; s < logs.size(); ++s) {
      if (cursors_[s] >= logs[s].size()) continue;
      const double t = logs[s][cursors_[s]].time;
      if (best == logs.size() || t < best_time) {
        best = s;
        best_time = t;
      }
    }
    if (best == logs.size()) break;
    const OffloadRecord& r = logs[best][cursors_[best]++];

    // A fault event at the same instant as a task event popped first in the
    // single-queue engine (scheduled earlier => lower sequence number), so
    // environment actions apply up to and including the record's time.
    walk_.advance_to(r.time, /*inclusive=*/true);
    EwmaRate& rate = bank_[r.cluster];
    const double gamma = clamped_gamma(rate.rate_at(r.time), r.cluster);
    double delay_value = (*delay_)(gamma);
    if (r.penalized) delay_value += r.penalty;
    rate.record_event(r.time);

    // Same associativity as the engine's queue.push(now + latency + dv).
    const double delivery = r.time + r.latency + delay_value;
    if (delivery <= t_end_) {
      ++deliveries_;
      if (delivery >= warmup_) flip_trigger_ = true;
    }
    if (r.measured) {
      offload_delay_sums[r.device] += r.latency + delay_value;
      offload_delays.add(r.latency + delay_value);
    }
  }
}

}  // namespace mec::sim
