// Micro-timings of the public kernels each layer runs per event, per record
// or per barrier, sized from the workload and its traced run.  Each probe
// repeats its kernel and keeps the median repetition.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "mec/core/threshold_oracle.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/parallel/transport.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/coupling.hpp"
#include "mec/sim/des.hpp"
#include "mec/stats/latency_sketch.hpp"
#include "suite.hpp"

namespace mec::suite {
namespace {

/// Consumes a probe's result so the timed kernel cannot be optimized away.
void keep(double value) {
  static volatile double sink = 0.0;
  sink = sink + value;
}

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

/// Median wall seconds of `reps` calls of `kernel`.
template <typename Kernel>
double median_seconds(int reps, Kernel&& kernel) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    kernel();
    times.push_back(seconds_since(t0));
  }
  return median(std::move(times));
}

double best_threshold_sweep_s(const Inputs& in) {
  const double g = in.pop.config.delay(in.mfne.gamma_star);
  return median_seconds(5, [&] {
    std::int64_t sum = 0;
    for (const core::UserParams& u : in.pop.users)
      sum += core::best_threshold(u, g);
    keep(static_cast<double>(sum));
  });
}

/// Classic hold model: pop the earliest event and push it back a random
/// increment later, at a constant depth.
double queue_hold_ns(const Inputs& in, std::size_t depth) {
  depth = std::max<std::size_t>(depth, 16);
  random::Xoshiro256 rng(in.seed);
  std::vector<double> increments(4096);
  for (double& x : increments) x = random::exponential(rng, 1.0);
  sim::EventQueue queue;
  queue.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i)
    queue.push(random::exponential(rng, 1.0), sim::EventKind::kArrival,
               static_cast<std::uint32_t>(i & 0xFFFFFu));
  const std::size_t holds = std::max<std::size_t>(std::size_t{1} << 20,
                                                  4 * depth);
  std::size_t cursor = 0;
  const auto block = [&] {
    for (std::size_t h = 0; h < holds; ++h) {
      const sim::Event e = queue.pop();
      queue.push(e.time + increments[cursor++ & 4095u], e.kind, e.device);
    }
  };
  block();  // let the calendar gear settle
  const double s = median_seconds(3, block);
  keep(queue.next_time());
  return s * 1e9 / static_cast<double>(holds);
}

/// Synthetic per-shard offload logs for one barrier leg: time-sorted
/// records spread over [0, leg), devices routed to clusters as the engine
/// routes them.
struct LegLogs {
  std::vector<std::vector<sim::OffloadRecord>> shards;
  std::size_t records = 0;
  double leg = 1.0;
};

LegLogs make_leg_logs(const Inputs& in, const ProbeShape& shape) {
  LegLogs logs;
  const std::size_t n = in.pop.users.size();
  const double cap = static_cast<double>(n) * in.pop.config.capacity;
  const std::size_t per_shard =
      std::max<std::size_t>(1, shape.records_per_leg / shape.shards);
  // Records arrive at the equilibrium offload rate gamma* * N * c.
  logs.leg = static_cast<double>(per_shard * shape.shards) /
             std::max(in.mfne.gamma_star * cap, 1.0);
  random::Xoshiro256 rng(in.seed ^ 0x5eedULL);
  logs.shards.resize(shape.shards);
  for (std::vector<sim::OffloadRecord>& log : logs.shards) {
    log.resize(per_shard);
    for (sim::OffloadRecord& r : log) {
      r.time = random::uniform(rng, 0.0, logs.leg);
      r.latency = random::uniform(rng, 0.0, 5.0);
      r.device = static_cast<std::uint32_t>(random::uniform_index(rng, n));
      r.cluster = static_cast<std::uint16_t>(r.device % shape.clusters);
      r.measured = true;
    }
    std::sort(log.begin(), log.end(),
              [](const sim::OffloadRecord& a, const sim::OffloadRecord& b) {
                return a.time < b.time;
              });
    logs.records += log.size();
  }
  return logs;
}

double replay_ns_per_record(const Inputs& in, const ProbeShape& shape,
                            LegLogs logs) {
  const std::size_t n = in.pop.users.size();
  sim::ClusterTopology topology;
  topology.clusters = shape.clusters;
  sim::GammaReplay replay(
      in.pop.config.delay, 10.0, in.mfne.gamma_star,
      static_cast<double>(n) * in.pop.config.capacity, 0.0, 1e18,
      static_cast<std::uint32_t>(n), {}, topology);
  std::vector<double> delay_sums(n, 0.0);
  stats::LatencySketch delays;
  std::vector<std::span<const sim::OffloadRecord>> spans;
  for (const auto& log : logs.shards) spans.emplace_back(log);
  const std::size_t legs = std::clamp<std::size_t>(
      (std::size_t{2} << 20) / logs.records, 3, 20);
  std::vector<double> times;
  for (std::size_t leg = 0; leg <= legs; ++leg) {
    if (leg > 0)
      for (auto& log : logs.shards)
        for (sim::OffloadRecord& r : log) r.time += logs.leg;
    const auto t0 = Clock::now();
    replay.consume(spans, delay_sums.data(), delays);
    if (leg > 0) times.push_back(seconds_since(t0));  // leg 0 warms up
  }
  keep(static_cast<double>(delays.count()));
  return median(std::move(times)) * 1e9 / static_cast<double>(logs.records);
}

void wire_probe(const ProbeShape& shape, const LegLogs& logs,
                ProbeResults& out) {
  std::vector<std::uint64_t> cluster_offloads(shape.clusters, 1);
  std::vector<parallel::ShardBarrierView> views;
  for (std::size_t k = 0; k < logs.shards.size(); ++k) {
    parallel::ShardBarrierView v;
    v.shard = static_cast<std::uint32_t>(k);
    v.log = logs.shards[k];
    v.events = 10 * logs.shards[k].size();
    v.offloads_in_window = logs.shards[k].size();
    v.cluster_offloads = cluster_offloads;
    views.push_back(v);
  }
  const int reps = static_cast<int>(std::clamp<std::size_t>(
      (std::size_t{1} << 21) / logs.records, 5, 200));
  const auto records = static_cast<double>(logs.records);
  std::vector<std::uint8_t> payload;
  out.wire_encode_ns_per_record =
      median_seconds(reps, [&] {
        payload = parallel::wire::encode_barrier_payload(views, true, 1.0, 1.0);
      }) * 1e9 / records;
  out.wire_decode_ns_per_record =
      median_seconds(reps, [&] {
        keep(static_cast<double>(
            parallel::wire::decode_barrier_payload(payload).shards.size()));
      }) * 1e9 / records;
  const double frame_s = median_seconds(reps, [&] {
    const std::vector<std::uint8_t> frame = parallel::wire::encode_frame(
        parallel::wire::kFrameBarrier, payload);
    keep(static_cast<double>(
        parallel::wire::decode_frame(frame).payload.size()));
  });
  out.frame_mb_per_s = static_cast<double>(payload.size()) / frame_s / 1e6;
}

/// Process-transport startup: a run too short to do real work, forked
/// workers minus in-process, at the workload's population size.
double transport_startup_s(const Inputs& in) {
  sim::SimulationOptions o;
  o.warmup = 0.0;
  o.horizon = 0.01;
  o.seed = in.seed;
  o.fixed_gamma = in.mfne.gamma_star;
  o.shards = 4;
  o.record_timeline = false;
  const sim::MecSimulation inproc(in.pop.users, in.pop.config.capacity,
                                  in.pop.config.delay, o);
  o.transport = sim::TransportKind::kProcess;
  o.workers = 2;
  const sim::MecSimulation forked(in.pop.users, in.pop.config.capacity,
                                  in.pop.config.delay, o);
  const std::vector<double> thresholds(in.mfne.thresholds.begin(),
                                       in.mfne.thresholds.end());
  std::vector<double> deltas;
  for (int r = 0; r < 3; ++r) {
    auto t0 = Clock::now();
    keep(static_cast<double>(forked.run_tro(thresholds).total_events));
    const double forked_s = seconds_since(t0);
    t0 = Clock::now();
    keep(static_cast<double>(inproc.run_tro(thresholds).total_events));
    deltas.push_back(forked_s - seconds_since(t0));
  }
  return median(std::move(deltas));
}

void obs_probe(const std::string& traced_log, const obs::LogScan& scan,
               const std::string& temp_file, ProbeResults& out) {
  const obs::WindowRecord& window = scan.windows.back();
  constexpr int kEncodes = 20000;
  out.window_encode_us = median_seconds(3, [&] {
                           for (int i = 0; i < kEncodes; ++i)
                             keep(static_cast<double>(
                                 obs::encode_window(window).size()));
                         }) * 1e6 / kEncodes;
  constexpr int kAppends = 400;
  std::vector<double> append_s;
  for (int r = 0; r < 3; ++r) {
    obs::RunLogWriter writer(temp_file, scan.meta);
    const auto t0 = Clock::now();
    for (int i = 0; i < kAppends; ++i) writer.append_window(window);
    append_s.push_back(seconds_since(t0));
    writer.finish(obs::RunFooter{});
  }
  out.append_window_us = median(std::move(append_s)) * 1e6 / kAppends;
  std::remove(temp_file.c_str());
  const auto bytes = static_cast<double>(std::filesystem::file_size(traced_log));
  out.scan_mb_per_s = bytes / 1e6 / median_seconds(3, [&] {
                        keep(static_cast<double>(
                            obs::scan_log(traced_log).windows.size()));
                      });
}

void sketch_probe(const Inputs& in, ProbeResults& out) {
  random::Xoshiro256 rng(in.seed ^ 0x51cULL);
  std::vector<double> samples(std::size_t{1} << 20);
  for (double& x : samples) x = random::exponential(rng, 1.0);
  out.sketch_add_ns = median_seconds(3, [&] {
                        stats::LatencySketch s;
                        for (const double x : samples) s.add(x);
                        keep(s.p50());
                      }) * 1e9 / static_cast<double>(samples.size());
  stats::LatencySketch part;
  for (std::size_t i = 0; i < 100000; ++i) part.add(samples[i]);
  constexpr int kMerges = 2000;
  out.sketch_merge_us = median_seconds(3, [&] {
                          stats::LatencySketch acc;
                          for (int i = 0; i < kMerges; ++i) acc.merge(part);
                          keep(static_cast<double>(acc.count()));
                        }) * 1e6 / kMerges;
}

}  // namespace

ProbeResults run_probes(const Inputs& in, const ProbeShape& shape,
                        const std::string& traced_log,
                        const obs::LogScan& scan, const std::string& temp_file) {
  ProbeResults out;
  out.best_threshold_sweep_s = best_threshold_sweep_s(in);
  out.queue_hold_ns = queue_hold_ns(in, shape.queue_depth);
  const LegLogs logs = make_leg_logs(in, shape);
  out.replay_ns_per_record = replay_ns_per_record(in, shape, logs);
  wire_probe(shape, logs, out);
  out.transport_startup_s = transport_startup_s(in);
  obs_probe(traced_log, scan, temp_file, out);
  sketch_probe(in, out);
  return out;
}

}  // namespace mec::suite
