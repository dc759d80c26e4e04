// mec_suite — runs one suite workload in this process and reports it.
//
//   mec_suite --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//             [--out-dir DIR]
//
// Protocol (README.md): setup repeated, one warm-up run, timed runs for T
// seconds with the reference loop timed around each, with --trace 1 one
// traced run, an untimed cross-K or cross-transport reference run, and with
// --trace 1 the per-layer probes.  Every run's result digest must match the
// warm-up's, the reference's and, at seed 42, the checked-in golden.  Prints
// one BENCH line per metric and, as the last line, {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.  Exits 1 if any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/io/args.hpp"
#include "mec/io/json.hpp"
#include "suite.hpp"

namespace mec::suite {

Summary summarize(std::vector<double> v) {
  MEC_EXPECTS(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Summary s;
  s.samples = n;
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

namespace {

// --- metric catalogue -------------------------------------------------------

enum class Kind {
  kEndToEnd,  ///< reported with --trace 0, bounded in BENCHMARK.json
  kPerLayer,  ///< reported with --trace 1 on every workload
  kExtra,     ///< BENCH line only: absent or zero by construction somewhere
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  Kind kind;
};

constexpr MetricSpec kCatalogue[] = {
    // events/s divided by the reference loop's events/s, timed back to back:
    // events/s alone follows the shared host's speed (README.md, "Noise").
    {"events_per_ref_event", "events/ref_event", "higher", Kind::kEndToEnd},
    // Set-up seconds scaled to a host whose reference loop runs at
    // kNominalRefRate, for the same reason.
    {"setup_s", "s", "lower", Kind::kEndToEnd},
    {"events_per_s", "events/s", "higher", Kind::kPerLayer},
    {"setup_wall_s", "s", "lower", Kind::kPerLayer},
    {"host.ref_events_per_s", "events/s", "higher", Kind::kPerLayer},
    // Per layer rather than bounded: the calendar queue's power-of-two
    // sizing makes it vary with the seed by up to a fifth, too close to the
    // largest allowed bound to gate on (README.md, "Noise").
    {"peak_rss_mb", "MiB", "lower", Kind::kPerLayer},
    {"population.sample_s", "s", "lower", Kind::kPerLayer},
    {"core.mfne_s", "s", "lower", Kind::kPerLayer},
    {"core.mfne_iterations", "count", "lower", Kind::kPerLayer},
    {"sim.construct_s", "s", "lower", Kind::kPerLayer},
    {"sim.first_run_s", "s", "lower", Kind::kPerLayer},
    {"core.best_threshold_sweep_s", "s", "lower", Kind::kPerLayer},
    {"sim.queue_hold_ns", "ns", "lower", Kind::kPerLayer},
    {"sim.leg_critical_s", "s", "lower", Kind::kPerLayer},
    {"sim.leg_busy_s", "s", "lower", Kind::kPerLayer},
    {"sim.events", "count", "lower", Kind::kPerLayer},
    {"sim.queue_depth_max", "count", "lower", Kind::kPerLayer},
    {"sim.gear_switches", "count", "lower", Kind::kPerLayer},
    {"sim.calendar_retunes", "count", "lower", Kind::kPerLayer},
    {"sim.replay_ns_per_record", "ns", "lower", Kind::kPerLayer},
    {"sim.replay_records", "count", "lower", Kind::kPerLayer},
    {"sim.replay_deliveries", "count", "lower", Kind::kPerLayer},
    {"sim.coordinator_serial_s", "s", "lower", Kind::kPerLayer},
    {"sim.coordinator_serial_share", "ratio", "lower", Kind::kPerLayer},
    {"parallel.speedup_vs_k1", "ratio", "higher", Kind::kPerLayer},
    {"parallel.wire_encode_ns_per_record", "ns", "lower", Kind::kPerLayer},
    {"parallel.wire_decode_ns_per_record", "ns", "lower", Kind::kPerLayer},
    {"parallel.frame_mb_per_s", "MB/s", "higher", Kind::kPerLayer},
    {"parallel.transport_startup_s", "s", "lower", Kind::kPerLayer},
    {"parallel.payload_bytes", "bytes", "lower", Kind::kPerLayer},
    {"parallel.frames_sent", "count", "lower", Kind::kPerLayer},
    {"parallel.frames_received", "count", "lower", Kind::kPerLayer},
    {"obs.window_encode_us", "us", "lower", Kind::kPerLayer},
    {"obs.append_window_us", "us", "lower", Kind::kPerLayer},
    {"obs.scan_mb_per_s", "MB/s", "higher", Kind::kPerLayer},
    {"obs.log_bytes", "bytes", "lower", Kind::kPerLayer},
    {"obs.windows", "count", "lower", Kind::kPerLayer},
    {"stats.sketch_add_ns", "ns", "lower", Kind::kPerLayer},
    {"stats.sketch_merge_us", "us", "lower", Kind::kPerLayer},
    {"fault.events_applied", "count", "lower", Kind::kPerLayer},
    {"trace.overhead", "ratio", "lower", Kind::kPerLayer},
    // Zero by construction at K = 1 or in process, so not every workload
    // can carry them in the result object.
    {"parallel.imbalance_s", "s", "lower", Kind::kExtra},
    {"parallel.rank_wait_s", "s", "lower", Kind::kExtra},
    {"fault.load_s", "s", "lower", Kind::kExtra},
    {"runs_attempted", "count", "higher", Kind::kExtra},
    {"runs_failed", "count", "lower", Kind::kExtra},
};

/// The reference loop's rate on the host that setup_s is stated for, a round
/// figure within the range measured on a shared 4-vCPU host (README.md,
/// "Noise").  Changing it rescales every setup_s baseline.
constexpr double kNominalRefRate = 6.0e6;

const MetricSpec& spec_of(const std::string& name) {
  for (const MetricSpec& s : kCatalogue)
    if (name == s.name) return s;
  throw RuntimeError("metric '" + name + "' is not in the catalogue");
}

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& name, std::vector<double> samples) {
    spec_of(name);
    summaries_[name] = summarize(std::move(samples));
  }
  void add(const std::string& name, double value) {
    add(name, std::vector<double>{value});
  }

  void print_bench_lines() const {
    for (const MetricSpec& spec : kCatalogue) {
      const auto it = summaries_.find(spec.name);
      if (it == summaries_.end()) continue;
      const Summary& s = it->second;
      const io::Json line = io::Json::object({
          {"bench", io::Json::string("suite")},
          {"workload", io::Json::string(workload_)},
          {"metric", io::Json::string(spec.name)},
          {"unit", io::Json::string(spec.unit)},
          {"value", io::Json::number(s.median)},
          {"q1", io::Json::number(s.q1)},
          {"q3", io::Json::number(s.q3)},
          {"samples", io::Json::integer(static_cast<long long>(s.samples))},
          {"better", io::Json::string(spec.better)},
      });
      std::printf("BENCH %s\n", line.dump().c_str());
    }
  }

  /// The result object over every catalogue metric of `kind`; a missing
  /// one is a bug in this program, never a zero.
  std::string result_line(Kind kind, bool correct, long long attempted,
                          long long failed) const {
    std::map<std::string, io::Json> metrics;
    for (const MetricSpec& spec : kCatalogue) {
      if (spec.kind != kind) continue;
      const auto it = summaries_.find(spec.name);
      if (it == summaries_.end())
        throw RuntimeError("internal: metric " + std::string(spec.name) +
                           " was not measured");
      metrics.emplace(spec.name,
                      io::Json::object({
                          {"value", io::Json::number(it->second.median)},
                          {"unit", io::Json::string(spec.unit)},
                      }));
    }
    return io::Json::object({
                                {"correct", io::Json::boolean(correct)},
                                {"attempted", io::Json::integer(attempted)},
                                {"failed", io::Json::integer(failed)},
                                {"metrics", io::Json::object(metrics)},
                            })
        .dump();
  }

 private:
  std::string workload_;
  std::map<std::string, Summary> summaries_;
};

// --- correctness ------------------------------------------------------------

/// Counts runs and failures; every run's digest must equal the first one's.
class Checks {
 public:
  /// Runs `runner` once; a throw or a digest other than the canonical one
  /// counts as a failed run.  The first successful run sets the canonical
  /// digest.  Returns false when the run failed.
  bool run(const char* what, const Runner& runner, sim::SimWorkspace& ws,
           RunResult& out) {
    ++attempted_;
    try {
      out = runner.run(ws);
    } catch (const std::exception& e) {
      fail(std::string(what) + " run threw: " + e.what());
      return false;
    }
    if (canonical_.empty()) canonical_ = out.digest;
    if (out.digest != canonical_) {
      fail(std::string(what) + " run digest " + out.digest +
           " differs from " + canonical_);
      return false;
    }
    return true;
  }

  void fail(const std::string& message) {
    ++failed_;
    std::fprintf(stderr, "suite: FAILED: %s\n", message.c_str());
  }

  const std::string& canonical() const noexcept { return canonical_; }
  long long attempted() const noexcept { return attempted_; }
  long long failed() const noexcept { return failed_; }

 private:
  std::string canonical_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// The checked-in digest of (workload, population size) at seed 42, or ""
/// when the file has none.
std::string golden_digest(const std::string& path, const std::string& workload,
                          std::size_t n_users) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open golden digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    std::size_t n = 0;
    if (fields >> name >> n >> digest && name == workload && n == n_users)
      return digest;
  }
  return "";
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest child.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// --- protocol ---------------------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

Options parse_options(int argc, char** argv) {
  const io::Args args =
      io::Args::parse(std::vector<std::string>(argv + 1, argv + argc));
  args.reject_unknown(
      {"workload", "seed", "seconds", "trace", "smoke", "out-dir"});
  if (!args.command().empty())
    throw RuntimeError("unexpected argument '" + args.command() + "'");
  Options o;
  o.workload = &find_workload(args.get_string("workload", ""));
  const long seed = args.get_long("seed", 42);
  if (seed < 0) throw RuntimeError("--seed must be >= 0");
  o.seed = static_cast<std::uint64_t>(seed);
  o.seconds = args.get_double("seconds", o.seconds);
  if (!(o.seconds > 0.0)) throw RuntimeError("--seconds must be > 0");
  const long trace = args.get_long("trace", 0);
  if (trace != 0 && trace != 1) throw RuntimeError("--trace must be 0 or 1");
  o.trace = trace == 1;
  o.smoke = args.get_bool("smoke", false);
  o.out_dir = args.get_path("out-dir", MEC_SUITE_BUILD_DIR "/out");
  return o;
}

int run_suite(const Options& opt) {
  const Workload& w = *opt.workload;
  const std::size_t n_users = opt.smoke ? 2000 : 100000;
  const int setup_repeats = opt.smoke ? 2 : 5;
  const std::size_t min_timed_runs = opt.smoke ? 2 : 3;
  // Smoke exercises every stage; a full run traces only when asked.
  const bool traced = opt.trace || opt.smoke;
  std::filesystem::create_directories(opt.out_dir);
  Report report(w.name);
  Checks checks;

  // 1. Setup, repeated; the last repeat's inputs and simulation are used.
  std::unique_ptr<Inputs> inputs;
  std::unique_ptr<Runner> runner;
  std::vector<double> setup_s, sample_s, mfne_s, fault_s, construct_s;
  for (int r = 0; r < setup_repeats; ++r) {
    runner.reset();
    const auto t0 = Clock::now();
    SetupTimes st;
    auto fresh = std::make_unique<Inputs>(make_inputs(
        w, n_users, opt.seed, MEC_SUITE_DIR "/workloads/brownout_churn.fault",
        st));
    const auto tc = Clock::now();
    auto fresh_runner =
        std::make_unique<Runner>(w, *fresh, timed_variant(w, opt.out_dir));
    construct_s.push_back(seconds_since(tc));
    setup_s.push_back(seconds_since(t0));
    sample_s.push_back(st.sample_s);
    mfne_s.push_back(st.mfne_s);
    fault_s.push_back(st.fault_s);
    inputs = std::move(fresh);
    runner = std::move(fresh_runner);
  }
  const Inputs& in = *inputs;
  report.add("setup_wall_s", setup_s);
  report.add("population.sample_s", sample_s);
  report.add("core.mfne_s", mfne_s);
  report.add("core.mfne_iterations", static_cast<double>(in.mfne.iterations));
  report.add("sim.construct_s", construct_s);
  if (w.faults) report.add("fault.load_s", fault_s);

  // 2. Warm-up: discarded from the timings, sets the canonical digest.
  sim::SimWorkspace workspace;
  RunResult first;
  if (!checks.run("warm-up", *runner, workspace, first))
    throw RuntimeError("the warm-up run failed; nothing to measure");
  report.add("sim.first_run_s", first.wall_s);
  // The warm-up reached the run's peak; read it before the reference loop
  // and the traced and reference runs allocate their own state.
  report.add("peak_rss_mb", peak_rss_mib());

  // 3. Timed runs, closed loop: the next starts when the last returned.  The
  // reference loop runs before the first and after every run, and each run
  // is set against the mean of the two reference rates around it.  One
  // reference thread for every workload: across processes a single thread
  // tracked the multi-shard runs' speed better than one thread per shard.
  const std::uint64_t ref_events = opt.smoke ? 100'000 : 6'000'000;
  const auto ref_rate = [ref_events] {
    return static_cast<double>(ref_events) /
           reference_loop_seconds(ref_events);
  };
  std::vector<double> walls, rates, ref_rates, relative;
  const auto timed_start = Clock::now();
  double ref_before = ref_rate();
  ref_rates.push_back(ref_before);
  // Another run starts if it would end nearer to --seconds than stopping
  // now, so the timed phase lasts --seconds give or take half a run.
  double last_run_s = seconds_since(timed_start);
  for (std::size_t attempts = 0;
       attempts < min_timed_runs ||
       (!opt.smoke &&
        seconds_since(timed_start) + 0.5 * last_run_s < opt.seconds);
       ++attempts) {
    const auto run_start = Clock::now();
    RunResult r;
    const bool ok = checks.run("timed", *runner, workspace, r);
    const double ref_after = ref_rate();
    ref_rates.push_back(ref_after);
    if (ok) {
      walls.push_back(r.wall_s);
      rates.push_back(static_cast<double>(r.events) / r.wall_s);
      relative.push_back(rates.back() / (0.5 * (ref_before + ref_after)));
    }
    ref_before = ref_after;
    last_run_s = seconds_since(run_start);
  }
  if (walls.empty()) throw RuntimeError("every timed run failed");
  const double median_wall = summarize(walls).median;
  report.add("events_per_ref_event", relative);
  report.add("events_per_s", rates);
  report.add("host.ref_events_per_s", ref_rates);
  // The host's speed drifts over minutes, so set-up seconds read by two
  // sets of processes drifted by a third; the process's median reference
  // rate restates them for one fixed host speed.
  const double host_scale = summarize(ref_rates).median / kNominalRefRate;
  for (double& s : setup_s) s *= host_scale;
  report.add("setup_s", setup_s);
  std::string wall_list, ref_list;
  for (const double s : walls) {
    wall_list += ' ';
    wall_list += std::to_string(s);
  }
  for (const double r : ref_rates) {
    ref_list += ' ';
    ref_list += std::to_string(r / 1e6);
  }
  std::fprintf(stderr,
               "suite: %s seed=%llu n=%zu: warm-up %.3f s, timed runs (s):%s; "
               "reference loop (10^6 events/s):%s; digest %s\n",
               w.name.c_str(), static_cast<unsigned long long>(opt.seed),
               n_users, first.wall_s, wall_list.c_str(), ref_list.c_str(),
               checks.canonical().c_str());

  // 4. Traced run: same workspace and digest, counters on.
  std::string traced_log;
  obs::LogScan scan;
  TraceCounters counters;
  RunResult traced_run;
  if (traced) {
    const Variant v = traced_variant(w, opt.out_dir);
    traced_log = v.stream_log;
    const Runner tracer(w, in, v);
    if (!checks.run("traced", tracer, workspace, traced_run) &&
        traced_run.digest.empty())
      throw RuntimeError("the traced run threw; no per-layer numbers");
    scan = obs::scan_log(traced_log);
    const std::vector<obs::Counter> required = required_counters(w);
    counters = read_trace_counters(scan, traced_log, required);
    if (opt.smoke) {
      // The reader must refuse a log without counter frames (an OFF build
      // writes exactly that) instead of reporting zeros.
      Variant bare = v;
      bare.stream_log = opt.out_dir + "/" + w.name + ".nocounters.meclog";
      bare.counters = false;
      RunResult unused;
      checks.run("counter-less", Runner(w, in, bare), workspace, unused);
      try {
        read_trace_counters(obs::scan_log(bare.stream_log), bare.stream_log,
                            required);
        checks.fail("the counter reader accepted a log without counters");
      } catch (const RuntimeError& e) {
        if (std::string(e.what()).find("MEC_OBS_COUNTERS") == std::string::npos)
          checks.fail(std::string("counter reader error lacks the option "
                                  "name: ") + e.what());
      }
    }
  }

  // 5. Reference run at the other shard count or transport.
  runner.reset();
  workspace = sim::SimWorkspace{};
  RunResult reference;
  {
    const Runner ref(w, in, reference_variant(w, opt.out_dir));
    sim::SimWorkspace ref_workspace;
    if (!checks.run("reference", ref, ref_workspace, reference) &&
        reference.digest.empty())
      throw RuntimeError("the reference run threw; nothing to check against");
  }
  report.add("parallel.speedup_vs_k1", w.shards == 1
                                           ? median_wall / reference.wall_s
                                           : reference.wall_s / median_wall);

  // Goldens pin seed 42; the tolerance pins the closed loop's convergence.
  if (opt.seed == 42) {
    const std::string golden = golden_digest(
        MEC_SUITE_DIR "/golden_digests.txt", w.name, n_users);
    if (golden.empty())
      checks.fail("no golden digest for " + w.name + " n=" +
                  std::to_string(n_users) + " in golden_digests.txt");
    else if (golden != checks.canonical())
      checks.fail("digest " + checks.canonical() + " differs from golden " +
                  golden);
  }
  if (w.closed_loop &&
      std::abs(first.final_gamma_hat - in.mfne.gamma_star) > 0.02)
    checks.fail("closed loop settled at gamma_hat " +
                std::to_string(first.final_gamma_hat) + ", more than 0.02 " +
                "from gamma* " + std::to_string(in.mfne.gamma_star));

  // 6. Per-layer numbers from the traced run and the probes.
  if (traced) {
    report.add("sim.leg_critical_s", counters.leg_critical_s);
    report.add("sim.leg_busy_s", counters.leg_busy_s);
    report.add("sim.events", counters.events);
    report.add("sim.queue_depth_max", counters.queue_depth_max);
    report.add("sim.gear_switches", counters.gear_switches);
    report.add("sim.calendar_retunes", counters.calendar_retunes);
    report.add("sim.replay_records", counters.replay_records);
    report.add("sim.replay_deliveries", counters.replay_deliveries);
    const double serial = traced_run.wall_s - counters.leg_critical_s;
    report.add("sim.coordinator_serial_s", serial);
    report.add("sim.coordinator_serial_share", serial / traced_run.wall_s);
    report.add("parallel.imbalance_s", counters.imbalance_s);
    if (w.process) report.add("parallel.rank_wait_s", counters.rank_wait_s);
    report.add("parallel.payload_bytes", counters.payload_bytes);
    report.add("parallel.frames_sent", counters.frames_sent);
    report.add("parallel.frames_received", counters.frames_received);
    report.add("fault.events_applied", counters.fault_events);
    report.add("obs.log_bytes", static_cast<double>(
                                    std::filesystem::file_size(traced_log)));
    report.add("obs.windows", static_cast<double>(scan.windows.size()));
    report.add("trace.overhead", traced_run.wall_s / median_wall - 1.0);

    ProbeShape shape;
    shape.shards = w.shards;
    shape.clusters = w.clusters;
    shape.queue_depth =
        static_cast<std::size_t>(std::llround(counters.queue_depth_mean));
    const double per_leg =
        counters.replay_records > 0.0
            ? counters.replay_records
            : static_cast<double>(scan.windows.back().offloads_so_far);
    shape.records_per_leg = std::max<std::size_t>(
        1, static_cast<std::size_t>(per_leg / static_cast<double>(
                                                  counters.frames)));
    const ProbeResults p = run_probes(
        in, shape, traced_log, scan, opt.out_dir + "/" + w.name + ".probe");
    report.add("core.best_threshold_sweep_s", p.best_threshold_sweep_s);
    report.add("sim.queue_hold_ns", p.queue_hold_ns);
    report.add("sim.replay_ns_per_record", p.replay_ns_per_record);
    report.add("parallel.wire_encode_ns_per_record",
               p.wire_encode_ns_per_record);
    report.add("parallel.wire_decode_ns_per_record",
               p.wire_decode_ns_per_record);
    report.add("parallel.frame_mb_per_s", p.frame_mb_per_s);
    report.add("parallel.transport_startup_s", p.transport_startup_s);
    report.add("obs.window_encode_us", p.window_encode_us);
    report.add("obs.append_window_us", p.append_window_us);
    report.add("obs.scan_mb_per_s", p.scan_mb_per_s);
    report.add("stats.sketch_add_ns", p.sketch_add_ns);
    report.add("stats.sketch_merge_us", p.sketch_merge_us);
  }

  report.add("runs_attempted", static_cast<double>(checks.attempted()));
  report.add("runs_failed", static_cast<double>(checks.failed()));
  report.print_bench_lines();
  const bool correct = checks.failed() == 0;
  std::printf("%s\n",
              report
                  .result_line(opt.trace ? Kind::kPerLayer : Kind::kEndToEnd,
                               correct, checks.attempted(), checks.failed())
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mec::suite

int main(int argc, char** argv) {
  mec::suite::Options options;
  try {
    options = mec::suite::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "mec_suite: %s\nusage: mec_suite --workload <name> "
                 "[--seed S] [--seconds T] [--trace 0|1] [--smoke] "
                 "[--out-dir DIR]\n",
                 e.what());
    return 2;
  }
  try {
    return mec::suite::run_suite(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mec_suite: error: %s\n", e.what());
    return 1;
  }
}
