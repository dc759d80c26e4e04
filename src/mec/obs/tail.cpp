#include "mec/obs/tail.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "mec/common/error.hpp"
#include "mec/io/args.hpp"
#include "mec/io/ascii_plot.hpp"
#include "mec/io/table.hpp"
#include "mec/obs/counters.hpp"
#include "mec/obs/run_log.hpp"

namespace mec::obs {
namespace {

std::string value_cell(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    return os.str();
  }
  return io::TextTable::fmt(v, 4);
}

// Meta keys worth a line in the header (in display order).
constexpr const char* kHeaderKeys[] = {"n_devices", "clusters", "seed",
                                       "shards",    "gamma",    "warmup",
                                       "horizon",   "window",   "faults"};

void render(std::ostream& os, const std::string& path, const LogScan& scan,
            bool ansi) {
  if (ansi) os << "\x1b[2J\x1b[H";
  os << "mec tail -- " << path << '\n';
  std::string meta_line;
  for (const char* key : kHeaderKeys) {
    for (const auto& [k, v] : scan.meta) {
      if (k != key) continue;
      if (!meta_line.empty()) meta_line += "  ";
      meta_line += k + "=" + v;
    }
  }
  if (!meta_line.empty()) os << meta_line << '\n';
  os << '\n';

  if (!scan.windows.empty()) {
    // Multi-cluster logs plot one series per cluster; the scalar gamma is
    // identical to the single cluster's series, so it is only drawn alone.
    const std::size_t clusters = scan.windows.front().cluster_gamma.size();
    std::vector<io::Series> series;
    if (clusters <= 1) {
      io::Series& gamma = series.emplace_back();
      gamma.label = "gamma";
      gamma.x.reserve(scan.windows.size());
      gamma.y.reserve(scan.windows.size());
      for (const WindowRecord& w : scan.windows) {
        gamma.x.push_back(w.time);
        gamma.y.push_back(w.gamma);
      }
    } else {
      for (std::size_t k = 0; k < clusters; ++k) {
        io::Series& s = series.emplace_back();
        s.label = "c" + std::to_string(k);
        s.x.reserve(scan.windows.size());
        s.y.reserve(scan.windows.size());
        for (const WindowRecord& w : scan.windows) {
          s.x.push_back(w.time);
          s.y.push_back(k < w.cluster_gamma.size() ? w.cluster_gamma[k] : 0.0);
        }
      }
    }
    io::PlotOptions po;
    po.width = 64;
    po.height = 12;
    po.title = "gamma trajectory (" + std::to_string(scan.windows.size()) +
               " windows" +
               (clusters > 1
                    ? ", " + std::to_string(clusters) + " clusters)"
                    : ")");
    po.x_label = "time";
    po.y_label = "gamma";
    os << io::line_plot(series, po) << '\n';

    const WindowRecord& latest = scan.windows.back();
    std::uint64_t total = 0;
    std::size_t top = 0;
    for (std::size_t b = 0; b < latest.threshold_histogram.size(); ++b) {
      total += latest.threshold_histogram[b];
      if (latest.threshold_histogram[b] > 0) top = b;
    }
    if (total > 0) {
      std::vector<double> edges(top + 1), mass(top + 1);
      for (std::size_t b = 0; b <= top; ++b) {
        edges[b] = static_cast<double>(b);
        mass[b] = static_cast<double>(latest.threshold_histogram[b]) /
                  static_cast<double>(total);
      }
      io::PlotOptions po2;
      po2.width = 48;
      po2.title = "threshold histogram (latest window, t=" +
                  io::TextTable::fmt(latest.time, 2) + ")";
      po2.x_label = "floor(threshold)";
      os << io::bar_chart(edges, mass, po2) << '\n';
    }
  }

  if (!scan.counters.empty()) {
    io::TextTable table("engine counters (latest sample)");
    table.set_header({"counter", "shard", "value"});
    for (const CounterValue& v : scan.counters.back()) {
      table.add_row({counter_name(static_cast<Counter>(v.id)),
                     v.shard == kGlobalShard ? std::string("-")
                                             : std::to_string(v.shard),
                     value_cell(v.value)});
    }
    os << table.to_string() << '\n';
  }

  os << "windows=" << scan.windows.size()
     << " counter_frames=" << scan.counters.size();
  if (scan.footer.has_value())
    os << "  complete (events=" << scan.footer->total_events
       << ", measured gamma=" << io::TextTable::fmt(
              scan.footer->measured_utilization, 4)
       << ")";
  else if (scan.truncated)
    os << "  partial frame at tail (run in flight or killed)";
  else
    os << "  no footer yet";
  if (scan.corrupt) os << "  CORRUPT: " << scan.error;
  os << '\n';
}

int finish(std::ostream& os, const LogScan& scan, const TailOptions& options) {
  if (!options.csv.empty())
    export_windows_csv(scan, options.csv, options.hist_csv);
  if (scan.corrupt) {
    os << "error: " << scan.error << '\n';
    return 1;
  }
  return 0;
}

int run_check(std::ostream& os, const std::string& path,
              const TailOptions& options) {
  const LogScan scan = scan_log(path);
  if (scan.corrupt) {
    os << "FAIL " << path << ": " << scan.error << '\n';
    return 1;
  }
  if (!scan.footer.has_value()) {
    os << "FAIL " << path << ": incomplete log (no footer frame"
       << (scan.truncated ? "; truncated tail" : "") << ")\n";
    return 1;
  }
  if (!options.csv.empty())
    export_windows_csv(scan, options.csv, options.hist_csv);
  os << "OK " << path << ": " << scan.windows.size() << " windows, "
     << scan.counters.size() << " counter frames, "
     << scan.footer->total_events << " events\n";
  return 0;
}

}  // namespace

int run_tail(const std::string& path, const TailOptions& options) {
  std::ostream& os = options.out != nullptr ? *options.out : std::cout;
  try {
    if (options.check) return run_check(os, path, options);
    if (!options.follow) {
      const LogScan scan = scan_log(path);
      render(os, path, scan, /*ansi=*/false);
      return finish(os, scan, options);
    }

    RunLogReader reader(path);
    LogScan scan;
    for (std::uint64_t polls = 1;; ++polls) {
      // Each poll resumes where the last one stopped, at the end of what
      // the writer had flushed, and repaints only when it read a frame.
      const std::uint64_t seen = scan.frames;
      scan_frames(reader, scan);
      if (scan.frames != seen || polls == 1) {
        render(os, path, scan, options.ansi);
        os.flush();
      }
      const bool done = scan.footer.has_value() || scan.corrupt ||
                        (options.max_updates > 0 &&
                         polls >= options.max_updates);
      if (done) return finish(os, scan, options);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.interval_ms));
    }
  } catch (const std::exception& e) {
    os << "error: " << e.what() << '\n';
    return 1;
  }
}

int tail_main(const io::Args& args, const std::string& positional_path) {
  constexpr const char* kUsage =
      "usage: mec tail | mec_tail <run.meclog> [--follow] [--check] "
      "[--interval=<ms>] [--csv=<file>] [--hist-csv=<file>] "
      "[--max-updates=<k>]";
  args.reject_unknown({"log", "follow", "check", "interval", "csv",
                       "hist-csv", "max-updates", "help"});
  if (args.get_bool("help", false)) {
    std::cout << kUsage << '\n';
    return 0;
  }
  const std::string flag_path = args.get_path("log");
  if (!positional_path.empty() && !flag_path.empty())
    throw RuntimeError("the log path is given twice ('" + positional_path +
                       "' and --log=" + flag_path + "); give one");
  const std::string path = positional_path.empty() ? flag_path
                                                   : positional_path;
  if (path.empty()) throw RuntimeError(kUsage);
  TailOptions opt;
  opt.follow = args.get_bool("follow", false);
  opt.check = args.get_bool("check", false);
  opt.interval_ms =
      static_cast<int>(args.get_count("interval", 500, 1, INT_MAX));
  opt.csv = args.get_path("csv");
  opt.hist_csv = args.get_path("hist-csv");
  opt.max_updates = args.get_count("max-updates", 0);
#if defined(__unix__) || defined(__APPLE__)
  opt.ansi = opt.follow && ::isatty(STDOUT_FILENO) != 0;
#endif
  return run_tail(path, opt);
}

}  // namespace mec::obs
