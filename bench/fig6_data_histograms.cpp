// Reproduces Fig. 6: normalized histograms of the measured datasets — (a)
// local processing time of YOLOv3 object detection on a Raspberry Pi 4, and
// (b) WiFi upload (offloading) latency — using the library's synthetic
// stand-ins (see DESIGN.md §5 for the substitution rationale).
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/runner.hpp"
#include "mec/io/ascii_plot.hpp"
#include "mec/io/csv.hpp"
#include "mec/random/empirical_data.hpp"

namespace {

void show(const mec::random::EmpiricalDataset& data, const char* title,
          const std::string& csv_path) {
  using namespace mec;
  const auto [edges, mass] = data.histogram(24);
  io::PlotOptions opt;
  opt.title = title;
  opt.width = 60;
  opt.x_label = "seconds";
  std::printf("%s\n", io::bar_chart(edges, mass, opt).c_str());
  std::printf(
      "  n=%zu  mean=%.4f  sd=%.4f  median=%.4f  p95=%.4f  max=%.4f\n\n",
      data.size(), data.mean(), std::sqrt(data.variance()),
      data.quantile(0.5), data.quantile(0.95), data.max());
  io::write_csv(csv_path, {"bin_left_edge", "mass"}, {edges, mass});
  std::printf("wrote %s (%zu rows)\n\n", csv_path.c_str(), edges.size());
}

int run(mec::bench::Context& ctx) {
  using namespace mec;
  std::printf(
      "=== Fig. 6: statistics of the (synthetic) measured data ===\n\n");

  const auto times = random::synthetic_yolo_processing_times();
  show(times, "(a) local processing time (YOLOv3 on RPi 4, synthetic)",
       ctx.output_path("fig6a_processing_time_hist.csv"));

  const auto latencies = random::synthetic_wifi_offload_latencies();
  show(latencies, "(b) offloading latency (WiFi upload, synthetic)",
       ctx.output_path("fig6b_offload_latency_hist.csv"));

  const auto rates = random::service_rates_from_times(times);
  std::printf(
      "derived service-rate dataset: mean = %.4f (paper's E[S] = %.4f)\n",
      rates.mean(), random::kPaperMeanServiceRate);
  return 0;
}

[[maybe_unused]] const bool kRegistered = mec::bench::register_experiment(
    {"fig6_data_histograms",
     "Fig. 6: histograms of the (synthetic) measured datasets",
     {},
     run});

}  // namespace
