#include "mec/queueing/threshold_queue.hpp"

#include <cmath>

#include "mec/common/error.hpp"

namespace mec::queueing {

namespace {

struct Decomposed {
  long long k;   // floor(x)
  double frac;   // x - floor(x)
};

Decomposed decompose(double theta, double x) {
  MEC_EXPECTS(theta > 0.0);
  MEC_EXPECTS(x >= 0.0);
  MEC_EXPECTS_MSG(x <= 1e6, "threshold beyond supported range");
  const double fl = std::floor(x);
  return {static_cast<long long>(fl), x - fl};
}

/// Accumulated unnormalized chain weights, rescaled to avoid overflow.
/// All members share the same (unknown) scale factor, so any ratio is exact.
struct ChainSums {
  double s0;      // sum_{i=0..k} theta^i
  double s1;      // sum_{i=0..k} i * theta^i
  double w0;      // weight of state 0 (rescaled 1.0)
  double wk;      // weight of state k, theta^k
  double wtop;    // weight of state k+1, frac * theta^{k+1}
};

ChainSums accumulate(double theta, long long k, double frac) {
  ChainSums c{1.0, 0.0, 1.0, 1.0, 0.0};
  double w = 1.0;
  for (long long i = 1; i <= k; ++i) {
    w *= theta;
    c.s0 += w;
    c.s1 += static_cast<double>(i) * w;
    if (c.s0 > 1e280 || c.s1 > 1e280) {
      constexpr double kRescale = 1e-280;
      c.s0 *= kRescale;
      c.s1 *= kRescale;
      c.w0 *= kRescale;
      w *= kRescale;
    }
  }
  c.wk = w;
  c.wtop = frac * w * theta;
  return c;
}

}  // namespace

TroMetrics tro_metrics(double theta, double x) {
  const auto [k, frac] = decompose(theta, x);
  const ChainSums c = accumulate(theta, k, frac);
  const double total = c.s0 + c.wtop;
  TroMetrics m{};
  m.mean_queue_length =
      (c.s1 + static_cast<double>(k + 1) * c.wtop) / total;
  // PASTA: an arrival is offloaded iff it sees state k and loses the coin
  // flip (prob 1-frac), or sees state k+1.
  m.offload_probability = ((1.0 - frac) * c.wk + c.wtop) / total;
  m.p_empty = c.w0 / total;
  MEC_ENSURES(m.offload_probability >= 0.0 && m.offload_probability <= 1.0);
  MEC_ENSURES(m.mean_queue_length >= 0.0);
  return m;
}

double tro_offload_probability(double theta, double x) {
  return tro_metrics(theta, x).offload_probability;
}

}  // namespace mec::queueing
