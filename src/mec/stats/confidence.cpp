#include "mec/stats/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mec/common/error.hpp"

namespace mec::stats {

namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

/// Continued fraction for the regularized incomplete beta (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * static_cast<double>(m);
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Regularized incomplete beta I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0))
    return front * beta_continued_fraction(a, b, x) / a;
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

/// Upper tail P(T_v > t) of the t distribution for t >= 0: computed directly
/// from the incomplete beta so extreme tails keep full relative precision.
double student_t_upper_tail(double t, double v) {
  return 0.5 * incomplete_beta(0.5 * v, 0.5, v / (v + t * t));
}

/// log pdf of the t distribution (Newton derivative).
double student_t_log_pdf(double t, double v) {
  return std::lgamma(0.5 * (v + 1.0)) - std::lgamma(0.5 * v) -
         0.5 * std::log(v * kPi) -
         0.5 * (v + 1.0) * std::log1p(t * t / v);
}

/// Cornish–Fisher expansion of the t quantile in powers of 1/v around the
/// normal quantile z: the dof > 30 branch, and the Newton starting point.
double cornish_fisher_t(double z, double v) {
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  const double z7 = z5 * z * z;
  const double g1 = (z3 + z) / 4.0;
  const double g2 = (5.0 * z5 + 16.0 * z3 + 3.0 * z) / 96.0;
  const double g3 = (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / 384.0;
  return z + g1 / v + g2 / (v * v) + g3 / (v * v * v);
}

/// Positive t with P(T_v > t) = q, for an upper-tail probability
/// q in (0, 0.5].  Parameterizing by the tail (rather than p = 1 - q) keeps
/// the alpha-spending path exact: per-look levels below 1e-16 would round
/// 1 - q to 1.0.
double t_quantile_from_upper_tail(double q, double v) {
  if (q == 0.5) return 0.0;
  if (v == 1.0) return std::tan(kPi * (0.5 - q));  // Cauchy closed form
  if (v == 2.0) {
    // F(t) = 1/2 + t / (2 sqrt(2 + t^2)) inverts in closed form.
    const double pq = 4.0 * q * (1.0 - q);
    return (1.0 - 2.0 * q) * std::sqrt(2.0 / pq);
  }
  const double z = -normal_quantile(q);  // normal upper-tail quantile
  if (v > 30.0) return cornish_fisher_t(z, v);
  // Safeguarded Newton on the tail from the Cornish–Fisher start: the tail
  // is decreasing in t, so tail(t) > q brackets from below.
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  double t = std::max(cornish_fisher_t(z, v), 1e-8);
  for (int iter = 0; iter < 100; ++iter) {
    const double f = student_t_upper_tail(t, v) - q;
    (f > 0.0 ? lo : hi) = t;
    const double step = f * std::exp(-student_t_log_pdf(t, v));
    double next = t + step;
    if (!(next > lo && next < hi))
      next = std::isinf(hi) ? 2.0 * t : 0.5 * (lo + hi);
    const bool converged =
        std::fabs(next - t) <= 1e-14 * std::max(1.0, std::fabs(t));
    t = next;
    if (converged) break;
  }
  return t;
}

}  // namespace

double normal_quantile(double p) {
  MEC_EXPECTS(p > 0.0 && p < 1.0);
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step using the normal CDF via erfc.  exp(x^2/2)
  // overflows past |x| ~ 37.6 (p below ~1e-308), and close to the overflow
  // edge erfc underflows and the step degrades to 0/0 noise — alpha-spending
  // schedules do feed such tail levels.  The rational approximation alone is
  // already ~1e-9 accurate there, so skip the refinement instead of
  // returning inf/NaN.
  const double half_x2 = 0.5 * x * x;
  if (half_x2 < 700.0) {
    const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
    const double u =
        e * std::sqrt(2.0 * kPi) * std::exp(half_x2);
    if (std::isfinite(u)) x = x - u / (1.0 + x * u / 2.0);
  }
  return x;
}

double student_t_quantile(double p, std::size_t dof) {
  MEC_EXPECTS(p > 0.0 && p < 1.0);
  MEC_EXPECTS(dof >= 1);
  const auto v = static_cast<double>(dof);
  if (p < 0.5) return -t_quantile_from_upper_tail(p, v);
  return t_quantile_from_upper_tail(1.0 - p, v);
}

ConfidenceInterval mean_confidence_interval(const RunningSummary& summary,
                                            double confidence) {
  MEC_EXPECTS(confidence > 0.0 && confidence < 1.0);
  MEC_EXPECTS(summary.count() >= 2);
  const double tail = 0.5 * (1.0 + confidence);
  const double q = summary.count() < 100
                       ? student_t_quantile(tail, summary.count() - 1)
                       : normal_quantile(tail);
  return ConfidenceInterval{summary.mean(), q * summary.standard_error(),
                            confidence};
}

double alpha_spending_level(double alpha, std::size_t look) {
  MEC_EXPECTS(alpha > 0.0 && alpha < 1.0);
  MEC_EXPECTS(look >= 1);
  // Geometric schedule: sum_k alpha 2^{-k} <= alpha for any number of looks.
  // The exponent cap keeps the level a normal double (2^-512 ~ 7.5e-155);
  // the overspend it admits past look 512 is ~1e-152 and unreachable anyway.
  const auto k = static_cast<double>(std::min<std::size_t>(look, 512));
  return alpha * std::exp2(-k);
}

double spending_adjusted_quantile(double confidence, std::size_t look,
                                  std::size_t dof) {
  MEC_EXPECTS(confidence > 0.0 && confidence < 1.0);
  MEC_EXPECTS(dof >= 1);
  const double level = alpha_spending_level(1.0 - confidence, look);
  // Two-sided: each tail gets level/2.  Evaluate via the lower tail so
  // levels below 1e-16 keep full precision (1 - level/2 would round to 1).
  return -student_t_quantile(0.5 * level, dof);
}

}  // namespace mec::stats
