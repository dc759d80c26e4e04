#include "mec/queueing/phase_type.hpp"

#include <cmath>
#include <numeric>

#include "mec/common/error.hpp"
#include "mec/queueing/ctmc.hpp"

namespace mec::queueing {

namespace {

/// Solves (-S) * x = rhs for the phase-type sub-generator S (tiny dense
/// system; Gaussian elimination with partial pivoting).
std::vector<double> solve_neg_subgenerator(const PhaseType& pt,
                                           std::vector<double> rhs) {
  const std::size_t m = pt.phases();
  // Build A = -S: diag = sum of outgoing (phase changes + completion),
  // off-diag = -phase_change.
  std::vector<double> a(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double out = pt.completion[i];
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      out += pt.phase_change[i][j];
      a[i * m + j] = -pt.phase_change[i][j];
    }
    a[i * m + i] = out;
  }
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row)
      if (std::abs(a[row * m + col]) > std::abs(a[pivot * m + col]))
        pivot = row;
    MEC_EXPECTS_MSG(std::abs(a[pivot * m + col]) > 1e-13,
                    "phase-type sub-generator is singular");
    if (pivot != col) {
      for (std::size_t j = 0; j < m; ++j)
        std::swap(a[pivot * m + j], a[col * m + j]);
      std::swap(rhs[pivot], rhs[col]);
    }
    for (std::size_t row = col + 1; row < m; ++row) {
      const double f = a[row * m + col] / a[col * m + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < m; ++j)
        a[row * m + j] -= f * a[col * m + j];
      rhs[row] -= f * rhs[col];
    }
  }
  std::vector<double> x(m);
  for (std::size_t r1 = m; r1 > 0; --r1) {
    const std::size_t row = r1 - 1;
    double acc = rhs[row];
    for (std::size_t j = row + 1; j < m; ++j) acc -= a[row * m + j] * x[j];
    x[row] = acc / a[row * m + row];
  }
  return x;
}

}  // namespace

void PhaseType::check() const {
  const std::size_t m = phases();
  MEC_EXPECTS_MSG(m >= 1, "phase-type needs at least one phase");
  MEC_EXPECTS(completion.size() == m);
  MEC_EXPECTS(phase_change.size() == m);
  for (const auto& row : phase_change) MEC_EXPECTS(row.size() == m);
  double init_sum = 0.0;
  for (const double p : initial) {
    MEC_EXPECTS(p >= 0.0 && p <= 1.0);
    init_sum += p;
  }
  MEC_EXPECTS_MSG(std::abs(init_sum - 1.0) < 1e-9,
                  "phase-type initial distribution must sum to 1");
  for (std::size_t i = 0; i < m; ++i) {
    MEC_EXPECTS(completion[i] >= 0.0);
    double out = completion[i];
    for (std::size_t j = 0; j < m; ++j) {
      MEC_EXPECTS(phase_change[i][j] >= 0.0);
      if (i != j) out += phase_change[i][j];
    }
    MEC_EXPECTS_MSG(out > 0.0, "every phase needs an outgoing rate");
  }
}

double PhaseType::mean() const {
  check();
  const auto u = solve_neg_subgenerator(*this,
                                        std::vector<double>(phases(), 1.0));
  double acc = 0.0;
  for (std::size_t i = 0; i < phases(); ++i) acc += initial[i] * u[i];
  return acc;
}

double PhaseType::scv() const {
  check();
  const auto u1 = solve_neg_subgenerator(*this,
                                         std::vector<double>(phases(), 1.0));
  const auto u2 = solve_neg_subgenerator(*this, u1);
  double m1 = 0.0, half_m2 = 0.0;
  for (std::size_t i = 0; i < phases(); ++i) {
    m1 += initial[i] * u1[i];
    half_m2 += initial[i] * u2[i];
  }
  const double m2 = 2.0 * half_m2;
  return (m2 - m1 * m1) / (m1 * m1);
}

PhaseType PhaseType::scaled_to_mean(double new_mean) const {
  MEC_EXPECTS(new_mean > 0.0);
  const double factor = mean() / new_mean;  // rate multiplier
  PhaseType scaled = *this;
  for (auto& row : scaled.phase_change)
    for (double& r : row) r *= factor;
  for (double& r : scaled.completion) r *= factor;
  return scaled;
}

PhaseType exponential_phase(double rate) {
  MEC_EXPECTS(rate > 0.0);
  PhaseType pt;
  pt.initial = {1.0};
  pt.phase_change = {{0.0}};
  pt.completion = {rate};
  return pt;
}

PhaseType erlang_phase(std::size_t stages, double mean) {
  MEC_EXPECTS(stages >= 1);
  MEC_EXPECTS(mean > 0.0);
  const double stage_rate = static_cast<double>(stages) / mean;
  PhaseType pt;
  pt.initial.assign(stages, 0.0);
  pt.initial[0] = 1.0;
  pt.phase_change.assign(stages, std::vector<double>(stages, 0.0));
  pt.completion.assign(stages, 0.0);
  for (std::size_t i = 0; i + 1 < stages; ++i)
    pt.phase_change[i][i + 1] = stage_rate;
  pt.completion[stages - 1] = stage_rate;
  return pt;
}

PhaseType hyperexponential_phase(std::vector<double> probs,
                                 std::vector<double> rates) {
  MEC_EXPECTS(!probs.empty());
  MEC_EXPECTS(probs.size() == rates.size());
  const std::size_t m = probs.size();
  PhaseType pt;
  pt.initial = std::move(probs);
  pt.phase_change.assign(m, std::vector<double>(m, 0.0));
  pt.completion = std::move(rates);
  pt.check();
  return pt;
}

PhaseType hyperexponential_from_scv(double mean, double scv) {
  MEC_EXPECTS(mean > 0.0);
  MEC_EXPECTS_MSG(scv >= 1.0, "two-phase hyperexponential needs scv >= 1");
  if (scv == 1.0) return exponential_phase(1.0 / mean);
  // Balanced-means H2 fit: p1*mu2 = p2*mu1... standard construction:
  // p = (1 + sqrt((scv-1)/(scv+1)))/2, rates chosen so each branch carries
  // equal probability-weighted mean.
  const double p = 0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
  const double r1 = 2.0 * p / mean;
  const double r2 = 2.0 * (1.0 - p) / mean;
  return hyperexponential_phase({p, 1.0 - p}, {r1, r2});
}

TroMetrics tro_metrics_phase_type(double arrival_rate,
                                  const PhaseType& service, double x) {
  MEC_EXPECTS(arrival_rate > 0.0);
  service.check();
  MEC_EXPECTS(x >= 0.0);
  MEC_EXPECTS_MSG(x <= 500.0, "phase-type threshold queue limited to x<=500");

  const double fl = std::floor(x);
  const auto k = static_cast<std::size_t>(fl);
  const double frac = x - fl;

  if (x == 0.0) return TroMetrics{0.0, 1.0, 1.0};

  const std::size_t m = service.phases();
  // Top reachable level: k+1 if the randomized state admits (frac > 0),
  // else k.  (An unreachable level would make the chain reducible.)
  const std::size_t top = frac > 0.0 ? k + 1 : k;
  MEC_ASSERT(top >= 1);
  const std::size_t n_states = 1 + top * m;  // empty + (q,phase)
  const auto idx = [m](std::size_t q, std::size_t phase) {
    return 1 + (q - 1) * m + phase;
  };

  GeneratorMatrix gen(n_states);
  // Arrivals out of empty: admitted unless k == 0 (then admitted w.p. frac).
  const double admit_from_empty = (k >= 1) ? 1.0 : frac;
  for (std::size_t j = 0; j < m; ++j)
    if (service.initial[j] > 0.0 && admit_from_empty > 0.0)
      gen.add_rate(0, idx(1, j),
                   arrival_rate * admit_from_empty * service.initial[j]);

  for (std::size_t q = 1; q <= top; ++q) {
    // Admission probability for an arrival seeing queue length q.
    double admit = 0.0;
    if (q < k) admit = 1.0;
    else if (q == k) admit = frac;
    for (std::size_t j = 0; j < m; ++j) {
      if (admit > 0.0 && q < top)
        gen.add_rate(idx(q, j), idx(q + 1, j), arrival_rate * admit);
      // Phase changes of the in-service task.
      for (std::size_t j2 = 0; j2 < m; ++j2)
        if (j2 != j && service.phase_change[j][j2] > 0.0)
          gen.add_rate(idx(q, j), idx(q, j2), service.phase_change[j][j2]);
      // Completion: next head-of-line task (if any) draws a fresh phase.
      if (service.completion[j] > 0.0) {
        if (q == 1) {
          gen.add_rate(idx(q, j), 0, service.completion[j]);
        } else {
          for (std::size_t j2 = 0; j2 < m; ++j2)
            if (service.initial[j2] > 0.0)
              gen.add_rate(idx(q, j), idx(q - 1, j2),
                           service.completion[j] * service.initial[j2]);
        }
      }
    }
  }

  const std::vector<double> pi = stationary_distribution(gen);

  TroMetrics out{};
  out.p_empty = pi[0];
  double mean_q = 0.0;
  std::vector<double> level(top + 1, 0.0);
  level[0] = pi[0];
  for (std::size_t q = 1; q <= top; ++q) {
    double mass = 0.0;
    for (std::size_t j = 0; j < m; ++j) mass += pi[idx(q, j)];
    level[q] = mass;
    mean_q += static_cast<double>(q) * mass;
  }
  out.mean_queue_length = mean_q;
  // PASTA: an arrival is offloaded iff it sees q == k and loses the coin
  // (probability 1 - frac), or sees q == k+1 (only reachable if frac > 0).
  double offload = 0.0;
  if (k <= top) offload += (1.0 - frac) * level[k];
  if (frac > 0.0) offload += level[k + 1];
  out.offload_probability = offload;
  MEC_ENSURES(out.offload_probability >= -1e-12 &&
              out.offload_probability <= 1.0 + 1e-12);
  return out;
}

}  // namespace mec::queueing
