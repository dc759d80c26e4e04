#include "mec/core/edge_delay.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>

#include "mec/queueing/erlang.hpp"

namespace mec::core {

EdgeDelay::EdgeDelay(std::function<double(double)> fn, std::string description)
    : fn_(std::move(fn)), description_(std::move(description)) {
  MEC_EXPECTS(static_cast<bool>(fn_));
  MEC_EXPECTS_MSG(fn_(0.0) >= 0.0, "edge delay must be non-negative");
  // Spot-check monotonicity on a coarse grid (full verification is the
  // caller's contract; this catches obvious mistakes cheaply).
  double prev = fn_(0.0);
  for (int i = 1; i <= 10; ++i) {
    const double v = fn_(i / 10.0);
    MEC_EXPECTS_MSG(v >= prev, "edge delay must be non-decreasing");
    prev = v;
  }
}

double EdgeDelay::operator()(double gamma) const {
  MEC_EXPECTS_MSG(valid(), "calling an empty EdgeDelay");
  MEC_EXPECTS(gamma >= 0.0 && gamma <= 1.0);
  return fn_(gamma);
}

EdgeDelay make_reciprocal_delay(double margin) {
  check_option(margin > 1.0, "reciprocal delay", "margin", margin,
               "a value > 1");
  std::ostringstream os;
  os << "1/(" << margin << " - gamma)";
  return EdgeDelay([margin](double g) { return 1.0 / (margin - g); },
                   os.str());
}

EdgeDelay make_linear_delay(double g0, double slope) {
  check_option(g0 >= 0.0, "linear delay", "g0", g0, "a value >= 0");
  check_option(slope >= 0.0, "linear delay", "slope", slope, "a value >= 0");
  std::ostringstream os;
  os << g0 << " + " << slope << "*gamma";
  return EdgeDelay([g0, slope](double g) { return g0 + slope * g; }, os.str());
}

EdgeDelay make_power_delay(double gmax, double p) {
  check_option(gmax >= 0.0, "power delay", "gmax", gmax, "a value >= 0");
  check_option(p > 0.0, "power delay", "p", p, "a value > 0");
  std::ostringstream os;
  os << gmax << "*gamma^" << p;
  return EdgeDelay(
      [gmax, p](double g) { return gmax * std::pow(g, p); }, os.str());
}

EdgeDelay make_constant_delay(double value) {
  check_option(value >= 0.0, "constant delay", "value", value, "a value >= 0");
  std::ostringstream os;
  os << "const " << value;
  return EdgeDelay([value](double) { return value; }, os.str());
}

EdgeDelay make_erlang_c_delay(std::size_t servers, double server_rate,
                              double gamma_cap) {
  constexpr std::string_view kDelay = "erlangc delay";
  check_option(servers >= 1 && servers <= kMaxErlangOrder, kDelay, "servers",
               servers,
               "an integer in [1, " + std::to_string(kMaxErlangOrder) + "]");
  check_option(server_rate > 0.0, kDelay, "server_rate", server_rate,
               "a value > 0");
  check_option(gamma_cap > 0.0 && gamma_cap < 1.0, kDelay, "gamma_cap",
               gamma_cap, "a value in (0, 1)");
  std::ostringstream os;
  os << "ErlangC(N=" << servers << ", mu=" << server_rate
     << ", cap=" << gamma_cap << ")";
  return EdgeDelay(
      [servers, server_rate, gamma_cap](double gamma) {
        const double g = std::min(gamma, gamma_cap);
        const double lambda =
            g * static_cast<double>(servers) * server_rate;
        return queueing::mmn_mean_sojourn(servers, server_rate, lambda);
      },
      os.str());
}

}  // namespace mec::core
