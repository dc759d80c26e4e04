#include "mec/population/scenario_text.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "mec/common/error.hpp"

namespace mec::population {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream os;
  os << "scenario config line " << line << ": " << message;
  throw RuntimeError(os.str());
}

std::vector<std::string> tokenize(const std::string& value) {
  std::istringstream is(value);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

double to_number(const std::string& token, int line) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) throw std::invalid_argument("trailing");
    return v;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + token + "'");
  }
}

/// True when `v` is an integer in [1, max], so casting it to std::size_t is
/// defined (it is not for a negative, NaN or too large value).
bool is_count(double v, double max) {
  return v >= 1.0 && v <= max && v == std::floor(v);
}

/// Parses "<family> <params...>" into a Distribution.
random::Distribution parse_distribution(const std::string& value, int line) {
  const auto tokens = tokenize(value);
  if (tokens.empty()) fail(line, "empty distribution spec");
  const std::string& family = tokens.front();
  const auto need = [&](std::size_t n) {
    if (tokens.size() != n + 1)
      fail(line, family + " expects " + std::to_string(n) + " parameters");
  };
  const auto num = [&](std::size_t i) { return to_number(tokens[i], line); };
  try {
    if (family == "uniform") {
      need(2);
      return random::make_uniform(num(1), num(2));
    }
    if (family == "constant") {
      need(1);
      return random::make_constant(num(1));
    }
    if (family == "exponential") {
      need(2);
      return random::make_truncated_exponential(num(1), num(2));
    }
    if (family == "normal") {
      need(4);
      return random::make_truncated_normal(num(1), num(2), num(3), num(4));
    }
    if (family == "lognormal") {
      need(3);
      return random::make_truncated_lognormal(num(1), num(2), num(3));
    }
    if (family == "gamma") {
      need(3);
      return random::make_truncated_gamma(num(1), num(2), num(3));
    }
  } catch (const ContractViolation& e) {
    fail(line, e.what());
  }
  fail(line, "unknown distribution family '" + family + "'");
}

core::EdgeDelay parse_delay(const std::string& value, int line) {
  const auto tokens = tokenize(value);
  if (tokens.empty()) fail(line, "empty delay spec");
  const std::string& family = tokens.front();
  const auto num = [&](std::size_t i) {
    if (i >= tokens.size()) fail(line, family + ": missing parameter");
    return to_number(tokens[i], line);
  };
  try {
    if (family == "reciprocal") return core::make_reciprocal_delay(num(1));
    if (family == "linear") return core::make_linear_delay(num(1), num(2));
    if (family == "power") return core::make_power_delay(num(1), num(2));
    if (family == "constant") return core::make_constant_delay(num(1));
    if (family == "erlangc") {
      const double servers = num(1);
      check_option(
          is_count(servers, static_cast<double>(core::kMaxErlangOrder)),
          "erlangc delay", "servers", servers,
          "an integer in [1, " + std::to_string(core::kMaxErlangOrder) + "]");
      const double mu = num(2);
      const double cap = tokens.size() > 3 ? num(3) : 0.95;
      return core::make_erlang_c_delay(static_cast<std::size_t>(servers), mu,
                                       cap);
    }
  } catch (const ContractViolation& e) {
    fail(line, e.what());
  }
  fail(line, "unknown delay family '" + family + "'");
}

}  // namespace

ScenarioConfig parse_scenario_text(const std::string& text) {
  ScenarioConfig cfg;
  cfg.name = "scenario";

  std::istringstream is(text);
  std::string raw;
  int line_number = 0;
  bool saw[6] = {false, false, false, false, false, false};
  enum { kArrival, kService, kLatency, kEnergyLocal, kEnergyOffload, kDelay };

  while (std::getline(is, raw)) {
    ++line_number;
    // Strip comments and whitespace-only lines.
    const auto hash = raw.find('#');
    std::string body = hash == std::string::npos ? raw : raw.substr(0, hash);
    const auto eq = body.find('=');
    if (body.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (eq == std::string::npos)
      fail(line_number, "expected 'key = value'");
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
    };
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    if (key.empty()) fail(line_number, "empty key");
    if (value.empty()) fail(line_number, "empty value for '" + key + "'");

    if (key == "name") {
      cfg.name = value;
    } else if (key == "n_users") {
      const double n = to_number(value, line_number);
      if (!is_count(n, 0x1p53))
        fail(line_number, "n_users must be a positive integer");
      cfg.n_users = static_cast<std::size_t>(n);
    } else if (key == "capacity") {
      cfg.capacity = to_number(value, line_number);
    } else if (key == "clusters") {
      const double k = to_number(value, line_number);
      if (!is_count(k, 0x1p53))
        fail(line_number, "clusters must be a positive integer");
      cfg.clusters = static_cast<std::size_t>(k);
    } else if (key == "cluster_shares") {
      cfg.cluster_shares.clear();
      for (const std::string& token : tokenize(value))
        cfg.cluster_shares.push_back(to_number(token, line_number));
      if (cfg.cluster_shares.empty())
        fail(line_number, "cluster_shares needs at least one share");
    } else if (key == "weight") {
      cfg.weight = to_number(value, line_number);
    } else if (key == "weight_dist") {
      cfg.weight_dist = parse_distribution(value, line_number);
    } else if (key == "arrival") {
      cfg.arrival = parse_distribution(value, line_number);
      saw[kArrival] = true;
    } else if (key == "service") {
      cfg.service = parse_distribution(value, line_number);
      saw[kService] = true;
    } else if (key == "latency") {
      cfg.latency = parse_distribution(value, line_number);
      saw[kLatency] = true;
    } else if (key == "energy_local") {
      cfg.energy_local = parse_distribution(value, line_number);
      saw[kEnergyLocal] = true;
    } else if (key == "energy_offload") {
      cfg.energy_offload = parse_distribution(value, line_number);
      saw[kEnergyOffload] = true;
    } else if (key == "delay") {
      cfg.delay = parse_delay(value, line_number);
      saw[kDelay] = true;
    } else if (key == "fault") {
      // Fault-schedule lines ride along verbatim; they are validated by
      // fault::parse_fault_schedule when a tool builds the schedule.
      cfg.fault_lines.push_back(value);
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }

  static constexpr const char* kNames[6] = {
      "arrival", "service", "latency", "energy_local", "energy_offload",
      "delay"};
  for (int i = 0; i < 6; ++i)
    if (!saw[i])
      throw RuntimeError(
          std::string("scenario config: missing required key '") + kNames[i] +
          "'");
  try {
    cfg.check();
  } catch (const ContractViolation& e) {
    throw RuntimeError(std::string("scenario config invalid: ") + e.what());
  }
  return cfg;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open scenario file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario_text(buffer.str());
}

}  // namespace mec::population
