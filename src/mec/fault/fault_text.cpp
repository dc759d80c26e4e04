#include "mec/fault/fault_text.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "mec/common/error.hpp"

namespace mec::fault {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream os;
  os << "fault schedule line " << line << ": " << message;
  throw RuntimeError(os.str());
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

std::uint32_t to_device(const std::string& token, int line) {
  const double v = to_number(token, line);
  if (v < 0.0 || v != static_cast<double>(static_cast<std::uint32_t>(v)))
    fail(line, "expected a non-negative device index, got '" + token + "'");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

FaultSchedule parse_fault_schedule(
    const std::string& text,
    const population::ScenarioConfig* churn_scenario) {
  FaultSchedule schedule;
  std::istringstream is(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(is, raw)) {
    ++line_number;
    const auto hash = raw.find('#');
    std::istringstream body(hash == std::string::npos ? raw
                                                      : raw.substr(0, hash));
    std::vector<std::string> tokens;
    std::string token;
    while (body >> token) tokens.push_back(token);
    if (tokens.empty()) continue;

    const std::string& verb = tokens.front();
    const auto need = [&](std::size_t n) {
      if (tokens.size() != n + 1)
        fail(line_number,
             verb + " expects " + std::to_string(n) + " arguments");
    };
    const auto num = [&](std::size_t i) {
      return to_number(tokens[i], line_number);
    };
    try {
      if (verb == "capacity") {
        if (tokens.size() == 3) {
          schedule.add_capacity_scale(num(1), num(2));
        } else if (tokens.size() == 5 && tokens[3] == "cluster") {
          const std::uint32_t c = to_device(tokens[4], line_number);
          if (c >= FaultAction::kAllClusters)
            fail(line_number, "cluster index out of range");
          schedule.add_capacity_scale(num(1), num(2),
                                      static_cast<std::uint16_t>(c));
        } else {
          fail(line_number,
               "capacity expects: <t> <scale> [cluster <k>]");
        }
      } else if (verb == "outage") {
        if (tokens.size() != 4 && tokens.size() != 5)
          fail(line_number, "outage expects: <begin> <end> reject | "
                            "<begin> <end> penalty <seconds>");
        const std::string& mode = tokens[3];
        if (mode == "reject") {
          need(3);
          schedule.add_outage(num(1), num(2), OutageMode::kReject);
        } else if (mode == "penalty") {
          need(4);
          schedule.add_outage(num(1), num(2), OutageMode::kPenalty, num(4));
        } else {
          fail(line_number, "unknown outage mode '" + mode +
                                "' (reject|penalty)");
        }
      } else if (verb == "crash") {
        need(2);
        schedule.add_crash(num(1), to_device(tokens[2], line_number));
      } else if (verb == "restart") {
        need(2);
        schedule.add_restart(num(1), to_device(tokens[2], line_number));
      } else if (verb == "churn") {
        need(5);
        if (churn_scenario == nullptr)
          fail(line_number,
               "churn requires a scenario (its joins draw users from the "
               "scenario distributions)");
        const double seed = num(5);
        if (seed < 0.0)
          fail(line_number, "churn seed must be non-negative");
        schedule.add_poisson_churn(*churn_scenario, /*arrival_rate=*/num(3),
                                   /*departure_rate=*/num(4),
                                   /*t_begin=*/num(1), /*t_end=*/num(2),
                                   static_cast<std::uint64_t>(seed));
      } else {
        fail(line_number, "unknown fault verb '" + verb +
                              "' (capacity|outage|crash|restart|churn)");
      }
    } catch (const ContractViolation& e) {
      fail(line_number, std::string("invalid ") + verb + ": " + e.what());
    }
  }
  return schedule;
}

FaultSchedule embedded_fault_schedule(
    const population::ScenarioConfig& scenario) {
  std::string text;
  for (const std::string& line : scenario.fault_lines) {
    text += line;
    text += '\n';
  }
  return parse_fault_schedule(text, &scenario);
}

FaultSchedule load_fault_schedule_file(
    const std::string& path,
    const population::ScenarioConfig* churn_scenario) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open fault schedule file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_fault_schedule(buffer.str(), churn_scenario);
}

}  // namespace mec::fault
