#include "mec/population/scenario_text.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/population/population.hpp"

namespace mec::population {
namespace {

constexpr const char* kValid = R"(
# demo fleet
name      = demo
n_users   = 250
capacity  = 10
weight    = 2

delay     = reciprocal 1.1
arrival   = uniform 0 4
service   = uniform 1 5
latency   = lognormal -1.2 0.5 3.0
energy_local   = uniform 0 3
energy_offload = constant 0.5
)";

TEST(ScenarioText, ParsesAFullConfig) {
  const ScenarioConfig cfg = parse_scenario_text(kValid);
  EXPECT_EQ(cfg.name, "demo");
  EXPECT_EQ(cfg.n_users, 250u);
  EXPECT_DOUBLE_EQ(cfg.capacity, 10.0);
  EXPECT_DOUBLE_EQ(cfg.weight, 2.0);
  EXPECT_DOUBLE_EQ(cfg.arrival.mean(), 2.0);
  EXPECT_DOUBLE_EQ(cfg.energy_offload.mean(), 0.5);
  EXPECT_NEAR(cfg.delay(0.0), 1.0 / 1.1, 1e-12);
}

TEST(ScenarioText, ParsedConfigDrivesTheFullPipeline) {
  const ScenarioConfig cfg = parse_scenario_text(kValid);
  const Population pop = sample_population(cfg, 5);
  const auto mfne = core::solve_mfne(pop.users, cfg.delay, cfg.capacity);
  EXPECT_GT(mfne.gamma_star, 0.0);
  EXPECT_LT(mfne.gamma_star, 1.0);
}

TEST(ScenarioText, SupportsEveryDistributionFamily) {
  const ScenarioConfig cfg = parse_scenario_text(R"(
n_users = 10
capacity = 5
delay = linear 0.5 2
arrival = exponential 1.0 6.0
service = gamma 2 1.5 12
latency = normal 1 0.5 0 2
energy_local = uniform 0 3
energy_offload = constant 0.2
)");
  EXPECT_GT(cfg.arrival.mean(), 0.0);
  EXPECT_LE(cfg.arrival.upper_bound(), 6.0);
  EXPECT_LE(cfg.latency.upper_bound(), 2.0);
}

TEST(ScenarioText, SupportsEveryDelayFamily) {
  for (const std::string spec :
       {"reciprocal 1.2", "linear 0.1 3", "power 4 2", "constant 1.5",
        "erlangc 16 2.0", "erlangc 16 2.0 0.9"}) {
    const ScenarioConfig cfg = parse_scenario_text(
        "n_users=10\ncapacity=5\ndelay=" + spec +
        "\narrival=uniform 0 2\nservice=uniform 1 3\nlatency=uniform 0 1\n"
        "energy_local=uniform 0 1\nenergy_offload=uniform 0 1\n");
    EXPECT_GE(cfg.delay(0.5), 0.0) << spec;
  }
}

TEST(ScenarioText, SupportsWeightDistribution) {
  const ScenarioConfig cfg = parse_scenario_text(
      "n_users=500\ncapacity=5\ndelay=reciprocal 1.1\n"
      "weight_dist=uniform 0.5 1.5\n"
      "arrival=uniform 0 2\nservice=uniform 1 3\nlatency=uniform 0 1\n"
      "energy_local=uniform 0 1\nenergy_offload=uniform 0 1\n");
  ASSERT_TRUE(cfg.weight_dist.valid());
  const Population pop = sample_population(cfg, 3);
  bool varied = false;
  for (const auto& u : pop.users) varied |= u.weight != pop.users[0].weight;
  EXPECT_TRUE(varied);
}

TEST(ScenarioText, ReportsLineNumbersOnErrors) {
  try {
    parse_scenario_text("n_users = 10\nbogus_line_without_equals\n");
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioText, RejectsUnknownKeysFamiliesAndBadNumbers) {
  EXPECT_THROW(parse_scenario_text("frobnicate = 1\n"), RuntimeError);
  EXPECT_THROW(parse_scenario_text("arrival = zipf 1 2\n"), RuntimeError);
  EXPECT_THROW(parse_scenario_text("capacity = ten\n"), RuntimeError);
  EXPECT_THROW(parse_scenario_text("n_users = 2.5\n"), RuntimeError);
  // Counts too large or not a number are refused before any cast.
  EXPECT_THROW(parse_scenario_text("n_users = 1e30\n"), RuntimeError);
  EXPECT_THROW(parse_scenario_text("clusters = nan\n"), RuntimeError);
  EXPECT_THROW(parse_scenario_text("arrival = uniform 4 0\n"), RuntimeError);
}

// Every distribution and delay family refuses a bad parameter by line,
// family, parameter, value and range, and an Erlang-C server count is
// checked as a number before it becomes a count: a negative, NaN, huge or
// fractional one is refused, never cast.
TEST(ScenarioText, RefusesBadFamilyParametersByName) {
  const struct {
    const char* line;
    const char* message;
  } rows[] = {
      {"arrival = uniform 0 -1", "uniform: hi is -1, expected a value >= lo"},
      {"arrival = exponential -1 6",
       "exponential: mean is -1, expected a value > 0"},
      {"arrival = exponential 4 0.5",
       "exponential: cap is 0.5, expected a value > mean / 4 (for rejection "
       "sampling)"},
      {"latency = normal 1 0 0 2", "normal: sigma is 0, expected a value > 0"},
      {"latency = normal 1 0.5 2 2", "normal: hi is 2, expected a value > lo"},
      {"latency = lognormal -1 0.5 0",
       "lognormal: cap is 0, expected a value > 0"},
      {"service = gamma 0 1 5", "gamma: shape is 0, expected a value > 0"},
      {"delay = reciprocal 0.5",
       "reciprocal delay: margin is 0.5, expected a value > 1"},
      {"delay = linear -1 2", "linear delay: g0 is -1, expected a value >= 0"},
      {"delay = power -1 2", "power delay: gmax is -1, expected a value >= 0"},
      {"delay = constant -2",
       "constant delay: value is -2, expected a value >= 0"},
      {"delay = erlangc -1 2",
       "erlangc delay: servers is -1, expected an integer in [1, 1000000]"},
      {"delay = erlangc nan 2",
       "erlangc delay: servers is nan, expected an integer in [1, 1000000]"},
      {"delay = erlangc 1e30 2",
       "erlangc delay: servers is 1e+30, expected an integer in [1, "
       "1000000]"},
      {"delay = erlangc 2.5 2",
       "erlangc delay: servers is 2.5, expected an integer in [1, 1000000]"},
      {"delay = erlangc 4 0",
       "erlangc delay: server_rate is 0, expected a value > 0"},
      {"delay = erlangc 4 2 1",
       "erlangc delay: gamma_cap is 1, expected a value in (0, 1)"},
  };
  for (const auto& row : rows) {
    try {
      parse_scenario_text(std::string("n_users = 10\n") + row.line + "\n");
      ADD_FAILURE() << row.line << " was accepted";
    } catch (const RuntimeError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("scenario config line 2: ") + row.message);
    }
  }
}

TEST(ScenarioText, RejectsIncompleteConfigs) {
  try {
    parse_scenario_text("n_users = 10\ncapacity = 5\n");
    FAIL() << "expected RuntimeError";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("missing required key"),
              std::string::npos);
  }
}

TEST(ScenarioText, LoadsFromAFile) {
  const std::string path = "/tmp/mec_scenario_test.mec";
  {
    std::ofstream out(path);
    out << kValid;
  }
  const ScenarioConfig cfg = load_scenario_file(path);
  EXPECT_EQ(cfg.name, "demo");
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file("/nonexistent/nope.mec"), RuntimeError);
}

}  // namespace
}  // namespace mec::population
