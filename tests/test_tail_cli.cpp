// The two log-viewer front ends, `mec tail` and mec_tail, share one flag
// grammar (obs::tail_main).  One table drives both binaries and expects the
// same exit status and the same message from each.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "mec/core/edge_delay.hpp"
#include "mec/core/user.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace {

using namespace mec;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Runs `command` with stdout discarded; returns its exit status and puts
/// its stderr in `err`.
int run(const std::string& command, std::string& err) {
  const std::string err_path = temp_path("mec_tail_cli.err");
  const int status =
      std::system((command + " > /dev/null 2> " + err_path).c_str());
  std::ifstream in(err_path);
  err.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  std::filesystem::remove(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TailFrontEnds, AgreeOnEveryFlag) {
  const std::string log = temp_path("mec_tail_cli.meclog");
  const std::string csv = temp_path("mec_tail_cli.csv");
  {
    std::vector<core::UserParams> users(20);
    for (auto& u : users) {
      u.arrival_rate = 1.0;
      u.service_rate = 2.0;
      u.offload_latency = 0.5;
      u.energy_local = 1.0;
      u.energy_offload = 0.5;
    }
    sim::SimulationOptions o;
    o.warmup = 0.0;
    o.horizon = 5.0;
    o.stream_log = log;
    o.sample_interval = 1.0;
    sim::MecSimulation sim(users, 10.0, core::make_reciprocal_delay(), o);
    (void)sim.run_tro(std::vector<double>(users.size(), 2.0));
  }
  // The same log without its 52-byte footer frame: what a run that died
  // between frames leaves, and a log that will never grow again.
  const std::string cut = temp_path("mec_tail_cli_cut.meclog");
  {
    std::ifstream in(log, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 52u);
    bytes.resize(bytes.size() - 52);
    std::ofstream(cut, std::ios::binary) << bytes;
  }
  struct Row {
    std::string args;
    int exit_code;
    std::string message;  ///< expected in stderr; empty: stderr is empty
  };
  const Row rows[] = {
      {log + " --check", 0, ""},
      {"--log=" + log + " --check", 0, ""},
      {log + " --csv=" + csv, 0, ""},
      {log + " --follow --max-updates=1", 0, ""},
      {cut + " --check", 1, ""},
      {cut + " --follow --max-updates=3 --interval=1", 0, ""},
      {log + " --csv", 1, "error: flag --csv expects a value"},
      {log + " --hist-csv", 1, "error: flag --hist-csv expects a value"},
      {"--log", 1, "error: flag --log expects a value"},
      {log + " --bogus=1", 1, "error: unknown flag: --bogus"},
      {log + " --interval=0", 1,
       "error: --interval is 0, expected an integer in [1, 2147483647]"},
      {log + " --max-updates=-1", 1,
       "error: --max-updates is -1, expected an integer >= 0"},
      {log + " --log=" + log, 1, "error: the log path is given twice"},
      {"--check", 1, "error: usage: mec tail | mec_tail <run.meclog>"},
  };
  for (const std::string& binary :
       {std::string("\"" MEC_CLI_BINARY "\" tail"),
        std::string("\"" MEC_TAIL_BINARY "\"")}) {
    for (const Row& row : rows) {
      SCOPED_TRACE(binary + " " + row.args);
      std::string err;
      // A viewer that would poll forever fails its row instead.
      EXPECT_EQ(run("timeout 10 " + binary + " " + row.args, err),
                row.exit_code);
      if (row.message.empty())
        EXPECT_EQ(err, "");
      else
        EXPECT_EQ(err.rfind(row.message, 0), 0u) << err;
    }
    ASSERT_TRUE(std::filesystem::exists(csv));
    std::filesystem::remove(csv);

    // Following the footer-less log polls until killed; what it drew before
    // that is in the file, because every repaint is flushed.
    const std::string out = temp_path("mec_tail_cli_follow.out");
    const int status = std::system(("timeout 2 " + binary + " " + cut +
                                    " --follow --interval=50 > " + out)
                                       .c_str());
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 124) << status;
    EXPECT_GT(std::filesystem::file_size(out), 0u) << binary;
    std::filesystem::remove(out);
  }
  std::filesystem::remove(cut);
  std::filesystem::remove(log);
}

}  // namespace
