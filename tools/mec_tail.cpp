// mec_tail — standalone viewer for .meclog telemetry streams.
//
//   mec_tail <run.meclog> [--follow] [--check] [--interval=<ms>]
//            [--csv=<file>] [--hist-csv=<file>] [--max-updates=<k>]
//
// Identical to `mec tail` (both parse their flags with obs::tail_main), but
// links only the obs/io layers — it can ship to a monitoring box
// without the simulation engine.  --follow keeps polling a growing log
// until the writer's footer lands; --check validates frame CRCs and the
// footer and sets the exit status (for CI gates).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "mec/io/args.hpp"
#include "mec/obs/tail.hpp"

int main(int argc, char** argv) {
  using namespace mec;
  // Grammar: one positional log path plus flags, in any order.
  std::vector<std::string> raw;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (path.empty() && token.rfind("--", 0) != 0)
      path = token;
    else
      raw.push_back(token);
  }
  try {
    // A leading synthetic command keeps Args from eating the first flag.
    raw.insert(raw.begin(), "tail");
    return obs::tail_main(io::Args::parse(raw), path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
