// The `mec tail` viewer: renders a .meclog run-log in the terminal — the
// gamma trajectory, the latest threshold histogram, and the latest engine
// counter table — and can follow a growing log live (the writer flushes
// every frame, so the incremental reader simply retries at the tail).
// Shared by tools/mec_tail and the `mec tail` subcommand.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace mec::io {
class Args;
}  // namespace mec::io

namespace mec::obs {

struct TailOptions {
  bool follow = false;  ///< keep polling for growth until a footer appears
  bool check = false;   ///< validate-only: OK/FAIL line, exit status
  int interval_ms = 500;       ///< follow-mode poll cadence
  bool ansi = false;           ///< clear-screen repaint (follow on a tty)
  std::string csv;             ///< lossless window CSV export path
  std::string hist_csv;        ///< threshold-histogram CSV export path
  /// Stop after this many follow-mode polls (0 = unlimited), whether or
  /// not the log grew; a log that stopped growing without a footer then
  /// ends too.
  std::uint64_t max_updates = 0;
  std::ostream* out = nullptr;  ///< defaults to std::cout
};

/// Runs the viewer; returns the process exit code (0 = ok; 1 = unreadable,
/// corrupt, or --check failed on an incomplete log).  Partial logs from
/// crashed or in-flight runs render normally — only --check treats a
/// missing footer as failure.
int run_tail(const std::string& path, const TailOptions& options);

/// The viewer's flag grammar, shared by `mec tail` and mec_tail: the log
/// path comes from the caller's positional operand or from --log (not
/// both), plus --follow, --check, --interval=<ms> (>= 1),
/// --csv=<file>, --hist-csv=<file>, --max-updates=<k> and --help.  An
/// unknown flag, a path flag without a value, an out-of-range count or a
/// missing path throws mec::RuntimeError naming it.  Returns run_tail's
/// exit code (0 after printing the usage line for --help).
int tail_main(const io::Args& args, const std::string& positional_path);

}  // namespace mec::obs
