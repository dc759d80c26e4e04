// Minimal command-line argument parsing for the CLI tools.
//
// Grammar: <command> [--flag=value | --flag value | --switch] ...
// Values are retrieved typed, with defaults; unknown flags are an error so
// typos never silently fall back to defaults.  A flag given without a value
// (`--switch`) is recorded as the boolean sentinel "true" *and* remembered
// as bare, so value-typed getters (get_path) can reject it instead of
// treating "true" as a filename.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace mec::io {

/// Parsed command line: a leading positional command plus named flags.
class Args {
 public:
  /// Parses argv (excluding argv[0]). Throws mec::RuntimeError on malformed
  /// input (flag without name, duplicate flag).
  static Args parse(const std::vector<std::string>& argv);

  const std::string& command() const noexcept { return command_; }

  bool has(const std::string& name) const;

  /// True when the flag was given as a bare switch (`--flag`, no value).
  bool was_bare(const std::string& name) const;

  /// Typed getters; throw mec::RuntimeError when the value does not parse.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Accepts plain integers and exact-integer scientific notation ("1e6");
  /// rejects fractional values and trailing garbage.
  long get_long(const std::string& name, long fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;
  /// A count: an integer (spelled as get_long accepts) in [min, max].  A
  /// value outside the range, a negative one included, throws
  /// mec::RuntimeError naming the flag, the value and the range.
  std::size_t get_count(
      const std::string& name, std::size_t fallback, std::size_t min = 0,
      std::size_t max = std::numeric_limits<std::size_t>::max()) const;
  /// Like get_string, but a bare `--flag` (no value) is an error rather
  /// than the "true" sentinel — use for filenames and other paths.
  std::string get_path(const std::string& name,
                       const std::string& fallback = "") const;

  /// Throws mec::RuntimeError if any provided flag is not in `known`
  /// (catches typos).
  void reject_unknown(const std::set<std::string>& known) const;

 private:
  std::string command_;
  std::map<std::string, std::string> flags_;  // switches map to "true"
  std::set<std::string> bare_;                // flags given without a value
};

}  // namespace mec::io
