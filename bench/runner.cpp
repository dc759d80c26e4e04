#include "bench/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>

#include "mec/common/error.hpp"
#include "mec/io/csv.hpp"

namespace mec::bench {

namespace {

/// Common flags the runner owns; experiments must not re-declare them.
const std::set<std::string> kCommonFlags = {"smoke", "out-dir", "out", "help",
                                            "list"};

std::map<std::string, Experiment>& registry() {
  static std::map<std::string, Experiment> experiments;
  return experiments;
}

const char* kind_name(FlagKind kind) {
  switch (kind) {
    case FlagKind::kString: return "string";
    case FlagKind::kLong: return "int";
    case FlagKind::kDouble: return "float";
    case FlagKind::kBool: return "bool";
    case FlagKind::kPath: return "path";
  }
  return "?";
}

/// Validates every provided flag of `experiment` eagerly: unknown flags,
/// bare value-typed flags, and unparsable values all throw before the
/// experiment function runs, so a typo can never silently run the default
/// configuration.
void validate_flags(const Experiment& experiment, const io::Args& args) {
  args.reject_unknown(known_flags(experiment));
  for (const FlagSpec& spec : experiment.flags) {
    if (!args.has(spec.name)) continue;
    if (spec.kind != FlagKind::kBool && args.was_bare(spec.name))
      throw RuntimeError("flag --" + spec.name + " expects a " +
                         kind_name(spec.kind) + " value (e.g. --" + spec.name +
                         "=...)");
    switch (spec.kind) {
      case FlagKind::kString:
      case FlagKind::kPath:
        break;
      case FlagKind::kLong:
        (void)args.get_long(spec.name, 0);
        break;
      case FlagKind::kDouble:
        (void)args.get_double(spec.name, 0.0);
        break;
      case FlagKind::kBool:
        (void)args.get_bool(spec.name, false);
        break;
    }
  }
}

void print_usage() {
  std::printf(
      "usage: mec_bench <experiment> [--smoke] [--out-dir=DIR] [flags]\n"
      "       mec_bench --list\n"
      "       mec_bench <experiment> --help\n");
}

void print_help(const Experiment& experiment) {
  std::printf("%s — %s\n\nflags:\n", experiment.name.c_str(),
              experiment.summary.c_str());
  for (const FlagSpec& spec : experiment.flags)
    std::printf("  --%-18s %-6s %s%s%s\n", spec.name.c_str(),
                kind_name(spec.kind), spec.help.c_str(),
                spec.default_value.empty() ? "" : " (default ",
                spec.default_value.empty()
                    ? ""
                    : (spec.default_value + ")").c_str());
  std::printf(
      "  --%-18s %-6s shrunken deterministic run for CI\n"
      "  --%-18s %-6s output directory for generated files (default "
      "results)\n"
      "  --%-18s %-6s append BENCH JSON lines to this file\n",
      "smoke", "bool", "out-dir", "path", "out", "path");
}

}  // namespace

Context::Context(const Experiment& experiment, const io::Args& args)
    : experiment_(experiment),
      args_(args),
      smoke_(args.get_bool("smoke", false)),
      out_dir_(args.get_path("out-dir", "results")),
      out_file_(args.get_path("out", "")) {}

std::string Context::output_path(const std::string& filename) const {
  return io::output_path(out_dir_, filename);
}

const FlagSpec& Context::spec(const std::string& flag, FlagKind kind) const {
  for (const FlagSpec& candidate : experiment_.flags)
    if (candidate.name == flag) {
      MEC_EXPECTS_MSG(candidate.kind == kind,
                      "experiment '" + experiment_.name + "' reads flag --" +
                          flag + " as " + kind_name(kind) +
                          " but declared it as " + kind_name(candidate.kind));
      return candidate;
    }
  throw RuntimeError("experiment '" + experiment_.name +
                     "' reads undeclared flag --" + flag);
}

bool Context::has(const std::string& flag) const {
  for (const FlagSpec& candidate : experiment_.flags)
    if (candidate.name == flag) return args_.has(flag);
  throw RuntimeError("experiment '" + experiment_.name +
                     "' reads undeclared flag --" + flag);
}

std::string Context::get_string(const std::string& flag) const {
  return args_.get_string(flag, spec(flag, FlagKind::kString).default_value);
}

std::string Context::get_path(const std::string& flag) const {
  return args_.get_path(flag, spec(flag, FlagKind::kPath).default_value);
}

long Context::get_long(const std::string& flag) const {
  const FlagSpec& declared = spec(flag, FlagKind::kLong);
  return args_.get_long(flag, std::stol(declared.default_value));
}

double Context::get_double(const std::string& flag) const {
  const FlagSpec& declared = spec(flag, FlagKind::kDouble);
  return args_.get_double(flag, std::stod(declared.default_value));
}

bool Context::get_bool(const std::string& flag) const {
  const FlagSpec& declared = spec(flag, FlagKind::kBool);
  return args_.get_bool(flag, declared.default_value == "true");
}

void Context::emit_bench(std::map<std::string, io::Json> fields) const {
  fields.emplace("bench", io::Json::string(experiment_.name));
  const std::string line =
      "BENCH " + io::Json::object(std::move(fields)).dump();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (!out_file_.empty()) {
    std::ofstream out(out_file_, std::ios::app);
    if (!out) throw RuntimeError("cannot open --out file " + out_file_);
    out << line << "\n";
  }
}

bool register_experiment(Experiment experiment) {
  if (experiment.name.empty())
    throw RuntimeError("experiment registered without a name");
  if (!experiment.fn)
    throw RuntimeError("experiment '" + experiment.name +
                       "' registered without a function");
  for (const FlagSpec& spec : experiment.flags)
    if (kCommonFlags.contains(spec.name))
      throw RuntimeError("experiment '" + experiment.name +
                         "' re-declares the common runner flag --" +
                         spec.name);
  const auto [it, inserted] =
      registry().emplace(experiment.name, std::move(experiment));
  if (!inserted)
    throw RuntimeError("duplicate experiment name '" + it->first + "'");
  return true;
}

std::vector<const Experiment*> experiments() {
  std::vector<const Experiment*> out;
  out.reserve(registry().size());
  for (const auto& [name, experiment] : registry()) out.push_back(&experiment);
  return out;  // std::map iteration is already name-sorted
}

const Experiment* find_experiment(const std::string& name) {
  const auto it = registry().find(name);
  return it == registry().end() ? nullptr : &it->second;
}

std::set<std::string> known_flags(const Experiment& experiment) {
  std::set<std::string> known = kCommonFlags;
  for (const FlagSpec& spec : experiment.flags) known.insert(spec.name);
  return known;
}

int run_main(int argc, const char* const* argv) {
  try {
    const io::Args args = io::Args::parse(
        std::vector<std::string>(argv + (argc > 0 ? 1 : 0), argv + argc));
    if (args.get_bool("list", false)) {
      for (const Experiment* experiment : experiments())
        std::printf("%s\t%s\n", experiment->name.c_str(),
                    experiment->summary.c_str());
      return 0;
    }
    if (args.command().empty()) {
      print_usage();
      return 2;
    }
    const Experiment* experiment = find_experiment(args.command());
    if (experiment == nullptr) {
      std::fprintf(stderr,
                   "error: unknown experiment '%s' (run with --list)\n",
                   args.command().c_str());
      return 2;
    }
    if (args.get_bool("help", false)) {
      print_help(*experiment);
      return 0;
    }
    validate_flags(*experiment, args);
    Context context(*experiment, args);
    return experiment->fn(context);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace mec::bench
