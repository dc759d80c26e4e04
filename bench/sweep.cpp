#include "bench/sweep.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "bench/runner.hpp"
#include "mec/baseline/dpo.hpp"
#include "mec/common/error.hpp"
#include "mec/core/mfne.hpp"
#include "mec/core/threshold_oracle.hpp"
#include "mec/fault/fault_text.hpp"
#include "mec/io/json.hpp"
#include "mec/obs/run_log.hpp"
#include "mec/parallel/replication.hpp"
#include "mec/population/population.hpp"
#include "mec/population/scenario_text.hpp"
#include "mec/sim/cluster_policies.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::bench {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw RuntimeError("sweep spec line " + std::to_string(line) + ": " + what);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i)
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  return out;
}

double parse_spec_number(const std::string& value, int line, const char* key) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos == value.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {
  }
  fail(line, std::string(key) + " expects a number, got '" + value + "'");
}

std::uint64_t parse_spec_integer(const std::string& value, int line,
                                 const char* key) {
  const double v = parse_spec_number(value, line, key);
  if (v < 0.0 || v != std::floor(v))
    fail(line, std::string(key) + " expects a non-negative integer, got '" +
                   value + "'");
  return static_cast<std::uint64_t>(v);
}

/// Filesystem-safe label characters; everything else becomes '-'.
std::string sanitize(std::string s) {
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_' &&
        c != '-')
      c = '-';
  return s;
}

bool is_preset_scenario(const std::string& token) {
  const std::string head = token.substr(0, token.find(':'));
  return std::find(population::kPresetNames.begin(),
                   population::kPresetNames.end(),
                   head) != population::kPresetNames.end();
}

/// Syntax check for preset scenario tokens (file tokens are checked when the
/// campaign runs and the file is loaded).
void validate_scenario_token(const std::string& token, int line) {
  if (!is_preset_scenario(token)) return;
  const auto parts = split(token, ':');
  if (parts.size() < 2 || parts.size() > 3)
    fail(line, "scenario preset '" + token +
                   "' wants <preset>:<low|eq|high>[:<n>]");
  try {
    (void)population::parse_load_regime(parts[1]);
    if (parts.size() == 3 && parse_spec_integer(parts[2], line, "scenario n") ==
                                 0)
      fail(line, "scenario population size must be >= 1");
  } catch (const RuntimeError& e) {
    fail(line, e.what());
  }
}

enum class PolicyKind { kTro, kDpo, kFixed, kPrice, kMinority };

struct PolicyToken {
  PolicyKind kind = PolicyKind::kTro;
  double fixed_threshold = 0.0;  ///< kFixed only
};

PolicyToken parse_policy_token(const std::string& token, int line) {
  if (token == "tro") return {PolicyKind::kTro, 0.0};
  if (token == "dpo") return {PolicyKind::kDpo, 0.0};
  if (token == "price") return {PolicyKind::kPrice, 0.0};
  if (token == "minority") return {PolicyKind::kMinority, 0.0};
  const auto parts = split(token, ':');
  if (parts.size() == 2 && parts[0] == "fixed") {
    const double x = parse_spec_number(parts[1], line, "fixed threshold");
    if (x < 0.0) fail(line, "fixed threshold must be >= 0");
    return {PolicyKind::kFixed, x};
  }
  fail(line, "unknown policy '" + token +
                 "' (tro|dpo|fixed:<x>|price|minority)");
}

population::ScenarioConfig resolve_scenario(const std::string& token) {
  if (!is_preset_scenario(token))
    return population::load_scenario_file(token);
  const auto parts = split(token, ':');
  return population::preset_scenario(
      parts[0], population::parse_load_regime(parts[1]),
      parts.size() == 3 ? static_cast<std::size_t>(std::stoull(parts[2])) : 0);
}

std::string scenario_label(const std::string& token) {
  if (is_preset_scenario(token)) return sanitize(token);
  return sanitize(std::filesystem::path(token).stem().string());
}

std::string fault_label(const std::string& token) {
  if (token == "none") return "nofault";
  if (token == "embedded") return "embedded";
  return sanitize(std::filesystem::path(token).stem().string());
}

std::string policy_label(const std::string& token) { return sanitize(token); }

const std::string* find_meta(const obs::RunLogMeta& meta,
                             const std::string& key) {
  for (const auto& [k, v] : meta)
    if (k == key) return &v;
  return nullptr;
}

bool meta_matches_integer(const obs::RunLogMeta& meta, const std::string& key,
                          std::uint64_t expected) {
  const std::string* v = find_meta(meta, key);
  return v != nullptr && *v == std::to_string(expected);
}

bool meta_matches_double(const obs::RunLogMeta& meta, const std::string& key,
                         double expected) {
  const std::string* v = find_meta(meta, key);
  if (v == nullptr) return false;
  try {
    return std::stod(*v) == expected;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

SweepSpec parse_sweep_spec(const std::string& text) {
  SweepSpec spec;
  std::set<std::string> seen_scalars;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  int last_line = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;
    last_line = lineno;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(lineno, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) fail(lineno, "expected 'key = value'");

    const bool scalar = key == "out-dir" || key == "seed" || key == "warmup" ||
                        key == "horizon" || key == "window" ||
                        key == "replications";
    if (scalar && !seen_scalars.insert(key).second)
      fail(lineno, "duplicate " + key + " (scalar keys appear once)");

    if (key == "out-dir") {
      spec.out_dir = value;
    } else if (key == "seed") {
      spec.seed = parse_spec_integer(value, lineno, "seed");
    } else if (key == "warmup") {
      spec.warmup = parse_spec_number(value, lineno, "warmup");
      if (spec.warmup < 0.0) fail(lineno, "warmup must be >= 0");
    } else if (key == "horizon") {
      spec.horizon = parse_spec_number(value, lineno, "horizon");
      if (spec.horizon <= 0.0) fail(lineno, "horizon must be > 0");
    } else if (key == "window") {
      spec.window = parse_spec_number(value, lineno, "window");
      if (spec.window <= 0.0) fail(lineno, "window must be > 0");
    } else if (key == "replications") {
      spec.replications = static_cast<std::size_t>(
          parse_spec_integer(value, lineno, "replications"));
      if (spec.replications == 0) fail(lineno, "replications must be >= 1");
    } else if (key == "scenario") {
      validate_scenario_token(value, lineno);
      for (const std::string& existing : spec.scenarios)
        if (existing == value)
          fail(lineno, "duplicate scenario '" + value + "'");
      spec.scenarios.push_back(value);
    } else if (key == "fault") {
      for (const std::string& existing : spec.faults)
        if (existing == value) fail(lineno, "duplicate fault '" + value + "'");
      spec.faults.push_back(value);
    } else if (key == "policy") {
      (void)parse_policy_token(value, lineno);
      for (const std::string& existing : spec.policies)
        if (existing == value) fail(lineno, "duplicate policy '" + value + "'");
      spec.policies.push_back(value);
    } else if (key == "clusters") {
      const auto k = static_cast<std::size_t>(
          parse_spec_integer(value, lineno, "clusters"));
      if (k == 0) fail(lineno, "clusters must be >= 1");
      for (const std::size_t existing : spec.clusters)
        if (existing == k) fail(lineno, "duplicate clusters " + value);
      spec.clusters.push_back(k);
    } else if (key == "shards") {
      const auto k = static_cast<std::size_t>(
          parse_spec_integer(value, lineno, "shards"));
      if (k == 0) fail(lineno, "shards must be >= 1");
      for (const std::size_t existing : spec.shards)
        if (existing == k) fail(lineno, "duplicate shards " + value);
      spec.shards.push_back(k);
    } else {
      fail(lineno, "unknown key '" + key + "'");
    }
  }
  if (spec.scenarios.empty())
    fail(last_line == 0 ? 1 : last_line,
         "a sweep needs at least one 'scenario =' line");
  if (spec.faults.empty()) spec.faults = {"none"};
  if (spec.policies.empty()) spec.policies = {"tro"};
  if (spec.clusters.empty()) spec.clusters = {1};
  if (spec.shards.empty()) spec.shards = {1};
  return spec;
}

SweepSpec load_sweep_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw RuntimeError("cannot open sweep spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_sweep_spec(text.str());
  } catch (const RuntimeError& e) {
    throw RuntimeError(path + ": " + e.what());
  }
}

std::vector<SweepCell> enumerate_cells(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  std::size_t index = 0;
  const std::vector<std::size_t> clusters =
      spec.clusters.empty() ? std::vector<std::size_t>{1} : spec.clusters;
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si)
    for (std::size_t fi = 0; fi < spec.faults.size(); ++fi)
      for (std::size_t pi = 0; pi < spec.policies.size(); ++pi)
        for (std::size_t ci = 0; ci < clusters.size(); ++ci)
          for (std::size_t ki = 0; ki < spec.shards.size(); ++ki)
            for (std::size_t r = 0; r < spec.replications; ++r) {
              SweepCell cell;
              cell.index = index;
              cell.scenario = spec.scenarios[si];
              cell.fault = spec.faults[fi];
              cell.policy = spec.policies[pi];
              cell.cluster_count = clusters[ci];
              cell.shard_count = spec.shards[ki];
              cell.replication = r;
              // Seeds hang off the cell's *position in the grid*, never off
              // how many cells ran before it, so resuming reproduces exactly
              // the seeds a fresh campaign would use.
              cell.seed = parallel::replication_seed(spec.seed, index);
              cell.label = "s" + std::to_string(si) + "-" +
                           scenario_label(cell.scenario) + "__f" +
                           std::to_string(fi) + "-" + fault_label(cell.fault) +
                           "__p" + std::to_string(pi) + "-" +
                           policy_label(cell.policy) + "__c" +
                           std::to_string(cell.cluster_count) + "__k" +
                           std::to_string(cell.shard_count) + "__r" +
                           std::to_string(r);
              cell.path = spec.out_dir + "/" + cell.label + ".meclog";
              cells.push_back(std::move(cell));
              ++index;
            }
  return cells;
}

bool cell_output_valid(const SweepCell& cell, const SweepSpec& spec) {
  if (!std::filesystem::exists(cell.path)) return false;
  obs::LogScan scan;
  try {
    scan = obs::scan_log(cell.path);
  } catch (const std::exception&) {
    return false;  // unreadable or foreign file: treat as not-yet-run
  }
  return scan.complete() &&
         meta_matches_integer(scan.meta, "seed", cell.seed) &&
         meta_matches_integer(scan.meta, "clusters", cell.cluster_count) &&
         meta_matches_integer(scan.meta, "shards", cell.shard_count) &&
         meta_matches_double(scan.meta, "warmup", spec.warmup) &&
         meta_matches_double(scan.meta, "horizon", spec.horizon) &&
         meta_matches_double(scan.meta, "window", spec.window);
}

namespace {

/// Per-scenario state shared by all of that scenario's cells: the resolved
/// config, the population (sampled once with the campaign seed, so every
/// cell of a scenario sees identical users), and per-policy equilibria.
struct ScenarioEntry {
  population::ScenarioConfig config;
  population::Population pop;
};

struct PolicySolve {
  PolicyToken token;
  double gamma_star = 0.0;     ///< equilibrium utilization (tro/dpo)
  std::vector<double> values;  ///< thresholds (tro/fixed) or rhos (dpo)
  bool quasi_stationary = false;  ///< pin fixed_gamma = gamma_star
};

PolicySolve solve_policy(const ScenarioEntry& sc, const std::string& token) {
  PolicySolve solve;
  solve.token = parse_policy_token(token, 0);
  switch (solve.token.kind) {
    case PolicyKind::kTro: {
      const core::MfneResult r =
          core::solve_mfne(sc.pop.users, sc.config.delay, sc.config.capacity);
      solve.gamma_star = r.gamma_star;
      solve.values.assign(r.thresholds.begin(), r.thresholds.end());
      solve.quasi_stationary = true;
      break;
    }
    case PolicyKind::kDpo: {
      const baseline::DpoEquilibrium eq = baseline::solve_dpo_equilibrium(
          sc.pop.users, sc.config.delay, sc.config.capacity);
      solve.gamma_star = eq.gamma_star;
      solve.values = eq.rhos;
      solve.quasi_stationary = true;
      break;
    }
    case PolicyKind::kFixed:
      solve.values.assign(sc.pop.size(), solve.token.fixed_threshold);
      break;
    case PolicyKind::kPrice: {
      // The MFNE utilization is the dual-ascent target; thresholds are
      // derived live from the prices, so no per-device values here.
      const core::MfneResult r =
          core::solve_mfne(sc.pop.users, sc.config.delay, sc.config.capacity);
      solve.gamma_star = r.gamma_star;
      break;
    }
    case PolicyKind::kMinority: {
      // Active clusters apply the MFNE thresholds; the game gates them.
      const core::MfneResult r =
          core::solve_mfne(sc.pop.users, sc.config.delay, sc.config.capacity);
      solve.gamma_star = r.gamma_star;
      solve.values.assign(r.thresholds.begin(), r.thresholds.end());
      break;
    }
  }
  return solve;
}

std::shared_ptr<const fault::FaultSchedule> resolve_faults(
    const ScenarioEntry& sc, const std::string& token) {
  if (token == "none") return nullptr;
  if (token == "embedded") {
    if (sc.config.fault_lines.empty())
      throw RuntimeError("fault token 'embedded': scenario '" +
                         sc.config.name + "' has no fault = lines");
    return std::make_shared<const fault::FaultSchedule>(
        fault::embedded_fault_schedule(sc.config));
  }
  return std::make_shared<const fault::FaultSchedule>(
      fault::load_fault_schedule_file(token, &sc.config));
}

/// Topology for one cell: cluster count from the sweep axis; the scenario's
/// shares apply only when they describe exactly that many clusters.
sim::ClusterTopology cell_topology(const SweepCell& cell,
                                   const ScenarioEntry& sc) {
  sim::ClusterTopology topology;
  topology.clusters = cell.cluster_count;
  if (sc.config.cluster_shares.size() == cell.cluster_count)
    topology.shares = sc.config.cluster_shares;
  return topology;
}

void run_cell(const SweepSpec& spec, const SweepCell& cell,
              const ScenarioEntry& sc, const PolicySolve& policy,
              const std::shared_ptr<const fault::FaultSchedule>& faults) {
  const sim::ClusterTopology topology = cell_topology(cell, sc);

  std::vector<double> values = policy.values;
  if (faults && faults->churn_arrivals() > 0) {
    // Churn joiners best-respond to the same equilibrium utilization.
    const double g_star = sc.config.delay(policy.gamma_star);
    for (const core::UserParams& u : faults->churn_users())
      switch (policy.token.kind) {
        case PolicyKind::kTro:
        case PolicyKind::kMinority:
          values.push_back(
              static_cast<double>(core::best_threshold(u, g_star)));
          break;
        case PolicyKind::kDpo:
          values.push_back(baseline::optimal_offload_probability(u, g_star));
          break;
        case PolicyKind::kFixed:
          values.push_back(policy.token.fixed_threshold);
          break;
        case PolicyKind::kPrice:
          break;  // thresholds derive from the live prices
      }
  }

  sim::SimulationOptions so;
  so.warmup = spec.warmup;
  so.horizon = spec.horizon;
  so.seed = cell.seed;
  so.sample_interval = spec.window;
  so.shards = cell.shard_count;  // explicit: never MEC_SHARDS or autotune
  so.stream_log = cell.path;
  // Counter frames carry wall-clock diagnostics; leaving them out keeps a
  // cell's .meclog byte-identical across reruns and shard counts.
  so.stream_counters = false;
  so.record_timeline = false;
  so.faults = faults;
  so.topology = topology;

  if (policy.token.kind == PolicyKind::kPrice) {
    sim::PriceBasedOptions po{so};
    po.gamma_target = policy.gamma_star;
    po.update_period = spec.window;  // epochs ride the sample barriers
    (void)sim::run_price_based(sc.pop.users, sc.config.capacity,
                               sc.config.delay, po);
    return;
  }
  if (policy.token.kind == PolicyKind::kMinority) {
    sim::MinorityGameRunOptions mo{so};
    mo.game.seed = cell.seed;
    mo.thresholds = std::move(values);
    mo.update_period = spec.window;
    (void)sim::run_minority_game(sc.pop.users, sc.config.capacity,
                                 sc.config.delay, mo);
    return;
  }

  if (policy.quasi_stationary) so.fixed_gamma = policy.gamma_star;
  const sim::MecSimulation sim(sc.pop.users, sc.config.capacity,
                               sc.config.delay, so);
  if (policy.token.kind == PolicyKind::kDpo)
    (void)sim.run_dpo(values);
  else
    (void)sim.run_tro(values);
}

}  // namespace

SweepReport run_sweep(const SweepSpec& spec, const SweepRunOptions& options) {
  SweepReport report;
  const std::vector<SweepCell> cells = enumerate_cells(spec);
  report.total = cells.size();
  if (!options.dry_run) std::filesystem::create_directories(spec.out_dir);

  std::map<std::string, ScenarioEntry> scenarios;
  std::map<std::string, PolicySolve> solves;  // "scenario|policy"
  std::map<std::string, std::shared_ptr<const fault::FaultSchedule>>
      schedules;  // "scenario|fault"

  for (const SweepCell& cell : cells) {
    const bool valid = !options.force && cell_output_valid(cell, spec);
    if (valid || options.dry_run) {
      if (valid) ++report.skipped;
      if (options.on_cell) options.on_cell(cell, false);
      continue;
    }
    auto sc_it = scenarios.find(cell.scenario);
    if (sc_it == scenarios.end()) {
      ScenarioEntry entry;
      entry.config = resolve_scenario(cell.scenario);
      entry.pop = population::sample_population(entry.config, spec.seed);
      sc_it = scenarios.emplace(cell.scenario, std::move(entry)).first;
    }
    const ScenarioEntry& sc = sc_it->second;

    const std::string solve_key = cell.scenario + "|" + cell.policy;
    auto solve_it = solves.find(solve_key);
    if (solve_it == solves.end())
      solve_it = solves.emplace(solve_key, solve_policy(sc, cell.policy)).first;

    const std::string fault_key = cell.scenario + "|" + cell.fault;
    auto fault_it = schedules.find(fault_key);
    if (fault_it == schedules.end())
      fault_it =
          schedules.emplace(fault_key, resolve_faults(sc, cell.fault)).first;

    run_cell(spec, cell, sc, solve_it->second, fault_it->second);
    ++report.executed;
    if (options.on_cell) options.on_cell(cell, true);
  }
  return report;
}

/// Built-in campaign for `mec_bench sweep --smoke`: two shard counts of a
/// tiny population, run fresh and then resumed to prove the skip path.
/// (The experiment registration lives in sweep_experiment.cpp so the
/// static-library TU can be linked without dragging the registry in.)
static constexpr const char* kSmokeSpec =
    "seed = 7\n"
    "warmup = 2\n"
    "horizon = 10\n"
    "window = 5\n"
    "replications = 1\n"
    "scenario = theoretical:eq:64\n"
    "policy = tro\n"
    "shards = 1\n"
    "shards = 2\n";

int run_sweep_experiment(Context& ctx) {
  const std::string spec_path = ctx.get_path("spec");
  SweepSpec spec;
  if (spec_path.empty()) {
    if (!ctx.smoke())
      throw RuntimeError("sweep needs --spec=FILE (or --smoke)");
    spec = parse_sweep_spec(kSmokeSpec);
    spec.out_dir = ctx.output_path("sweep-smoke");
  } else {
    spec = load_sweep_spec_file(spec_path);
  }

  SweepRunOptions opts;
  opts.force = ctx.get_bool("force") || (ctx.smoke() && spec_path.empty());
  opts.dry_run = ctx.get_bool("dry-run");
  std::size_t done = 0;
  const std::size_t total = enumerate_cells(spec).size();
  opts.on_cell = [&](const SweepCell& cell, bool executed) {
    ++done;
    std::printf("[%zu/%zu] %-4s %s\n", done, total, executed ? "run" : "skip",
                cell.label.c_str());
    std::fflush(stdout);
  };

  const SweepReport first = run_sweep(spec, opts);
  ctx.emit_bench({
      {"cells", io::Json::integer(static_cast<long long>(first.total))},
      {"executed", io::Json::integer(static_cast<long long>(first.executed))},
      {"skipped", io::Json::integer(static_cast<long long>(first.skipped))},
      {"out_dir", io::Json::string(spec.out_dir)},
  });

  if (ctx.smoke() && spec_path.empty()) {
    // Resume smoke: a second pass over a completed campaign must run nothing.
    done = 0;
    opts.force = false;
    const SweepReport second = run_sweep(spec, opts);
    if (second.skipped != second.total || second.executed != 0)
      throw RuntimeError("sweep smoke: resume failed to skip " +
                         std::to_string(second.total - second.skipped) +
                         " completed cells");
    std::printf("resume: all %zu cells skipped\n", second.total);
  }
  return 0;
}

}  // namespace mec::bench
