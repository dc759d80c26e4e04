#!/usr/bin/env python3
"""Fail when the library defines a function that no shipped binary links.

    python3 tools/link_scan.py [--build-dir DIR]

The scan builds the shipped binaries in two Release trees of its own under
DIR (default: .link_scan_build/ at the checkout root), compiled with
-ffunction-sections -fdata-sections and linked with -Wl,--gc-sections, so
the linker drops every function no binary reaches:

  - the top-level project without its tests: mec, mec_tail, mec_bench and
    the examples (every executable that tree builds);
  - bench/suite: mec_suite, the benchmark driver.

It never changes the flags of any other build tree: code layout alone moves
the benchmark suite's numbers.

It then lists the mec:: text symbols each libmec_* archive of the library
defines, demangled with their full signatures, and looks each one up in the
binaries' symbol tables.  Both sides come from the same compiler and build,
so signatures compare exactly.  A compiler clone ("[clone .isra.0]",
".constprop", ".part", ".cold") counts as the function it was cloned from
and is not scanned on its own.

The scan fails, and lists every such function, when no shipped binary links
a function whose qualified name is not on ALLOWED.  It also fails when an
ALLOWED entry names no unlinked function, so the list cannot go stale.

Blind spots:
  - virtual member functions: a vtable references every override, so an
    override stays linked whether or not anything calls it;
  - header-only and template code: inline functions and template
    instantiations are weak symbols emitted into their users' objects, and
    the scan reads only strong and local text symbols.
"""
import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = str(min(4, os.cpu_count() or 1))
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]

# Library functions that no shipped binary links and that stay in src/:
# reference models the tests check the library against (oracles), and entry
# points the tests drive directly (seams).  Keyed by qualified name; each
# entry names the tests that use it.
ALLOWED = {
    # Oracles.
    "mec::queueing::mm1_metrics":
        "M/M/1 closed forms; Mm1.*, Des.LocalOnlyReproducesMm1MeanQueue, "
        "MmnWait.SingleServerMatchesMm1",
    "mec::queueing::mm1_state_probability":
        "M/M/1 closed forms; Mm1.StateProbabilitiesAreGeometricAndSumToOne, "
        "Mm1.MeanInSystemMatchesStateProbabilitySum",
    "mec::queueing::stationary_distribution":
        "generic birth-death solver; BirthDeath.*, "
        "TroQueue.AgreesWithGenericBirthDeathSolverOnIntegerThresholds, "
        "TroQueue.FractionalThresholdMatchesAugmentedBirthDeathChain",
    "mec::queueing::mean_state":
        "generic birth-death solver; BirthDeath.ExpectationAndMeanState, "
        "Loads/Mm1kLoadTest.MeanStateIsMonotoneInLoad, "
        "TroQueue.FractionalThresholdMatchesAugmentedBirthDeathChain",
    "mec::queueing::expectation":
        "generic birth-death solver; BirthDeath.ExpectationAndMeanState",
    "mec::core::grid_search_threshold":
        "Lemma 1 by brute force; "
        "Seeds/OracleVsGridTest.OracleCostNeverExceedsGridOptimum, "
        "GridSearch.RejectsInvalidArguments",
    "mec::core::f_closed_form":
        "closed form of the recursive f; FFunction.RecursiveMatchesClosedForm, "
        "FFunction.ClosedFormIsStableNearThetaOne",
    "mec::baseline::grid_search_offload_probability":
        "DPO best response by brute force; "
        "Seeds/DpoClosedFormTest.ClosedFormMatchesGridSearch",
    "mec::baseline::dpo_utilization":
        "DPO utilization map; DpoEquilibriumTest.IsAFixedPointOfTheBestResponse, "
        "DpoUtilization.ValidatesInput",
    "mec::queueing::PhaseType::scv":
        "squared coefficient of variation; PhaseTypeMoments.*",
    # Seams.
    "mec::queueing::GeneratorMatrix::at":
        "reads one generator entry; GeneratorMatrixTest.MaintainsZeroRowSums, "
        "CtmcStationary.SatisfiesGlobalBalanceOnADenseRandomChain",
    "mec::net::WorkerDaemon::shutdown":
        "stops an in-process daemon's accept loop; TcpTransportEquivalence.*, "
        "TcpTransportHandshake.*",
    "mec::sim::SimWorkspace::SimWorkspace":
        "the defaulted move constructor; "
        "WorkspaceReuse.MovedWorkspaceKeepsItsCachedState",
    "mec::fault::FaultSchedule::add_user_arrival":
        "places one join at a chosen time (churn lines draw theirs); "
        "FaultEngine.ChurnJoinsAndDeparturesAdjustThePopulation, "
        "FaultEngine.NeverJoinedChurnSlotsDoNotDiluteMeans, "
        "Des.NamesTheDeviceCeilingAtConstruction, "
        "ShardEquivalence.FaultScheduleAllActionKinds, "
        "StreamShardInvariance.FaultScheduleAllActionKinds, "
        "TransportEquivalence.FaultsAndChurnAcrossClusters",
    "mec::fault::FaultSchedule::add_user_departure":
        "places one departure at a chosen time (churn lines draw theirs); "
        "FaultSchedule.BuildersRejectInvalidArguments, "
        "FaultEngine.ChurnJoinsAndDeparturesAdjustThePopulation, "
        "ShardEquivalence.FaultScheduleAllActionKinds, "
        "StreamShardInvariance.FaultScheduleAllActionKinds, "
        "TransportEquivalence.FaultsAndChurnAcrossClusters",
}

CLONE = re.compile(r" \[clone [^\]]*\]")
TRAILING_QUALIFIERS = re.compile(r"(\s+(const|volatile|&|&&|noexcept))+$")


def run(command):
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit("link_scan: command failed: " + " ".join(command))
    return result.stdout


def build(source, tree, target):
    """Configures `tree` on first use, then builds it; output goes to
    stderr."""
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", tree] + FLAGS
        if source == ROOT:
            configure.append("-DMEC_BUILD_TESTS=OFF")
        steps.append(configure)
    steps.append(["cmake", "--build", tree, "-j", JOBS] +
                 (["--target", target] if target else []))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("link_scan: build step failed: " + " ".join(step))


def executables(tree):
    found = []
    for directory, subdirs, files in os.walk(tree):
        subdirs[:] = [d for d in subdirs if d != "CMakeFiles"]
        for name in files:
            path = os.path.join(directory, name)
            if not os.access(path, os.X_OK) or os.path.islink(path):
                continue
            with open(path, "rb") as f:
                if f.read(4) == b"\x7fELF":
                    found.append(path)
    return sorted(found)


def qualified_name(signature):
    """The function name of a demangled signature, without its parameter
    list: "mec::io::Json::dump(int) const" -> "mec::io::Json::dump"."""
    text = TRAILING_QUALIFIERS.sub("", signature)
    if not text.endswith(")"):
        return text
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                name = text[:i]
                start = name.find("mec::")
                return name[start:] if start >= 0 else name
    return text


def defined_functions(archive):
    """(object, signature) for each mec:: text symbol an archive defines;
    a constructor's or destructor's variants count once."""
    functions = {}
    member = None
    for line in run(["nm", "-C", "--defined-only", archive]).splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in ("T", "t"):
            continue
        signature = parts[2]
        if CLONE.search(signature) or not signature.startswith("mec::"):
            continue
        functions.setdefault((member, signature))
    return list(functions)


def linked_symbols(binary):
    symbols = set()
    for line in run(["nm", "-C", "--defined-only", binary]).splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3:
            symbols.add(CLONE.sub("", parts[2]))
    return symbols


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, ".link_scan_build"))
    args = parser.parse_args()

    main_tree = os.path.join(args.build_dir, "main")
    suite_tree = os.path.join(args.build_dir, "suite")
    build(ROOT, main_tree, None)
    build(os.path.join(ROOT, "bench", "suite"), suite_tree, "mec_suite")

    binaries = executables(main_tree) + [os.path.join(suite_tree, "mec_suite")]
    linked = set()
    for binary in binaries:
        linked |= linked_symbols(binary)

    library = os.path.join(main_tree, "src")
    archives = sorted(os.path.join(library, name)
                      for name in os.listdir(library)
                      if name.startswith("libmec_") and name.endswith(".a"))
    unlinked = []
    for archive in archives:
        for member, signature in defined_functions(archive):
            if signature not in linked:
                unlinked.append((os.path.basename(archive), member,
                                 signature))

    print("link_scan: %d archives, %d shipped binaries: %s" % (
        len(archives), len(binaries),
        " ".join(os.path.basename(b) for b in binaries)))
    allowed_hits = set()
    failures = []
    for archive, member, signature in unlinked:
        name = qualified_name(signature)
        if name in ALLOWED:
            allowed_hits.add(name)
            print("  allowed  %s  (%s)" % (signature, ALLOWED[name]))
        else:
            failures.append("%s(%s): %s" % (archive, member, signature))
    stale = sorted(set(ALLOWED) - allowed_hits)

    if failures:
        print("link_scan: %d library functions are linked by no shipped "
              "binary and are not on the allow-list:" % len(failures))
        for failure in failures:
            print("  " + failure)
    if stale:
        print("link_scan: %d allow-list entries name no unlinked function "
              "(delete them):" % len(stale))
        for name in stale:
            print("  " + name)
    if failures or stale:
        return 1
    print("link_scan: ok, %d unlinked functions, all on the allow-list"
          % len(unlinked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
