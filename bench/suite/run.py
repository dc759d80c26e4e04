#!/usr/bin/env python3
"""Build the suite benchmark from this checkout and run it.

    python3 bench/suite/run.py --workload W [--seed S] [--seconds T] [--trace 0|1]
    python3 bench/suite/run.py [--smoke]          # every workload in turn

The library and the mec_suite program are built (Release) into
.bench_build/suite under the checkout root; later runs rebuild only what
changed.  Each workload runs in a fresh mec_suite process, one after another.
Build output goes to stderr; mec_suite's stdout passes through unchanged, so
its result object stays the last line.  See bench/suite/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "suite")
BINARY = os.path.join(BUILD, "mec_suite")
WORKLOADS = ["fixed_gamma", "closed_loop", "faults_clusters_process"]
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no library sources under %s/src; run from a full "
                 "checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mec_suite",
                  "-j", JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        command = [BINARY, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        if subprocess.run(command).returncode != 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
