#!/usr/bin/env python3
"""Runs one workload of the serving benchmark described in BENCHMARK.json.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call builds the repository's
libraries and the benchmark with CMake into .bench_build/servebench (about a
minute on 4 cores) and trains the serving fixture once (about 10 s, in a
separate process so the measured one never trains). Every call then runs the
measured process, whose last stdout line is the result JSON. Build and
fixture logs go to stderr. The exit code is non-zero when building, training
or the measured run fails, or when the run found an incorrect response.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
FIXTURE = os.path.join(BUILD, "fixture")
# Compiler and tool temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"),
           DELREC_NUM_THREADS="1")


def step(command):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            env=ENV)
    if result.returncode != 0:
        sys.exit(f"servebench: {' '.join(command)} failed "
                 f"(exit {result.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", SOURCE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"] + generator)
    step(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    if not os.path.exists(os.path.join(FIXTURE, "complete")):
        step([os.path.join(BUILD, "servebench_fixture"), FIXTURE])

    command = [
        os.path.join(BUILD, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--fixture", FIXTURE,
    ]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD, f"trace-{args.workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command, env=ENV).returncode


if __name__ == "__main__":
    sys.exit(main())
