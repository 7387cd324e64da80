#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is configured in Release mode
under .bench_build/perfbench (the first run compiles the middleware
libraries from src/; later runs only re-check them). Build output goes to
stderr, so the last line on stdout is the program's JSON result. The exit
code is the program's; it is non-zero when the build fails or an output
check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
WORKLOADS = ("conference_edits", "session_lifecycle", "adaptive_media")
RUN_LIMIT_S = 170


def build():
    """Configure (once) and build the program; returns True on success."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/, nothing to build",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.call(command, stdout=sys.stderr, stderr=sys.stderr):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", jobs], stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(command, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: program exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
