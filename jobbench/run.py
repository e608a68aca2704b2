#!/usr/bin/env python3
"""Build and run the job-level benchmark.

Run from the repository root:

    python3 jobbench/run.py --workload solo|fleet-tcp|daemon|water-md \
        --seed N --seconds S --trace 0|1

The first call configures and builds jobbench/ (which compiles ../src) into
.bench_build/; later calls rebuild incrementally.  Build output goes to
stderr, so the benchmark's last stdout line is its JSON result.  Exits
non-zero without a result when the sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "jobbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("jobbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        return 1
    try:
        proc = subprocess.run([BINARY] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("jobbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
