#!/usr/bin/env python3
"""Self-test of the benchmark's result oracle.

    python3 jobbench/selftest.py

Runs a short `solo` stream twice: once as is, which must pass the oracle
(exit 0, no failed job), and once with --corrupt-one, which flips one bit
of one returned result and must be caught (a failed job, a non-zero
failed_frac, "correct": false, and a non-zero exit).
"""

import json
import re
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

ARGS = ["--workload", "solo", "--seed", "7", "--seconds", "1", "--trace", "0"]


def bench(extra):
    proc = subprocess.run([run.BINARY] + ARGS + extra, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    frac = float(re.search(r"failed_frac ([0-9.]+)", proc.stdout).group(1))
    return proc.returncode, result, frac


def main():
    if not run.build():
        return 1
    problems = []
    code, result, frac = bench([])
    if code != 0 or not result["correct"] or result["failed"] != 0 or frac != 0.0:
        problems.append("clean run: exit %d, result %s, failed_frac %g" % (code, result, frac))
    code, result, frac = bench(["--corrupt-one"])
    if code == 0 or result["correct"] or result["failed"] < 1 or frac <= 0.0:
        problems.append("corrupted run: exit %d, result %s, failed_frac %g" % (code, result, frac))
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
