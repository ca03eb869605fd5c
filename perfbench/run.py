#!/usr/bin/env python3
"""Builds the hsperf benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload chol_hetero --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build/ at the repository
root when that is unset; an up-to-date build is reused. Build output goes
to standard error, so the last line of standard output is hsperf's
JSON result. The exit code is hsperf's, or 1 when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (first time only) and builds hsperf; returns its path."""
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "hsperf", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "hsperf")


def main():
    binary = build(build_dir())
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
