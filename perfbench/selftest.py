#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny run of every workload in BENCHMARK.json.

Usage (from the repository root): python3 perfbench/selftest.py

For each workload and each --trace mode, a one-second run at --size tiny
must pass its own output checks, report no failures, and print exactly
the metric names and units BENCHMARK.json declares (end_to_end for
--trace 0, per_layer for --trace 1). Two traced runs of one seed must
agree bit for bit on the exact counters and on simulated time, and an
unknown workload must fail. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["sim.virtual_ms", "residency.evictions", "residency.refetches",
         "residency.spill_mib_written", "coherence.mib_elided"]


def run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append(what)
        print(("ok   " if ok else "FAIL ") + what, flush=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc, result = run(workload, trace)
            expect(result is not None, f"{label}: exits 0 with a JSON last line")
            if result is None:
                print(proc.stderr[-2000:], file=sys.stderr)
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: checks pass, nothing failed")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                   f"{label}: attempted >= 1")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared, f"{label}: metric names and units match {key}")
            if trace == 1 and workload.startswith("chol"):
                _, again = run(workload, trace)
                same = again is not None and all(
                    again["metrics"][k]["value"] == result["metrics"][k]["value"]
                    for k in EXACT)
                expect(same, f"{label}: exact counters repeat across runs")

    proc, _ = run("no_such_workload", 0)
    expect(proc.returncode != 0, "unknown workload exits non-zero")
    print(f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
