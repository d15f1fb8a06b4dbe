#!/usr/bin/env python3
"""Self-test for bench/compare_baselines.py's exit status.

Runs the comparator on two synthetic baseline/current pairs shaped like a
bench_sim_throughput artifact:
  * the current side differs from the baseline only in host-dependent fields
    (peak_rss_mb and the provenance block, both absent from the baseline,
    plus a wall-clock rate): exit 0;
  * the current side also differs in a gated counter: exit 1.
Runs under ctest as `compare_baselines_selftest`.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COMPARATOR = os.path.join(REPO_ROOT, "bench", "compare_baselines.py")

BASELINE = {
    "bench": "sim_throughput",
    "fleets": [{
        "name": "unified_x6",
        "completed": 1000,
        "events_processed": 24000,
        "sim_seconds": 8.25,
        "events_per_sec": 900000.0,
    }],
}


def run_pair(baseline, current):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("baseline.json", baseline),
                          ("current.json", current)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, COMPARATOR, *paths],
                              capture_output=True, text=True)
    sys.stdout.write(proc.stdout + proc.stderr)
    return proc.returncode


def main():
    host_only = copy.deepcopy(BASELINE)
    host_only["fleets"][0]["events_per_sec"] = 450000.0
    host_only["peak_rss_mb"] = 123.4
    host_only["provenance"] = {
        "hardware_threads": 4,
        "omp_max_threads": 4,
        "gemm_provider": "avx2",
        "build_type": "Release",
    }
    counter_drift = copy.deepcopy(host_only)
    counter_drift["fleets"][0]["events_processed"] += 1

    failures = []
    for what, current, want in (("host-only drift", host_only, 0),
                                ("gated counter drift", counter_drift, 1)):
        got = run_pair(BASELINE, current)
        status = "ok:  " if got == want else "FAIL:"
        print(f"{status} {what}: exit {got} (want {want})")
        if got != want:
            failures.append(what)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
