#!/usr/bin/env python3
"""Builds and runs the liquid-serve end-to-end benchmark.

Run from anywhere; paths resolve against this file.

  python3 bench/e2e/run.py
      Builds liquid_bench, then runs every workload once untraced and once
      traced on seed 1 and prints every metric by name with its unit.
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload.  The last line of stdout is the result:
      {"correct", "attempted", "failed", "metrics"} with the end-to-end
      metrics (--trace 0) or the per-layer metrics (--trace 1).
  python3 bench/e2e/run.py --sets 2 [--workload NAME]
      Repeatability: each set runs every workload on seeds 1..10.  Prints
      the median and IQR of every end-to-end metric per set, and how far the
      last set's median moved from the first's, against the metric's bound.

Every run is its own process, so peak RSS is per workload.  liquid_bench is
built with CMake into build-bench/ at the repository root.  The exit status
is nonzero when the build fails, a correctness gate fails, or (with --sets)
a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "liquid_bench"
RESULTS = BUILD / "results"

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
SEEDS_PER_SET = 10


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_quiet(cmd, timeout, what):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no liquid-serve sources at {ROOT}: liquid_bench "
                         "builds libliquid from the repository root")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                  "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "liquid_bench",
               "-j", jobs], BUILD_TIMEOUT_S, "cmake build")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_bench(workload, seed, seconds, traced, sha):
    """One liquid_bench process; returns its report (gates may have
    failed)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    mode = "traced" if traced else "e2e"
    out = RESULTS / f"{workload}-seed{seed}-{mode}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json-out", str(out),
           "--git-sha", sha]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed} timed out")
    sys.stderr.write(proc.stderr)
    if not out.is_file():
        raise BenchError(f"{workload} seed {seed} wrote no report "
                         f"(exit {proc.returncode})")
    report = json.loads(out.read_text())
    report["correct"] = report["correct"] and proc.returncode == 0
    return report


def result_line(spec, report, traced):
    """The one-line result: every declared metric of the run's kind.

    A per-layer metric the workload's layers never reach reads 0.  A metric
    liquid_bench reports but BENCHMARK.json does not declare is an error, so
    the two lists cannot drift apart silently.
    """
    declared = spec["per_layer" if traced else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(report["metrics"]) - names)
    if unknown:
        raise BenchError(f"undeclared metrics reported: {unknown}")
    metrics = {}
    for m in declared:
        if not traced and m["name"] not in report["metrics"]:
            raise BenchError(f"liquid_bench did not report {m['name']}")
        metrics[m["name"]] = {"value": report["metrics"].get(m["name"], 0.0),
                              "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(report, result):
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{'traced (per-layer)' if report['traced'] else 'end-to-end'}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>18.6g} {metric['unit']}")
    if report["sim"]:
        sim = "  ".join(f"{k}={v:.6g}" for k, v in report["sim"].items())
        print(f"  simulated: {sim}")
    m = report["metrics"]
    if (report["traced"] and m.get("engine.prefill_per_s")
            and not m.get("scheduler.prefill_chunk_frac")):
        # Unchunked admission prices each prompt with one PrefillSeconds
        # call (a prefix-cache hit prices a cheaper chunk instead).
        admitted = m["router.decisions"] - m["router.rejected"]
        replay_s = statistics.median(report["samples_s"])
        print(f"  scheduler.admit: measured "
              f"{1e3 * m['scheduler.admit_frac'] * replay_s:.1f} ms per "
              f"profiled replay; estimate {admitted:.0f} admissions / "
              f"engine.prefill_per_s = "
              f"{1e3 * admitted / m['engine.prefill_per_s']:.1f} ms")
    for gate in report["gates"]:
        print(f"  [{'ok' if gate['ok'] else 'FAILED'}] {gate['gate']}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  "
          f"correct {str(result['correct']).lower()}")


def single_run(spec, args):
    build()
    report = run_bench(args.workload, args.seed, args.seconds,
                        args.trace == 1, git_sha())
    result = result_line(spec, report, args.trace == 1)
    print_report(report, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def all_workloads(spec, args):
    build()
    sha = git_sha()
    ok = True
    provenance = None
    for w in workloads(spec, args):
        for traced in (False, True):
            report = run_bench(w, args.seed, args.seconds, traced, sha)
            provenance = report["provenance"]
            result = result_line(spec, report, traced)
            print_report(report, result)
            ok = ok and result["correct"]
    print("provenance: " + json.dumps(provenance))
    print("all gates passed" if ok else "SOME GATES FAILED")
    return 0 if ok else 1


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeatability(spec, args):
    build()
    sha = git_sha()
    names = workloads(spec, args)
    values = {}  # (set, workload, metric) -> [value per seed]
    incorrect = 0
    for s in range(args.sets):
        for w in names:
            for seed in range(1, SEEDS_PER_SET + 1):
                report = run_bench(w, seed, args.seconds, False, sha)
                incorrect += not report["correct"]
                for m in spec["end_to_end"]:
                    values.setdefault((s, w, m["name"]), []).append(
                        report["metrics"][m["name"]])
            print(f"set {s + 1}: {w} done", file=sys.stderr)

    print(f"{args.sets} sets x {SEEDS_PER_SET} seeds, {args.seconds:g} s per "
          "run; spread = IQR / median within a set; shift = how far the last "
          "set's median is from the first's, either way")
    cols = " ".join(f"{'median' + str(s + 1):>14s} {'spread' + str(s + 1):>8s}"
                    for s in range(args.sets))
    print(f"{'workload':18s} {'metric':24s} {cols} {'shift':>7s} "
          f"{'bound':>6s}  verdict")
    over = 0
    for w in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(values[(s, w, name)])
                       for s in range(args.sets)]
            spreads = [spread(values[(s, w, name)]) for s in range(args.sets)]
            shift = abs(medians[-1] - medians[0]) / medians[0]
            if max(spreads) > bound:
                verdict = "FAIL: spread over bound"
            elif shift > bound:
                verdict = "FAIL: shift over bound"
            elif max(spreads) > bound / 3:
                verdict = "ok, spread over bound/3"
            else:
                verdict = "ok"
            over += verdict.startswith("FAIL")
            cells = " ".join(f"{med:14.6g} {sp:8.2%}"
                             for med, sp in zip(medians, spreads))
            print(f"{w:18s} {name:24s} {cells} {shift:7.2%} "
                  f"{bound:6.0%}  {verdict}")
    if incorrect:
        print(f"{incorrect} runs failed a correctness gate")
    ok = over == 0 and incorrect == 0
    print("repeatability: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def workloads(spec, args):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; "
                             f"expected one of {names}")
        return [args.workload]
    return names


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0,
                        help="repeatability mode: number of sets")
    args = parser.parse_args()
    try:
        if args.sets:
            return repeatability(spec, args)
        if args.workload:
            return single_run(spec, args)
        return all_workloads(spec, args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
