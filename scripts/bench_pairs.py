#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against this checkout.

    python3 scripts/bench_pairs.py BASE_REF --workload attack_suite --pairs 10 --seconds 30
    python3 scripts/bench_pairs.py BASE_REF --workload all --pairs 1 --seconds 1 --smoke

Extracts the committed files of BASE_REF (`git archive`) into a temporary
directory, then for pair i = 1..N runs

    python3 benchmarks/run.py --workload W --seed i --seconds S --trace 0

in the base directory and in this checkout's working tree, base first on
odd pairs and head first on even ones.
It prints every run's end-to-end metrics and, per metric, each side's
median and interquartile range, the pairs the head wins (ties count for
neither side) and the median change head / base - 1.  A metric whose head
median is worse than the base median by more than its `bound` in
BENCHMARK.json (the benchmark's rejection rule) is marked BEYOND BOUND.  The
temporary directory is removed at the end.  `--workload all` runs the
benchmark's workloads in turn within each pair.  Exits non-zero when a
run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple((m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"])
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def median(values):
    return statistics.median(values)


def iqr(values) -> float:
    """Distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def change(base: float, head: float) -> float:
    """Relative change head / base - 1; 0 when both are 0."""
    if base == 0.0:
        return 0.0 if head == 0.0 else math.copysign(math.inf, head)
    return head / base - 1.0


def wins(base_runs, head_runs, better: str) -> int:
    """Pairs in which the head is strictly better; ties count for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (h - b) > 0.0 for b, h in zip(base_runs, head_runs))


def beyond_bound(rel: float, better: str, bound: float) -> bool:
    """Whether a median change rel = head / base - 1 makes the head worse
    than the base by more than bound, a fraction of the base."""
    worse = rel if better == "lower" else -rel
    return worse > bound


def summary_rows(pairs, metrics=METRICS):
    """One row per metric from pairs of (base, head) metric dicts:
    (name, unit, base median, base IQR, head median, head IQR, median change,
    wins, ties)."""
    rows = []
    for name, unit, better in metrics:
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        ties = sum(b == h for b, h in zip(base, head))
        rows.append((name, unit, median(base), iqr(base), median(head), iqr(head),
                     change(median(base), median(head)), wins(base, head, better), ties))
    return rows


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metric values of one untraced benchmark run in checkout."""
    cmd = [sys.executable, str(checkout / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} reported "
                         f"{result['failed']} failed of {result['attempted']}")
    return {name: result["metrics"][name]["value"] for name, _, _ in METRICS}


def extract(ref: str, dest: Path) -> str:
    """Write the committed files of ref into dest; return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {commit} failed")
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for a quick check")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    base_dir = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        commit = extract(args.base_ref, base_dir)
        print(f"base {commit} against the working tree of {ROOT.name}; "
              f"{args.pairs} pairs of {args.seconds:g} s runs{' (smoke)' if args.smoke else ''}")
        pairs = {w: [] for w in workloads}
        names = [name for name, _, _ in METRICS]
        print("workload pair side " + " ".join(names))
        for i in range(1, args.pairs + 1):
            for w in workloads:
                sides = [("base", base_dir), ("head", ROOT)]
                if i % 2 == 0:
                    sides.reverse()
                got = {}
                for side, checkout in sides:
                    got[side] = run_benchmark(checkout, w, i, args.seconds, args.smoke)
                    print(f"{w} {i} {side} "
                          + " ".join(f"{got[side][n]!r}" for n in names), flush=True)
                pairs[w].append((got["base"], got["head"]))
        for w in workloads:
            print(f"\n{w}: medians over {len(pairs[w])} pairs")
            print(f"{'metric':12s} {'unit':5s} {'base':>12s} {'base IQR':>10s} {'head':>12s} "
                  f"{'head IQR':>10s} {'change':>9s} {'head wins':>10s} {'ties':>5s} "
                  f"{'bound':>6s}")
            for (name, unit, b, b_iqr, h, h_iqr, rel, won, ties), (_, _, better) in zip(
                    summary_rows(pairs[w]), METRICS):
                bound = BOUNDS[name]
                mark = " BEYOND BOUND" if beyond_bound(rel, better, bound) else ""
                print(f"{name:12s} {unit:5s} {b:12.6g} {b_iqr:10.3g} {h:12.6g} {h_iqr:10.3g} "
                      f"{rel:+9.2%} {won:>4d} of {len(pairs[w]):<3d} {ties:5d} "
                      f"{bound:6.0%}{mark}")
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
