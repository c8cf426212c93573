#!/usr/bin/env python3
"""tvglab benchmark: three seeded closed-loop workloads with checked outputs.

    python3 benchmarks/run.py --workload deadline_sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

--trace 0 measures one workload for --seconds seconds of wall time and prints
its end-to-end metrics.  --trace 1 makes the traced run: it wraps the public
functions of every tvglab module and reads each per-layer metric from the
workload it belongs to, so it runs a fixed set of operations of all three
workloads whatever --workload names, and its counts repeat exactly for one
seed.  --workload all runs each workload untraced in its own process, then
the traced run, and prints everything.

Timings are reported at reference speed: each operation (and each set-up
probe) is bracketed by a fixed calibration kernel that does not touch
tvglab, and its wall time is scaled by REFERENCE_KERNEL_S over the kernel's
time around it.  On a shared host whose speed swings by up to 1.7x within
seconds, this is what keeps runs of the same code within a few percent; the
plain wall times are kept in the info line.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the machine, the
inputs and the run details: plain wall times, fail_frac, the tail percentile
and its sample count, flags such as partial schedules, and the first failure
notes.
tvglab is imported from the src/ directory next to this one and nowhere
else; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread, in this process and the set-up probes it starts only.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TVGLAB_OUTPUT_DIR", None)  # would redirect the CLI's artifacts

import argparse
import collections
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
SETUP_PROBES = 9
REFERENCE_KERNEL_S = 1e-3  # calibration_kernel() at reference speed
TAIL_LADDER = (90.0, 75.0, 50.0)
MIN_BEYOND = 10  # samples beyond the tail percentile
# Blocks of each workload's pool in the traced run; a block holds one case of
# every stratum, so every layer is reached.
TRACE_BLOCKS = {"deadline_sweep": 2, "attack_suite": 2, "dense_artifacts": 1}
# Untraced and traced passes alternate this often; trace.overhead_frac uses
# each operation's fastest pass, which a slow spell of the machine cannot move.
TRACE_ROUNDS = 2
NOTES_KEPT = 5


def use_checkout_source() -> None:
    """Import tvglab from this checkout's src/ and nowhere else."""
    init = SRC / "tvglab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: {init} not found; run from a tvglab checkout")
    sys.path.insert(0, str(SRC))
    import tvglab
    if Path(tvglab.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported tvglab from {tvglab.__file__}, not {init}")


class Tally:
    """Attempted and failed operations, error ratios, flags and notes.

    worst is the largest error / tolerance over every checked operation;
    fixed_worst the same over the fixed set only, reported as err_ratio.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.fixed_worst = 0.0
        self.flags: collections.Counter = collections.Counter()
        self.notes: list[str] = []

    def record(self, check, case, fixed: bool = False) -> None:
        self.attempted += 1
        self.worst = max(self.worst, check.worst)
        if fixed:
            self.fixed_worst = max(self.fixed_worst, check.worst)
        self.flags.update(check.flags)
        if not check.ok:
            self.fail(check.note, case, attempted=False)

    def fail(self, note: str, case=None, attempted: bool = True) -> None:
        self.attempted += attempted
        self.failed += 1
        if len(self.notes) < NOTES_KEPT:
            self.notes.append(f"{note} [{describe(case)}]" if case is not None else note)


def describe(case) -> str:
    return ", ".join(f"{f.name}={getattr(case, f.name)!r}"
                     for f in dataclasses.fields(case) if f.name not in ("model", "opts"))


def run_one(workload, case, workdir: str, tally: Tally, fixed: bool = False) -> int:
    """One timed operation, then its check; returns the operation's ns."""
    t0 = time.perf_counter_ns()
    try:
        out = workload.run(case, workdir)
    except Exception as exc:  # an operation that raises is a failed operation
        dt = time.perf_counter_ns() - t0
        tally.fail(f"{type(exc).__name__}: {exc}", case)
        return dt
    dt = time.perf_counter_ns() - t0
    try:
        check = workload.check(case, out)
    except Exception as exc:  # a malformed output is a failed operation too
        tally.fail(f"check raised {type(exc).__name__}: {exc}", case)
    else:
        tally.record(check, case, fixed)
    return dt


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and tiny numpy calls,
    the kind of work tvglab's stepper does, without touching tvglab.

    Its time at reference speed is REFERENCE_KERNEL_S by definition, so it
    must never change.
    """
    import numpy as np
    x = np.zeros(2)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(600):
        x = x * 0.999 + 0.001
        acc += math.sqrt(i + acc % 3.0)
    return time.perf_counter() - t0


def timed_at_reference_speed(action) -> tuple[float, float]:
    """(wall seconds of action(), the same rescaled to reference speed).

    The host's speed swings by up to 1.7x within seconds (other tenants);
    the calibration kernel timed just before and just after the action
    measures the speed the action ran at.
    """
    before = calibration_kernel()
    wall = action()
    after = calibration_kernel()
    return wall, wall * REFERENCE_KERNEL_S / (0.5 * (before + after))


def measure(workload, cases: list, seconds: float, workdir: str,
            tally: Tally) -> tuple[list[float], list[float]]:
    """Closed loop over the case pool for `seconds` of wall time; returns
    each operation's wall seconds and its seconds at reference speed.

    The workload's fixed set runs first, untimed, as warm-up; it is checked
    like the rest and gives err_ratio.
    """
    for case in workload.fixed_cases():
        run_one(workload, case, workdir, tally, fixed=True)
    calibration_kernel()
    wall, scaled = [], []
    stop = time.perf_counter() + seconds
    while not wall or time.perf_counter() < stop:
        case = cases[len(wall) % len(cases)]
        w, r = timed_at_reference_speed(lambda: run_one(workload, case, workdir, tally) / 1e9)
        wall.append(w)
        scaled.append(r)
    return wall, scaled


def percentile(sorted_values: list[float], pct: float) -> float:
    k = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(preferred: float, n: int) -> float:
    """The workload's tail percentile, or the next lower one on the ladder
    when a short run leaves fewer than MIN_BEYOND samples beyond it."""
    return next((p for p in TAIL_LADDER
                 if p <= preferred and n * (1.0 - p / 100.0) >= MIN_BEYOND), TAIL_LADDER[-1])


def measure_setup(workload: str, seed: int, probes: int) -> tuple[float, float]:
    """Medians over fresh interpreters of import tvglab + building the inputs:
    (wall seconds, seconds at reference speed)."""
    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1])

    wall, scaled = zip(*(timed_at_reference_speed(probe) for _ in range(probes)))
    return statistics.median(wall), statistics.median(scaled)


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    use_checkout_source()
    import workloads
    workloads.WORKLOADS[workload].make_cases(seed)
    print(repr(time.perf_counter() - t0))


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    out = proc.stdout.split()
    if proc.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def machine_info(args) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "tvglab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": digest.hexdigest()}


def declared(section: str, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """(value, unit) of every metric BENCHMARK.json declares in section."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in BENCHMARK[section]}


def emit(info: dict, tally: Tally, metrics: dict[str, tuple[float, str]]) -> None:
    info.update(attempted=tally.attempted, failed=tally.failed,
                fail_frac=tally.failed / max(tally.attempted, 1),
                err_ratio_max=tally.worst,
                flags=dict(sorted(tally.flags.items())), failure_notes=tally.notes)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def untraced_run(args, workdir: str) -> None:
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    blocks = {"blocks": 1} if args.smoke else {}
    setup_wall, setup_s = measure_setup(args.workload, args.seed,
                                        1 if args.smoke else SETUP_PROBES)
    cases = workload.make_cases(args.seed, **blocks)
    tally = Tally()
    wall, scaled = measure(workload, cases, args.seconds, workdir, tally)
    pct = tail_percentile(workload.tail_pct, len(wall))

    def timings(seconds: list[float]) -> dict[str, float]:
        ms = sorted(t * 1e3 for t in seconds)
        return {"op_ms_p50": statistics.median(ms), "op_ms_tail": percentile(ms, pct),
                "ops_per_s": len(ms) / (sum(ms) / 1e3)}

    info = machine_info(args)
    info.update(ops=len(wall), tail_pct=pct, tail_beyond=int(len(wall) * (1.0 - pct / 100.0)),
                pool=len(cases), wall=dict(timings(wall), setup_s=setup_wall))
    values = dict(timings(scaled), err_ratio=tally.fixed_worst, setup_s=setup_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    emit(info, tally, declared("end_to_end", values))


def traced_run(args, workdir: str) -> None:
    """Same operations untraced and traced, alternating; per-layer metrics
    from the last traced pass, whose counts every traced pass repeats."""
    import tracing
    import workloads
    ops = [(workloads.WORKLOADS[name], case)
           for name in WORKLOAD_NAMES
           for case in workloads.WORKLOADS[name].make_cases(
               args.seed, blocks=1 if args.smoke else TRACE_BLOCKS[name])]
    tally = Tally()
    tracer = tracing.Tracer()
    best = {False: [math.inf] * len(ops), True: [math.inf] * len(ops)}
    for _ in range(TRACE_ROUNDS):
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                scope = None
                for i, (workload, case) in enumerate(ops):
                    if traced and workload.name != scope:
                        scope = workload.name
                        tracer.begin(scope)
                    before = tracer.counts.get("integrate_calls", 0)
                    best[traced][i] = min(best[traced][i], run_one(workload, case, workdir, tally))
                    if traced and tracer.counts.get("integrate_calls", 0) == before:
                        tally.fail("trace: operation recorded no integrate span", case)
            finally:
                tracer.uninstall()
    for name, (_, counts) in tracer.scopes.items():
        if counts.get("steps") != counts.get("steps_observed"):
            tally.fail(f"trace: {name} knots give {counts.get('steps')} steps, "
                       f"observe calls give {counts.get('steps_observed')}")
        if counts.get("observe") != counts.get("observe_in_integrate"):
            tally.fail(f"trace: {name} has observe calls outside integrate spans")
    values = tracing.layer_metrics(tracer, sum(best[False]), sum(best[True]))
    info = machine_info(args)
    info.update(ops=dict(collections.Counter(w.name for w, _ in ops)), rounds=TRACE_ROUNDS,
                spans={name: {k: s[:3] for k, s in sorted(stats.items())}
                       for name, (stats, _) in tracer.scopes.items()})
    emit(info, tally, declared("per_layer", values))


def run_all(args) -> None:
    """Each workload untraced in its own process, then the traced run."""
    merged = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    infos = {}
    runs = [(name, "0") for name in WORKLOAD_NAMES] + [("all", "1")]
    for name, trace in runs:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", trace]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: {' '.join(cmd)} exited with {proc.returncode}")
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line)["info"], json.loads(result_line)
        prefix = f"{name}." if trace == "0" else ""
        infos[prefix.rstrip(".") or "trace"] = info
        merged.attempted += result["attempted"]
        merged.failed += result["failed"]
        merged.notes.extend(info["failure_notes"])
        merged.flags.update(info["flags"])
        values = {key: (m["value"], m["unit"]) for key, m in result["metrics"].items()}
        if trace == "0":
            # always 0 when correct, so BENCHMARK.json cannot list it; shown here
            values["fail_frac"] = (info["fail_frac"], "1")
        for key, (value, unit) in values.items():
            metrics[prefix + key] = (value, unit)
            print(f"{prefix + key:45s} {value:>16.6g} {unit}", file=sys.stderr)
    info = machine_info(args)
    info["runs"] = infos
    emit(info, merged, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and one set-up probe, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_checkout_source()
    sys.path.insert(0, str(BENCH_DIR))
    if args.workload == "all" and args.trace == 0:
        run_all(args)
        return 0
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.trace:
            traced_run(args, workdir)
        else:
            untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
