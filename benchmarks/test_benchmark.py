"""Smoke tests of the benchmark itself: python3 -m pytest benchmarks

They run the benchmark with tiny pools (--smoke) and check that every metric
is emitted with its unit, that corrupted results are counted as failures,
that the traced run patches every binding and repeats its counts, and that
the rational-loop closed form used by deadline_sweep is right.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
import tvglab as tl  # noqa: E402

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv):
    assert run.main([*argv, "--seed", "3", "--seconds", "0.2", "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    info, result = _run(capsys, "--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0 and info["fail_frac"] == 0.0
    expected = {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "git_commit", "src_sha256", "seed", "fail_frac",
                "tail_pct", "tail_beyond", "err_ratio_max"):
        assert key in info
    assert info["seed"] == 3 and info["fail_frac"] == result["failed"] / result["attempted"]


def test_traced_run_emits_every_layer_metric_and_repeats_its_counts(capsys):
    _, first = _run(capsys, "--workload", "deadline_sweep", "--trace", "1")
    _, second = _run(capsys, "--workload", "dense_artifacts", "--trace", "1")
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [k for k, unit in expected.items() if unit in ("count", "B")]
    assert counts
    for key in counts + ["integrate.rhs_per_step", "integrate.accept_ratio",
                         "integrate.steps_per_decade", "attack.armed_frac"]:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"] > 0, key


def test_baseline_names_the_declared_metrics():
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    baseline = json.loads((run.BENCH_DIR / "baseline.json").read_text())
    assert [m["name"] for m in baseline["per_layer"]] == \
        [m["name"] for m in BENCHMARK_JSON["per_layer"]]


def _corrupt(monkeypatch, name, corrupt_output):
    workload = workloads.WORKLOADS[name]

    def corrupted_run(case, workdir):
        return corrupt_output(case, workload.run(case, workdir))

    monkeypatch.setitem(workloads.WORKLOADS, name,
                        dataclasses.replace(workload, run=corrupted_run))


def test_perturbed_terminal_state_is_counted_in_fail_frac(monkeypatch, capsys):
    def perturb(case, out):
        traj, x_end = out
        return traj, x_end + 1.0 + 1e-3 * np.max(np.abs(traj.xs))

    _corrupt(monkeypatch, "deadline_sweep", perturb)
    info, result = _run(capsys, "--workload", "deadline_sweep", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and info["fail_frac"] == 1.0


def test_rewritten_csv_byte_is_counted_in_fail_frac(monkeypatch, capsys):
    def rewrite(case, out):
        code, path, _ = out
        with open(path, "rb") as fh:
            raw = fh.read()
        head, sep, rows = raw.partition(b"\nt,")
        rows = rows.replace(b"e+00", b"E+00", 1)  # parses to the same floats
        with open(path, "wb") as fh:
            fh.write(head + sep + rows)
        return code, path, tl.cli.parse_trajectory_csv(path)

    _corrupt(monkeypatch, "dense_artifacts", rewrite)
    info, result = _run(capsys, "--workload", "dense_artifacts", "--trace", "0")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and info["fail_frac"] == 1.0
    assert "re-format" in info["failure_notes"][0]


def test_trace_rebinds_names_imported_into_other_modules():
    # the package re-exports integrate, which hides the submodule attribute
    mods = {name: importlib.import_module(f"tvglab.{name}") for name in tracing.LAYERS}
    original = mods["integrate"].integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = mods["integrate"].integrate
        assert wrapped.__wrapped__ is original
        for mod in (tl, mods["attack"], mods["analysis"], mods["oracle"], mods["cli"]):
            assert mod.integrate is wrapped, mod.__name__
        assert mods["attack"].detect_peaks is mods["integrate"].detect_peaks
        assert hasattr(mods["attack"].detect_peaks, "__wrapped__")
        assert hasattr(tl.RationalGain.value_at, "__wrapped__")
        assert not hasattr(mods["cli"].fmt, "__wrapped__")
    finally:
        tracer.uninstall()
    assert mods["attack"].integrate is original and tl.integrate is original
    assert not hasattr(tl.RationalGain.value_at, "__wrapped__")


@pytest.mark.parametrize("T", workloads.RATIONAL_T)
def test_rational_loop_closed_form(T):
    """Solutions of the -60,3; -36,2; -9,1 loop are combinations of u^3, u^4
    and u^5: the closed form starts at xi, solves the ODE, vanishes at T, and
    the integrator matches it to the oracle tolerance."""
    model = tl.rational_loop(workloads.RATIONAL_TABLE, T=T)
    rng = np.random.default_rng(0)
    for _ in range(3):
        s = float(rng.uniform(0.0, 0.9)) * T
        xi = rng.normal(size=3)
        exact = functools.partial(workloads.rational_exact, T, s, xi)
        # the check measures errors against the trajectory's sup norm
        scale = np.max(np.abs(exact(T - np.geomspace(T - s, 1e-9 * T, 200))))
        assert np.max(np.abs(exact(s) - xi)) <= 1e-12 * scale
        assert np.all(exact(T) == 0.0)
        for t in s + np.array([0.1, 0.5, 0.9]) * (T - s):
            h = 1e-5 * (T - t)
            slope = (exact(t + h) - exact(t - h)) / (2.0 * h)
            rhs = model.rhs(t, exact(t), np.zeros(3))
            assert np.max(np.abs(slope - rhs)) <= 1e-6 * np.max(np.abs(rhs))
    cases = [c for c in workloads.make_sweep_cases(5, blocks=3)
             if c.system == workloads.RATIONAL and c.T == T]
    assert len(cases) == 3
    for case in cases:
        check = workloads.check_sweep(case, workloads.run_sweep(case, ""))
        assert check.ok and 0.0 < check.worst <= 1.0


def test_piecewise_oracle_catches_a_shifted_segment():
    case = next(c for c in workloads.make_attack_cases(2, blocks=1)
                if c.kind == workloads.CTRL_DIVERGENCE)
    traj = workloads.run_attack(case, "").trajectory
    assert workloads.piecewise_oracle_error(traj) <= workloads.ORACLE_REL_TOL
    xs = traj.xs.copy()
    xs[len(xs) // 2] += 1e-4 * np.max(np.abs(xs))
    assert workloads.piecewise_oracle_error(dataclasses.replace(traj, xs=xs)) \
        > 10.0 * workloads.ORACLE_REL_TOL


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "deadline_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "defect in run_controller_terminal_attack_with_prelude: when the swing "
    "condition already holds at the steering switch s0, the plan starts at s0 "
    "off the state and tracking misses 1e-6 while the verdict passes"))
@pytest.mark.parametrize("x0, eta_bar, epsilon", [((0.95, 0.7), 2e-3, 1.3e-3),
                                                  ((0.6, -0.7), 4e-3, 4e-3),
                                                  ((0.5, 0.6), 1.6e-3, 2e-3)])
def test_prelude_attack_tracks_its_plan(x0, eta_bar, epsilon):
    """Why attack_suite leaves the prelude attack out.  Once this passes,
    the prelude kind belongs back in workloads.ATTACK_KINDS."""
    outcome = tl.run_controller_terminal_attack_with_prelude(
        tl.reference_loop(), eta_bar, epsilon, x0)
    assert outcome.verdict
    assert outcome.tracking_error <= workloads.TRACKING_TOL
