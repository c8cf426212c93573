"""Seeded workloads of the tvglab benchmark: inputs, operations and checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``make_cases(seed)`` builds the whole input
pool from the seed alone, ``run(case, workdir)`` is the timed operation, and
``check(case, out)`` compares its output against the stated tolerance.

Operations reach tvglab only through attributes of the imported package and
its submodules (``tl.integrate``, ``tl.cli.main``), never through names bound
here, so the traced run's patched bindings see every call.

Inputs are stratified: a block holds one case of every stratum (system and
end distance, attack kind, variant and grid), continuous inputs are drawn
from equal bins in a Latin layout (see _latin), and the pool is ordered
block by block.  Any run of whole blocks therefore holds the same mix of
cases, which keeps the spread of time-bounded runs across seeds small.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tvglab as tl
import tvglab.cli

# Stated tolerances of the checks.
ORACLE_REL_TOL = 1e-6      # relative sup-norm against a closed form
DEADLINE_TOL = 0.1         # ||x(T - rho)|| <= tol * max(1, ||xi||), as in criterion 2
TRACKING_TOL = 1e-6        # controller terminal attack follows its plan
PIN_REL_TOL = 1e-3         # |x2 + eps| <= 1e-3 * eps for the differentiator ramp
BOUND_SLACK = 1e-12        # relative slack on the recorded noise bound

CHECK_POINTS = 64          # geometric grid in T - t for dense-output checks
FIXED_SEED = 0             # draws the fixed set, whatever the run's seed


@dataclass(frozen=True)
class Check:
    """Verdict of one operation.

    worst is the largest error / tolerance over every tolerance the operation
    is checked against (closed form, tracking, pin or terminal norm), 0 for
    operations checked only by verdicts.  flags name observations that are
    not failures but are reported with the run, such as partial schedules.
    """

    ok: bool
    worst: float = 0.0
    note: str = ""
    flags: tuple[str, ...] = ()


def _tolerance_check(ratio: float, what: str) -> Check:
    ok = ratio <= 1.0
    return Check(ok, ratio, "" if ok else f"{what}: {ratio:.3e} x tolerance")


def _relative_error(got, exact) -> float:
    return float(np.max(np.abs(got - exact))) / max(float(np.max(np.abs(exact))), 1e-300)


@dataclass(frozen=True)
class Workload:
    """One workload; why it exists is recorded in BENCHMARK.json.

    The fixed set is fixed_blocks blocks drawn from FIXED_SEED: the same
    cases in every run, which each run checks first, untimed, as its
    warm-up.  Its worst error / tolerance is err_ratio, which therefore
    depends only on the code and sees one case of every stratum per block.

    tail_pct is the higher of the percentiles 90 and 75 that keeps at least
    ten operations beyond it, with room to spare, in a run of BENCHMARK.json's
    length on a 2-CPU machine; being fixed, it does not change between runs.
    """

    name: str
    fixed_blocks: int
    tail_pct: float
    make_cases: Callable[..., list]
    run: Callable[..., object]
    check: Callable[..., Check]

    def fixed_cases(self) -> list:
        return self.make_cases(FIXED_SEED, blocks=self.fixed_blocks)


def _latin(rng: np.random.Generator, blocks: int, strata: int) -> np.ndarray:
    """u[b, k] in [0, 1) for block b and stratum k, one draw per equal bin.

    Over the blocks, stratum k takes each of the `blocks` bins once; within a
    block the strata sit on bins spread evenly over [0, 1) (a cyclic Latin
    layout), so every block, and any run of whole blocks, is balanced.
    """
    bins = (np.arange(blocks)[:, None] + (np.arange(strata) * blocks) // strata) % blocks
    return (bins[rng.permutation(blocks)] + rng.uniform(size=(blocks, strata))) / blocks


def _log_scale(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _direction(rng: np.random.Generator, n: int, u: float) -> np.ndarray:
    """Unit vector; in the plane its angle is the stratified draw u, since the
    integrator's relative error depends on the direction of the start state."""
    if n == 2:
        return np.array([math.cos(2.0 * math.pi * u), math.sin(2.0 * math.pi * u)])
    v = rng.normal(size=n)
    return v / max(float(np.linalg.norm(v)), 1e-300)


def _bound_ok(etas: np.ndarray, eta_bar: float) -> bool:
    return float(np.max(np.linalg.norm(etas, axis=1))) <= eta_bar * (1.0 + BOUND_SLACK)


# ---------------------------------------------------------------------------
# deadline_sweep: noise-free integrate + terminal_state


REFERENCE = "reference"
DIFFERENTIATOR = "differentiator"
RATIONAL = "rational"
SYSTEMS = (REFERENCE, DIFFERENTIATOR, RATIONAL)
RATIONAL_TABLE = (((-60.0, 3),), ((-36.0, 2),), ((-9.0, 1),))
RATIONAL_T = (1e-3, 1.0, 1e3)
RHO_FRACTIONS = (1e-3, 1e-6, 1e-9)


@dataclass(frozen=True)
class SweepCase:
    system: str
    model: object
    opts: object
    T: float
    rho: float
    s: float
    xi: tuple[float, ...]


def rational_exact(T: float, s: float, xi, ts) -> np.ndarray:
    """Closed form of the rational loop with table -60,3; -36,2; -9,1.

    With u = T - t, x1 = a u^3 + b u^4 + c u^5 solves the closed loop for
    every (a, b, c) (the characteristic polynomial has roots 3, 4 and 5), so
    every solution reaches zero at T.  The coefficients are scaled by the
    start distance u_s = T - s to keep the 3x3 solve well conditioned.
    """
    us = T - s
    a = np.linalg.solve(np.array([[1.0, 1.0, 1.0], [-3.0, -4.0, -5.0], [6.0, 12.0, 20.0]]),
                        np.array([xi[0], xi[1] * us, xi[2] * us * us]))
    r = (T - np.asarray(ts, dtype=float)) / us
    x1 = a[0] * r**3 + a[1] * r**4 + a[2] * r**5
    x2 = -(3.0 * a[0] * r**2 + 4.0 * a[1] * r**3 + 5.0 * a[2] * r**4) / us
    x3 = (6.0 * a[0] * r + 12.0 * a[1] * r**2 + 20.0 * a[2] * r**3) / (us * us)
    return np.stack([x1, x2, x3], axis=-1)


def make_sweep_cases(seed: int, blocks: int = 12) -> list[SweepCase]:
    """blocks x (3 systems x 3 end distances); the rational loop's T cycles
    through 1e-3, 1 and 1e3 from block to block."""
    rng = np.random.default_rng([seed, 1])
    models = {(REFERENCE, 1.0): tl.reference_loop(),
              (DIFFERENTIATOR, 1.0): tl.differentiator_error_model()}
    for T in RATIONAL_T:
        models[(RATIONAL, T)] = tl.rational_loop(RATIONAL_TABLE, T=T)
    strata = [(system, frac) for system in SYSTEMS
              for frac in RHO_FRACTIONS]
    u_s, u_r, u_a = (_latin(rng, blocks, len(strata)) for _ in range(3))
    # x3 of the rational loop peaks near 60 |x1(s)| / (T - s)^2: about 6e10 at
    # T = 1e-3, where the default norm-escape cap of 1e9 would stop these
    # convergent runs.  The cap is scaled with the T^-2 units of that channel.
    opts = {T: tl.IntegrationOptions(max_norm=1e9 / min(T, 1.0) ** 2) for T in RATIONAL_T}
    cases = []
    for b in range(blocks):
        block = []
        for k, (system, frac) in enumerate(strata):
            T = RATIONAL_T[b % len(RATIONAL_T)] if system == RATIONAL else 1.0
            n = 3 if system == RATIONAL else 2
            radius = float(_log_scale(u_r[b, k], 0.1, 10.0))
            xi = tuple(float(v) for v in radius * _direction(rng, n, u_a[b, k]))
            block.append(SweepCase(system=system, model=models[(system, T)], opts=opts[T], T=T,
                                   rho=frac * T, s=float(u_s[b, k]) * 0.9 * T, xi=xi))
        cases.extend(block[i] for i in rng.permutation(len(block)))
    return cases


def run_sweep(case: SweepCase, workdir: str):
    traj = tl.integrate(case.model, None, case.xi, case.s, case.T - case.rho, case.opts)
    return traj, tl.terminal_state(traj, case.rho)


def check_sweep(case: SweepCase, out) -> Check:
    traj, x_end = out
    if not traj.completed:
        return Check(False, note=f"integration ended early: {traj.termination.kind}")
    if case.system == DIFFERENTIATOR:
        return _tolerance_check(float(np.linalg.norm(x_end)) / (
            DEADLINE_TOL * max(1.0, float(np.linalg.norm(case.xi)))), "terminal norm")
    t_end = case.T - case.rho
    ts = np.clip(case.T - np.geomspace(case.T - case.s, case.rho, CHECK_POINTS), case.s, t_end)
    ts[-1] = t_end
    if case.system == REFERENCE:
        exact = tl.reference_solution(case.s, case.xi, ts)
    else:
        exact = rational_exact(case.T, case.s, case.xi, ts)
    got = traj.state_at(ts)
    got[-1] = x_end
    return _tolerance_check(_relative_error(got, exact) / ORACLE_REL_TOL, "oracle error")


# ---------------------------------------------------------------------------
# attack_suite: one seeded attack, falsification or noisy deadzone per call


CTRL_DIVERGENCE = "controller-divergence"
DIFF_DIVERGENCE = "diff-divergence"
CTRL_TERMINAL = "controller-terminal"
DIFF_TERMINAL = "diff-terminal"
FALSIFY = "falsify"
DEADZONE = "deadzone"
# run_controller_terminal_attack_with_prelude is not among the kinds: from
# about a quarter of start states in [-1, 1]^2 it misses its 1e-6 tracking
# tolerance while its verdict passes (the swing condition already holds at the
# steering switch s0, so the plan starts at s0 off the state).  The benchmark's
# operations must all pass; test_benchmark.py pins the defect with a strict xfail.
ATTACK_KINDS = (CTRL_DIVERGENCE, DIFF_DIVERGENCE, CTRL_TERMINAL, DIFF_TERMINAL,
                FALSIFY, DEADZONE)


@dataclass(frozen=True)
class AttackCase:
    kind: str
    model: object
    eta_bar: float = 0.0
    epsilon: float = 0.0
    x0: tuple[float, ...] = ()
    width: float = 0.0
    delta: float = 0.0


def make_attack_cases(seed: int, blocks: int = 8) -> list[AttackCase]:
    """blocks x one case of each kind.

    eta_bar is log-uniform in [1e-3, 1e-1].  epsilon keeps each construction
    admissible: eps/eta_bar in [0.5, 5] for the controller plan, and
    eps >= 2 eta_bar for the differentiator ramp, whose start
    T - 2 eta_bar / eps must not precede 0.  Divergence runs start below the
    first ladder threshold 0.1.
    """
    rng = np.random.default_rng([seed, 2])
    loop = tl.reference_loop()
    loop_floor = tl.reference_loop(rho_min=1e-9)
    diff = tl.differentiator_error_model()
    diff_floor = tl.differentiator_error_model(rho_min=1e-9)
    deadzone_loop = tl.reference_loop(rho_min=1e-6)
    draws = [_latin(rng, blocks, len(ATTACK_KINDS)) for _ in range(2)]
    cases = []
    for b in range(blocks):
        block = []
        for k, kind in enumerate(ATTACK_KINDS):
            u1, u2 = (float(d[b, k]) for d in draws)
            eta_bar = float(_log_scale(u1, 1e-3, 1e-1))
            if kind in (CTRL_DIVERGENCE, DIFF_DIVERGENCE):
                x0 = tuple(float(v) for v in rng.uniform(-0.01, 0.01, 2))
                model = loop_floor if kind == CTRL_DIVERGENCE else diff_floor
                block.append(AttackCase(kind, model, eta_bar=eta_bar, x0=x0))
            elif kind == CTRL_TERMINAL:
                eps = eta_bar * float(_log_scale(u2, 0.5, 5.0))
                block.append(AttackCase(kind, loop, eta_bar=eta_bar, epsilon=eps))
            elif kind == DIFF_TERMINAL:
                eps = 2.0 * eta_bar * float(_log_scale(u2, 1.0, 10.0))
                x0 = tuple(float(v) for v in rng.uniform(-5.0, 5.0, 2))
                block.append(AttackCase(kind, diff, eta_bar=eta_bar, epsilon=eps, x0=x0))
            elif kind == FALSIFY:
                delta = float(_log_scale(u1, 0.1, 10.0))
                eps = delta * float(_log_scale(u2, 1.2, 5.0))
                block.append(AttackCase(kind, loop, epsilon=eps, delta=delta))
            else:
                width = eta_bar * (0.5 + 1.5 * u2)
                x0 = (float(_log_scale(rng.uniform(), 1.0, 100.0)), 0.0)
                block.append(AttackCase(kind, deadzone_loop, eta_bar=eta_bar, x0=x0,
                                        width=width))
        cases.extend(block[i] for i in rng.permutation(len(block)))
    return cases


def run_attack(case: AttackCase, workdir: str):
    kind = case.kind
    if kind in (CTRL_DIVERGENCE, DIFF_DIVERGENCE):
        return tl.run_divergence_attack(case.model, case.eta_bar, x0=case.x0)
    if kind == CTRL_TERMINAL:
        return tl.run_controller_terminal_attack(case.model, case.eta_bar, case.epsilon)
    if kind == DIFF_TERMINAL:
        return tl.run_differentiator_terminal_attack(case.model, case.eta_bar, case.epsilon,
                                                     case.x0)
    if kind == FALSIFY:
        return tl.falsify_uniform_stability(case.model, case.delta, case.epsilon)
    eta_bar = case.eta_bar
    return tl.evaluate_deadzone(case.model, case.width, (case.x0,),
                                noise=lambda: tl.controller_divergence_noise(eta_bar))


def piecewise_oracle_error(traj) -> float:
    """Relative sup-norm error of a reference-loop run under noise held
    constant between switches.

    While the noise vector eta is held, y = x + eta obeys the noise-free
    reference loop: y(t) = reference_solution(t_k, y(t_k), t) on each segment
    [t_k, t_k+1].  The check restarts from the recorded state at every
    switch, so it measures the integrator's own error per segment.
    """
    edges = (traj.t0, *traj.switch_times, traj.t_last)
    worst = 0.0
    for a, b in zip(edges, edges[1:]):
        idx = np.nonzero((traj.ts >= a) & (traj.ts <= b))[0]
        y = traj.xs[idx] + traj.etas[idx[0]]
        worst = max(worst, _relative_error(y, tl.reference_solution(a, y[0], traj.ts[idx])))
    return worst


def check_attack(case: AttackCase, out) -> Check:
    kind = case.kind
    if kind == DEADZONE:
        return _check_deadzone(case, out)
    if kind == FALSIFY:
        traj = out.trajectory
        oracle = _relative_error(traj.xs, tl.reference_solution(traj.t0, traj.xs[0], traj.ts))
        check = _tolerance_check(oracle / ORACLE_REL_TOL, "oracle error")
        if out.crossed and out.attained_norm >= case.epsilon:
            return check
        return dataclasses.replace(check, ok=False, note="witness did not exceed epsilon")
    problems = []
    if not out.verdict:
        problems.append("verdict failed")
    if not _bound_ok(out.trajectory.etas, case.eta_bar):
        problems.append("recorded noise exceeds eta_bar")
    ratio = 0.0
    flags = []
    if kind in (CTRL_DIVERGENCE, DIFF_DIVERGENCE):
        if any(t is None or t >= out.trajectory.T for _, t in out.peaks):
            problems.append(f"ladder not crossed before T: {out.peaks}")
        if "partial schedule" in out.notes:
            flags.append("partial_schedule")
        if kind == CTRL_DIVERGENCE:
            ratio = piecewise_oracle_error(out.trajectory) / ORACLE_REL_TOL
            if ratio > 1.0:
                problems.append(f"oracle error: {ratio:.3e} x tolerance")
    elif kind == CTRL_TERMINAL:
        if float(np.linalg.norm(out.terminal)) < case.epsilon:
            problems.append("terminal norm below epsilon")
        ratio = out.tracking_error / TRACKING_TOL
        if not ratio <= 1.0:
            problems.append(f"tracking error {out.tracking_error:.3e}")
    else:
        pin = abs(float(out.terminal[1]) + case.epsilon)
        ratio = pin / (PIN_REL_TOL * case.epsilon)
        if ratio > 1.0:
            problems.append(f"pin error {pin:.3e}")
    return Check(not problems, ratio, "; ".join(problems), tuple(flags))


def _check_deadzone(case: AttackCase, report) -> Check:
    c = report.cases[0]
    if c.failure:
        return Check(False, note=f"deadzone case failed: {c.failure}")
    if c.entered:
        ok = (max(abs(v) for v in c.entry_state) <= case.width
              and c.entry_time < case.model.horizon.T and report.no_entry_flags == ()
              and math.isfinite(c.gain_at_entry) and c.gain_at_entry > 0.0)
        return Check(ok, note="" if ok else "inconsistent deadzone entry record")
    ok = (report.no_entry_flags == (0,) and c.final_state is not None
          and max(abs(v) for v in c.final_state) > case.width)
    return Check(ok, note="" if ok else "inconsistent no-entry record", flags=("no_entry",))


# ---------------------------------------------------------------------------
# dense_artifacts: in-process `tvglab simulate` with a CSV round trip


@dataclass(frozen=True)
class DenseCase:
    variant: str
    grid: str
    grid_count: int
    x0: tuple[float, float]

    def argv(self, workdir: str) -> list[str]:
        return ["simulate", "--system.variant", self.variant, "--sim.grid", self.grid,
                "--sim.grid_count", str(self.grid_count),
                "--sim.x0", ",".join(repr(v) for v in self.x0),
                "--output.dir", workdir, "--output.prefix", "bench"]


CSV_NAME = "bench_simulate.csv"
DENSE_COMBOS = (("control_loop", "uniform"), ("diff_error", "geometric"),
                ("control_loop", "geometric"), ("diff_error", "uniform"))


def make_dense_cases(seed: int, blocks: int = 8) -> list[DenseCase]:
    """blocks x (2 variants x 2 grid kinds), grid_count in [2000, 8000]."""
    rng = np.random.default_rng([seed, 3])
    u_n, u_r, u_a = (_latin(rng, blocks, len(DENSE_COMBOS)) for _ in range(3))
    cases = []
    for b in range(blocks):
        block = []
        for k, combo in enumerate(DENSE_COMBOS):
            radius = float(_log_scale(u_r[b, k], 0.1, 10.0))
            x0 = tuple(float(v) for v in radius * _direction(rng, 2, u_a[b, k]))
            block.append(DenseCase(variant=combo[0], grid=combo[1],
                                   grid_count=2000 + int(u_n[b, k] * 6001), x0=x0))
        cases.extend(block[i] for i in rng.permutation(len(block)))
    return cases


def run_dense(case: DenseCase, workdir: str):
    code = tl.cli.main(case.argv(workdir))
    path = os.path.join(workdir, CSV_NAME)
    return code, path, tl.cli.parse_trajectory_csv(path)


def check_dense(case: DenseCase, out) -> Check:
    code, path, parsed = out
    if code != 0:
        return Check(False, note=f"simulate exited with {code}")
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("utf-8").split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = ["t", "x1", "x2"] + (["eta1", "eta2"] if case.variant == "control_loop"
                                  else ["eta1"]) + ["gain_out"]
    if not body or body[0] != ",".join(header) or parsed["header"] != header:
        return Check(False, note="unexpected CSV header")
    rows = np.column_stack([parsed["ts"], parsed["xs"], parsed["etas"], parsed["gains"]])
    fmt = tl.cli.fmt
    if body[1:] != [",".join(fmt(v) for v in row) for row in rows]:
        return Check(False, note="CSV rows do not re-format to identical bytes")
    ts, xs = parsed["ts"], parsed["xs"]
    if len(ts) < case.grid_count or ts[0] != 0.0 or not np.all(np.diff(ts) > 0.0):
        return Check(False, note="sample times are not the requested increasing grid")
    if np.any(parsed["etas"] != 0.0):
        return Check(False, note="noise-free run recorded nonzero noise")
    if case.variant == "control_loop":
        return _tolerance_check(_relative_error(xs, tl.reference_solution(0.0, case.x0, ts))
                                / ORACLE_REL_TOL, "oracle error")
    return _tolerance_check(float(np.linalg.norm(xs[-1])) / (
        DEADLINE_TOL * max(1.0, float(np.linalg.norm(case.x0)))), "terminal norm")


WORKLOADS = {
    w.name: w for w in (
        Workload("deadline_sweep", 6, 90.0,
                 make_sweep_cases, run_sweep, check_sweep),
        Workload("attack_suite", 4, 90.0,
                 make_attack_cases, run_attack, check_attack),
        Workload("dense_artifacts", 2, 75.0,
                 make_dense_cases, run_dense, check_dense),
    )
}
