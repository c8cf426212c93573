"""Numerical verification of the structural properties of the loops.

check_absolute_deadline sweeps a grid of start times and initial conditions
and confirms every noise-free run lands near zero at T.  gain_supremum_scan
evaluates the exact supremum of the feedback magnitude over a state box as
the time approaches T.  falsify_uniform_stability produces, for any pair
(delta, epsilon), a noise-free trajectory that starts with norm delta and
provably exceeds epsilon.  evaluate_stop_time and evaluate_deadzone measure
the two standard mitigation strategies: freezing the algorithm at a fixed
time, and freezing it once the state enters a small box.  The sweeps record
a case whose run fails numerically (NumericalFailure) as a failed case;
bad input raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    CONTROL_LOOP,
    GainTable,
    NoiseSource,
    NumericalFailure,
    SystemModel,
)
from .integrate import (
    IntegrationOptions,
    Trajectory,
    _earliest,
    _require_complete,
    _step_state,
    detect_peaks,
    integrate,
    terminal_state,
)
from .oracle import instability_witness_time

NoiseFactory = Optional[Callable[[], NoiseSource]]


def _noise_factory(model: SystemModel, noise: NoiseFactory) -> Callable[[], NoiseSource]:
    """A source keeps switching state, so each case gets a fresh one from a
    zero-argument factory; None stands for the model's zero noise."""
    if noise is None:
        return model.zero_noise
    if not callable(noise):
        raise TypeError("noise must be a zero-argument factory of noise sources, "
                        f"not a {type(noise).__name__}")
    return noise


# ---------------------------------------------------------------------------
# absolute deadline


@dataclass(frozen=True)
class DeadlineCase:
    s: float
    xi: tuple[float, ...]
    terminal_norm: Optional[float]
    bound: float
    passed: bool
    failure: str = ""


@dataclass(frozen=True)
class DeadlineReport:
    """Grid verdict: every start (s, xi) must satisfy
    ||x(T - rho)|| <= tol * max(1, ||xi||)."""

    cases: tuple[DeadlineCase, ...]
    rho: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)


def check_absolute_deadline(model: SystemModel, start_times: Sequence[float],
                            initial_conditions: Sequence, rho: float = 1e-3,
                            tol: float = 0.1,
                            opts: Optional[IntegrationOptions] = None) -> DeadlineReport:
    """Simulate the noise-free loop over the (s, xi) grid and check the
    terminal norm at T - rho against tol * max(1, ||xi||)."""
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    if rho <= 0.0 or T - rho <= 0.0:
        raise ValueError("rho must lie in (0, T)")
    outside = [s for s in start_times if not (0.0 <= s < T - rho)]
    if outside:
        raise ValueError(f"start times {outside!r} outside [0, T - rho) = [0, {T - rho!r})")
    cases = []
    for s in start_times:
        for xi in initial_conditions:
            xi_arr = np.asarray(xi, dtype=float)
            bound = tol * max(1.0, math.hypot(*xi_arr))
            nrm, failure = None, ""
            try:
                traj = integrate(model, None, xi_arr, float(s), T - rho, opts)
                _require_complete(traj)
                nrm = math.hypot(*terminal_state(traj, rho))
            except NumericalFailure as exc:
                failure = str(exc)
            cases.append(DeadlineCase(s=float(s), xi=tuple(map(float, xi_arr)),
                                      terminal_norm=nrm, bound=bound,
                                      passed=nrm is not None and nrm <= bound, failure=failure))
    return DeadlineReport(cases=tuple(cases), rho=rho, tol=tol)


def _rho_ladder(rhos) -> list[float]:
    """The rhos as floats; raises ValueError unless they are nonempty and
    strictly decreasing."""
    rhos = [float(r) for r in rhos]
    if any(b >= a for a, b in zip(rhos, rhos[1:])) or not rhos:
        raise ValueError("rhos must be a nonempty strictly decreasing sequence")
    return rhos


def rho_shrink_profile(model: SystemModel, s: float, xi, rhos: Sequence[float],
                       opts: Optional[IntegrationOptions] = None
                       ) -> tuple[tuple[float, float], ...]:
    """Terminal norms ||x(T - rho)|| for several rho from one simulation.

    rhos must be strictly decreasing.  For the deadline systems the norms
    shrink at least linearly in rho (one factor of T - t in every state
    component near the deadline).
    """
    rhos = _rho_ladder(rhos)
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    traj = integrate(model, None, np.asarray(xi, dtype=float), float(s), T - rhos[-1], opts)
    _require_complete(traj)
    return tuple((r, math.hypot(*terminal_state(traj, r))) for r in rhos)


# ---------------------------------------------------------------------------
# gain growth


@dataclass(frozen=True)
class GainScanRow:
    rho: float
    supremum: float
    arg_state: tuple[float, ...]
    arg_time: float
    arg_channel: Optional[int] = None  # injection scans: 0-based channel index


@dataclass(frozen=True)
class GainScanTable:
    """Exact suprema of the feedback magnitude over the box ||x||inf <= delta
    and t in [0, T - rho], one row per rho (decreasing)."""

    rows: tuple[GainScanRow, ...]
    delta: float
    kind: str

    @property
    def monotone(self) -> bool:
        """The suprema strictly grow as rho shrinks; a flat table is not."""
        sups = [r.supremum for r in self.rows]
        return all(b > a for a, b in zip(sups, sups[1:]))


def _canonical_corner(delta: float, signs: np.ndarray) -> tuple[float, ...]:
    signs = np.where(signs == 0.0, 1.0, signs)
    nz = signs[signs != 0.0]
    if nz.size and nz[0] < 0:
        signs = -signs
    return tuple(float(delta * s) for s in signs)


def gain_supremum_scan(model: SystemModel, delta: float,
                       rho_ladder: Sequence[float], time_samples: int = 64) -> GainScanTable:
    """Maximize the feedback magnitude over the state box and the time range.

    For coefficient-table gains the state maximizer at any fixed time is a
    box corner, so the scan is exact in the state.  The time maximizer is
    taken over a geometric ladder in T - t that always includes the exact
    endpoint T - rho; for gains whose magnitudes grow monotonically toward T
    (every built-in table) the endpoint wins.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    rhos = _rho_ladder(rho_ladder)
    T = model.T
    if rhos[0] >= T or rhos[-1] <= 0.0:
        raise ValueError("rho values must lie in (0, T)")
    is_control = model.variant == CONTROL_LOOP
    rows = []
    for rho in rhos:
        u_grid = np.geomspace(T, rho, time_samples)
        u_grid[-1] = rho  # exact endpoint
        vals = np.array([[g.value_at(u) for g in model.gains.gains] for u in u_grid])
        if is_control:
            totals = delta * np.abs(vals).sum(axis=1)
            j = int(np.argmax(totals))
            u_star = float(u_grid[j])
            signs = np.sign(vals[j])
            rows.append(GainScanRow(rho=rho, supremum=float(totals[j]),
                                    arg_state=_canonical_corner(delta, signs),
                                    arg_time=T - u_star))
        else:
            per = delta * np.abs(vals)
            j, i = np.unravel_index(int(np.argmax(per)), per.shape)
            u_star = float(u_grid[j])
            rows.append(GainScanRow(rho=rho, supremum=float(per[j, i]),
                                    arg_state=(delta,), arg_time=T - u_star,
                                    arg_channel=int(i)))
    return GainScanTable(rows=tuple(rows), delta=delta, kind=model.gains.kind)


def gain_bound_at(model: SystemModel, rho: float, delta: float) -> float:
    """Closed-form box supremum of the feedback magnitude at t = T - rho."""
    if delta <= 0.0 or rho <= 0.0 or rho >= model.T:
        raise ValueError("need delta > 0 and rho in (0, T)")
    if model.variant == CONTROL_LOOP:
        return delta * sum(abs(g.value_at(rho)) for g in model.gains.gains)
    return delta * max(abs(g.value_at(rho)) for g in model.gains.gains)


# ---------------------------------------------------------------------------
# uniform-stability falsification


@dataclass(frozen=True)
class StabilityWitness:
    """One trajectory refuting a uniform stability bound: it starts with
    ||x(s)|| = delta and exceeds epsilon before T."""

    delta: float
    epsilon: float
    eps_prime: float
    s: float
    crossed: bool
    crossing_time: Optional[float]
    attained_norm: float
    attained_time: float
    trajectory: Trajectory


def falsify_uniform_stability(model: SystemModel, delta: float, epsilon: float,
                              eps_prime: Optional[float] = None,
                              opts: Optional[IntegrationOptions] = None) -> StabilityWitness:
    """Launch the noise-free loop from delta * e1 at the witness start time
    and report the first time the norm exceeds epsilon plus the attained
    maximum.  crossed=False marks a falsification failure.

    One run serves both: the crossing is detect_peaks' for the one-rung
    ladder (epsilon,), bisected on the dense output of the step that closes
    at the first knot whose norm exceeds epsilon, so a crossing and
    recrossing between two knots goes unseen; a start that already exceeds
    epsilon (delta > epsilon) crosses at s."""
    if model.variant != CONTROL_LOOP:
        raise ValueError("stability falsification applies to the control loop")
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    rho_min = model.horizon.rho_min
    eps_prime = 1.05 * max(epsilon, delta) if eps_prime is None else float(eps_prime)
    s = instability_witness_time(delta, epsilon, eps_prime, T=T)
    if not (0.0 <= s < T - rho_min):
        raise ValueError(f"witness start {s!r} is not inside [0, T - rho_min)")
    x0 = np.zeros(model.n)
    x0[0] = delta

    full = integrate(model, None, x0, s, T - rho_min, opts)
    crossing_time = detect_peaks(full, (epsilon,))[0][1]
    norms = np.linalg.norm(full.xs, axis=1)
    j = int(np.argmax(norms))
    lo = full.ts[max(j - 1, 0)]
    hi = full.ts[min(j + 1, len(full.ts) - 1)]
    if hi > lo:
        fine_t = np.linspace(lo, hi, 2001)
        fine_norms = np.linalg.norm(full.state_at(fine_t), axis=1)
        k = int(np.argmax(fine_norms))
        attained = float(fine_norms[k])
        attained_time = float(fine_t[k])
    else:
        attained = float(norms[j])
        attained_time = float(full.ts[j])
    return StabilityWitness(delta=delta, epsilon=epsilon, eps_prime=eps_prime, s=s,
                            crossed=crossing_time is not None, crossing_time=crossing_time,
                            attained_norm=attained, attained_time=attained_time,
                            trajectory=full)


# ---------------------------------------------------------------------------
# workarounds


@dataclass(frozen=True)
class StopTimeCase:
    xi: tuple[float, ...]
    residual_state: Optional[tuple[float, ...]]
    residual_norm: Optional[float]
    failure: str = ""


@dataclass(frozen=True)
class DeadzoneCase:
    xi: tuple[float, ...]
    entered: bool
    entry_time: Optional[float]
    entry_state: Optional[tuple[float, ...]]
    gain_at_entry: Optional[float]
    final_state: Optional[tuple[float, ...]]
    failure: str = ""


@dataclass(frozen=True)
class WorkaroundReport:
    """Outcome of one mitigation sweep.

    variant is "stop_time" (parameter t_stop) or "deadzone" (parameter
    width).  For stop_time with at least three successful cases the report
    carries an affine fit of residual norm against start norm: slope,
    intercept, and coefficient of determination.  For deadzone,
    no_entry_flags lists the cases that never reached the box before
    T - rho_min.
    """

    variant: str
    parameter: float
    cases: tuple
    noisy: bool = False
    slope: Optional[float] = None
    intercept: Optional[float] = None
    r_squared: Optional[float] = None
    no_entry_flags: tuple[int, ...] = ()


def _affine_fit(xs: Sequence[float], ys: Sequence[float]
                ) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept and its coefficient of
    determination, in closed form on floats with exactly rounded sums, so no
    BLAS kernel changes a bit.  Points of one x fix no slope; the fit is
    then the horizontal line through the mean."""
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx > 0.0 else 0.0
    intercept = my - slope * mx
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def evaluate_stop_time(model: SystemModel, t_stop: float, initial_conditions: Sequence,
                       noise: NoiseFactory = None,
                       opts: Optional[IntegrationOptions] = None) -> WorkaroundReport:
    """Freeze the algorithm at t_stop and record the per-case residual state.

    The residual is x(t_stop); switching off there keeps every gain finite
    but leaves an error that scales linearly with the start state, which the
    affine fit quantifies (slope, intercept, R^2 over residual norm vs start
    norm, computed when at least three cases succeed).  noise is a
    zero-argument factory called once per case, or None.
    """
    opts = opts or IntegrationOptions()
    fresh_noise = _noise_factory(model, noise)
    T = model.horizon.T
    rho_min = model.horizon.rho_min
    if not (0.0 < t_stop < T - rho_min):
        raise ValueError("t_stop must lie in (0, T - rho_min)")
    cases = []
    for xi in initial_conditions:
        xi_arr = np.asarray(xi, dtype=float)
        try:
            traj = integrate(model, fresh_noise(), xi_arr, 0.0, t_stop, opts)
            _require_complete(traj)
            res = traj.xs[-1]
        except NumericalFailure as exc:
            cases.append(StopTimeCase(xi=tuple(map(float, xi_arr)), residual_state=None,
                                      residual_norm=None, failure=str(exc)))
            continue
        cases.append(StopTimeCase(xi=tuple(map(float, xi_arr)),
                                  residual_state=tuple(map(float, res)),
                                  residual_norm=math.hypot(*res)))
    good = [c for c in cases if c.failure == ""]
    slope = intercept = r2 = None
    if len(good) >= 3:
        slope, intercept, r2 = _affine_fit(
            [math.hypot(*c.xi) for c in good],
            [c.residual_norm for c in good])
    return WorkaroundReport(variant="stop_time", parameter=float(t_stop),
                            cases=tuple(cases), noisy=noise is not None,
                            slope=slope, intercept=intercept, r_squared=r2)


def _box_entry(traj: Trajectory, width: float) -> Optional[tuple[float, int]]:
    """Earliest time at which the dense output has ||x||inf <= width, with
    the index of the knot that opens its step; None when it never has.

    On a step, each channel's dense output is its Hermite cubic in theta
    plus theta^2 (1 - theta)^2 D, at most |D|/16.  The cubic ranges over its
    values at theta = 0, 1 and its critical points in between, so a step can
    hold an entry only when every channel's range, widened by |D|/16, meets
    [-width, width].  Only those steps are searched, in time order: between
    consecutive roots of the quartics minus +-width the box holds everywhere
    or nowhere, so the first interval whose midpoint (or, last, the step's
    end) is inside brackets the entry, which integrate._earliest bisects on
    the dense output itself, evaluated on floats by integrate._step_state.
    """
    kts, xl, xr, ds = traj.knot_ts, traj.knot_xs[:-1], traj.knot_xs[1:], traj.knot_ds[1:]
    hs = np.diff(kts)
    fl, fr = hs[:, None] * traj.knot_fs[:-1], hs[:, None] * traj.knot_fl[1:]
    # channel cubics xl + a1 theta + a2 theta^2 + a3 theta^3 and the roots of
    # their derivatives, NaN or inf when absent, by the stable quadratic formula
    a1, a2, a3 = fl, 3.0 * (xr - xl) - 2.0 * fl - fr, 2.0 * (xl - xr) + fl + fr
    with np.errstate(all="ignore"):
        q = -(a2 + np.copysign(np.sqrt(a2 * a2 - 3.0 * a1 * a3), a2))
        vals = [xl, xr] + [xl + th * (a1 + th * (a2 + th * a3))
                           for th in (np.where((c > 0.0) & (c < 1.0), c, 0.0)
                                      for c in (q / (3.0 * a3), a1 / q))]
    slack = width + np.abs(ds) / 16.0 + 1e-9 * (np.abs(xl) + np.abs(xr) + np.abs(fl) + np.abs(fr))
    meets = (np.minimum.reduce(vals) <= slack) & (np.maximum.reduce(vals) >= -slack)

    for i in np.flatnonzero(meets.all(axis=1)).tolist():
        state = _step_state(traj, i + 1)

        def inside(t):
            return max(map(abs, state(t))) <= width
        roots = [0.0, 1.0]
        for j in range(traj.n):
            d = ds[i, j]
            for w in (width, -width):
                roots += [r for r in np.roots([d, a3[i, j] - 2.0 * d, a2[i, j] + d, a1[i, j],
                                               xl[i, j] - w]).real
                          if 0.0 < r < 1.0]
        roots.sort()
        lo = float(kts[i])
        # the step's start, each interval's midpoint, then its end: a knot just
        # inside the box (a stopped run ends at the first one) puts a root near
        # theta = 1 that may round to 1 or past it, and no midpoint is inside
        mids = [float(kts[i] + 0.5 * (a + b) * hs[i]) for a, b in zip(roots, roots[1:])]
        for hi in [lo, *mids, float(kts[i + 1])]:
            if inside(hi):
                return _earliest(inside, lo, hi, traj.T), i
            lo = hi
    return None


def evaluate_deadzone(model: SystemModel, width: float, initial_conditions: Sequence,
                      noise: NoiseFactory = None,
                      opts: Optional[IntegrationOptions] = None) -> WorkaroundReport:
    """Switch the algorithm off when ||x||inf first reaches width.

    Reports the entry time, the feedback magnitude the loop was applying at
    entry, and the open-loop final state at T - rho_min.  Cases that never
    enter the box before T - rho_min are flagged; bounded noise can cause
    exactly that.  Entry is the earliest time the dense output between
    knots has max norm <= width, so a visit inside one step counts; the run
    stops at the first knot inside the box.  The gain at entry uses the
    noise of the entry step (a held source's recorded value), and the entry
    state is the dense output there.  noise is a zero-argument factory
    called once per case, or None.
    """
    fresh_noise = _noise_factory(model, noise)
    if width <= 0.0:
        raise ValueError("width must be positive")
    T = model.horizon.T
    rho_min = model.horizon.rho_min
    t_end = T - rho_min
    off_model = replace(model, gains=GainTable.zero(model.n))
    cases = []
    flags = []
    for idx, xi in enumerate(initial_conditions):
        xi_arr = np.asarray(xi, dtype=float)
        case_noise = fresh_noise()
        try:
            if float(np.max(np.abs(xi_arr))) <= width:
                # the source latches at its first observe, as in integrate
                entry_t, entry_x, x = 0.0, xi_arr, xi_arr.tolist()
                case_noise.observe(0.0, x)
                gain = abs(float(model.gain_output(0.0, xi_arr, case_noise.value(0.0, x))))
            else:
                probe = integrate(
                    model, case_noise, xi_arr, 0.0, t_end, opts,
                    stop_condition=lambda t, x: max(map(abs, x)) <= width)
                entry = _box_entry(probe, width)
                if entry is None:
                    _require_complete(probe)
                    flags.append(idx)
                    cases.append(DeadzoneCase(
                        xi=tuple(map(float, xi_arr)), entered=False, entry_time=None,
                        entry_state=None, gain_at_entry=None,
                        final_state=tuple(map(float, probe.xs[-1]))))
                    continue
                entry_t, k = entry
                entry_x = probe.state_at(entry_t)
                eta = (probe.etas[k] if case_noise.held
                       else case_noise.value(entry_t, entry_x.tolist()))
                gain = abs(float(model.gain_output(entry_t, entry_x, eta)))
            if entry_t < t_end:
                tail = integrate(off_model, None, entry_x, entry_t, t_end, opts)
                final = tail.xs[-1]
            else:
                final = entry_x
        except NumericalFailure as exc:
            cases.append(DeadzoneCase(xi=tuple(map(float, xi_arr)), entered=False,
                                      entry_time=None, entry_state=None, gain_at_entry=None,
                                      final_state=None, failure=str(exc)))
            continue
        cases.append(DeadzoneCase(xi=tuple(map(float, xi_arr)), entered=True,
                                  entry_time=entry_t,
                                  entry_state=tuple(map(float, entry_x)),
                                  gain_at_entry=gain,
                                  final_state=tuple(map(float, final))))
    return WorkaroundReport(variant="deadzone", parameter=float(width), cases=tuple(cases),
                            noisy=noise is not None, no_entry_flags=tuple(flags))
