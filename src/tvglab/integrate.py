"""Deadline-aware adaptive integration.

The stepper is an embedded Dormand-Prince 5(4) pair with two extra rules
that the singular gains demand:

* the step is clamped to a fixed fraction of the remaining distance to the
  deadline, so the right-hand side is never evaluated at or past T, and
* noise and disturbance switching instants are hard step boundaries; the
  integrator lands on them exactly instead of stepping across.

The loop keeps a knot record at every committed step: state, noise as
queried, and the derivative's right and left limits at the knot.  Cubic
Hermite interpolation over the knots gives dense output in between.  An
optional output grid is filled in one batched pass after the last step:
one Hermite evaluation over the knot record for all grid points, the same
evaluator Trajectory.state_at calls, merged with the knot rows by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import CONTROL_LOOP, NoiseBoundViolation, NoiseSource, NumericalFailure, SystemModel

# Dormand-Prince 5(4) tableau; the 7th stage is the FSAL derivative.  Each
# stage row is paired with its node c and covers k[:len(row)].
_DP_STAGES = tuple((c, np.array(row)) for c, row in zip(
    (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0),
    (
        (0.2,),
        (3.0 / 40.0, 9.0 / 40.0),
        (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
        (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
        (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    )))
_DP_B = np.array((35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0))
_DP_E = np.array((71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
                  -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0))

REACHED_END = "reached_t_end"
BLOW_UP = "blow_up"
STEP_UNDERFLOW = "step_underflow"
STEP_BUDGET = "step_budget"
EVENT = "event"

# trial steps, accepted or rejected, that one integrate call may take; a run
# that needs more ends with a step_budget termination.  The largest call of
# the golden run takes 1037.
MAX_TRIAL_STEPS = 100_000


@dataclass(frozen=True)
class OutputGrid:
    """Requested dense-output grid: "uniform" in t or "geometric" in (T - t)."""

    kind: str
    count: int

    def __post_init__(self):
        if self.kind not in ("uniform", "geometric"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.count < 2:
            raise ValueError("grid count must be at least 2")

    def points(self, t0: float, t_end: float, T: float) -> np.ndarray:
        if self.kind == "uniform":
            return np.linspace(t0, t_end, self.count)
        u = np.geomspace(T - t0, T - t_end, self.count)
        return T - u


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and safety rails for one integration run.

    max_step_fraction is the deadline clamp kappa: step <= kappa * (T - t).
    The integration floor is the model horizon's rho_min.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_norm: float = 1e9
    max_step_fraction: float = 0.1
    initial_step: Optional[float] = None
    output_grid: Optional[OutputGrid] = None

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.max_step_fraction < 1.0):
            raise ValueError("max_step_fraction must lie in (0, 1)")
        if self.max_norm <= 0.0:
            raise ValueError("max_norm must be positive")


@dataclass(frozen=True)
class BlowUpEvent:
    """Norm-escape record: ||x(t)|| reached max_norm at t, led by one channel."""

    t: float
    norm: float
    channel: int


@dataclass(frozen=True)
class Termination:
    kind: str
    t: float
    blow_up: Optional[BlowUpEvent] = None


@dataclass
class Trajectory:
    """Committed solution record of one integration run.

    ts/xs/etas/gains hold the sample table (strictly increasing times):
    every committed step plus any requested grid points, with the noise as
    it was queried at each sample and the scalar algorithm output.  The
    gains column comes from one batched SystemModel.gain_output call over
    the whole table after the last step; a non-finite entry raises
    NumericalFailure then.

    The knot record holds each committed step's end: knot_fs is the
    derivative's right limit there, knot_fl its left limit; they differ
    only at a noise switch, where knot_fs uses the post-switch noise.
    state_at interpolates each step by cubic Hermite from its opening knot's
    state and right limit to its closing knot's state and left limit.  Grid
    samples come from the same evaluator, so they equal state_at at their
    times bit for bit; a stop event's step ends at the event knot.
    """

    ts: np.ndarray
    xs: np.ndarray
    etas: np.ndarray
    gains: np.ndarray
    knot_ts: np.ndarray
    knot_xs: np.ndarray
    knot_fs: np.ndarray
    knot_fl: np.ndarray
    t0: float
    t_last: float
    termination: Termination
    switch_times: tuple[float, ...]
    T: float
    rho_min: float
    n: int

    def state_at(self, t):
        """Dense-output state at time(s) t within [t0, t_last]."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        slack = 1e-15 * self.T
        if np.any(t_arr < self.t0 - slack) or np.any(t_arr > self.t_last + slack):
            raise ValueError("dense output requested outside the integrated span")
        idx = np.clip(np.searchsorted(self.knot_ts, t_arr, side="right") - 1, 0, len(self.knot_ts) - 2)
        out = _dense_states(self.knot_ts, self.knot_xs, self.knot_fs, self.knot_fl, idx, t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    @property
    def completed(self) -> bool:
        return self.termination.kind == REACHED_END


def _hermite(xl, fl, xr, fr, h, theta):
    """Cubic Hermite interpolant over one step of length h, at fraction theta
    of the step, from the end states xl, xr and end derivatives fl, fr."""
    t2 = theta * theta
    t3 = t2 * theta
    return (xl * (2.0 * t3 - 3.0 * t2 + 1.0) + h * fl * (t3 - 2.0 * t2 + theta)
            + xr * (-2.0 * t3 + 3.0 * t2) + h * fr * (t3 - t2))


def _dense_states(knot_ts, knot_xs, knot_fs, knot_fl, idx, t):
    """Dense output at the times t, t[j] on the step that opens at knot
    idx[j]: the cubic Hermite from that knot's state and right-limit
    derivative to the next knot's state and left-limit derivative."""
    tl = knot_ts[idx]
    h = knot_ts[idx + 1] - tl
    theta = np.clip((t - tl) / h, 0.0, 1.0)[:, None]
    return _hermite(knot_xs[idx], knot_fs[idx], knot_xs[idx + 1], knot_fl[idx + 1], h[:, None], theta)


def integrate(model: SystemModel, noise: Optional[NoiseSource], x0, t0: float, t_end: float,
              opts: Optional[IntegrationOptions] = None,
              stop_condition: Optional[Callable[[float, np.ndarray], bool]] = None) -> Trajectory:
    """Integrate the model from (t0, x0) to t_end < T under the given noise.

    The noise source sees every committed step through observe(t, x) and its
    announced discontinuities become exact step boundaries.  Returns a
    Trajectory whose termination reports normal completion, norm escape
    (blow_up), error-control failure (step_underflow), a run that used up
    its MAX_TRIAL_STEPS trial steps (step_budget), or a stop-condition event
    located by step-local bisection.  A held source (NoiseSource.held)
    is queried once after the first observe and once after each switch, and
    that value serves every stage and sample until the next switch; any
    other source is queried at every RK stage, with the stage state as a
    list of floats, and at every sample, a step's grid points in time order
    before the observe at its end (on a stop-event step, after the event's
    own query, since their states interpolate to the event knot).  Each
    query is checked against the source's bound; a violation raises
    NoiseBoundViolation.
    """
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    rho_min = model.horizon.rho_min
    min_step = 1e-13 * T
    if not min_step <= rho_min:
        raise ValueError(f"rho_min={rho_min!r} is below the minimum step 1e-13 * T")
    if not (0.0 <= t0 < t_end):
        raise ValueError(f"need 0 <= t0 < t_end, got t0={t0!r}, t_end={t_end!r}")
    if t_end > T - rho_min + 1e-18 * T:
        raise ValueError(f"t_end={t_end!r} exceeds T - rho_min = {T - rho_min!r}")

    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if noise is None:
        noise = model.zero_noise()

    is_control = model.variant == CONTROL_LOOP
    held = noise.held
    bound_slack = noise.bound * (1.0 + 1e-9) + 1e-300

    def eta_at(t, state):
        """The noise queried at (t, state), checked against its bound: a
        fresh list of floats for the control loop, a float for the
        differentiator.  Stages and sample records use it alike."""
        e = noise.value(t, state)
        if is_control:
            if type(e) is not list:
                e = np.asarray(e, dtype=float).tolist()
            norm = math.hypot(*e)
        else:
            e = float(e)
            norm = abs(e)
        if norm > bound_slack:
            raise NoiseBoundViolation(
                f"noise bound violated at t={t!r}: |eta|={norm!r} > {noise.bound!r}")
        return e

    grid = None
    if opts.output_grid is not None:
        grid = opts.output_grid.points(t0, t_end, T)

    # the knot record, one entry per committed step; etas are the noise
    # recorded with each knot's sample
    knot_ts: list[float] = []
    knot_xs: list[np.ndarray] = []
    knot_fs: list[np.ndarray] = []
    knot_etas: list = []
    switch_times: list[float] = []
    switch_fls: list[np.ndarray] = []  # left-limit derivative at each switch knot
    grid_etas: list = []  # queried at the grid points for a source that is not held

    def record_knot(t, state, f, e):
        """Record a knot; state and f are fresh arrays and e a value from
        eta_at, none modified later."""
        knot_ts.append(t)
        knot_xs.append(state)
        knot_fs.append(f)
        knot_etas.append(e)

    # initial commitment: let the source latch its first segment, then record
    noise.observe(t0, x)
    eta0 = eta_held = eta_at(t0, x)
    f0 = np.array(model.rhs(t0, x, eta0))
    record_knot(t0, x, f0, eta0)

    query_grid = grid is not None and not held
    grid_idx = 0 if grid is None else int(np.searchsorted(grid, t0, side="right"))

    def grid_queries(t, x, f, x_new, f_new, dt, t_stop):
        """Query the noise at the grid points in (t, t_stop), in time order, at
        their states on the step from (t, x, f) to (t + dt, x_new, f_new)."""
        nonlocal grid_idx
        if grid_idx == len(grid) or grid[grid_idx] >= t_stop:
            return
        hi = int(np.searchsorted(grid, t_stop))
        lo = grid_idx
        while lo < hi and grid[lo] <= t:  # the step's start is a knot
            lo += 1
        grid_idx = hi
        tqs = grid[lo:hi]
        xqs = _hermite(x, f, x_new, f_new, dt, ((tqs - t) / dt)[:, None])
        grid_etas.extend(eta_at(tq, xq) for tq, xq in zip(tqs.tolist(), xqs))

    t = t0
    f_start = f0
    kappa = opts.max_step_fraction
    abs_tol, rel_tol = opts.abs_tol, opts.rel_tol
    h_try = opts.initial_step if opts.initial_step is not None else min(
        1e-3 * (t_end - t0), kappa * (T - t0))
    h_try = max(h_try, min_step)
    termination = None
    n = len(x)
    x_list = x.tolist()
    # one stage matrix serves every trial step; stage i combines its rows
    # k[:i] and writes row k[i]
    k = np.empty((7, n))
    stages = tuple((c, arow, k[:len(arow)], k[len(arow)]) for c, arow in _DP_STAGES)
    k_first, k_b, k_last = k[0], k[:6], k[6]
    trials = 0

    while termination is None and t < t_end:
        if trials == MAX_TRIAL_STEPS:
            termination = Termination(kind=STEP_BUDGET, t=t)
            break
        trials += 1
        t_disc = noise.next_discontinuity(t)
        d_disc = model.disturbance.next_discontinuity(t)
        barrier = min(t_end, t_disc, d_disc)
        h_cap = kappa * (T - t)
        h = min(h_try, h_cap, barrier - t)
        if barrier - t <= min(h_try, h_cap):
            h = barrier - t  # land exactly on the boundary
        at_barrier = (t + h) >= barrier

        # one trial Dormand-Prince step.  The stage sums stay numpy dot
        # products, whose BLAS kernel sets their rounding (the method form
        # skips np.dot's dispatch); every elementwise operation runs on Python
        # floats, which round it as numpy does.  Stage states stay lists of
        # floats: model.rhs takes one and returns a list, written straight
        # into its preallocated stage row, and a source that is not held is
        # queried with it.  A non-finite stage makes err NaN or inf, so
        # "not err <= 1.0" rejects it like a raised NumericalFailure.  max()
        # drops a NaN that np.maximum would keep, but a NaN in x_new comes
        # with a non-finite error term in its channel
        try:
            k_first[...] = f_start
            for c, arow, k_head, k_row in stages:
                ts_i = t + c * h
                xl_i = [a + h * b for a, b in zip(x_list, arow.dot(k_head).tolist())]
                k_row[...] = model.rhs(ts_i, xl_i, eta_held if held else eta_at(ts_i, xl_i))
            new_list = [a + h * b for a, b in zip(x_list, _DP_B.dot(k_b).tolist())]
            t_new = barrier if at_barrier else t + h
            eta_new = eta_held if held else eta_at(t_new, new_list)
            k_last[...] = model.rhs(t_new, new_list, eta_new)
            qs = [h * e / (abs_tol + rel_tol * max(abs(a), abs(b)))
                  for a, b, e in zip(x_list, new_list, _DP_E.dot(k).tolist())]
            if n < 8:  # numpy's sum adds up to 7 terms in order, more pairwise
                sq = 0.0
                for qi in qs:
                    sq += qi * qi
            else:
                sq = float(np.square(qs).sum())
            err = math.sqrt(sq / n)
        except NoiseBoundViolation:
            raise
        except NumericalFailure:
            err = math.inf

        if not err <= 1.0:
            shrink = 0.5 if not math.isfinite(err) else max(0.2, 0.9 * err ** -0.2)
            h_try = h * shrink
            if h_try < min_step:
                termination = Termination(kind=STEP_UNDERFLOW, t=t)
            continue

        # committed: the knot keeps a copy of the last stage, not the whole
        # stage matrix
        x_new = np.array(new_list)
        f_new = k_last.copy()
        dt = t_new - t
        stop_hit = stop_condition is not None and stop_condition(t_new, x_new)
        if stop_hit:
            # bisect to the earliest time the condition holds on this step
            lo, hi = t, t_new
            for _ in range(200):
                if hi - lo <= 1e-12 * T:
                    break
                mid = 0.5 * (lo + hi)
                xm = _hermite(x, f_start, x_new, f_new, dt, (mid - t) / dt)
                if stop_condition(mid, xm):
                    hi = mid
                else:
                    lo = mid
            t_ev = hi
            x_ev = _hermite(x, f_start, x_new, f_new, dt, (t_ev - t) / dt)
            eta_ev = eta_held if held else eta_at(t_ev, x_ev)
            f_ev = np.array(model.rhs(t_ev, x_ev, eta_ev))
            if query_grid:
                grid_queries(t, x, f_start, x_ev, f_ev, t_ev - t, t_ev)
            record_knot(t_ev, x_ev, f_ev, eta_ev)
            termination = Termination(kind=EVENT, t=t_ev)
            t = t_ev
            break

        if query_grid:
            grid_queries(t, x, f_start, x_new, f_new, dt, t_new)

        # without a switch the source still answers with the noise of the
        # last stage (the NoiseSource contract), so that query is recorded
        if noise.observe(t_new, x_new):
            switch_times.append(t_new)
            switch_fls.append(f_new)
            eta_new = eta_held = eta_at(t_new, x_new)
            f_new = np.array(model.rhs(t_new, x_new, eta_new))  # right-limit derivative
        record_knot(t_new, x_new, f_new, eta_new)

        norm_new = math.sqrt(x_new.dot(x_new))
        if norm_new >= opts.max_norm:
            channel = int(np.argmax(np.abs(x_new)))
            termination = Termination(
                kind=BLOW_UP, t=t_new,
                blow_up=BlowUpEvent(t=t_new, norm=norm_new, channel=channel))

        t = t_new
        x, x_list = x_new, new_list
        f_start = f_new
        grow = 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2))
        h_try = h * grow

    if termination is None:
        termination = Termination(kind=REACHED_END, t=t)

    # the sample table: the knot rows, and the grid points strictly inside
    # steps merged in after the knot that opens their step.  A held source's
    # value at a grid point is the one recorded at that knot
    kts, kxs, kfs = np.array(knot_ts), np.array(knot_xs), np.array(knot_fs)
    kfl = kfs.copy()
    if switch_times:
        kfl[np.searchsorted(kts, switch_times)] = switch_fls
    m = model.n if is_control else 1
    ketas = np.array(knot_etas, dtype=float).reshape(len(knot_etas), m)
    gts = np.empty(0) if grid is None else grid[(grid > t0) & (grid < t)]
    opening = np.searchsorted(kts, gts, side="right") - 1
    inside = kts[opening] != gts
    gts, opening = gts[inside], opening[inside]
    getas = ketas[opening] if held else np.array(grid_etas, dtype=float).reshape(len(gts), m)
    at = opening + 1
    ts_arr = np.insert(kts, at, gts)
    xs_arr = np.insert(kxs, at, _dense_states(kts, kxs, kfs, kfl, opening, gts), axis=0)
    etas_arr = np.insert(ketas, at, getas, axis=0)
    gains = model.gain_output(ts_arr, xs_arr, etas_arr)
    if not np.all(np.isfinite(gains)):
        raise NumericalFailure("non-finite value in integration record")
    return Trajectory(
        ts=ts_arr,
        xs=xs_arr,
        etas=etas_arr,
        gains=gains,
        knot_ts=kts,
        knot_xs=kxs,
        knot_fs=kfs,
        knot_fl=kfl,
        t0=t0,
        t_last=t,
        termination=termination,
        switch_times=tuple(switch_times),
        T=T,
        rho_min=rho_min,
        n=model.n,
    )


def _require_complete(traj: Trajectory) -> None:
    """A run that ended before its requested end is a numerical outcome."""
    if not traj.completed:
        raise NumericalFailure(f"integration stopped early: {traj.termination.kind}")


def terminal_state(traj: Trajectory, rho: float) -> np.ndarray:
    """State at T - rho by dense interpolation of the committed record."""
    if rho < traj.rho_min:
        raise ValueError(f"rho={rho!r} is below the integration floor rho_min={traj.rho_min!r}")
    t_query = traj.T - rho
    if t_query > traj.t_last + 1e-15 * traj.T:
        raise ValueError(
            f"trajectory ends at t={traj.t_last!r} ({traj.termination.kind}), "
            f"cannot evaluate at T - rho = {t_query!r}")
    if t_query < traj.t0:
        raise ValueError(f"T - rho = {t_query!r} precedes the start time {traj.t0!r}")
    return traj.state_at(t_query)


def _threshold_ladder(thresholds) -> list[float]:
    """The thresholds as floats; raises ValueError unless they are positive
    and strictly increasing."""
    thr = [float(v) for v in thresholds]
    if any(b <= a for a, b in zip(thr, thr[1:])):
        raise ValueError("thresholds must be strictly increasing")
    if any(v <= 0.0 for v in thr):
        raise ValueError("thresholds must be positive")
    return thr


def detect_peaks(traj: Trajectory, thresholds) -> list[tuple[float, Optional[float]]]:
    """First sample time at which ||x|| reaches each threshold.

    Thresholds must be strictly increasing; a threshold never reached maps
    to None.  Crossing times are scanned over the recorded samples, so they
    inherit the sample resolution.
    """
    thr = _threshold_ladder(thresholds)
    norms = np.linalg.norm(traj.xs, axis=1)
    out: list[tuple[float, Optional[float]]] = []
    for v in thr:
        hits = np.nonzero(norms >= v)[0]
        out.append((v, float(traj.ts[hits[0]]) if hits.size else None))
    return out
