"""Deadline-aware adaptive integration.

The stepper is an embedded Dormand-Prince 5(4) pair with three extra rules
that the singular gains demand:

* the step is clamped to a fixed fraction of the remaining distance to the
  deadline, so the right-hand side is never evaluated at or past T,
* noise and disturbance switching instants are hard step boundaries; the
  integrator lands on them exactly instead of stepping across, and
* channel i >= 3's term of the error norm is weighed by w^(i - 2), with
  w = (T - t)/T at the step's start: the loop amplifies that channel's
  rounding like (T - t)^-(i - 1), so a flat scale would hold it to an error
  it cannot reach near T (order-3 runs stall in step_budget, or take twice
  the steps).  Two-channel runs step as without it.

The adaptive loop, trial steps and commits alike, is one function generated
per model shape and noise kind, with the model's right-hand side fused into
every stage (see _loop_factory); a class that overrides or wraps
SystemModel.rhs gets one that calls it.  The noise kinds are a held value,
an affine segment a + b (t - t0) evaluated and bound-checked inline at each
stage, and a source queried at each stage (see NoiseSource).  The segment
loop resolves time relative to the step: it takes the step as it lands,
h = t_new - t, and evaluates stage i's law at (t - t0) + c_i h and its
gains at (T - t) - c_i h, not at the rounded stage time t + c_i h, whose
rounding a steep law (b up to 1e8 near T) turns into a noise error that
the error estimate reads as truncation error.  State and FSAL derivative
stay float locals from step to step, and its sums are unrolled float
expressions in forward order, with no BLAS call, so a run rounds alike
under every BLAS kernel.  observe and stop_condition receive the state as
a list of floats; barriers are queried once per committed step (a held
source that keeps NoiseSource's own observe and next_discontinuity is
neither observed nor asked), the blow-up check is the root of the float
sum of squares, and each commit records one row of floats, split into
the knot columns once, at the end.  integrate itself re-enters the loop
after each noise switch and each landed segment discontinuity.  A stop
event ends the run at the knot of the first committed step whose end
satisfies the condition; a caller locates the crossing inside that step
with _earliest on _step_state.

The loop keeps a knot record at every committed step: state, noise as
queried (or as its segment gives it), the derivative's right and left
limits at the knot, and the D of the step the knot closes.  Dense output in
between is DOPRI5's continuous extension (Hairer, Norsett & Wanner, section
II.6): the cubic Hermite interpolant of the step's end states and
derivatives plus
theta^2 (1 - theta)^2 D, where D = h * sum(d_i k_i) over the step's stages
is computed on floats when the step is accepted.  The knot record is all
that integrate returns: every other time is read from this dense output.
"""

from __future__ import annotations

import functools
import linecache
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CONTROL_LOOP, NoiseBoundViolation, NoiseSource, NumericalFailure, SystemModel

_MODEL_RHS = SystemModel.rhs  # as SystemModel defines it
_BASE_HOOKS = (NoiseSource.observe, NoiseSource.next_discontinuity)  # as NoiseSource does

# Dormand-Prince 5(4) tableau; the 7th stage is the FSAL derivative.  Each
# stage row is paired with its node c and weighs k[:len(row)].
_DP_STAGES = tuple(zip(
    (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0),
    (
        (0.2,),
        (3.0 / 40.0, 9.0 / 40.0),
        (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
        (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
        (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    )))
_DP_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# the continuous extension's fifth coefficient D = h * sum(d_i k_i) (Hairer's
# dopri5 contd5 coefficients d1, d3..d7, on the same stages as _DP_E)
_DP_D = (-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
         -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
         -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)


# step-size control, bound into the compiled loop by name: a rejected step
# shrinks by SAFETY * err**ORDER, at least MIN_SHRINK (FAIL_SHRINK when err
# is not finite), and ends the run below max(FLOOR * (T - t), FLOOR_ULPS
# ulps of t); an accepted one grows by the same factor, up to MAX_GROW
_STEP_CONTROL = dict(SAFETY=0.9, ORDER=-0.2, MIN_SHRINK=0.2, FAIL_SHRINK=0.5, MAX_GROW=10.0,
                     FLOOR=1e-10, FLOOR_ULPS=16.0, ONE=1.0, ZERO=0.0)

# what a run binds into its loop, in make's order
_RUN = ("eta_at, bound, bound_slack, abs_tol, rel_tol, kappa, max_norm, max_trials, t_end, "
        "observe, next_noise, next_dist, stop_condition, rec")


# the noise kinds of a compiled loop: a held source's value, unpacked once
# per loop call; an affine segment's law, evaluated inline at every stage; or
# a query of the source at every stage
_HELD, _SEGMENT, _QUERIED = "held", "segment", "queried"


def _rhs_lines(variant: str, orders: tuple[tuple[int, ...], ...], zero_disturbance: bool,
               u: str = "T - ts", checked: bool = True):
    """(params, noise, lines, derivative): one SystemModel.rhs evaluation as
    source lines on the time ts, state s<i> and noise e<i> (control loop) or
    e, with its float operations in its order and its errors; the constants
    they read (T, disturbance, channel i's coefficients c<i>_<j>), the
    noise's unpacking target and the n derivative expressions.  The gains
    are evaluated at the distance to the deadline given by the expression
    u, T - ts unless a caller knows it more exactly.  Each gain sums
    c / u**p from 0.0 in table order with Python's ** (numpy's power rounds
    otherwise), as value_at does; c stands for c / u**0 and c / u for
    c / u**1, the same bits.  A zero disturbance is the literal 0.0, and
    the control loop, whose output sums from 0.0 (never -0.0), adds none.
    A power that underflows to 0.0 raises ZeroDivisionError.  Only if
    checked does a non-finite output raise NumericalFailure, as rhs's does
    (the check on v reads v - v == 0.0, False exactly for +-inf and NaN);
    unchecked, it flows into the stage's derivative."""
    n = len(orders)
    coefs = [[f"c{i}_{j}" for j in range(len(ps))] for i, ps in enumerate(orders)]
    gains = ["(0.0" + "".join(f" + {c}" + ("" if p == 0 else " / u" if p == 1 else f" / u{p}")
                              for c, p in zip(cs, ps)) + ")"
             for cs, ps in zip(coefs, orders)]
    lines = [f"u = {u}",
             "if u <= 0.0:",
             '    raise ValueError(f"gains evaluated at t={ts!r} >= deadline T={T!r}")',
             *([] if zero_disturbance else ["d = disturbance(ts)"]),
             *(f"u{p} = u**{p}" for p in sorted({p for ps in orders for p in ps if p > 1}))]
    # the differentiator's zero disturbance still turns a -0.0 output into 0.0
    d = "0.0" if zero_disturbance else "d"
    params = "T, disturbance, " + "".join(f"{c}, " for cs in coefs for c in cs)
    if variant == CONTROL_LOOP:
        lines += ["out = 0.0" + "".join(f" + {g} * (s{i} + e{i})" for i, g in enumerate(gains))]
        if checked:
            lines += ["if not out - out == 0.0:",
                      '    raise NumericalFailure(f"controller output not finite at t={ts!r}")']
        return (params, "".join(f"e{i}, " for i in range(n)), lines,
                [*(f"s{i}" for i in range(1, n)), "out" if zero_disturbance else "out + d"])
    lines += ["y = s0 + e", *(f"p{i} = {g} * y" for i, g in enumerate(gains))]
    if checked:
        lines += ["if not (" + " and ".join(f"p{i} - p{i} == 0.0" for i in range(n)) + "):",
                  '    raise NumericalFailure(f"injection output not finite at t={ts!r}")']
    return params, "e", lines, [*(f"s{i + 1} + p{i}" for i in range(n - 1)), f"{d} + p{n - 1}"]


@functools.lru_cache(maxsize=128)
def _loop_factory(n: int, noise_kind: str, shape=None, switching: bool = True):
    """Compile integrate's adaptive Dormand-Prince loop for n channels and a
    noise kind (_HELD, _SEGMENT or _QUERIED).

    With a SystemModel's shape (variant, pole orders, zero disturbance),
    make(*run, T, disturbance, *coefficients) binds a run's settings (named
    in _RUN) and the model's constants, its coefficients in table order, by
    name, and every stage runs _rhs_lines on float locals: the float
    operations of the loop that calls SystemModel.rhs, in its order.  Only
    the queried loop keeps rhs's finiteness test, since its next stage hands
    the state to the source; in the held and segment loops a non-finite
    stage makes err NaN or inf, which rejects the step as the raised
    NumericalFailure does.  With shape None, make(*run, T, rhs) returns that
    loop, for a class that overrides or wraps SystemModel.rhs: each stage
    calls rhs(ts, xs, eta).  The segment kind needs the shape.  A held loop
    that is not switching serves a source that keeps NoiseSource's own
    observe and next_discontinuity: it neither observes the source nor asks
    it for a barrier.

    loop(t, x, f, eta, h_try, trials) steps from the knot (t, x, f), x and f
    lists of floats, and commits each accepted step: observe, one
    rec((t_new, state..., derivative..., D..., noise...)) call that adds the
    step's row to the flat knot record, the blow-up check on the root of
    the float sum of squares.  It
    returns (kind, t, x, f, h_try, trials, last) at the first of: t reaches
    t_end (REACHED_END), the trial budget or the step floor runs out
    (STEP_BUDGET, STEP_UNDERFLOW), the stop condition holds at a step's end
    (EVENT: the step is recorded but neither observed nor checked for
    blow-up; last is None), observe reports a switch or a segment loop's
    step lands on the source's announced discontinuity (_RENEW, unrecorded;
    last is (norm, d, switched), d the step's D column) or the norm reaches
    max_norm (BLOW_UP; last is the norm); after those three, (t, x, f) is
    the step's end and f its left limit.  stop_condition(t_new, x_new) is
    asked at every committed step, with the state as a list of floats.
    Channel j >= 2 (0-based) of the error norm is weighed by w<j-1>, the
    powers of w = (T - t)/T by repeated products, computed with the step
    cap once per commit.  State and FSAL derivative stay float locals from
    step to step; lists of them are built only where they are handed out
    (observe, stop_condition, a queried stage, a return).  A held eta is
    unpacked once per call; a segment eta, (a, b, t0) with a and b floats
    (differentiator) or lists of n floats (control loop), too.  The segment
    loop takes the step as it lands, h = t_new - t after the barrier clamp,
    and computes T - t and t - t0 once per commit; each stage, FSAL
    included, takes its offset o from the step's start (C_i * h, h for the
    FSAL stage), computes the noise a + b * ((t - t0) + o) on floats,
    checks it against the bound as eta_at does, and evaluates the gains at
    u = (T - t) - o in place of T - ts.  The stage time ts then serves only
    the error messages (and a nonzero disturbance).  Otherwise eta_at is
    queried at each stage state, a fresh list.  A zero-disturbance shape
    asks for no disturbance barrier.  Every sum runs over the nonzero
    tableau coefficients in forward order on Python floats, so no BLAS
    kernel changes a bit.  The source holds names and indices only; it is
    registered in linecache under the loop's file name, so tracebacks and
    line profilers show its lines.
    """
    def names(prefix):
        return ", ".join(f"{prefix}{j}" for j in range(n))

    def nonzero(name, coefs):
        # (stage, bound name) of each nonzero coefficient, in tableau order
        return [(i, f"{name}{i}") for i, c in enumerate(coefs) if c != 0.0]

    def weighted(coefs, j):
        # channel j's forward sum of one tableau row over the stage derivatives
        return " + ".join(f"{c} * k{i}_{j}" for i, c in coefs)

    held, segment, queried = noise_kind == _HELD, noise_kind == _SEGMENT, noise_kind == _QUERIED
    control = shape is not None and shape[0] == CONTROL_LOOP
    params, noise, lines, out = (_rhs_lines(*shape, checked=queried) if shape
                                 else ("T, rhs", None, None, None))
    if shape:
        # the noise channels e<j> (or e); a segment's law is na<j> + nb<j> * (tn + offset)
        es = noise.replace(",", " ").split()
        recorded = ", ".join(es)  # the noise a commit records: its last stage's
        check = ["en = " + (f"hypot({recorded})" if control else "abs(e)"),
                 "if en > bound_slack:",
                 '    raise NoiseBoundViolation(f"noise bound violated at t={ts!r}: '
                 '|eta|={en!r} > {bound!r}")']
    else:
        # a list (control loop) or a float (differentiator), as eta_at gives it
        v = "eta" if held else "eta_s"
        recorded = f"*({v} if type({v}) is list else ({v},))"

    def derivative(i):
        # k<i>_0, ... at time ts on the stage channels s<j> (listed as xs)
        if shape is None:
            return [*([] if held else ["eta_s = eta_at(ts, xs)"]),
                    f"{names(f'k{i}_')}, = rhs(ts, xs, {'eta' if held else 'eta_s'})"]
        if not segment:
            return [*([f"{noise} = eta_at(ts, xs)"] if queried else []), *lines,
                    *(f"k{i}_{j} = {v}" for j, v in enumerate(out))]
        # the stage's exact offset from the step's start, not the rounded ts:
        # the law at (t - nt) + offset, the gains at (T - t) - offset
        offset = "h" if i == 6 else f"C{i} * h"
        return [*(f"{v} = na{v[1:]} + nb{v[1:]} * (tn + {offset})" for v in es), *check,
                *_rhs_lines(*shape, u=f"ut - {offset}", checked=False)[2],
                *(f"k{i}_{j} = {v}" for j, v in enumerate(out))]

    # the five stages, then the FSAL stage at the step's end on the b row
    stages = [(f"t + C{i} * h", nonzero(f"A{i}_", row))
              for i, (_, row) in enumerate(_DP_STAGES, start=1)]
    body = []
    for i, (ts, coefs) in enumerate([*stages, ("t_new", nonzero("B", _DP_B))], start=1):
        body += [f"ts = {ts}",
                 *(f"s{j} = x{j} + h * ({weighted(coefs, j)})" for j in range(n)),
                 *([] if shape and not queried else [f"xs = [{names('s')}]"]),
                 *derivative(i)]
    e, d = nonzero("E", _DP_E), nonzero("D", _DP_D)
    body += [*(line for j in range(n) for line in (
                 # b if b > a else a is max(a, b), NaN and signed zeros alike
                 f"a = abs(x{j})", f"b = abs(s{j})",
                 f"q{j} = h * ({weighted(e, j)}) / (abs_tol + rel_tol * (b if b > a else a))"
                 + (f" * w{j - 1}" if j >= 2 else ""))),
             "err = sqrt((" + " + ".join(f"q{j} * q{j}" for j in range(n)) + f") / {n})"]
    # the barrier: the run's end and the sources' announced discontinuities
    barriers = ["t_end", *(["landing"] if segment else ["next_noise(t)"] if switching else [])]
    if not (shape and shape[2]):
        barriers.append("next_dist(t)")
    x, f = f"[{names('x')}]", f"[{names('k0_')}]"
    x_new, f_new = f"[{names('s')}]", f"[{names('k6_')}]"
    dense = ", ".join(f"h * ({weighted(d, j)})" for j in range(n))
    # a committed step's row of the knot record
    commit = f"rec((t_new, {names('s')}, {names('k6_')}, {dense}, {recorded}))"
    step = [
        "if trials == max_trials:",
        f"    return STEP_BUDGET, t, {x}, {f}, h_try, trials, None",
        "trials += 1",
        "if barrier is None:  # t and the sources' state change only at a commit",
        *(["    landing = next_noise(t)"] if segment else []),
        "    barrier = " + (f"min({', '.join(barriers)})" if len(barriers) > 1 else barriers[0]),
        "    h_cap = kappa * (T - t)",
        *(["    ut = T - t", "    tn = t - nt"] if segment else []),
        *(["    w1 = (T - t) / T"] if n >= 3 else []),
        *(f"    w{p} = w{p - 1} * w1" for p in range(2, n - 1)),
        "    gap = barrier - t",
        # h = min(h_try, h_cap, gap), NaN handling included, landing exactly
        # on the boundary when it is within reach
        "h = h_cap if h_cap < h_try else h_try",
        "if gap <= h:",
        "    h = gap",
        "t_new = t + h",
        "if t_new >= barrier:",
        "    t_new = barrier",
        # the step as it lands, exact near T, so that t + h == t_new
        *(["h = t_new - t"] if segment else []),
        # a non-finite stage makes err NaN or inf, so "not err <= ONE"
        # rejects it like a raised NumericalFailure or an underflowed power
        "try:", *(f"    {line}" for line in body),
        "except NoiseBoundViolation:",
        "    raise",
        "except (NumericalFailure, ZeroDivisionError):",
        "    err = inf",
        "if not err <= ONE:",
        "    h_try = h * (FAIL_SHRINK if not isfinite(err) else max(MIN_SHRINK, SAFETY * err ** ORDER))",
        "    if h_try < max(FLOOR * (T - t), FLOOR_ULPS * ulp(t)):",
        f"        return STEP_UNDERFLOW, t, {x}, {f}, h_try, trials, None",
        "    continue",
        # err <= 1 here, so the growth factor is at least 0.9
        "grow = MAX_GROW if err == ZERO else SAFETY * err ** ORDER",
        "h_try = h * (grow if grow < MAX_GROW else MAX_GROW)",
        # a stop event's step is recorded, but neither observed nor checked
        # for blow-up
        f"if stop_condition is not None and stop_condition(t_new, {x_new}):",
        f"    {commit}",
        f"    return EVENT, t_new, {x_new}, {f_new}, h_try, trials, None",
        "norm = sqrt(" + " + ".join(f"s{j} * s{j}" for j in range(n)) + ")",
        *([f"if observe(t_new, {x_new}):",
           f"    return _RENEW, t_new, {x_new}, {f_new}, h_try, trials, (norm, [{dense}], True)"]
          if switching else []),
        # the segment holds up to its discontinuity, where integrate renews it
        *(["if t_new == landing:",
           f"    return _RENEW, t_new, {x_new}, {f_new}, h_try, trials, (norm, [{dense}], False)"]
          if segment else []),
        # without a switch the source still answers with the noise of the
        # last stage (the NoiseSource contract), so that value is recorded
        commit,
        "if norm >= max_norm:",
        f"    return BLOW_UP, t_new, {x_new}, {f_new}, h_try, trials, norm",
        "t, barrier = t_new, None",
        f"{names('x')} = {names('s')}",
        f"{names('k0_')} = {names('k6_')}"]
    start = [f"{noise} = eta"] if shape and held else []
    if segment:
        start = ["na, nb, nt = eta"]
        if control:
            start += [f"{names('na')}, = na", f"{names('nb')}, = nb"]
    src = [f"def make({_RUN}, {params}):",
           "    def loop(t, x, f, eta, h_try, trials):",
           f"        {names('x')}, = x",
           f"        {names('k0_')}, = f",
           *(f"        {line}" for line in start),
           "        barrier = None",
           "        while t < t_end:",
           *(f"            {line}" for line in step),
           f"        return REACHED_END, t, {x}, {f}, h_try, trials, None",
           "    return loop"]
    filename = f"<loop {n} {noise_kind}{'' if switching else ' unswitched'} {shape}>"
    source = "\n".join(src)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = {f"C{i}": c for i, (c, _) in enumerate(_DP_STAGES, start=1)}
    scope.update({f"A{i}_{r}": a for i, (_, row) in enumerate(_DP_STAGES, start=1)
                  for r, a in enumerate(row)},
                 **{f"B{i}": c for i, c in enumerate(_DP_B)},
                 **{f"E{i}": c for i, c in enumerate(_DP_E)},
                 **{f"D{i}": c for i, c in enumerate(_DP_D)}, **_STEP_CONTROL,
                 sqrt=math.sqrt, hypot=math.hypot, isfinite=math.isfinite, ulp=math.ulp,
                 inf=math.inf, NumericalFailure=NumericalFailure,
                 NoiseBoundViolation=NoiseBoundViolation, REACHED_END=REACHED_END,
                 STEP_BUDGET=STEP_BUDGET, STEP_UNDERFLOW=STEP_UNDERFLOW, EVENT=EVENT,
                 BLOW_UP=BLOW_UP, _RENEW=_RENEW)
    exec(compile(source, filename, "exec"), scope)
    return scope["make"]


REACHED_END = "reached_t_end"
BLOW_UP = "blow_up"
STEP_UNDERFLOW = "step_underflow"
STEP_BUDGET = "step_budget"
EVENT = "event"
_RENEW = "renew"  # the compiled loop's return where integrate renews the noise

# trial steps, accepted or rejected, that one integrate call may take; a run
# that needs more ends with a step_budget termination.  The largest call of
# the golden run takes 890, a differentiator divergence run that completes.
MAX_TRIAL_STEPS = 100_000


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and safety rails for one integration run.

    max_step_fraction is the deadline clamp kappa: step <= kappa * (T - t).
    The integration floor is the model horizon's rho_min.
    """

    rel_tol: float = 5e-10
    abs_tol: float = 1e-12
    max_norm: float = 1e9
    max_step_fraction: float = 0.1

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
    """Committed solution record of one integration run: one knot per
    committed step's end, at strictly increasing times.

    ts, xs and etas are the knots' times, states and noise as recorded
    there (the post-switch noise at a switch); knot_ts and knot_xs are the
    same arrays as ts and xs.  knot_fs is the derivative's right limit at
    each knot, knot_fl its left limit; they differ only at a noise switch,
    where knot_fs uses the post-switch noise, and where a segment's law
    jumps at a landed discontinuity.
    knot_ds is the D of DOPRI5's continuous extension for the step the knot
    closes, 0 only at the start knot.  state_at interpolates each step by
    the cubic Hermite from its opening knot's state and right limit to its
    closing knot's state and left limit, plus theta^2 (1 - theta)^2 times
    the closing knot's D.  A run stopped by its stop condition ends at a
    full step, like any other.

    trials counts the run's trial steps, accepted and rejected, as they
    count against MAX_TRIAL_STEPS; a run without a rejected step has one
    per knot after the first.
    """

    ts: np.ndarray
    xs: np.ndarray
    etas: np.ndarray
    knot_fs: np.ndarray
    knot_fl: np.ndarray
    knot_ds: np.ndarray
    t0: float
    t_last: float
    termination: Termination
    trials: int
    switch_times: tuple[float, ...]
    T: float
    rho_min: float
    n: int

    @property
    def knot_ts(self) -> np.ndarray:
        return self.ts

    @property
    def knot_xs(self) -> np.ndarray:
        return self.xs

    def state_at(self, t):
        """Dense-output state at time(s) t within [t0, t_last]."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        slack = 1e-15 * self.T
        if np.any(t_arr < self.t0 - slack) or np.any(t_arr > self.t_last + slack):
            raise ValueError("dense output requested outside the integrated span")
        idx = np.clip(np.searchsorted(self.knot_ts, t_arr, side="right") - 1, 0, len(self.knot_ts) - 2)
        out = _dense_states(self.knot_ts, self.knot_xs, self.knot_fs, self.knot_fl, self.knot_ds,
                            idx, t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    @property
    def completed(self) -> bool:
        return self.termination.kind == REACHED_END


def _interpolant(xl, fl, xr, fr, d, h, theta):
    """DOPRI5's continuous extension over one step of length h, at fraction
    theta of the step: the cubic Hermite interpolant from the end states xl,
    xr and end derivatives fl, fr, plus theta^2 (1 - theta)^2 d, with d the
    step's D column (0 keeps the plain cubic)."""
    t2 = theta * theta
    t3 = t2 * theta
    bump = theta * (1.0 - theta)
    return (xl * (2.0 * t3 - 3.0 * t2 + 1.0) + h * fl * (t3 - 2.0 * t2 + theta)
            + xr * (-2.0 * t3 + 3.0 * t2) + h * fr * (t3 - t2) + bump * bump * d)


def _earliest(holds, lo: float, hi: float, T: float) -> float:
    """The earliest time in (lo, hi] at which holds(t) is true, given that it
    holds at hi and not at lo, by bisection to 1e-12 of the distance to the
    deadline T or to adjacent floats."""
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-12 * (T - lo) and lo < mid < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


def _step_state(traj: Trajectory, k: int):
    """The dense output of the step that closes at knot k as a function of t,
    a list of floats: _interpolant channel by channel, theta clamped to [0, 1].
    It sums as _dense_states does, in the same order, so it equals state_at."""
    t_lo = float(traj.knot_ts[k - 1])
    h = float(traj.knot_ts[k]) - t_lo
    ends = list(zip(*(a.tolist() for a in (traj.knot_xs[k - 1], traj.knot_fs[k - 1],
                                           traj.knot_xs[k], traj.knot_fl[k], traj.knot_ds[k]))))
    return lambda t: [_interpolant(*e, h, min(max((t - t_lo) / h, 0.0), 1.0)) for e in ends]


def _dense_states(knot_ts, knot_xs, knot_fs, knot_fl, knot_ds, idx, t):
    """Dense output at the times t, t[j] on the step that opens at knot
    idx[j]: the continuous extension from that knot's state and right-limit
    derivative to the next knot's state, left-limit derivative and D."""
    tl = knot_ts[idx]
    h = knot_ts[idx + 1] - tl
    theta = np.clip((t - tl) / h, 0.0, 1.0)[:, None]
    return _interpolant(knot_xs[idx], knot_fs[idx], knot_xs[idx + 1], knot_fl[idx + 1],
                    knot_ds[idx + 1], h[:, None], theta)


def integrate(model: SystemModel, noise: Optional[NoiseSource], x0, t0: float, t_end: float,
              opts: Optional[IntegrationOptions] = None,
              stop_condition: Optional[Callable[[float, Sequence[float]], bool]] = None) -> Trajectory:
    """Integrate the model from (t0, x0) to t_end < T under the given noise.

    The noise source sees every committed step through observe(t, x) and its
    announced discontinuities become exact step boundaries, unless it is a
    held source that never switches (see NoiseSource).  Returns a
    Trajectory whose termination reports normal completion, norm escape
    (blow_up), error-control failure (step_underflow: a rejected step would
    shrink below 1e-10 (T - t) or 16 ulps of t, whichever is larger), a run
    that used up its MAX_TRIAL_STEPS trial steps (step_budget), or a stop
    event (event): stop_condition(t, x) is asked at each committed step's
    end, x a list of floats, and the run ends at the knot of the first step
    where it holds.  The crossing inside that step is the caller's to
    locate, e.g. by _earliest on the step's dense output.  A held source
    (NoiseSource.held) is queried once after the first observe and once
    after each switch, and that value serves every stage and knot until
    the next switch.  A source that gives a segment (NoiseSource.segment)
    is queried and its segment read at the same knots and after each step
    that lands on its next_discontinuity; the fused loop evaluates the
    segment at every stage and commit, at the stage's exact offset from the
    step's start, with the gains at the same offset from T - t, and a landed
    discontinuity adds no switch time but keeps the derivative's left
    limit, under the law before it, in knot_fl.  So a segment run is not the
    run of the same source queried at every stage bit for bit, but the more
    accurate of the two near T.  Any other source, and a segment source
    under a model class that overrides rhs, is queried at every RK stage,
    with the stage state as a list of floats.  Each noise value is checked
    against the source's bound; a violation raises
    NoiseBoundViolation; a control-loop noise or segment that is not n
    floats, or a differentiator noise that is not a scalar, raises
    ValueError.
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

    x = np.asarray(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if noise is None:
        noise = model.zero_noise()

    is_control = model.variant == CONTROL_LOOP
    n = model.n
    held = noise.held
    bound_slack = noise.bound * (1.0 + 1e-9) + 1e-300

    def eta_at(t, state):
        """The noise queried at (t, state), checked against its bound: a
        list of n floats for the control loop, a float for the
        differentiator.  Stages and knot records use it alike."""
        e = noise.value(t, state)
        if is_control:
            if type(e) is not list:
                e = np.asarray(e, dtype=float).tolist()
            if type(e) is not list or len(e) != n:
                raise ValueError(f"control-loop noise at t={t!r} has shape {np.shape(e)}, not ({n},)")
            norm = math.hypot(*e)
        else:
            if type(e) is not float:
                a = np.asarray(e, dtype=float)
                if a.shape != ():
                    raise ValueError(f"differentiator noise at t={t!r} has shape {a.shape}, not ()")
                e = float(a)
            norm = abs(e)
        if norm > bound_slack:
            raise NoiseBoundViolation(
                f"noise bound violated at t={t!r}: |eta|={norm!r} > {noise.bound!r}")
        return e

    # the knot record, one row per committed step in one flat list of
    # floats: its time, state, derivative and the D of the step it closes,
    # and the noise recorded there (n floats for the control loop, one
    # for the differentiator)
    knots: list[float] = []

    def record(t, x, f, d, eta):
        knots.extend((t, *x, *f, *d, *(eta if is_control else (eta,))))

    switch_times: list[float] = []
    # knots where the loop returned to renew the noise (a switch, or a
    # segment's landed discontinuity), with the derivative's left limit there
    renewal_ts: list[float] = []
    renewal_fls: list[list[float]] = []

    def segment_at(t):
        """The source's affine law from t on, as the segment loop takes it:
        (a, b, t0) with a and b floats for the differentiator and lists of n
        floats for the control loop, or None."""
        seg = noise.segment(t)
        if seg is None:
            return None
        a, b, t_seg = seg
        if is_control:
            a, b = [float(v) for v in a], [float(v) for v in b]
            if len(a) != n or len(b) != n:
                raise ValueError(f"control-loop noise segment at t={t!r} is not {n} channels")
        else:
            a, b = float(a), float(b)
        return a, b, float(t_seg)

    # the loop with the model's right-hand side fused in, unless a subclass
    # or a wrapper on the class (the benchmark tracer's, a test's) overrides
    # the method: then every evaluation calls it, and a segment source is
    # queried at every stage.  The table's shape picks the fused code, which
    # binds the model's constants by name
    fused = type(model).rhs is _MODEL_RHS
    shape, consts = None, (T, model.rhs)
    if fused:
        terms = [g.terms for g in model.gains.gains]
        shape = (model.variant, tuple(tuple(int(p) for _, p in ts) for ts in terms),
                 model.disturbance.kind == "zero")
        consts = (T, model.disturbance, *(c for ts in terms for c, _ in ts))

    # initial commitment: let the source latch its first segment, then record
    x = x.tolist()
    noise.observe(t0, x)
    eta = eta_at(t0, x)
    f = model.rhs(t0, x, eta)
    record(t0, x, f, [0.0] * n, eta)  # the start knot closes no step: the plain cubic
    # what the loop takes as its noise: the held value, the segment, or
    # nothing (a queried source)
    law = eta if held else segment_at(t0) if fused else None
    noise_kind = _HELD if held else _QUERIED if law is None else _SEGMENT
    # a held source whose instance keeps NoiseSource's own observe and
    # next_discontinuity (ZeroNoise) never switches: its loop asks it for
    # neither, as a zero disturbance is asked for no barrier.  A hook
    # replaced on the instance or wrapped on the class (the benchmark
    # tracer's) is asked as usual
    switching = not held or _BASE_HOOKS != tuple(
        getattr(hook, "__func__", None) for hook in (noise.observe, noise.next_discontinuity))
    loop = _loop_factory(n, noise_kind, shape, switching)(
        eta_at, noise.bound, bound_slack, opts.abs_tol, opts.rel_tol, opts.max_step_fraction,
        opts.max_norm, MAX_TRIAL_STEPS, t_end, noise.observe, noise.next_discontinuity,
        model.disturbance.next_discontinuity, stop_condition, knots.extend, *consts)

    h_try = min(1e-3 * (t_end - t0), opts.max_step_fraction * (T - t0))
    t, h_try, trials = t0, max(h_try, min_step), 0
    while True:
        kind, t, x, f, h_try, trials, last = loop(t, x, f, law, h_try, trials)
        if kind != _RENEW:
            break
        # re-enter at the knot with the source's new noise and the
        # derivative's right limit there; a landed discontinuity is no switch
        last, d, switched = last  # the norm and D of the step ending at the knot
        if switched:
            switch_times.append(t)
        renewal_ts.append(t)
        renewal_fls.append(f)
        eta = eta_at(t, x)
        if noise_kind == _SEGMENT:
            law = segment_at(t)
            if law is None:
                raise ValueError(f"noise source gave no segment at t={t!r}, though it gave "
                                 "one at the run's start")
        else:
            law = eta
        f = model.rhs(t, x, eta)
        record(t, x, f, d, eta)
        if last >= opts.max_norm:
            kind = BLOW_UP
            break

    blow_up = None
    if kind == BLOW_UP:
        blow_up = BlowUpEvent(t=t, norm=last, channel=max(range(n), key=lambda j: abs(x[j])))
    termination = Termination(kind=kind, t=t, blow_up=blow_up)

    rows = np.array(knots, dtype=float).reshape(-1, 1 + 3 * n + (n if is_control else 1))
    kts = rows[:, 0].copy()
    kxs, kfs, kds, ketas = (col.copy() for col in np.split(rows[:, 1:], (n, 2 * n, 3 * n), axis=1))
    kfl = kfs.copy()
    if renewal_ts:
        kfl[np.searchsorted(kts, renewal_ts)] = renewal_fls
    return Trajectory(
        ts=kts,
        xs=kxs,
        etas=ketas,
        knot_fs=kfs,
        knot_fl=kfl,
        knot_ds=kds,
        t0=t0,
        t_last=t,
        termination=termination,
        trials=trials,
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


def _threshold_ladder(values, name: str) -> list[float]:
    """The ladder's values as floats; raises ValueError, naming the ladder,
    unless they are nonempty, strictly increasing and positive."""
    thr = [float(v) for v in values]
    if not thr or not all(b > a for a, b in zip(thr, thr[1:])):
        raise ValueError(f"{name} must be a nonempty strictly increasing sequence")
    if not thr[0] > 0.0:
        raise ValueError(f"{name} must be positive")
    return thr


def detect_peaks(traj: Trajectory, thresholds) -> list[tuple[float, Optional[float]]]:
    """First time at which ||x|| exceeds each threshold of a nonempty,
    positive, strictly increasing ladder; None for one never exceeded.

    The one locator of norm crossings: screened at the knots (the first knot
    k with math.hypot > v; k = 0 gives t0), then bisected by _earliest on the
    dense output of the step closing at k (_step_state), so thresholds passed
    within one step get distinct times, but an excursion between knots hides."""
    norms = np.linalg.norm(traj.knot_xs, axis=1)
    out: list[tuple[float, Optional[float]]] = []
    for v in _threshold_ladder(thresholds, "thresholds"):
        # numpy's norm screens the knots to 1e-15; the predicate's hypot decides
        near = np.flatnonzero(norms > v * (1.0 - 1e-15)).tolist()
        k = next((k for k in near if math.hypot(*traj.knot_xs[k].tolist()) > v), None)
        t = None if k is None else traj.t0
        if k:
            state = _step_state(traj, k)
            t = _earliest(lambda tq: math.hypot(*state(tq)) > v, float(traj.knot_ts[k - 1]),
                          float(traj.knot_ts[k]), traj.T)
        out.append((v, t))
    return out
