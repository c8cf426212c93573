"""Constructive measurement-noise attacks on deadline-convergent loops.

Each constructor synthesizes an arbitrarily small bounded noise signal that
defeats a specific robustness property of a time-varying-gain loop:

* controller_divergence_noise: piecewise-constant sign-latched noise on the
  first measured channel; every held segment forces the state norm past the
  next target of a growing ladder, so peaks grow without bound as t -> T.
* controller_terminal_error_noise: a smooth tracking noise that makes the
  closed loop follow a planned cascade state exactly, parking the last state
  component at -2*epsilon at the deadline instead of zero.
* differentiator_divergence_noise: continuous piecewise-linear noise whose
  ramp slopes steepen at each switch; the velocity-error channel tracks the
  negated slope, so its peaks grow without bound.
* TerminalRampNoise: one bounded continuous ramp that pins x2(T) at
  -epsilon (the differentiator) or -2*epsilon (a control loop with gains
  c1/(T-t)^2, c2/(T-t)) from every initial condition.

Switch placement for the divergence noises is simulation-in-the-loop: the
sources watch committed integration steps and switch only once the current
segment's guarantee has been observed and the next segment's start-time
gate has passed.  The switch instants are those the integrator records in
Trajectory.switch_times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CONTROL_LOOP,
    DIFF_ERROR,
    NoiseBoundViolation,
    NoiseSource,
    RationalGain,
    SystemModel,
)
from .integrate import (
    BLOW_UP,
    IntegrationOptions,
    Trajectory,
    _require_complete,
    _threshold_ladder,
    detect_peaks,
    integrate,
    terminal_state,
)
from .oracle import instability_witness_time

DEFAULT_LADDER = (0.1, 1.0, 10.0)
# ratio of consecutive default peak targets
TARGET_GROWTH = 2.0
# relative tolerance within which the differentiator's velocity error counts
# as tracking the ramp slope
TRACK_REL = 1e-3


def default_targets(eta_bar: float, count: int = 7) -> tuple[float, ...]:
    """Geometric peak-target ladder max(1, eta_bar) * TARGET_GROWTH**k, k < count."""
    if count < 1:
        raise ValueError("target count must be positive")
    base = max(1.0, eta_bar)
    return tuple(base * TARGET_GROWTH**k for k in range(count))


def default_ladder(eta_bar: float) -> tuple[float, ...]:
    """Peak thresholds used by the divergence verdict: {0.1, 1, 10} * max(1, eta_bar)."""
    base = max(1.0, eta_bar)
    return tuple(base * r for r in DEFAULT_LADDER)


@dataclass(frozen=True)
class SwitchingSchedule:
    """Realized switching description of a divergence noise.

    targets is the strictly increasing peak ladder the construction forces;
    delta is the held noise magnitude (control case only); times are the
    realized switch instants, strictly increasing and accumulating toward T.
    """

    targets: tuple[float, ...]
    delta: Optional[float] = None
    times: tuple[float, ...] = ()


def _sign(v: float) -> float:
    return 1.0 if v >= 0.0 else -1.0


class _DivergenceNoise(NoiseSource):
    """Bound, horizon and peak-target ladder of a divergence noise; the
    index of the next target to arm starts at 0."""

    def __init__(self, eta_bar: float, targets, T: float):
        if eta_bar <= 0.0:
            raise ValueError("eta_bar must be positive")
        self.bound = self.eta_bar = float(eta_bar)
        self.T = float(T)
        self.targets = tuple(_threshold_ladder(targets, "targets"))
        self._next_idx = 0


class ControllerDivergenceNoise(_DivergenceNoise):
    """Piecewise-constant noise delta * sigma_k * e1 with sign latched from x1.

    The loop's deadline property turns each held segment into a forced
    excursion: the shifted state x + eta follows the noise-free flow toward
    zero at T, so its velocity channel must sweep past delta / (T - t_k).
    Waiting to switch until after the target gate time therefore guarantees
    the next peak, and observing the realized crossing before switching
    keeps every guarantee intact.
    """

    held = True

    def __init__(self, eta_bar: float, targets, n: int = 2, delta: Optional[float] = None,
                 T: float = 1.0):
        super().__init__(eta_bar, targets, T)
        delta = 0.5 * self.eta_bar if delta is None else float(delta)
        if not (0.0 < delta <= self.eta_bar):
            raise ValueError("delta must lie in (0, eta_bar]")
        self.delta = delta
        # gate(eps): earliest admissible switch time for the segment forcing eps
        self._gates = tuple(
            max(instability_witness_time(delta, eps + self.eta_bar, T=self.T), self.T - 1.0 / eps)
            for eps in self.targets
        )
        self._sigma = 1.0
        self._latched0 = False
        self._seg_target: Optional[float] = None
        self._crossed = False
        self._vec = np.zeros(int(n))
        self._vec[0] = self.delta

    def value(self, t: float, x) -> np.ndarray:
        return self._vec

    def observe(self, t: float, x) -> bool:
        if not self._latched0:
            # warm-up segment: latch the start sign, not counted as a switch
            self._sigma = _sign(float(x[0]))
            self._vec[0] = self.delta * self._sigma
            self._latched0 = True
            return False
        if self._seg_target is not None and not self._crossed:
            if math.hypot(*x) >= self._seg_target:
                self._crossed = True
        if self._next_idx < len(self.targets):
            ready = self._seg_target is None or self._crossed
            if ready and t >= self._gates[self._next_idx]:
                self._sigma = _sign(float(x[0]))
                self._vec[0] = self.delta * self._sigma
                self._seg_target = self.targets[self._next_idx]
                self._crossed = False
                self._next_idx += 1
                return True
        return False


class DifferentiatorDivergenceNoise(_DivergenceNoise):
    """Continuous piecewise-linear scalar noise with steepening ramp slopes.

    On segment k the noise runs linearly from its current value toward the
    opposite bound, reaching it exactly at T; the slope magnitude is
    (eta_bar + |eta(t_k)|) / (T - t_k).  The measured loop drives
    x2 + slope to zero, so once tracking is observed (relative tolerance
    TRACK_REL) and the prospective next slope clears the next target, the
    source switches and the velocity error is forced to chase ever larger
    slopes.  Switch instants land on committed integration steps.
    """

    def __init__(self, eta_bar: float, targets, T: float = 1.0):
        super().__init__(eta_bar, targets, T)
        self._t_k = 0.0
        self._eta_k = self.eta_bar  # required start value eta(0) = eta_bar
        self._slope = self._segment_slope(self._eta_k, 0.0)
        self._started = False

    def _segment_slope(self, value_now: float, t_now: float) -> float:
        return -(self.eta_bar * _sign(value_now) + value_now) / (self.T - t_now)

    def value(self, t: float, x) -> float:
        # ramps aim exactly at the opposite bound at T; the integrator's bound
        # check admits their round-off spill
        return self._eta_k + self._slope * (t - self._t_k)

    def segment(self, t: float):
        return self._eta_k, self._slope, self._t_k

    def observe(self, t: float, x) -> bool:
        if not self._started:
            # segment 0 starts at the integration start time
            self._t_k = float(t)
            self._slope = self._segment_slope(self._eta_k, self._t_k)
            self._started = True
            return False
        if self._next_idx >= len(self.targets):
            return False
        if not abs(float(x[1]) + self._slope) <= max(TRACK_REL * abs(self._slope), 1e-12):
            return False  # not tracking the current slope yet
        eps_next = self.targets[self._next_idx]
        val = self.value(t, x)
        prospective = (self.eta_bar + abs(val)) / (self.T - t)
        if prospective > eps_next and t > self.T - 1.0 / eps_next:
            self._eta_k = val
            self._t_k = float(t)
            self._slope = self._segment_slope(val, t)
            self._next_idx += 1
            return True
        return False


class TerminalRampNoise(NoiseSource):
    """-eta_bar until s = T - 2*eta_bar/slope, then -eta_bar + (t - s)*slope
    up to +eta_bar at T; for s < 0 the ramp is under way at t = 0.  With
    n=None a scalar (the differentiator's), else channel 1 of an n-list
    whose other channels are 0 (the control loop's)."""

    def __init__(self, eta_bar: float, slope: float, T: float = 1.0, n: Optional[int] = None):
        if eta_bar <= 0.0 or slope <= 0.0:
            raise ValueError("eta_bar and slope must be positive")
        self.bound = self.eta_bar = float(eta_bar)
        self.slope = float(slope)
        self.T = float(T)
        self.s = float(T - 2.0 * eta_bar / slope)
        # the control loop's channels 2..n, which stay 0
        self._rest = None if n is None else [0.0] * (n - 1)
        if n is not None:
            # the loop's list, from the scalar value, which keeps the
            # differentiator's query free of the branch
            rest, scalar = self._rest, self.value
            self.value = lambda t, x: [scalar(t, x), *rest]

    def value(self, t: float, x):
        if t < self.s:
            return -self.eta_bar
        return -self.eta_bar + (t - self.s) * self.slope

    def segment(self, t: float):
        # -eta_bar + 0.0 * (t - s) is -eta_bar before s
        a, b = -self.eta_bar, 0.0 if t < self.s else self.slope
        if self._rest is None:
            return a, b, self.s
        return [a, *self._rest], [b, *self._rest], self.s

    def next_discontinuity(self, t: float) -> float:
        return self.s if t < self.s else math.inf


def differentiator_divergence_noise(eta_bar: float, targets=None, T: float = 1.0
                                    ) -> DifferentiatorDivergenceNoise:
    """Continuous noise with steepening ramps forcing unbounded velocity peaks."""
    targets = default_targets(eta_bar) if targets is None else targets
    return DifferentiatorDivergenceNoise(eta_bar=eta_bar, targets=targets, T=T)


def controller_divergence_noise(eta_bar: float, targets=None, n: int = 2,
                                delta: Optional[float] = None, T: float = 1.0
                                ) -> ControllerDivergenceNoise:
    """Sign-latched held noise forcing unbounded state peaks in the loop."""
    targets = default_targets(eta_bar) if targets is None else targets
    return ControllerDivergenceNoise(eta_bar=eta_bar, targets=targets, n=n, delta=delta, T=T)


# ---------------------------------------------------------------------------
# terminal-error tracking attack on the control loop


# A polynomial in u = T - t is a tuple of float coefficients indexed by
# power.  Values are summed term by term in increasing power (not by Horner's
# rule, which rounds differently).
Poly = tuple[float, ...]


def _poly_value(p: Poly, u):
    acc = 0.0
    for m, c in enumerate(p):
        acc = acc + c * u**m
    return acc


def _poly_antiderivative(p: Poly) -> Poly:
    """P with dP/dt = p along u = T - t, and P = 0 at u = 0."""
    return (0.0,) + tuple(-c / (m + 1.0) for m, c in enumerate(p))


def _poly_minus(a: Poly, b: Poly) -> Poly:
    k = max(len(a), len(b))
    a, b = a + (0.0,) * (k - len(a)), b + (0.0,) * (k - len(b))
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class CascadePlan:
    """Planned cascade state the tracking noise forces the loop to follow.

    psi holds one polynomial (a coefficient tuple in u = T - t, indexed by
    power) per state channel; the last one starts at -2*epsilon at t = s
    and stays within [-3e, -e], so the loop state, which equals the plan
    exactly, ends at distance >= epsilon from zero.  eta holds the
    per-channel noise polynomials xi'(t) + q - psi(t).
    """

    T: float
    s: float
    epsilon: float
    eta_bar: float
    profile: tuple[Poly, ...]
    psi: tuple[Poly, ...]
    forcing: Poly
    eta: tuple[Poly, ...]
    psi_init: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.psi)

    def initial_state(self) -> np.ndarray:
        return np.array(self.state_at(self.s))

    def state_at(self, t):
        return self._columns(self.psi, t)

    def noise_at(self, t):
        return self._columns(self.eta, t)

    def _columns(self, polys: tuple[Poly, ...], t):
        """One value per polynomial at time t: a list of floats for a float t
        (the tracking noise's per-stage query), else an array with a trailing
        channel axis."""
        if isinstance(t, float):
            u = self.T - float(t)
            return [_poly_value(p, u) for p in polys]
        u = self.T - np.asarray(t, dtype=float)
        return np.stack([np.broadcast_to(_poly_value(p, u), u.shape) for p in polys], axis=-1)


class ControllerTerminalNoise(NoiseSource):
    """Smooth vector noise realizing a CascadePlan on [s, T)."""

    def __init__(self, plan: CascadePlan):
        self.plan = plan
        self.bound = plan.eta_bar

    def value(self, t: float, x) -> list[float]:
        eta = self.plan.noise_at(t)
        nrm = math.hypot(*eta)
        if nrm > self.bound * (1.0 + 1e-12) + 1e-300:
            raise NoiseBoundViolation(
                f"tracking noise exceeded its bound at t={t!r}: {nrm!r} > {self.bound!r}")
        return eta


def _solve_profile(gains: tuple[RationalGain, ...], epsilon: float) -> tuple[float, ...]:
    """Per-channel profile coefficients c_i (xi_i = c_i * u) cancelling every
    singular term of the controller along the planned cascade."""
    n = len(gains)
    neg_powers = sorted({
        1 - p for g in gains[:-1] for c, p in g.terms if c != 0.0 and 1 - p < 0
    } | {
        -p for c, p in gains[-1].terms if c != 0.0 and p > 0
    })
    if not neg_powers:
        return tuple(0.0 for _ in range(n - 1))
    rows = {m: i for i, m in enumerate(neg_powers)}
    A = np.zeros((len(neg_powers), n - 1))
    b = np.zeros(len(neg_powers))
    for i, g in enumerate(gains[:-1]):
        for c, p in g.terms:
            m = 1 - p
            if m in rows:
                A[rows[m], i] += c
    for c, p in gains[-1].terms:
        m = -p
        if m in rows:
            b[rows[m]] += c * (-2.0 * epsilon)
    sol, *_ = np.linalg.lstsq(A, -b, rcond=None)
    residual = A @ sol + b
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(A @ sol))) if sol.size else 1.0)
    if float(np.max(np.abs(residual), initial=0.0)) > 1e-9 * scale:
        raise ValueError(
            "controller is unbounded along every linear tracking profile; "
            "no terminal-error plan exists for this gain table")
    return tuple(float(v) for v in sol)


def _build_forcing(gains: tuple[RationalGain, ...], profile: tuple[float, ...],
                   epsilon: float) -> Poly:
    """Controller output along the planned cascade, as a polynomial in u.

    Raises when singular terms fail to cancel, since the construction only
    exists for controllers bounded along the profile.
    """
    laurent: dict[int, float] = {}  # power of u -> coefficient
    mags: dict[int, float] = {}
    for i, g in enumerate(gains[:-1]):
        ci = profile[i]
        for c, p in g.terms:
            laurent[1 - p] = laurent.get(1 - p, 0.0) + c * ci
            mags[1 - p] = mags.get(1 - p, 0.0) + abs(c * ci)
    for c, p in gains[-1].terms:
        laurent[-p] = laurent.get(-p, 0.0) + c * (-2.0 * epsilon)
        mags[-p] = mags.get(-p, 0.0) + abs(c * 2.0 * epsilon)
    for m, c in laurent.items():
        if m < 0 and abs(c) > 1e-9 * max(1.0, mags[m]):
            raise ValueError(
                "controller output is unbounded along the tracking profile "
                f"(uncancelled pole of order {-m})")
    degree = max((m for m in laurent if m >= 0), default=-1)
    return tuple(laurent.get(m, 0.0) for m in range(degree + 1))


def terminal_plan_window(n: int, eta_bar: float, epsilon: float, T: float = 1.0
                         ) -> tuple[float, float]:
    """Open interval of admissible plan start times (s_min, T).

    Any start s inside it keeps the planned state and noise within budget
    for an n-channel loop with noise bound eta_bar and target epsilon:
    s_min = max(T - eta_bar / (sqrt(n) * 12 * epsilon), T - 1/2).
    """
    if eta_bar <= 0.0 or epsilon <= 0.0:
        raise ValueError("eta_bar and epsilon must be positive")
    eta_inf = eta_bar / math.sqrt(n)
    return (max(T - eta_inf / (12.0 * epsilon), T - 0.5), T)


def controller_terminal_error_noise(model: SystemModel, eta_bar: float, epsilon: float,
                                    psi_init=None, s: Optional[float] = None
                                    ) -> tuple[ControllerTerminalNoise, CascadePlan]:
    """Tracking noise and plan that park the loop's last state at -2*epsilon.

    The plan starts at s close enough to T that the planned state and the
    noise stay within their budgets: per-channel noise within
    eta_bar / sqrt(n), hence ||eta|| <= eta_bar.  The per-channel profile
    is solved so the controller stays bounded along the plan (for the
    reference controller this gives xi(t) = (4/3) * epsilon * (1 - t)).
    psi_init sets the planned start values of channels 1..n-1 (default
    zero, each bounded by eta_bar / (4 sqrt(n))).
    """
    if model.variant != CONTROL_LOOP:
        raise ValueError("terminal tracking attack applies to the control loop")
    if eta_bar <= 0.0 or epsilon <= 0.0:
        raise ValueError("eta_bar and epsilon must be positive")
    n = model.n
    T = model.T
    eta_inf = eta_bar / math.sqrt(n)
    slopes = _solve_profile(model.gains.gains, epsilon)
    if psi_init is None:
        psi_init = tuple(0.0 for _ in range(n - 1))
    psi_init = tuple(float(v) for v in psi_init)
    if len(psi_init) != n - 1:
        raise ValueError(f"psi_init needs {n - 1} values, got {len(psi_init)}")
    cap = eta_inf / 4.0
    if any(abs(v) > cap * (1.0 + 1e-12) for v in psi_init):
        raise ValueError(f"planned start values must satisfy |psi_i(s)| <= {cap!r}")

    forcing = _build_forcing(model.gains.gains, slopes, epsilon)

    def build(w: float) -> CascadePlan:
        # from the last channel down: psi_i' = psi_{i+1} (psi_n' = forcing),
        # started at psi_n(s) = -2 eps and psi_i(s) = psi_init[i]
        psi: list[Poly] = []
        rate = forcing
        for start in (-2.0 * epsilon, *psi_init[::-1]):
            P = _poly_antiderivative(rate)
            rate = (start - _poly_value(P, w),) + P[1:]
            psi.insert(0, rate)
        profile = tuple((0.0, c) for c in slopes)
        eta = tuple(_poly_minus(target, p) for target, p in zip((*profile, (-2.0 * epsilon,)), psi))
        return CascadePlan(T=T, s=T - w, epsilon=epsilon, eta_bar=eta_bar, profile=profile,
                           psi=tuple(psi), forcing=forcing, eta=eta, psi_init=psi_init)

    def bound(p: Poly, w: float) -> float:
        """sum |c| w^m, which bounds |p(u)| on u in (0, w]."""
        return sum(abs(c) * w**m for m, c in enumerate(p))

    def feasible(plan: CascadePlan, w: float) -> bool:
        if w >= min(eta_inf / (12.0 * epsilon), 0.5):
            return False
        if any(abs(c) * w > eta_inf / 2.0 for c in slopes):
            return False
        if w * bound(forcing, w) > min(2.0 * epsilon, eta_inf):
            return False
        # last channel must stay in [-3e, -e]; its deviation from -2e is the
        # negated last noise channel, so bound that polynomial directly
        if bound(plan.eta[n - 1], w) > epsilon:
            return False
        if any(bound(p, w) > eta_inf / 2.0 for p in plan.psi[:-1]):
            return False
        return not any(bound(p, w) > eta_inf for p in plan.eta)

    if s is not None:
        if not (0.0 <= s < T):
            raise ValueError("s must lie in [0, T)")
        plan = build(T - s)
        if not feasible(plan, T - s):
            raise ValueError(
                f"requested start s={s!r} violates the plan's noise or window budget; "
                "move s closer to T")
        return ControllerTerminalNoise(plan), plan

    caps = [eta_inf / (12.0 * epsilon), 0.5]
    caps += [eta_inf / (2.0 * abs(c)) for c in slopes if c != 0.0]
    w = 0.9 * min(caps)
    for _ in range(200):
        plan = build(w)
        if feasible(plan, w):
            return ControllerTerminalNoise(plan), plan
        w *= 0.5
    raise ValueError("no feasible plan window found; the controller grows too "
                     "fast along every admissible profile")


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one synthesized-noise run against a declared target."""

    kind: str
    noise_bound: float
    verdict: bool
    trajectory: Trajectory
    schedule: Optional[SwitchingSchedule] = None
    ramp: Optional[TerminalRampNoise] = None
    plan: Optional[CascadePlan] = None
    peaks: Optional[tuple[tuple[float, Optional[float]], ...]] = None
    terminal: Optional[np.ndarray] = None
    tracking_error: Optional[float] = None
    notes: str = ""


def _ladder_verdict(peaks) -> bool:
    times = [t for _, t in peaks]
    if any(t is None for t in times):
        return False
    return all(b > a for a, b in zip(times, times[1:]))


def run_divergence_attack(model: SystemModel, eta_bar: float, thresholds=None,
                          targets=None, delta: Optional[float] = None, x0=None,
                          opts: Optional[IntegrationOptions] = None) -> AttackOutcome:
    """Drive the model with the matching divergence noise from t = 0 to the
    integration floor T - rho_min and check the ladder.

    The verdict passes when every threshold is crossed at strictly
    increasing times, as detect_peaks locates them on the dense output.  A
    blow_up termination counts as success for any thresholds not yet
    crossed (the norm left the ladder's range).  A start norm at or above
    the first threshold, which would read as a crossing at t0, raises.
    """
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    thresholds = default_ladder(eta_bar) if thresholds is None else tuple(thresholds)
    # a bad ladder, or one the start already climbs, is rejected before the run
    first = _threshold_ladder(thresholds, "thresholds")[0]
    if model.variant == CONTROL_LOOP:
        noise = controller_divergence_noise(eta_bar, targets=targets, n=model.n,
                                            delta=delta, T=T)
        kind, delta = "controller-divergence", noise.delta
    else:
        noise = differentiator_divergence_noise(eta_bar, targets=targets, T=T)
        kind, delta = "diff-divergence", None
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    start = math.hypot(*x0.tolist())
    if start >= first:
        raise ValueError(f"the start norm {start!r} is not below the first threshold {first!r} "
                         "of attack.thresholds")
    traj = integrate(model, noise, x0, 0.0, T - model.horizon.rho_min, opts)
    peaks = tuple(detect_peaks(traj, thresholds))
    verdict = _ladder_verdict(peaks)
    notes = ""
    if traj.termination.kind == BLOW_UP:
        notes = f"norm escape at t={traj.termination.t!r}"
        crossed = [(v, t) for v, t in peaks if t is not None]
        verdict = _ladder_verdict(crossed) and len(crossed) > 0
    armed = len(traj.switch_times)
    if armed < len(noise.targets) and traj.termination.kind != BLOW_UP:
        # a run that stopped short of the floor says how and where
        end = ("the integration floor" if traj.completed else
               f"the run ended in {traj.termination.kind} at t={traj.termination.t!r}")
        notes = (notes + "; " if notes else "") + (
            f"partial schedule: {armed} of {len(noise.targets)} targets armed before {end}")
    schedule = SwitchingSchedule(targets=noise.targets, delta=delta, times=traj.switch_times)
    return AttackOutcome(kind=kind, noise_bound=eta_bar, verdict=verdict, trajectory=traj,
                         schedule=schedule, peaks=peaks, notes=notes)


def run_controller_terminal_attack(model: SystemModel, eta_bar: float, epsilon: float,
                                   rho: float = 1e-6, psi_init=None, s: Optional[float] = None,
                                   opts: Optional[IntegrationOptions] = None) -> AttackOutcome:
    """Prepared-state tracking attack: start on the plan and ride it to T.

    Integrates from x(s) equal to the planned state under the tracking
    noise; reports the sup-norm tracking error and the terminal state at
    T - rho.  Verdict: terminal norm >= epsilon.  A plan that does not start
    before T - rho (a small eta_bar gives a short window) raises ValueError.
    """
    noise, plan = controller_terminal_error_noise(model, eta_bar, epsilon, psi_init=psi_init, s=s)
    opts = opts or IntegrationOptions()
    T = model.horizon.T
    if not plan.s < T - rho:
        raise ValueError(f"the plan starts at s={plan.s!r}, not before T - rho = {T - rho!r} "
                         f"(attack.rho = {rho!r})")
    traj = integrate(model, noise, plan.initial_state(), plan.s, T - rho, opts)
    _require_complete(traj)
    predicted = plan.state_at(traj.ts)
    tracking = float(np.max(np.abs(traj.xs - predicted)))
    terminal = terminal_state(traj, rho)
    verdict = math.hypot(*terminal) >= epsilon
    return AttackOutcome(kind="controller-terminal", noise_bound=eta_bar, verdict=verdict,
                         trajectory=traj, plan=plan, terminal=terminal,
                         tracking_error=tracking)


def terminal_ramp_gain(model: SystemModel) -> float:
    """b = c1/(c2 - c1) for a control loop with gains c1/(T-t)^2, c2/(T-t):
    a ramp of slope k on channel 1 leaves x2(T) = b*k from every start (the
    particular solution y1 = x1 + eta1 = a*(T-t), x2 = b*k).  The Euler
    exponents m, roots of m^2 + (c2 - 1)*m - c1, bring x2 to 0 at T without
    noise exactly when both exceed 1 in real part: c1 < c2 < -1, so b < 0.
    Other tables raise ValueError."""
    if model.variant != CONTROL_LOOP:
        raise ValueError("controller ramp attack applies to the control loop")
    terms = [g.terms for g in model.gains.gains]
    orders = [[p for _, p in ts] for ts in terms]
    if orders != [[2], [1]]:
        raise ValueError("controller ramp attack needs the gains c1/(T-t)^2, c2/(T-t), "
                         f"one term each; got pole orders {orders}")
    (c1, _), (c2, _) = terms[0][0], terms[1][0]
    if not c1 < c2 < -1.0:
        raise ValueError(
            f"gains {c1!r}/(T-t)^2, {c2!r}/(T-t) do not bring the noise-free loop to 0 at T "
            "(that needs c1 < c2 < -1), so a terminal error there shows nothing")
    return c1 / (c2 - c1)


def _ramp_run(model: SystemModel, noise: TerminalRampNoise, x0, rho: float,
              opts: Optional[IntegrationOptions]) -> tuple[Trajectory, np.ndarray]:
    """Run a ramp attack from x0 at t = 0 to T - rho: its trajectory and terminal state.
    A ramp that does not start before T - rho, which the run would never see,
    raises ValueError."""
    T = model.horizon.T
    if not noise.s < T - rho:
        raise ValueError(f"the ramp starts at s={noise.s!r}, not before T - rho = {T - rho!r} "
                         f"(attack.rho = {rho!r})")
    traj = integrate(model, noise, np.asarray(x0, dtype=float), 0.0, T - rho,
                     opts or IntegrationOptions())
    _require_complete(traj)
    return traj, terminal_state(traj, rho)


def run_controller_ramp_attack(model: SystemModel, eta_bar: float, epsilon: float, x0,
                               rho: float = 1e-6,
                               opts: Optional[IntegrationOptions] = None) -> AttackOutcome:
    """Ramp attack on the control loop from any start x0 at t = 0.

    The ramp on channel 1 has slope 2*epsilon/|b| (b from
    terminal_ramp_gain), so x2(T) = -2*epsilon, as on the cascade plan.
    Verdict: ||x(T - rho)|| >= epsilon.
    """
    slope = 2.0 * epsilon / -terminal_ramp_gain(model)
    noise = TerminalRampNoise(eta_bar, slope, T=model.horizon.T, n=model.n)
    traj, terminal = _ramp_run(model, noise, x0, rho, opts)
    verdict = math.hypot(*terminal) >= epsilon
    return AttackOutcome(kind="controller-ramp", noise_bound=eta_bar, verdict=verdict,
                         trajectory=traj, ramp=noise, terminal=terminal)


def run_differentiator_terminal_attack(model: SystemModel, eta_bar: float, epsilon: float,
                                       x0, rho: float = 1e-6, tol: float = 1e-3,
                                       opts: Optional[IntegrationOptions] = None) -> AttackOutcome:
    """Ramp attack on the differentiator: verdict |x2(T - rho) + epsilon| <= tol*epsilon."""
    if model.variant != DIFF_ERROR:
        raise ValueError("ramp terminal attack applies to the differentiator error model")
    noise = TerminalRampNoise(eta_bar, epsilon, T=model.horizon.T)
    traj, terminal = _ramp_run(model, noise, x0, rho, opts)
    verdict = bool(abs(float(terminal[1]) + epsilon) <= tol * epsilon)
    return AttackOutcome(kind="diff-terminal", noise_bound=eta_bar, verdict=verdict,
                         trajectory=traj, ramp=noise, terminal=terminal)
