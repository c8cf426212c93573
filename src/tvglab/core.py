"""System definitions for finite-horizon loops driven by time-varying gains.

Two closed-loop structures live on a horizon [0, T): an integrator chain
under linear state feedback whose gains grow without bound as t -> T, and
the estimation-error dynamics of a differentiator whose output-injection
gains do the same.  Both are driven by one GainTable of per-channel
rational gains in 1/(T - t).  This module holds the gains, the signal
contracts (measurement noise, matched disturbance), and the system model
whose right-hand side the integrator and the analysis routines share.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

CONTROL_LOOP = "control_loop"
DIFF_ERROR = "diff_error"


class NumericalFailure(RuntimeError):
    """A right-hand-side evaluation produced a non-finite value."""


class NoiseBoundViolation(NumericalFailure):
    """A noise source returned a value above its declared bound.

    Unlike a non-finite right-hand side, this is a broken contract, not a
    step too large: the integrator never retries it with a smaller step.
    """


@dataclass(frozen=True)
class Horizon:
    """Deadline instant T > 0 plus the closest approach allowed during integration.

    rho_min is the minimum distance to T at which state trajectories may be
    evaluated; integration never steps past T - rho_min.  Defaults to 1e-9 * T.
    """

    T: float
    rho_min: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be a positive finite number, got {self.T!r}")
        if self.rho_min == 0.0:
            object.__setattr__(self, "rho_min", 1e-9 * self.T)
        if not (0.0 < self.rho_min < self.T):
            raise ValueError(f"rho_min must lie in (0, T), got {self.rho_min!r}")


@dataclass(frozen=True)
class RationalGain:
    """One gain channel of the form sum_j c_j / (T - t)**p_j.

    Pole orders p_j are nonnegative integers; a constant term uses p = 0.
    The empty term tuple is the zero gain.
    """

    terms: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        for c, p in self.terms:
            if not (isinstance(p, int) and p >= 0):
                raise ValueError(f"pole order must be a nonnegative integer, got {p!r}")
            if not math.isfinite(c):
                raise ValueError(f"gain coefficient must be finite, got {c!r}")

    def value_at(self, u):
        """Evaluate the gain at distance u = T - t from the deadline (u > 0).

        A list of distances gives an array holding, bit for bit, the scalar
        value at each one; the zero gain gives 0.0 for any u.
        """
        acc = 0.0
        try:
            for c, p in self.terms:
                acc += c / u**p
        except TypeError:  # a list; the scalar calls pay for no type check
            acc = np.zeros(len(u))  # 0.0 + -0.0 is 0.0, as in the scalar sum
            for c, p in self.terms:
                # c / 1.0 is c and v**1 is v; Python's ** per element beyond,
                # as the scalar sum does (numpy's power rounds differently)
                acc = acc + (c if p == 0 else c / np.array(u if p == 1 else [v**p for v in u]))
        return acc


def _as_gain(g) -> RationalGain:
    if isinstance(g, RationalGain):
        return g
    return RationalGain(tuple((float(c), int(p)) for c, p in g))


REFERENCE = "reference"
RATIONAL_TVG = "rational_tvg"
PT_DIFF2 = "pt_diff2"


@dataclass(frozen=True)
class GainTable:
    """Per-channel rational gains g_i(t) in 1/(T - t) on [0, T).

    The control loop applies them as state feedback v = sum_i g_i(t) * x_i;
    the differentiator error model injects phi_i = g_i(t) * y into channel i,
    where y is the measured first error component.  T comes from the
    model's Horizon.
    """

    kind: str
    gains: tuple[RationalGain, ...]

    def __post_init__(self):
        if self.kind not in (REFERENCE, PT_DIFF2, RATIONAL_TVG):
            raise ValueError(f"unknown gain table kind {self.kind!r}")
        if len(self.gains) < 2:
            raise ValueError("gain table needs at least two channels")

    @staticmethod
    def reference() -> "GainTable":
        """Bundled second-order feedback -6/(1-t)^2 and -4/(1-t), for T = 1.

        Every closed-loop solution is a cubic polynomial in (1 - t) and reaches
        zero exactly at t = 1 from any start time and state, which makes this
        loop the solver oracle (see tvglab.oracle.reference_solution).
        """
        return GainTable(kind=REFERENCE,
                         gains=(RationalGain(((-6.0, 2),)), RationalGain(((-4.0, 1),))))

    @staticmethod
    def prescribed_time_diff(ell1: float = 1.0, ell2: float = 1.0) -> "GainTable":
        """Second-order prescribed-time differentiator error injection.

        Channel gains are -(l1 + 6/(T-t)) and -(l2 + 3 l1/(T-t) + 6/(T-t)^2)
        with l1, l2 > 0.  In the absence of noise the estimation error reaches
        zero exactly at the deadline for every initial error.
        """
        if not (ell1 > 0.0 and ell2 > 0.0):
            raise ValueError("injection parameters l1, l2 must be positive")
        g1 = RationalGain(((-float(ell1), 0), (-6.0, 1)))
        g2 = RationalGain(((-float(ell2), 0), (-3.0 * float(ell1), 1), (-6.0, 2)))
        return GainTable(kind=PT_DIFF2, gains=(g1, g2))

    @staticmethod
    def rational(tables: Sequence) -> "GainTable":
        """Gains from explicit per-channel (coefficient, pole_order) tables."""
        return GainTable(kind=RATIONAL_TVG, gains=tuple(_as_gain(g) for g in tables))

    @staticmethod
    def zero(n: int) -> "GainTable":
        """All n gains identically zero (negative-control fixture)."""
        return GainTable.rational([() for _ in range(n)])


@dataclass(frozen=True)
class DisturbanceSpec:
    """Matched additive disturbance d(t) with |d(t)| <= bound for all t.

    Kinds: "zero", "constant", "sinusoid" (amplitude * sin(2 pi f t + phase)),
    and "piecewise" (zero-order hold over (time, value) samples; zero before
    the first sample time).
    """

    kind: str = "zero"
    bound: float = 0.0
    value: float = 0.0
    amplitude: float = 0.0
    frequency: float = 0.0
    phase: float = 0.0
    samples: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sinusoid", "piecewise"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.bound < 0.0 or not math.isfinite(self.bound):
            raise ValueError("disturbance bound must be finite and nonnegative")
        if self.kind == "constant" and abs(self.value) > self.bound:
            raise ValueError("constant disturbance exceeds its declared bound")
        if self.kind == "sinusoid" and abs(self.amplitude) > self.bound:
            raise ValueError("sinusoid amplitude exceeds the declared bound")
        # the sample times, searched by bisection
        object.__setattr__(self, "_times", tuple(t for t, _ in self.samples))
        if self.kind == "piecewise":
            if list(self._times) != sorted(self._times):
                raise ValueError("piecewise disturbance samples must be time sorted")
            if any(abs(v) > self.bound for _, v in self.samples):
                raise ValueError("piecewise disturbance sample exceeds the declared bound")

    def __call__(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoid":
            return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)
        # piecewise: hold the value of the last sample at or before t
        i = bisect_right(self._times, t)
        return self.samples[i - 1][1] if i else 0.0

    def next_discontinuity(self, t: float) -> float:
        """Next jump instant strictly after t (inf when none)."""
        if self.kind != "piecewise":
            return math.inf
        i = bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else math.inf


class NoiseSource:
    """Measurement-noise contract used by the integrator.

    A source is owned by one integration run at a time.  value(t, x) returns
    the additive measurement noise at time t given the current plant state
    (a length-n vector for the control loop, a scalar for the differentiator
    error model) and must satisfy the declared bound at every query.  x is a
    list of n floats, at a Runge-Kutta stage and at a committed step; value()
    must not change it.
    observe(t, x) is called at the start state before any query, then once
    per committed integration step but one that ends the run at a stop
    event, in time order, and is the only place a source may change
    internal state; it returns True when the source switched its law
    exactly at t.  When it returns False, value(t, x) must answer as it
    did before the call: the integrator records a committed step with the
    noise it already queried there for the step's last stage, and queries
    again only after a switch.
    next_discontinuity(t) announces the next known switching instant strictly
    after t (inf when none is scheduled) so the integrator can land on it;
    it is asked once per committed step, at the step's start.
    A held source (see below) whose instance keeps this class's own
    observe and next_discontinuity, as ZeroNoise does, never switches: it
    is observed at the start state only and never asked for a
    discontinuity.  Replacing either method on the instance, overriding it
    in a subclass or wrapping it on this class restores both calls.

    segment(t) may promise more: None (the default) promises nothing, and
    the integrator queries value() at every Runge-Kutta stage.  (a, b, t0),
    with a and b floats (differentiator) or lists of n floats (control
    loop), promises that value(t', x) == a + b * (t' - t0), bit for bit and
    for every x, at every t' from t until the source's next switch (observe
    returns True) or its next announced discontinuity, where value() may
    jump.  The integrator reads the segment after the first observe(),
    after each switch and after each step that lands on an announced
    discontinuity, and its compiled loop evaluates the law at every stage
    without calling the source: the stages of a step that ends on the
    discontinuity, its last one included, see the law before it.  It
    evaluates the law at the stage's exact offset from the step's start,
    a + b * ((t - t0) + c h), not at the rounded stage time t + c h, so a
    segment run is not bit for bit the run of the same source queried at
    every stage; it is the more accurate of the two.  A source that gives a
    segment once must give one at every later read.  The loop that calls an
    overridden SystemModel.rhs queries at every stage instead.

    held = True is the constant case, b = 0 until the next switch, with a
    loop of its own: from the first observe() on, value(t, x) returns the
    same value for every (t, x) until observe() returns True.  The
    integrator then queries and checks a held source once after the first
    observe() and once after each switch, and reuses that value for every
    stage and knot.  A control-loop source may return an array or a list
    of exactly n floats (anything else raises ValueError at the query); a
    list is recorded as it is, so the source must not change it later.
    """

    bound: float = 0.0
    held: bool = False

    def value(self, t: float, x):
        raise NotImplementedError

    def observe(self, t: float, x) -> bool:
        return False

    def next_discontinuity(self, t: float) -> float:
        return math.inf

    def segment(self, t: float):
        return None


class ZeroNoise(NoiseSource):
    """Noise-free measurement channel; vector when n is given, else scalar."""

    held = True

    def __init__(self, n: Optional[int] = None):
        self.bound = 0.0
        self._zero = 0.0 if n is None else np.zeros(n)

    def value(self, t: float, x):
        return self._zero


# gain table kinds each variant accepts
_VARIANT_KINDS = {CONTROL_LOOP: (REFERENCE, RATIONAL_TVG), DIFF_ERROR: (PT_DIFF2, RATIONAL_TVG)}


@dataclass(frozen=True)
class SystemModel:
    """A simulated system: variant, horizon, and the gains driving the chain.

    variant "control_loop":  x_i' = x_{i+1} (i < n),  x_n' = v(t, x + eta) + d(t)
    variant "diff_error":    x_i' = x_{i+1} + phi_i(t, x_1 + eta_1) (i < n),
                             x_n' = d(t) + phi_n(t, x_1 + eta_1)
    """

    variant: str
    horizon: Horizon
    gains: GainTable
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)

    def __post_init__(self):
        kinds = _VARIANT_KINDS.get(self.variant)
        if kinds is None:
            raise ValueError(f"unknown system variant {self.variant!r}")
        if self.gains.kind not in kinds:
            raise ValueError(f"{self.gains.kind} gains cannot drive a {self.variant} model")
        # constants of every gain evaluation, looked up once
        object.__setattr__(self, "_T", self.horizon.T)
        object.__setattr__(self, "_control", self.variant == CONTROL_LOOP)
        object.__setattr__(self, "_channels", self.gains.gains)
        p = max((p for g in self._channels for _, p in g.terms), default=0)
        try:  # (T - t)**p, a Python float power, is largest at t = 0
            self._T ** p
        except OverflowError:
            raise ValueError(f"gain pole order {p} overflows at T={self._T!r}: "
                             f"(T - t)**{p} is beyond the float range") from None

    @property
    def n(self) -> int:
        return len(self.gains.gains)

    @property
    def T(self) -> float:
        return self.horizon.T

    def rhs(self, t: float, x, eta) -> list[float]:
        """Chain derivative under the measured signal: the feedback
        v(t, x + eta) of the control loop, or the injections
        phi(t, x_1 + eta_1) of the differentiator; d enters the last channel.

        x is a list of n floats or a 1-D array of length n.  eta is the
        control loop's noise vector (array or list) or a scalar that
        broadcasts, or the differentiator's scalar (a float or a
        one-element array).  Returns a fresh list of n floats, which the
        integrator keeps as a stage derivative.  Rejects t >= T
        and an x of the wrong length; raises NumericalFailure where the
        output is not finite or a gain power underflows to 0.0.

        Each gain is RationalGain.value_at at u = T - t: c / u**p summed
        from 0.0 in table order.  The control loop sums g_i * (x_i + eta_i)
        from 0.0 in channel order.  integrate's fused loop runs the same
        float operations in the same order as generated code
        (integrate._rhs_lines), so every finite stage is bit for bit this
        method's result.  Only its queried loop raises where this method
        would on a non-finite output; the held and segment loops leave that
        stage to the error test, which rejects the step as the raise does.
        integrate calls the method itself at the start knot and at each
        noise renewal, and at every stage only where a subclass or a
        wrapper on the class overrides it.
        """
        n = len(self._channels)
        s = x if type(x) is list else x.tolist()
        if len(s) != n:
            raise ValueError(f"x has {len(x)} components; the model has {n} channels")
        if not self._control:
            eta = eta if type(eta) is float else np.asarray(eta, dtype=float).item()
        elif type(eta) is not list or len(eta) != n:
            eta = np.asarray(eta, dtype=float)
            if eta.shape != (n,):
                eta = np.broadcast_to(eta, (n,))  # raises as x + eta would
            eta = eta.tolist()
        u = self._T - t
        if u <= 0.0:
            raise ValueError(f"gains evaluated at t={t!r} >= deadline T={self._T!r}")
        # adding the zero disturbance still turns a -0.0 output into 0.0
        d = self.disturbance(t)
        try:
            gains = [g.value_at(u) for g in self._channels]
        except ZeroDivisionError:
            raise NumericalFailure(f"gain power underflows to 0.0 at t={t!r}") from None
        if self._control:
            out = 0.0
            for g, si, ei in zip(gains, s, eta):
                out += g * (si + ei)
            if not math.isfinite(out):
                raise NumericalFailure(f"controller output not finite at t={t!r}")
            return [*s[1:], out + d]
        y = s[0] + eta
        phi = [g * y for g in gains]
        if not all(map(math.isfinite, phi)):
            raise NumericalFailure(f"injection output not finite at t={t!r}")
        return [*(si + p for si, p in zip(s[1:], phi)), d + phi[-1]]

    def gain_output(self, t, x, eta):
        """Scalar record of the algorithm output at (t, x): the controller
        value, or the largest-magnitude injection channel (signed).

        With a leading sample axis (t of shape (N,), x of shape (N, n), eta
        of shape (N, n) or (N, 1)) it returns the N records as an array, each
        bit for bit the scalar call's value; rejects any t >= T.
        """
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        xs = np.asarray(x, dtype=float).reshape(len(ts), -1)
        etas = np.asarray(eta, dtype=float).reshape(len(ts), -1)
        u = self._T - ts
        late = np.flatnonzero(u <= 0.0)
        if late.size:
            raise ValueError(f"gains evaluated at t={ts[late[0]].item()!r} >= deadline T={self._T!r}")
        us = u.tolist()
        # an overflow is a record value here, as in the scalar arithmetic;
        # the caller decides what a non-finite record means
        with np.errstate(over="ignore", invalid="ignore"):
            if self._control:
                measured = xs + etas
                out = 0.0  # 0.0 + -0.0 is 0.0, as in rhs's sum
                for i, g in enumerate(self._channels):
                    out = out + g.value_at(us) * measured[:, i]
            else:
                y = xs[:, 0] + etas[:, 0]
                phi = np.column_stack([g.value_at(us) * y for g in self._channels])
                # ties keep the first channel and the first NaN wins, so a
                # finiteness check on the record rejects it
                out = phi[np.arange(len(ts)), np.argmax(np.abs(phi), axis=1)]
        return float(out[0]) if scalar else out

    def zero_noise(self) -> ZeroNoise:
        return ZeroNoise(self.n if self.variant == CONTROL_LOOP else None)


def reference_loop(disturbance: Optional[DisturbanceSpec] = None, rho_min: float = 0.0) -> SystemModel:
    """The bundled second-order control loop on T = 1."""
    return SystemModel(
        variant=CONTROL_LOOP,
        horizon=Horizon(T=1.0, rho_min=rho_min),
        gains=GainTable.reference(),
        disturbance=disturbance or DisturbanceSpec(),
    )


def rational_loop(gains: Sequence, T: float = 1.0,
                  disturbance: Optional[DisturbanceSpec] = None, rho_min: float = 0.0) -> SystemModel:
    """Control loop with user-supplied rational gain tables."""
    return SystemModel(
        variant=CONTROL_LOOP,
        horizon=Horizon(T=float(T), rho_min=rho_min),
        gains=GainTable.rational(gains),
        disturbance=disturbance or DisturbanceSpec(),
    )


def open_loop_chain(n: int = 2, T: float = 1.0,
                    disturbance: Optional[DisturbanceSpec] = None) -> SystemModel:
    """Integrator chain with the feedback removed (negative-control fixture)."""
    return SystemModel(
        variant=CONTROL_LOOP,
        horizon=Horizon(T=float(T)),
        gains=GainTable.zero(n),
        disturbance=disturbance or DisturbanceSpec(),
    )


def differentiator_error_model(ell1: float = 1.0, ell2: float = 1.0, T: float = 1.0,
                               disturbance: Optional[DisturbanceSpec] = None,
                               rho_min: float = 0.0) -> SystemModel:
    """Second-order prescribed-time differentiator error dynamics."""
    return SystemModel(
        variant=DIFF_ERROR,
        horizon=Horizon(T=float(T), rho_min=rho_min),
        gains=GainTable.prescribed_time_diff(ell1=ell1, ell2=ell2),
        disturbance=disturbance or DisturbanceSpec(),
    )


def rational_diff_error(gains: Sequence, T: float = 1.0,
                        disturbance: Optional[DisturbanceSpec] = None, rho_min: float = 0.0) -> SystemModel:
    """Differentiator error model with user-supplied rational injection tables."""
    return SystemModel(
        variant=DIFF_ERROR,
        horizon=Horizon(T=float(T), rho_min=rho_min),
        gains=GainTable.rational(gains),
        disturbance=disturbance or DisturbanceSpec(),
    )
