"""Adaptive stepper: accuracy, noise handling, events, termination."""

import importlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvglab.attack import (
    DifferentiatorDivergenceNoise,
    TerminalRampNoise,
    controller_divergence_noise,
    controller_terminal_error_noise,
    default_targets,
    differentiator_divergence_noise,
)
from tvglab.core import (
    CONTROL_LOOP,
    DIFF_ERROR,
    DisturbanceSpec,
    NoiseBoundViolation,
    NoiseSource,
    NumericalFailure,
    SystemModel,
    ZeroNoise,
    differentiator_error_model,
    open_loop_chain,
    rational_diff_error,
    rational_loop,
    reference_loop,
)
from tvglab.integrate import (
    _DP_B,
    _DP_E,
    _DP_STAGES,
    BLOW_UP,
    EVENT,
    REACHED_END,
    STEP_BUDGET,
    STEP_UNDERFLOW,
    IntegrationOptions,
    OutputGrid,
    _require_complete,
    detect_peaks,
    integrate,
    terminal_state,
)
from tvglab.oracle import reference_solution

# the module itself: the package exports its integrate function under the
# same name
integrate_module = importlib.import_module("tvglab.integrate")


def test_closed_loop_matches_closed_form():
    model = reference_loop()
    grid = OutputGrid(kind="uniform", count=101)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9,
                     IntegrationOptions(output_grid=grid))
    exact = reference_solution(0.0, (1.0, 0.0), traj.ts)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(traj.xs - exact)) <= 1e-9 * scale
    assert traj.completed
    assert traj.termination.kind == REACHED_END


def test_open_loop_solution_is_affine_in_time():
    model = open_loop_chain()
    traj = integrate(model, None, np.array([2.0, -3.0]), 0.0, 0.5)
    assert traj.xs[-1][0] == pytest.approx(2.0 - 3.0 * 0.5, rel=1e-12)
    assert traj.xs[-1][1] == pytest.approx(-3.0, rel=1e-12)


def test_dense_output_between_steps():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9)
    probes = np.linspace(0.05, 0.85, 40)
    states = traj.state_at(probes)
    exact = reference_solution(0.0, (1.0, 0.0), probes)
    assert np.max(np.abs(states - exact)) <= 1e-7
    with pytest.raises(ValueError):
        traj.state_at(0.95)


def test_output_grid_kinds():
    model = reference_loop()
    uni = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9,
                    IntegrationOptions(output_grid=OutputGrid(kind="uniform", count=33)))
    for t in np.linspace(0.0, 0.9, 33):
        assert np.min(np.abs(uni.ts - t)) < 1e-12
    geo = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-6,
                    IntegrationOptions(output_grid=OutputGrid(kind="geometric", count=33)))
    assert geo.ts[-1] == pytest.approx(1.0 - 1e-6, abs=1e-15)


def test_steps_shrink_toward_deadline():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-6)
    hs = np.diff(traj.knot_ts)
    gaps = 1.0 - traj.knot_ts[:-1]
    assert np.all(hs <= 0.1 * gaps + 1e-15)


def test_stop_condition_bisection():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.99,
                     stop_condition=lambda t, x: x[0] <= 0.25)
    assert traj.termination.kind == EVENT
    # event time matches the closed-form crossing of x1 = 0.25
    assert traj.xs[-1][0] == pytest.approx(0.25, abs=1e-9)
    exact = reference_solution(0.0, (1.0, 0.0), traj.t_last)
    assert exact[0] == pytest.approx(0.25, abs=1e-9)


def test_blow_up_termination():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9,
                     IntegrationOptions(max_norm=1.2))
    assert traj.termination.kind == BLOW_UP
    assert traj.termination.blow_up is not None
    assert traj.termination.blow_up.norm >= 1.2
    # the root of the last recorded state's float sum of squares, bit for bit
    event, (a, b) = traj.termination.blow_up, traj.knot_xs[-1].tolist()
    assert event.t == traj.knot_ts[-1]
    assert event.norm == math.sqrt(a * a + b * b)


def test_rejects_span_past_the_floor():
    model = reference_loop(rho_min=1e-6)
    with pytest.raises(ValueError):
        integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
    with pytest.raises(ValueError):
        integrate(model, None, np.array([1.0, 0.0]), 0.5, 0.5)
    # a floor below the minimum step 1e-13 * T could never be reached
    with pytest.raises(ValueError, match="minimum step"):
        integrate(reference_loop(rho_min=1e-14), None, np.array([1.0, 0.0]), 0.0, 0.5)


class _BarrierNoise(NoiseSource):
    """Constant vector noise announcing one switching instant."""

    def __init__(self, n, barrier):
        self.bound = 0.02  # vector noise is bounded in the 2-norm
        self.scalar = False
        self.n = n
        self.barrier = barrier
        self.observed = []

    def value(self, t, x):
        return np.full(self.n, 0.01 if t < self.barrier else -0.01)

    def observe(self, t, x):
        self.observed.append(t)
        return False

    def next_discontinuity(self, t):
        return self.barrier if t < self.barrier else math.inf


def test_noise_barrier_is_hit_exactly():
    model = reference_loop()
    noise = _BarrierNoise(2, 0.37)
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.9)
    assert np.any(traj.knot_ts == 0.37)
    # observe is called at committed steps only, in strictly increasing order
    assert noise.observed == sorted(noise.observed)
    assert len(set(noise.observed)) == len(noise.observed)
    assert noise.observed[0] == 0.0


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
@pytest.mark.parametrize("model", [reference_loop(), differentiator_error_model()],
                         ids=["control_loop", "diff_error"])
def test_grid_samples_are_the_dense_output(model, kind):
    grid = OutputGrid(kind=kind, count=3000)
    t_end = 1.0 - 1e-6
    traj = integrate(model, None, np.array([1.0, -0.5]), 0.0, t_end,
                     IntegrationOptions(output_grid=grid))
    assert np.all(np.diff(traj.ts) > 0.0)
    between = np.isin(traj.ts, traj.knot_ts, invert=True)
    points = grid.points(0.0, t_end, 1.0)
    expected = points[(points > 0.0) & (points < t_end)]
    np.testing.assert_array_equal(traj.ts[between], np.setdiff1d(expected, traj.knot_ts))
    assert np.count_nonzero(between) > 2500
    # bit for bit: the same cubic Hermite as state_at, on the same knots
    assert traj.xs[between].tobytes() == traj.state_at(traj.ts[between]).tobytes()


class _SwitchingNoise(_BarrierNoise):
    """Barrier noise that reports its switch when the barrier is committed."""

    def observe(self, t, x):
        return t == self.barrier


def test_grid_point_on_a_knot_or_switch_is_recorded_once():
    model = reference_loop()
    opts = IntegrationOptions(initial_step=1e-3)
    knots = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9, opts).knot_ts
    knot = float(knots[np.searchsorted(knots, 0.3)])
    # linspace(0, 2k, 3) is exactly (0, k, 2k); the steps before k do not
    # depend on t_end = 2k
    grid = IntegrationOptions(initial_step=1e-3, output_grid=OutputGrid("uniform", 3))
    assert grid.output_grid.points(0.0, 2.0 * knot, 1.0)[1] == knot
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 2.0 * knot, grid)
    assert knot in traj.knot_ts
    assert np.count_nonzero(traj.ts == knot) == 1
    assert np.all(np.diff(traj.ts) > 0.0)

    assert grid.output_grid.points(0.0, 0.75, 1.0)[1] == 0.375
    noise = _SwitchingNoise(2, 0.375)
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.75, grid)
    assert traj.switch_times == (0.375,)
    assert np.count_nonzero(traj.ts == 0.375) == 1
    assert np.all(np.diff(traj.ts) > 0.0)
    # the one record at the switch holds the right-limit noise
    assert np.all(traj.etas[traj.ts == 0.375] == -0.01)


def test_grid_points_of_the_event_step_precede_the_event_sample():
    model = reference_loop()
    grid = OutputGrid(kind="uniform", count=20001)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.99,
                     IntegrationOptions(output_grid=grid),
                     stop_condition=lambda t, x: x[0] <= 0.25)
    assert traj.termination.kind == EVENT
    t_ev = traj.termination.t
    step_start = traj.knot_ts[-2]
    assert traj.ts[-1] == t_ev and traj.knot_ts[-1] == t_ev
    assert np.all(np.diff(traj.ts) > 0.0)
    points = grid.points(0.0, 0.99, 1.0)
    inside = points[(points > step_start) & (points < t_ev)]
    assert inside.size >= 2
    np.testing.assert_array_equal(traj.ts[-1 - inside.size:-1], inside)
    assert traj.ts[-2 - inside.size] == step_start



class _LoggingNoise(_BarrierNoise):
    """Barrier noise, not held, that logs every value and observe call."""

    def __init__(self, n, barrier):
        super().__init__(n, barrier)
        self.log = []

    def value(self, t, x):
        self.log.append(("value", t))
        return super().value(t, x)

    def observe(self, t, x):
        self.log.append(("observe", t))
        return super().observe(t, x)


_GRID_RUNS = {
    "switching_held": (reference_loop, lambda: controller_divergence_noise(1e-2),
                       OutputGrid("geometric", 3000), 1.0 - 1e-9, None),
    "not_held": (differentiator_error_model, lambda: differentiator_divergence_noise(1e-2),
                 OutputGrid("geometric", 3000), 1.0 - 1e-9, None),
    "stop_event_held": (reference_loop, lambda: None, OutputGrid("uniform", 20001), 0.99,
                        lambda t, x: x[0] <= 0.25),
    "stop_event_not_held": (reference_loop, lambda: _BarrierNoise(2, 0.37),
                            OutputGrid("uniform", 20001), 0.99, lambda t, x: x[0] <= 0.25),
}


@pytest.mark.parametrize("run", list(_GRID_RUNS))
def test_grid_samples_equal_state_at_in_every_run_kind(run):
    make_model, make_noise, grid, t_end, stop = _GRID_RUNS[run]
    noise = make_noise()
    traj = integrate(make_model(), noise, np.array([1.0, -0.5]), 0.0, t_end,
                     IntegrationOptions(output_grid=grid), stop_condition=stop)
    assert (traj.termination.kind == EVENT) == (stop is not None)
    between = np.isin(traj.ts, traj.knot_ts, invert=True)
    # grid points fall on the steps that matter here: those ending at a
    # switch, or the step ending at the event
    ends = traj.switch_times if stop is None else (traj.t_last,)
    assert ends
    closing = np.searchsorted(traj.knot_ts, traj.ts[between])
    assert set(traj.knot_ts[closing]) >= set(ends)
    assert traj.xs[between].tobytes() == traj.state_at(traj.ts[between]).tobytes()


def test_held_grid_noise_is_the_value_of_its_segment():
    traj = integrate(reference_loop(), controller_divergence_noise(1e-2), np.array([1.0, -0.5]),
                     0.0, 1.0 - 1e-9,
                     IntegrationOptions(output_grid=OutputGrid("geometric", 3000)))
    between = np.isin(traj.ts, traj.knot_ts, invert=True)
    edges = (traj.t0, *traj.switch_times, math.inf)
    assert len(edges) == 9
    for a, b in zip(edges, edges[1:]):
        segment = (traj.ts >= a) & (traj.ts < b)
        assert np.count_nonzero(segment & between) > 0
        assert np.all(traj.etas[segment] == traj.etas[traj.ts == a])


def test_grid_queries_precede_the_observe_that_closes_their_step():
    noise = _LoggingNoise(2, 0.37)
    traj = integrate(reference_loop(), noise, np.array([1.0, 0.0]), 0.0, 0.9,
                     IntegrationOptions(output_grid=OutputGrid("uniform", 2001)))
    grid_ts = traj.ts[np.isin(traj.ts, traj.knot_ts, invert=True)]
    assert grid_ts.size > 1500
    observed_at = {t: i for i, (call, t) in enumerate(noise.log) if call == "observe"}
    assert list(observed_at) == traj.knot_ts.tolist()
    for a, b in zip(traj.knot_ts, traj.knot_ts[1:]):
        inside = grid_ts[(grid_ts > a) & (grid_ts < b)].tolist()
        queried = [t for call, t in noise.log[observed_at[a]:observed_at[b]]
                   if call == "value" and t in inside]
        assert queried == inside

class _LatchingNoise(_BarrierNoise):
    """Barrier noise whose value changes only when observe reports the switch,
    so a query before that call still answers with the old segment."""

    def __init__(self, n, barrier):
        super().__init__(n, barrier)
        self.level = 0.01

    def value(self, t, x):
        return np.full(self.n, self.level)

    def observe(self, t, x):
        if t == self.barrier:
            self.level = -0.01
            return True
        return False


def test_switch_sample_records_the_post_switch_noise():
    model = reference_loop()
    noise = _LatchingNoise(2, 0.375)
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.75)
    assert traj.switch_times == (0.375,)
    at = traj.ts == 0.375
    assert np.count_nonzero(at) == 1
    assert np.all(traj.etas[at] == -0.01)
    assert np.all(traj.etas[traj.ts < 0.375] == 0.01)
    assert np.all(traj.etas[traj.ts > 0.375] == -0.01)
    # the knot at the switch holds the right-limit derivative
    knot = int(np.flatnonzero(traj.knot_ts == 0.375)[0])
    x_sw = traj.knot_xs[knot]
    np.testing.assert_array_equal(traj.knot_fs[knot], model.rhs(0.375, x_sw, np.full(2, -0.01)))
    assert traj.gains[at][0] == model.gain_output(0.375, x_sw, np.full(2, -0.01))



def test_left_limit_derivative_differs_only_at_a_switch_knot():
    model = reference_loop()
    traj = integrate(model, _LatchingNoise(2, 0.375), np.array([1.0, 0.0]), 0.0, 0.75)
    knot = int(np.flatnonzero(traj.knot_ts == 0.375)[0])
    x_sw = traj.knot_xs[knot]
    np.testing.assert_array_equal(traj.knot_fl[knot], model.rhs(0.375, x_sw, np.full(2, 0.01)))
    others = np.arange(len(traj.knot_ts)) != knot
    assert traj.knot_fl[others].tobytes() == traj.knot_fs[others].tobytes()


def test_dense_output_on_a_step_that_ends_at_a_switch():
    # while the noise eta is held, y = x + eta follows the noise-free loop,
    # so the closed form from the step's opening knot gives the state
    traj = integrate(reference_loop(), controller_divergence_noise(0.01), np.array([0.005, -0.003]),
                     0.0, 1.0 - 1e-9)
    assert len(traj.switch_times) == 7
    for t_sw in traj.switch_times:
        k = int(np.flatnonzero(traj.knot_ts == t_sw)[0]) - 1
        t_k = traj.knot_ts[k]
        eta = traj.etas[traj.ts == t_k][0]
        mid = 0.5 * (t_k + t_sw)
        exact = reference_solution(t_k, traj.knot_xs[k] + eta, mid) - eta
        err = float(np.max(np.abs(traj.state_at(mid) - exact))) / float(np.max(np.abs(exact)))
        assert err <= 1e-6, (t_sw, err)

def _crossing_time(T: float) -> float:
    """Time at which x1 of the reference gains on horizon T, started from
    (1, 0) at t = 0, falls to 1/4: x1 = 3 s^2 - 2 s^3 with s = (T - t) / T."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 3.0 * mid**2 - 2.0 * mid**3 > 0.25:
            hi = mid
        else:
            lo = mid
    return T * (1.0 - 0.5 * (lo + hi))


@pytest.mark.parametrize("T", [1.0, 1e-6])
def test_event_time_is_resolved_relative_to_the_horizon(T):
    model = rational_loop([[(-6.0, 2)], [(-4.0, 1)]], T=T)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.99 * T,
                     stop_condition=lambda t, x: x[0] <= 0.25)
    assert traj.termination.kind == EVENT
    t_exact = _crossing_time(T)
    assert abs(traj.t_last - t_exact) <= 1e-9 * t_exact


def test_span_slack_scales_with_the_horizon():
    T = 1e3
    model = rational_loop([[(-6.0, 2)], [(-4.0, 1)]], T=T)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, T * (1.0 - 1e-8))
    # T - 1e-8 T lies one ulp (1.1e-13) past the end of the run
    assert T - 1e-8 * T > traj.t_last
    np.testing.assert_array_equal(terminal_state(traj, 1e-8 * T), traj.xs[-1])
    with pytest.raises(ValueError):
        traj.state_at(traj.t_last + 1e-9 * T)


class _LyingNoise(NoiseSource):
    def __init__(self):
        self.bound = 1e-3
        self.scalar = True

    def value(self, t, x):
        return 1.0  # far above the declared bound

    def observe(self, t, x):
        return False

    def next_discontinuity(self, t):
        return math.inf


def test_noise_bound_violation_is_reported():
    model = differentiator_error_model()
    with pytest.raises(NumericalFailure):
        integrate(model, _LyingNoise(), np.array([0.0, 0.0]), 0.0, 0.5)


class _StageOnlyViolator(NoiseSource):
    """Within its bound at committed steps, 500 times above it in between."""

    def __init__(self):
        self.bound = 1e-6
        self.scalar = True
        self.committed = 0.0

    def value(self, t, x):
        return self.bound if t == self.committed else 500.0 * self.bound

    def observe(self, t, x):
        self.committed = t
        return False


def test_noise_bound_is_checked_at_stage_queries():
    # the recorded samples alone would all look compliant
    with pytest.raises(NoiseBoundViolation):
        integrate(differentiator_error_model(), _StageOnlyViolator(),
                  np.array([1.0, 0.0]), 0.0, 0.5)


class _StageOnlyVectorViolator(_StageOnlyViolator):
    """The violator's value in the first channel of a control-loop noise."""

    def value(self, t, x):
        return [super().value(t, x), 0.0]


@pytest.mark.parametrize("make_noise", [_StageOnlyViolator, _StageOnlyVectorViolator])
def test_noise_bound_violation_at_a_fused_stage_query_propagates(make_noise):
    # the plain models run the fused step, which must not take the violation
    # for a non-finite stage and retry it with a smaller step
    noise = make_noise()
    model = (differentiator_error_model if make_noise is _StageOnlyViolator else reference_loop)()
    assert type(model).rhs is SystemModel.rhs
    with pytest.raises(NoiseBoundViolation, match="noise bound violated at t="):
        integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.5)
    assert noise.committed == 0.0  # raised in the first trial step


class _FixedNoise(NoiseSource):
    """The same value at every query, held or queried at every stage."""

    def __init__(self, value, held=True, bound=0.1):
        self._value, self.held, self.bound = value, held, bound

    def value(self, t, x):
        return self._value


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("value, shape", [
    ([0.01], "(1,)"), (np.full(3, 0.01), "(3,)"), (0.01, "()"), (np.float64(0.01), "()"),
    (np.full((1, 2), 0.01), "(1, 2)"),
], ids=["list_1", "array_3", "float", "float64", "array_1x2"])
def test_control_noise_of_the_wrong_length_is_rejected_at_the_first_query(value, shape, held):
    # a one-element noise once passed the bound check as a 1-vector and was
    # broadcast to every channel by rhs; the run then failed at its end
    noise = _count_queries(_FixedNoise(value, held))
    with pytest.raises(ValueError, match=re.escape(f"noise at t=0.0 has shape {shape}, not (2,)")):
        integrate(reference_loop(), noise, np.array([1.0, 0.0]), 0.0, 0.5)
    assert noise.calls == 1


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("value, shape", [
    ([0.01], "(1,)"), (np.full(1, 0.01), "(1,)"), (np.full(2, 0.01), "(2,)"),
], ids=["list_1", "array_1", "array_2"])
def test_differentiator_noise_of_the_wrong_shape_is_rejected_at_the_first_query(value, shape, held):
    # float() once turned these into a TypeError from numpy or Python
    noise = _count_queries(_FixedNoise(value, held))
    with pytest.raises(ValueError, match=re.escape(
            f"differentiator noise at t=0.0 has shape {shape}, not ()")):
        integrate(differentiator_error_model(), noise, np.array([1.0, 0.0]), 0.0, 0.5)
    assert noise.calls == 1


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("value", [0.01, np.float64(0.01), np.array(0.01)],
                         ids=["float", "float64", "array_0d"])
def test_differentiator_noise_scalars_are_recorded_as_floats(value, held):
    traj = integrate(differentiator_error_model(), _FixedNoise(value, held),
                     np.array([1.0, 0.0]), 0.0, 0.5)
    assert traj.etas.dtype == np.float64 and traj.etas.shape == (len(traj.ts), 1)
    assert np.all(traj.etas == float(value))


class _CountingLoop(SystemModel):
    """System model that counts its right-hand-side evaluations."""

    calls = 0

    def rhs(self, t, x, eta):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().rhs(t, x, eta)


def _count_queries(noise):
    """The noise source, counting in noise.calls the value queries made from
    outside its own observe."""
    value, observe = noise.value, noise.observe
    noise.calls = 0

    def counted(t, x):
        noise.calls += 1
        return value(t, x)

    def observed(t, x):
        calls = noise.calls
        switched = observe(t, x)
        noise.calls = calls
        return switched

    noise.value, noise.observe = counted, observed
    return noise


def test_reference_run_work_is_pinned():
    ref = reference_loop()
    model = _CountingLoop(ref.variant, ref.horizon, ref.gains)
    noise = _count_queries(ZeroNoise(model.n))
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
    steps = len(traj.knot_ts) - 1
    assert traj.completed
    assert steps == 537
    assert model.calls == 3223 == 1 + 6 * steps  # FSAL, no rejected step
    # ZeroNoise is held: one query after the first observe serves the run
    assert noise.calls == 1


def test_integrate_evaluates_every_stage_through_the_rhs_method(monkeypatch):
    # a wrapper on the class, as the benchmark tracer installs, must see
    # every evaluation _CountingLoop sees in the reference run
    rhs, calls = SystemModel.rhs, []

    def counted(self, t, x, eta):
        calls.append(t)
        return rhs(self, t, x, eta)

    monkeypatch.setattr(SystemModel, "rhs", counted)
    traj = integrate(reference_loop(), None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
    assert traj.completed and len(traj.knot_ts) - 1 == 537
    assert len(calls) == 3223
    # and with a source queried at every stage: the pinned controller_terminal run
    calls.clear()
    noise, plan = controller_terminal_error_noise(reference_loop(), 1e-2, 0.5)
    assert not noise.held
    traj = integrate(reference_loop(), noise, plan.initial_state(), plan.s, 1.0 - 1e-9)
    assert traj.completed and len(traj.knot_ts) - 1 == 137
    assert len(calls) == 871


@pytest.mark.parametrize("make_model, make_noise, steps, calls, switches, queries", [
    (differentiator_error_model, ZeroNoise, 501, 3019, 0, 1),
    (reference_loop, lambda: controller_divergence_noise(1e-2), 893, 5522, 7, 8),
    (differentiator_error_model, lambda: differentiator_divergence_noise(1e-2),
     997, 6605, 4, 6605),
    # runs from the plan's start state at the plan's start time
    (reference_loop, lambda: controller_terminal_error_noise(reference_loop(), 1e-2, 0.5)[0],
     137, 871, 0, 871),
    (differentiator_error_model, lambda: TerminalRampNoise(0.1, 1.0),
     441, 2725, 0, 2725),
], ids=["differentiator", "controller_divergence", "diff_divergence", "controller_terminal",
        "diff_terminal"])
def test_work_beyond_the_reference_run_is_pinned(make_model, make_noise, steps, calls, switches,
                                                 queries):
    src = make_model()
    model = _CountingLoop(src.variant, src.horizon, src.gains)
    noise = _count_queries(make_noise())
    plan = getattr(noise, "plan", None)
    t0, x0 = (0.0, np.array([1.0, -0.5])) if plan is None else (plan.s, plan.initial_state())
    traj = integrate(model, noise, x0, t0, 1.0 - 1e-9)
    assert traj.completed
    assert len(traj.knot_ts) - 1 == steps and len(traj.switch_times) == switches
    # 1 + 6 per trial step + 1 per switch: rejected trial steps make the rest
    assert model.calls == calls > 1 + 6 * steps + switches
    # a held source is queried after the first observe and after each
    # switch; any other source once per right-hand side, since a committed
    # step records the noise its last stage queried
    assert noise.calls == queries == (1 + switches if noise.held else model.calls)


_PATH_RUNS = {
    "reference": (reference_loop, lambda: None, (1.0, 0.0)),
    "differentiator": (differentiator_error_model, lambda: None, (1.0, -0.5)),
    "controller_divergence": (reference_loop, lambda: controller_divergence_noise(1e-2),
                              (1.0, -0.5)),
}


@pytest.mark.parametrize("run", list(_PATH_RUNS))
def test_method_path_and_direct_kernel_give_the_same_run(run):
    # the plain model's compiled kernel is called directly; _CountingLoop's
    # pass-through override is called as a method
    make_model, make_noise, x0 = _PATH_RUNS[run]
    src = make_model()
    counted = _CountingLoop(src.variant, src.horizon, src.gains)
    a, b = (integrate(model, make_noise(), np.array(x0), 0.0, 1.0 - 1e-9)
            for model in (src, counted))
    assert counted.calls >= 1 + 6 * (len(b.knot_ts) - 1)
    for name in ("ts", "xs", "etas", "gains", "knot_ts", "knot_xs", "knot_fs", "knot_fl"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.switch_times == b.switch_times and a.termination == b.termination


def test_a_peak_just_below_max_norm_completes():
    model, x0 = rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]]), np.array([1.0, 0.5, -2.0])
    free = integrate(model, None, x0, 0.0, 1.0 - 1e-9)
    # the root of each state's float sum of squares, in channel order, decides
    # to the last bit (the start is not checked)
    norms = [math.sqrt(a * a + b * b + c * c) for a, b, c in free.knot_xs[1:].tolist()]
    peak = max(norms)
    for max_norm in (peak / 0.99, math.nextafter(peak, math.inf)):
        traj = integrate(model, None, x0, 0.0, 1.0 - 1e-9, IntegrationOptions(max_norm=max_norm))
        assert traj.completed
        assert traj.knot_xs.tobytes() == free.knot_xs.tobytes()
    traj = integrate(model, None, x0, 0.0, 1.0 - 1e-9, IntegrationOptions(max_norm=peak))
    assert traj.termination.kind == BLOW_UP
    assert traj.termination.blow_up.norm == peak
    assert traj.termination.t == free.knot_ts[1 + norms.index(peak)]


def test_barriers_are_queried_once_per_committed_step():
    # the pinned diff-divergence run, which rejects trial steps
    src = differentiator_error_model()
    model = _CountingLoop(src.variant, src.horizon, src.gains)
    noise = differentiator_divergence_noise(1e-2)
    queried = {"noise": [], "disturbance": []}

    def counting(source, name):
        method = source.next_discontinuity
        # an instance attribute shadows the method, also on a frozen dataclass
        object.__setattr__(source, "next_discontinuity",
                           lambda t: queried[name].append(t) or method(t))

    counting(noise, "noise")
    counting(model.disturbance, "disturbance")
    traj = integrate(model, noise, np.array([1.0, -0.5]), 0.0, 1.0 - 1e-9)
    steps = len(traj.knot_ts) - 1
    assert traj.completed and steps == 997
    assert model.calls > 1 + 6 * steps + len(traj.switch_times)
    # at the start and after every commit but the last
    assert queried["noise"] == queried["disturbance"] == traj.knot_ts[:-1].tolist()


def test_a_run_that_uses_up_its_step_budget_ends_with_step_budget(monkeypatch):
    # this stiff table needs over 100k trial steps to reach the floor
    monkeypatch.setattr(integrate_module, "MAX_TRIAL_STEPS", 200)
    src = rational_diff_error([[(-6.0, 2)], [(-4.0, 1)]])
    model = _CountingLoop(src.variant, src.horizon, src.gains)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
    assert traj.termination.kind == STEP_BUDGET
    assert traj.termination.t == traj.t_last < 0.9
    # the budget counts trial steps: 198 accepted and 2 rejected
    assert len(traj.knot_ts) - 1 == 198 and model.calls == 1 + 6 * 200
    with pytest.raises(NumericalFailure, match="integration stopped early: step_budget"):
        _require_complete(traj)


def test_stage_queries_get_the_stage_state_as_a_list_of_floats():
    """Without a grid or a stop event, a source that is not held gets a list
    of floats at every query: at each stage and at the committed steps, the
    start and the switches among them, and so does observe; the fused and
    the call-through step query alike."""
    src = differentiator_error_model()
    counted, logs = _CountingLoop(src.variant, src.horizon, src.gains), []
    for model in (src, counted):
        noise = differentiator_divergence_noise(1e-2)
        assert not noise.held
        value, observe = noise.value, noise.observe
        queries, observed_states = [], []

        def logged(t, x):
            queries.append((t, type(x) is list and all(type(v) is float for v in x)))
            return value(t, x)

        def observed(t, x):
            own = len(queries)
            observed_states.append(type(x) is list and all(type(v) is float for v in x))
            switched = observe(t, x)
            del queries[own:]  # the source's own value calls inside observe
            return switched

        noise.value, noise.observe = logged, observed
        traj = integrate(model, noise, np.array([1.0, -0.5]), 0.0, 1.0 - 1e-9)
        assert len(traj.switch_times) == 4
        assert all(floats for _, floats in queries) and all(observed_states)
        logs.append(queries)
    assert logs[0] == logs[1] and len(logs[1]) == counted.calls


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=3))
def test_float_reductions_equal_the_numpy_norms(values):
    """Reductions on a state, which a committed step passes as a list: the
    max norm of the deadzone stop condition is numpy's bit for bit, and
    math.hypot, the 2-norm of the divergence noise's observe and the falsify
    stop condition, lies within an ulp of numpy's wherever numpy's squares
    neither overflow nor underflow (numpy's dot rounds per BLAS kernel)."""
    x = np.array(values)
    with np.errstate(over="ignore"):  # large entries overflow the square sum to inf
        assert np.float64(math.sqrt(x.dot(x))).tobytes() == np.linalg.norm(x).tobytes()
        assert x.dot(x).tobytes() == (x @ x).tobytes()
        norm = float(np.linalg.norm(x))
    assert np.float64(max(map(abs, x.tolist()))).tobytes() == np.max(np.abs(x)).tobytes()
    assert np.float64(max(map(abs, values))).tobytes() == np.max(np.abs(x)).tobytes()
    if 1e-150 < norm < math.inf:
        assert abs(math.hypot(*values) - norm) <= math.ulp(norm)


_EDGE_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@settings(max_examples=1000, deadline=None)
@given(_EDGE_FLOATS, _EDGE_FLOATS, st.floats(min_value=1e-300, max_value=1.0),
       st.floats(min_value=1e-300, max_value=1.0))
def test_inline_max_of_the_error_norm_is_pythons_max(x, s, abs_tol, rel_tol):
    """The compiled step's error scale takes b if b > a else a on a = |x|,
    b = |s|: the same float object as max(a, b), NaN and signed zeros
    included, so the denominator abs_tol + rel_tol * m is bit for bit."""
    a, b = abs(x), abs(s)
    m = b if b > a else a
    assert m is max(a, b)
    assert (np.float64(abs_tol + rel_tol * m).tobytes()
            == np.float64(abs_tol + rel_tol * max(abs(x), abs(s))).tobytes())


@settings(max_examples=1000, deadline=None)
@given(_EDGE_FLOATS | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308,
                                       2.225073858507201e-308, sys.float_info.max,
                                       -sys.float_info.max]))
def test_inline_finiteness_check_is_isfinite(v):
    """The compiled right-hand side checks each output v with v - v == 0.0:
    True on every finite double, signed zeros, subnormals and the largest
    double included, and False on +-inf and NaN, as math.isfinite."""
    assert (v - v == 0.0) is math.isfinite(v)


_HELD_SOURCES = {
    "zero_vector": (reference_loop, lambda: ZeroNoise(2)),
    "zero_scalar": (differentiator_error_model, ZeroNoise),
    "controller_divergence": (reference_loop, lambda: controller_divergence_noise(1e-2)),
    "constant_vector": (reference_loop,
                        lambda: _FixedNoise(np.array([0.0, -1e-3]), bound=1e-2)),
}
_RUN_KINDS = {
    "plain": {},
    "uniform_grid": {"opts": IntegrationOptions(output_grid=OutputGrid("uniform", 2001))},
    # fires after five of the divergence noise's seven switches
    "stop_condition": {"stop_condition": lambda t, x: t >= 0.9998 and abs(x[0]) <= 0.25},
}


@pytest.mark.parametrize("run", list(_RUN_KINDS))
@pytest.mark.parametrize("source", list(_HELD_SOURCES))
def test_held_source_gives_the_run_of_per_stage_queries(source, run):
    make_model, make_noise = _HELD_SOURCES[source]
    trajs = []
    for held in (True, False):
        noise = make_noise()
        assert noise.held
        noise.held = held  # False: the same source, queried at every stage and sample
        trajs.append(integrate(make_model(), noise, np.array([1.0, -0.5]), 0.0, 1.0 - 1e-9,
                               **_RUN_KINDS[run]))
    a, b = trajs
    assert (a.termination.kind == EVENT) == (run == "stop_condition")
    for name in ("ts", "xs", "etas", "gains", "knot_ts", "knot_xs", "knot_fs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert np.array(a.switch_times).tobytes() == np.array(b.switch_times).tobytes()
    assert a.termination == b.termination


def test_held_source_over_its_bound_fails_on_the_first_query():
    noise = _count_queries(_FixedNoise(np.array([0.0, 2e-2]), bound=1e-2))
    with pytest.raises(NoiseBoundViolation):
        integrate(reference_loop(), noise, np.array([1.0, 0.0]), 0.0, 0.5)
    assert noise.calls == 1


def _forward_sum(coefs, terms):
    """Sum of c * term over the nonzero coefficients, added in order."""
    products = [c * term for c, term in zip(coefs, terms) if c != 0.0]
    total = products[0]
    for p in products[1:]:
        total = total + p
    return total


def _numpy_reference_knots(model, x0, t_end):
    """Knot times, states and derivatives of a noise-free run from t = 0 with
    the default options, by the stepper's arithmetic written as numpy array
    operations, each sum added term by term in tableau order (numpy's dot
    and sum would choose their own order): the reference for integrate's
    unrolled float step."""
    opts = IntegrationOptions()
    T, n = model.T, model.n
    eta = model.zero_noise().value(0.0, None)
    t, x = 0.0, np.array(x0, dtype=float)
    f = np.array(model.rhs(t, x, eta))
    ts, xs, fs = [t], [x], [f]
    h_try = max(min(1e-3 * t_end, opts.max_step_fraction * T), 1e-13 * T)
    while t < t_end:
        h_cap = opts.max_step_fraction * (T - t)
        h = min(h_try, h_cap, t_end - t)
        if t_end - t <= min(h_try, h_cap):
            h = t_end - t
        k = [f]
        for c, arow in _DP_STAGES:
            k.append(np.array(model.rhs(t + c * h, x + h * _forward_sum(arow, k), eta)))
        x_new = x + h * _forward_sum(_DP_B, k)
        t_new = t_end if t + h >= t_end else t + h
        k.append(np.array(model.rhs(t_new, x_new, eta)))
        q = h * _forward_sum(_DP_E, k) / (
            opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x_new)))
        sq = 0.0
        for square in (q * q).tolist():
            sq += square
        err = math.sqrt(sq / n)
        if not err <= 1.0:
            h_try = h * max(0.2, 0.9 * err ** -0.2)
            continue
        t, x, f = t_new, x_new, k[6]
        ts.append(t)
        xs.append(x)
        fs.append(f)
        h_try = h * (10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2)))
    return np.array(ts), np.array(xs), np.array(fs)


@pytest.mark.parametrize("model, x0", [
    (reference_loop(), (1.0, 0.0)),
    (differentiator_error_model(), (1.0, -0.5)),
    (rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]]), (1.0, 0.5, -2.0)),
    # eight channels, where numpy's own sum would switch to pairwise order
    (rational_loop([[(-2.0, 1)]] * 8), tuple(np.linspace(-1.0, 2.0, 8))),
], ids=["reference", "differentiator", "rational_3", "rational_8"])
def test_stepper_matches_its_numpy_reference_bit_for_bit(model, x0):
    t_end = 1.0 - 1e-9
    traj = integrate(model, None, np.array(x0), 0.0, t_end)
    ts, xs, fs = _numpy_reference_knots(model, x0, t_end)
    assert traj.knot_ts.tobytes() == ts.tobytes()
    assert traj.knot_xs.tobytes() == xs.tobytes()
    assert traj.knot_fs.tobytes() == fs.tobytes()


# a control loop with n = 2..9 channels, each of up to two terms c / (T - t)**p
# with p <= 1 (pole order 2 soon blows up or stiffens here), and its start
_random_tables = st.integers(min_value=2, max_value=9).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.tuples(st.floats(min_value=-2.0, max_value=0.5),
                                st.integers(min_value=0, max_value=1)), max_size=2),
             min_size=n, max_size=n),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(_random_tables)
def test_stepper_matches_its_numpy_reference_on_random_tables(case):
    """Tables of 2 to 9 channels, each with its own compiled step."""
    tables, x0 = case
    model, t_end = rational_loop(tables), 1.0 - 1e-3
    traj = integrate(model, None, np.array(x0), 0.0, t_end)
    assert traj.completed
    ts, xs, fs = _numpy_reference_knots(model, x0, t_end)
    assert traj.knot_ts.tobytes() == ts.tobytes()
    assert traj.knot_xs.tobytes() == xs.tobytes()
    assert traj.knot_fs.tobytes() == fs.tobytes()


# the reference run and selftest's controller divergence ladder, whose
# recorded states are printed as the hex of their bytes
_KERNEL_PROBE = """
import numpy as np
from tvglab import integrate, reference_loop, run_divergence_attack
ref = integrate(reference_loop(), None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
attack = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2)
print(ref.xs.tobytes().hex(), attack.trajectory.xs.tobytes().hex())
"""


def test_runs_are_bit_identical_under_every_openblas_kernel():
    # OpenBLAS picks a kernel per CPU, and kernels round dot products
    # differently; the step makes no BLAS call, so forcing another kernel
    # changes no bit of a run
    src = str(Path(integrate_module.__file__).resolve().parent.parent)
    outputs = []
    for core in (None, "Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].strip() and outputs[0] == outputs[1] == outputs[2]


def test_runs_with_one_channel_count_share_one_compiled_step():
    """A fused loop is compiled once per model shape (variant, pole orders,
    zero disturbance or not) and noise kind; the call-through loop once per
    channel count and noise kind."""
    loop_factory = integrate_module._loop_factory
    loop_factory.cache_clear()
    x0 = np.array([1.0, -0.5])
    # one shape with other coefficients and another T
    for model in (reference_loop(), rational_loop([[(-3.0, 2)], [(-2.0, 1)]], T=2.0)):
        integrate(model, None, x0, 0.0, 0.5)
    assert loop_factory.cache_info()[:2] == (1, 1)  # hits, misses
    # other pole orders, the other variant, a nonzero disturbance: a loop each
    for model in (rational_loop([[(-3.0, 1)], [(-2.0, 0)]]), differentiator_error_model(),
                  reference_loop(DisturbanceSpec(kind="constant", bound=0.1, value=0.1))):
        integrate(model, None, x0, 0.0, 0.5)
    assert loop_factory.cache_info()[:2] == (1, 4)
    integrate(differentiator_error_model(), differentiator_divergence_noise(1e-2), x0, 0.0, 0.5)
    assert loop_factory.cache_info()[:2] == (1, 5)  # not held: a loop of its own
    # a class that overrides rhs: every two-channel shape shares one loop
    for src in (reference_loop(), differentiator_error_model(),
                rational_loop([[(-3.0, 1)], [(-2.0, 0)]])):
        integrate(_CountingLoop(src.variant, src.horizon, src.gains), None, x0, 0.0, 0.5)
    assert loop_factory.cache_info()[:2] == (3, 6)


def _constants(code):
    """Every constant of a code object and of the code objects nested in it."""
    for c in code.co_consts:
        yield from _constants(c) if hasattr(c, "co_consts") else (c,)


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("n", [2, 7, 8, 9])
def test_compiled_step_holds_no_float_literal(n, held):
    """The tableau, step-control constants, tolerances, T and the model's
    coefficients are bound by name, never formatted in; a fused loop's only
    float literal is the 0.0 of its right-hand side (each gain's sum starts
    there, u and the finiteness checks compare with it, a zero disturbance
    is it)."""
    shapes = [None, (CONTROL_LOOP, ((2, 0),) * n, True), (DIFF_ERROR, ((0, 1, 2),) * n, False)]
    for shape in shapes:
        make = integrate_module._loop_factory(n, held, shape)
        constants = list(_constants(make.__code__))
        floats = {c for c in constants if isinstance(c, float)}
        assert constants and floats == (set() if shape is None else {0.0})


class _NanStageLoop(SystemModel):
    """Reference loop whose right-hand side returns NaN, without raising,
    at the given stage of the given trial step (1 + 6 calls per step)."""

    calls = 0
    nan_call = 0

    def rhs(self, t, x, eta):
        object.__setattr__(self, "calls", self.calls + 1)
        if self.calls == self.nan_call:
            return np.full(self.n, math.nan)
        return super().rhs(t, x, eta)


@pytest.mark.parametrize("stage", range(1, 7))
def test_non_finite_stage_is_rejected(stage):
    ref = reference_loop()
    clean = integrate(ref, None, np.array([1.0, 0.0]), 0.0, 0.5)
    model = _NanStageLoop(ref.variant, ref.horizon, ref.gains)
    object.__setattr__(model, "nan_call", 1 + 6 * 10 + stage)  # in the 11th trial step
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.5)
    assert traj.completed
    assert np.all(np.isfinite(traj.xs)) and np.all(np.isfinite(traj.knot_fs))
    # the first ten steps match the clean run; the rejected trial is retried
    # with half its step
    assert np.array_equal(traj.knot_ts[:11], clean.knot_ts[:11])
    h_trial = clean.knot_ts[11] - clean.knot_ts[10]
    assert traj.knot_ts[11] - traj.knot_ts[10] == pytest.approx(0.5 * h_trial, rel=1e-9)
    assert np.allclose(traj.xs[-1], reference_solution(0.0, (1.0, 0.0), 0.5), rtol=1e-9, atol=1e-12)


class _FailureCountingLoop(SystemModel):
    """System model that counts the NumericalFailures its rhs raises."""

    failures = 0

    def rhs(self, t, x, eta):
        try:
            return super().rhs(t, x, eta)
        except NumericalFailure:
            object.__setattr__(self, "failures", self.failures + 1)
            raise


def test_overflowing_gain_is_rejected_on_the_fused_path_as_through_rhs():
    # -1e300 / u**20 overflows to -inf once u < 0.387; on the zero state the
    # controller output is then NaN, and every trial step that reaches it is
    # rejected and retried with half its step until the step floor
    src = rational_loop([[(-1e300, 20)], [(-4.0, 1)]])
    counted = _FailureCountingLoop(src.variant, src.horizon, src.gains)
    a, b = (integrate(model, None, np.array([0.0, 0.0]), 0.0, 0.9) for model in (src, counted))
    assert counted.failures > 10
    assert a.termination.kind == STEP_UNDERFLOW and a.termination == b.termination
    assert math.isfinite(1e300 / (1.0 - a.t_last) ** 20)
    assert not math.isfinite(1e300 / (1.0 - a.t_last - 1e-9) ** 20)
    for name in ("knot_ts", "knot_xs", "knot_fs", "etas"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("variant", [CONTROL_LOOP, DIFF_ERROR])
def test_underflowing_gain_power_is_rejected_on_the_fused_path_as_through_rhs(variant):
    # u**40 underflows to 0.0 once u < 8.1e-9, and 0.0 / u**40 divides by
    # zero: every trial step that reaches it is rejected like a non-finite
    # stage, and halved until the step floor ends the run
    make = rational_loop if variant == CONTROL_LOOP else rational_diff_error
    src = make([[(0.0, 40)], [(-1.0, 1)]])
    eta = [0.0, 0.0] if variant == CONTROL_LOOP else 0.0
    with pytest.raises(NumericalFailure, match="gain power underflows to 0.0 at t="):
        src.rhs(1.0 - 1e-9, [1.0, 0.0], eta)
    counted = _FailureCountingLoop(src.variant, src.horizon, src.gains)
    a, b = (integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9) for model in (src, counted))
    assert counted.failures > 10
    assert a.termination.kind == STEP_UNDERFLOW and a.termination == b.termination
    assert 0.0 < (1.0 - a.t_last) ** 40 and 1.0 - a.t_last < 1e-8
    for name in ("knot_ts", "knot_xs", "knot_fs", "etas"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class _WaveNoise(NoiseSource):
    """Noise queried at every stage that depends on time and state: a list
    of n floats, or a float when n is None."""

    def __init__(self, n, bound=1e-2):
        self.n, self.bound = n, bound

    def value(self, t, x):
        if self.n is None:
            return 0.5 * self.bound * math.sin(40.0 * t + x[0])
        return [0.5 * self.bound / self.n * math.sin(40.0 * t + j + x[j]) for j in range(self.n)]


_DISTURBANCES = [None, DisturbanceSpec(kind="constant", bound=0.1, value=-0.1),
                 DisturbanceSpec(kind="sinusoid", bound=0.1, amplitude=0.1, frequency=3.0),
                 DisturbanceSpec(kind="piecewise", bound=0.2, samples=((0.2, 0.2), (0.55, -0.1)))]


@settings(max_examples=60, deadline=None)
@given(_random_tables, st.sampled_from([CONTROL_LOOP, DIFF_ERROR]), st.booleans(),
       st.sampled_from(_DISTURBANCES), st.sampled_from([None, 0.3, 0.9]))
def test_fused_step_equals_the_call_through_step(case, variant, held, disturbance, t_stop):
    """A plain model runs the loop with its right-hand side fused in; the
    same model through a class whose rhs calls the base method runs the loop
    that calls rhs at every stage.  Both give the same run, bit for bit,
    with a 64-point output grid (queried at its points by a source that is
    not held) and, unless t_stop is None, a stop condition that ends the run
    at t_stop from inside the loop."""
    tables, x0 = case
    n = len(tables)
    make = rational_loop if variant == CONTROL_LOOP else rational_diff_error
    src = make(tables, disturbance=disturbance)
    through = _CountingLoop(src.variant, src.horizon, src.gains, src.disturbance)
    opts = IntegrationOptions(output_grid=OutputGrid("uniform", 64))
    stop = None if t_stop is None else (lambda t, x: t >= t_stop)
    runs = []
    for model in (src, through):
        vector = variant == CONTROL_LOOP
        noise = (_FixedNoise([1e-3 * (j + 1) for j in range(n)] if vector else -2e-3) if held
                 else _WaveNoise(n if vector else None))
        runs.append(integrate(model, noise, np.array(x0), 0.0, 1.0 - 1e-3, opts, stop))
    a, b = runs
    assert through.calls >= 1 + 6 * (len(b.knot_ts) - 1)
    for name in ("ts", "xs", "etas", "gains", "knot_ts", "knot_xs", "knot_fs", "knot_fl"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.termination == b.termination
    if t_stop is not None:
        assert a.termination.kind == EVENT and a.termination.t == pytest.approx(t_stop, abs=1e-11)
    assert len(a.ts) > len(a.knot_ts)  # grid points fall inside steps


def test_recorded_noise_is_not_aliased():
    model = reference_loop()
    noise = _BarrierNoise(2, 0.37)
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.9)
    before = traj.ts < 0.37
    after = traj.ts > 0.37
    assert np.all(traj.etas[before] == 0.01)
    assert np.all(traj.etas[after] == -0.01)


_ENDS_ONLY = IntegrationOptions(output_grid=OutputGrid(kind="uniform", count=2))
_INTERIOR = IntegrationOptions(output_grid=OutputGrid(kind="uniform", count=700))


@pytest.mark.parametrize("model, noise, opts, stop", [
    (reference_loop(), lambda: _BarrierNoise(2, 0.37), None, None),
    (differentiator_error_model(), lambda: _WaveNoise(None), None, None),
    # a uniform grid of two points: t0 and t_end, both knots
    (reference_loop(), lambda: _WaveNoise(2), _ENDS_ONLY, None),
    # t_end lies past the event, outside the span
    (reference_loop(), lambda: _BarrierNoise(2, 0.37), _ENDS_ONLY, lambda t, x: x[0] <= 0.25),
    (differentiator_error_model(), lambda: _WaveNoise(None), None, lambda t, x: x[0] <= 0.5),
], ids=["held_switch", "queried_scalar", "grid_on_knots", "grid_outside_event_span", "event"])
def test_sample_table_without_grid_samples_is_the_knot_table(model, noise, opts, stop):
    x0 = np.array([1.0, 0.0])
    traj = integrate(model, noise(), x0, 0.0, 0.9, opts, stop_condition=stop)
    assert (traj.termination.kind == EVENT) == (stop is not None)
    assert traj.ts.tobytes() == traj.knot_ts.tobytes()
    assert traj.xs.tobytes() == traj.knot_xs.tobytes()
    # the knot noise, as the rows of a run with grid samples inside steps record it
    dense = integrate(model, noise(), x0, 0.0, 0.9, _INTERIOR, stop_condition=stop)
    assert dense.knot_ts.tobytes() == traj.knot_ts.tobytes() and len(dense.ts) > len(traj.ts)
    assert traj.etas.tobytes() == dense.etas[np.isin(dense.ts, dense.knot_ts)].tobytes()
    assert traj.etas.shape == (len(traj.ts), 2 if model.variant == CONTROL_LOOP else 1)
    knots = [a.copy() for a in (traj.knot_ts, traj.knot_xs)]
    traj.ts[:] = -1.0
    traj.xs[:] = -1.0
    assert [a.tobytes() for a in (traj.knot_ts, traj.knot_xs)] == [a.tobytes() for a in knots]


def test_terminal_state_reads_the_requested_distance():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-4)
    x = terminal_state(traj, 1e-3)
    exact = reference_solution(0.0, (1.0, 0.0), 1.0 - 1e-3)
    assert np.allclose(x, exact, atol=1e-9)
    with pytest.raises(ValueError):
        terminal_state(traj, 1e-6)  # closer than the integrated span


def test_detect_peaks_reports_first_crossings():
    model = open_loop_chain()
    traj = integrate(model, None, np.array([0.0, 1.0]), 0.0, 0.9,
                     IntegrationOptions(output_grid=OutputGrid(kind="uniform", count=1001)))
    # norm grows from 1 toward sqrt(0.81 + 1) ~ 1.345 on this span
    crossings = detect_peaks(traj, (1.1, 1.3, 2.0))
    assert crossings[0][0] == 1.1 and crossings[0][1] is not None
    assert crossings[1][0] == 1.3 and crossings[1][1] is not None
    assert crossings[0][1] < crossings[1][1]
    assert crossings[2][1] is None  # never reached


def _gain_record_runs():
    """(model, trajectory) pairs over both variants, both grid kinds, a
    switching source on each variant and a stop-event run."""
    loop, diff = reference_loop(), differentiator_error_model()
    uniform = IntegrationOptions(output_grid=OutputGrid(kind="uniform", count=700))
    geometric = IntegrationOptions(output_grid=OutputGrid(kind="geometric", count=700))
    x0 = np.array([1.0, -0.5])
    return [
        (loop, integrate(loop, None, x0, 0.0, 1.0 - 1e-6, geometric)),
        (loop, integrate(loop, controller_divergence_noise(0.01), x0, 0.0, 1.0 - 1e-6, uniform)),
        (loop, integrate(loop, None, np.array([1.0, 0.0]), 0.0, 0.9, uniform,
                         stop_condition=lambda t, x: x[0] <= 0.25)),
        (diff, integrate(diff, None, x0, 0.0, 1.0 - 1e-6, uniform)),
        (diff, integrate(diff, differentiator_divergence_noise(1e-3), x0, 0.0, 1.0 - 1e-6,
                         geometric)),
    ]


def test_gain_record_matches_model_output():
    """The batched gains column equals the scalar gain_output, bit for bit,
    at every sample."""
    runs = _gain_record_runs()
    assert runs[1][1].switch_times and runs[4][1].switch_times
    assert runs[2][1].termination.kind == EVENT
    for model, traj in runs:
        expected = [model.gain_output(t, x, e) for t, x, e in zip(traj.ts, traj.xs, traj.etas)]
        assert traj.gains.tobytes() == np.array(expected).tobytes()


class _CountingModel(SystemModel):
    """A system model that records every gain_output call."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "gain_calls", [])

    def gain_output(self, t, x, eta):
        self.gain_calls.append(np.shape(t))
        return super().gain_output(t, x, eta)


def test_one_gain_output_call_per_run():
    src = reference_loop()
    model = _CountingModel(src.variant, src.horizon, src.gains)
    grid = IntegrationOptions(output_grid=OutputGrid(kind="geometric", count=300))
    traj = integrate(model, controller_divergence_noise(0.01), np.array([1.0, 0.0]),
                     0.0, 1.0 - 1e-6, grid)
    assert model.gain_calls == [traj.ts.shape]
    model.gain_calls.clear()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.9,
                     stop_condition=lambda t, x: x[0] <= 0.25)
    assert traj.termination.kind == EVENT
    assert model.gain_calls == [traj.ts.shape]


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationOptions(max_step_fraction=1.5)
    with pytest.raises(ValueError):
        OutputGrid(kind="log", count=10)
    with pytest.raises(ValueError):
        OutputGrid(kind="uniform", count=1)
