"""Adaptive stepper: accuracy, noise handling, events, termination."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvglab.attack import (
    DifferentiatorDivergenceNoise,
    DifferentiatorTerminalNoise,
    _ConstantVectorNoise,
    controller_divergence_noise,
    controller_terminal_error_noise,
    default_targets,
    differentiator_divergence_noise,
)
from tvglab.core import (
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
    assert steps == 493
    assert model.calls == 2959 == 1 + 6 * steps  # FSAL, no rejected step
    # ZeroNoise is held: one query after the first observe serves the run
    assert noise.calls == 1


@pytest.mark.parametrize("make_model, make_noise, steps, calls, switches, queries", [
    (differentiator_error_model, ZeroNoise, 469, 2839, 0, 1),
    (reference_loop, lambda: controller_divergence_noise(1e-2), 782, 4808, 7, 8),
    (differentiator_error_model, lambda: differentiator_divergence_noise(1e-2),
     849, 5489, 4, 5489),
    # runs from the plan's start state at the plan's start time
    (reference_loop, lambda: controller_terminal_error_noise(reference_loop(), 1e-2, 0.5)[0],
     134, 817, 0, 817),
    (differentiator_error_model, lambda: DifferentiatorTerminalNoise(0.1, 1.0),
     402, 2431, 0, 2431),
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
    """A source that is not held is queried with an array only after the
    first observe and after each switch; every stage query gets a list."""
    src = differentiator_error_model()
    model = _CountingLoop(src.variant, src.horizon, src.gains)
    noise = differentiator_divergence_noise(1e-2)
    assert not noise.held
    value, observe = noise.value, noise.observe
    queries = []

    def logged(t, x):
        queries.append((t, type(x), all(type(v) is float for v in x)))
        return value(t, x)

    def observed(t, x):
        own = len(queries)
        switched = observe(t, x)
        del queries[own:]  # the source's own value calls inside observe
        return switched

    noise.value, noise.observe = logged, observed
    traj = integrate(model, noise, np.array([1.0, -0.5]), 0.0, 1.0 - 1e-9)
    assert len(traj.switch_times) == 4 and len(queries) == model.calls
    assert [t for t, kind, _ in queries if kind is not list] == [0.0, *traj.switch_times]
    assert {kind for _, kind, _ in queries} == {list, np.ndarray}
    assert all(floats for _, kind, floats in queries if kind is list)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=3))
def test_float_reductions_equal_the_numpy_norms(values):
    """The per-step reductions on a state, bit for bit: the 2-norm of the
    blow-up check, the divergence noise and the falsify stop condition, and
    the max norm of the deadzone stop condition."""
    x = np.array(values)
    with np.errstate(over="ignore"):  # large entries overflow the square sum to inf
        assert np.float64(math.sqrt(x.dot(x))).tobytes() == np.linalg.norm(x).tobytes()
        assert x.dot(x).tobytes() == (x @ x).tobytes()
    assert np.float64(max(map(abs, x.tolist()))).tobytes() == np.max(np.abs(x)).tobytes()


_HELD_SOURCES = {
    "zero_vector": (reference_loop, lambda: ZeroNoise(2)),
    "zero_scalar": (differentiator_error_model, ZeroNoise),
    "controller_divergence": (reference_loop, lambda: controller_divergence_noise(1e-2)),
    "constant_vector": (reference_loop,
                        lambda: _ConstantVectorNoise(np.array([0.0, -1e-3]), 1e-2)),
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
    noise = _count_queries(_ConstantVectorNoise(np.array([0.0, 2e-2]), 1e-2))
    with pytest.raises(NoiseBoundViolation):
        integrate(reference_loop(), noise, np.array([1.0, 0.0]), 0.0, 0.5)
    assert noise.calls == 1


def _numpy_reference_knots(model, x0, t_end):
    """Knot times, states and derivatives of a noise-free run from t = 0 with
    the default options, by the stepper's arithmetic written as numpy array
    operations: the reference for integrate's elementwise work on Python
    floats."""
    opts = IntegrationOptions()
    T, n = model.T, model.n
    eta = model.zero_noise().value(0.0, None)
    t, x = 0.0, np.array(x0, dtype=float)
    f = model.rhs(t, x, eta)
    ts, xs, fs = [t], [x], [f]
    h_try = max(min(1e-3 * t_end, opts.max_step_fraction * T), 1e-13 * T)
    while t < t_end:
        h_cap = opts.max_step_fraction * (T - t)
        h = min(h_try, h_cap, t_end - t)
        if t_end - t <= min(h_try, h_cap):
            h = t_end - t
        k = np.empty((7, n))
        k[0] = f
        for i, (c, arow) in enumerate(_DP_STAGES, start=1):
            xs_i = x + h * np.dot(arow, k[:i])
            k[i] = model.rhs(t + c * h, xs_i, eta)
        x_new = x + h * np.dot(_DP_B, k[:6])
        t_new = t_end if t + h >= t_end else t + h
        k[6] = model.rhs(t_new, x_new, eta)
        q = h * np.dot(_DP_E, k) / (
            opts.abs_tol + opts.rel_tol * np.maximum(np.abs(x), np.abs(x_new)))
        err = math.sqrt(float((q * q).sum()) / n)
        if not err <= 1.0:
            h_try = h * max(0.2, 0.9 * err ** -0.2)
            continue
        t, x, f = t_new, x_new, k[6].copy()
        ts.append(t)
        xs.append(x)
        fs.append(f)
        h_try = h * (10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.2)))
    return np.array(ts), np.array(xs), np.array(fs)


@pytest.mark.parametrize("model, x0", [
    (reference_loop(), (1.0, 0.0)),
    (differentiator_error_model(), (1.0, -0.5)),
    (rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]]), (1.0, 0.5, -2.0)),
    # from eight channels on, numpy sums the error terms pairwise, not in order
    (rational_loop([[(-2.0, 1)]] * 8), tuple(np.linspace(-1.0, 2.0, 8))),
], ids=["reference", "differentiator", "rational_3", "rational_8"])
def test_stepper_matches_its_numpy_reference_bit_for_bit(model, x0):
    t_end = 1.0 - 1e-9
    traj = integrate(model, None, np.array(x0), 0.0, t_end)
    ts, xs, fs = _numpy_reference_knots(model, x0, t_end)
    assert traj.knot_ts.tobytes() == ts.tobytes()
    assert traj.knot_xs.tobytes() == xs.tobytes()
    assert traj.knot_fs.tobytes() == fs.tobytes()


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


def test_recorded_noise_is_not_aliased():
    model = reference_loop()
    noise = _BarrierNoise(2, 0.37)
    traj = integrate(model, noise, np.array([1.0, 0.0]), 0.0, 0.9)
    before = traj.ts < 0.37
    after = traj.ts > 0.37
    assert np.all(traj.etas[before] == 0.01)
    assert np.all(traj.etas[after] == -0.01)


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
