"""Adaptive stepper: accuracy, noise handling, events, termination."""

import math

import numpy as np
import pytest

from tvglab.core import (
    NoiseBoundViolation,
    NoiseSource,
    NumericalFailure,
    SystemModel,
    differentiator_error_model,
    open_loop_chain,
    reference_loop,
)
from tvglab.integrate import (
    BLOW_UP,
    EVENT,
    REACHED_END,
    STEP_UNDERFLOW,
    IntegrationOptions,
    OutputGrid,
    detect_peaks,
    integrate,
    terminal_state,
)
from tvglab.oracle import reference_solution


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
    """Reference loop that counts its right-hand-side evaluations."""

    calls = 0

    def rhs(self, t, x, eta):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().rhs(t, x, eta)


def test_reference_run_work_is_pinned():
    ref = reference_loop()
    model = _CountingLoop(ref.variant, ref.horizon, ref.gains)
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-9)
    steps = len(traj.knot_ts) - 1
    assert traj.completed
    assert steps == 493
    assert model.calls == 2959 == 1 + 6 * steps  # FSAL, no rejected step


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


def test_gain_record_matches_model_output():
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.5)
    k = len(traj.ts) // 2
    expected = model.gain_output(traj.ts[k], traj.xs[k], traj.etas[k])
    assert traj.gains[k] == pytest.approx(expected, rel=1e-12)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationOptions(max_step_fraction=1.5)
    with pytest.raises(ValueError):
        OutputGrid(kind="log", count=10)
    with pytest.raises(ValueError):
        OutputGrid(kind="uniform", count=1)
