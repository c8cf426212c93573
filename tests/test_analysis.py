"""Deadline verification, gain scans, stability falsification, workarounds."""

import importlib
import math

import numpy as np
import pytest

from tvglab.analysis import (
    _affine_fit,
    _box_entry,
    check_absolute_deadline,
    evaluate_deadzone,
    evaluate_stop_time,
    falsify_uniform_stability,
    gain_bound_at,
    gain_supremum_scan,
    rho_shrink_profile,
)
from tvglab.attack import controller_divergence_noise
from tvglab.core import (
    NoiseSource,
    differentiator_error_model,
    open_loop_chain,
    rational_diff_error,
    rational_loop,
    reference_loop,
)
from tvglab.integrate import (EVENT, REACHED_END, IntegrationOptions, Termination, Trajectory,
                              _earliest, integrate)
from tvglab.oracle import reference_solution

analysis = importlib.import_module("tvglab.analysis")

GRID_S = (0.0, 0.3, 0.6)
GRID_XI = ((1.0, 0.0), (0.0, 1.0), (10.0, -10.0))


def test_deadline_holds_on_the_control_grid():
    report = check_absolute_deadline(reference_loop(), GRID_S, GRID_XI)
    assert report.passed
    assert len(report.cases) == 9
    for case in report.cases:
        assert case.terminal_norm <= case.bound
        assert case.bound == pytest.approx(0.1 * max(1.0, math.hypot(*case.xi)))


def test_deadline_holds_on_the_differentiator_grid():
    report = check_absolute_deadline(differentiator_error_model(), GRID_S, GRID_XI)
    assert report.passed
    worst = max(c.terminal_norm for c in report.cases)
    # quadratic decay leaves much more margin than the linear bound
    assert worst < 1e-2


def test_deadline_fails_open_loop():
    report = check_absolute_deadline(open_loop_chain(), (0.0,), ((0.0, 1.0),))
    assert not report.passed
    case = report.cases[0]
    assert case.terminal_norm == pytest.approx(1.4135066324570251, rel=1e-9)
    assert case.terminal_norm > case.bound


def test_deadline_matches_closed_form_norms():
    report = check_absolute_deadline(reference_loop(), (0.0,), ((1.0, 0.0),), rho=1e-3)
    exact = reference_solution(0.0, (1.0, 0.0), 1.0 - 1e-3)
    assert report.cases[0].terminal_norm == pytest.approx(float(np.linalg.norm(exact)),
                                                          rel=1e-8)


def test_shrink_profile_control_is_at_least_linear():
    profile = rho_shrink_profile(reference_loop(), 0.0, (1.0, 0.0), (1e-2, 1e-3, 1e-4))
    norms = [v for _, v in profile]
    assert norms[0] == pytest.approx(0.0594007474214089, rel=1e-9)
    for rho, v in profile:
        # within ten times rel_tol of the closed form
        exact = float(np.linalg.norm(reference_solution(0.0, (1.0, 0.0), 1.0 - rho)))
        assert v == pytest.approx(exact, rel=5e-9)
    for a, b in zip(norms, norms[1:]):
        assert b <= a / 9.5  # a decade of rho buys at least ~a decade of norm


def test_shrink_profile_differentiator_is_quadratic():
    profile = rho_shrink_profile(differentiator_error_model(), 0.0, (1.0, 0.0),
                                 (1e-2, 1e-3, 1e-4))
    norms = [v for _, v in profile]
    for a, b in zip(norms, norms[1:]):
        assert b <= a / 95.0


def test_shrink_profile_validates_ladder():
    with pytest.raises(ValueError):
        rho_shrink_profile(reference_loop(), 0.0, (1.0, 0.0), (1e-3, 1e-2))


def test_gain_scan_control_exact_corner_values():
    table = gain_supremum_scan(reference_loop(), 1.0, (1e-1, 1e-2, 1e-3))
    assert table.kind == "reference"
    assert table.monotone
    sups = [r.supremum for r in table.rows]
    # sup |v| over ||x||inf <= 1 at u = rho is 6/rho^2 + 4/rho, at corner (1, 1)
    assert sups[0] == pytest.approx(640.0, rel=1e-12)
    assert sups[1] == pytest.approx(60400.0, rel=1e-12)
    assert sups[2] == pytest.approx(6004000.0, rel=1e-12)
    for row in table.rows:
        assert row.arg_state == (1.0, 1.0)
        assert row.arg_time == pytest.approx(1.0 - row.rho, rel=1e-12)
        assert row.arg_channel is None


def test_gain_scan_injection_exact_values():
    table = gain_supremum_scan(differentiator_error_model(), 1.0,
                               (1e-1, 1e-2, 1e-3))
    sups = [r.supremum for r in table.rows]
    # |phi2| = l2 + 3 l1/rho + 6/rho^2 dominates at every rung
    assert sups[0] == pytest.approx(631.0, rel=1e-12)
    assert sups[1] == pytest.approx(60301.0, rel=1e-12)
    assert sups[2] == pytest.approx(6003001.0, rel=1e-12)
    assert all(r.arg_channel == 1 for r in table.rows)
    assert table.monotone


def test_gain_scan_scales_with_delta():
    t1 = gain_supremum_scan(reference_loop(), 1.0, (1e-2,))
    t2 = gain_supremum_scan(reference_loop(), 2.5, (1e-2,))
    assert t2.rows[0].supremum == pytest.approx(2.5 * t1.rows[0].supremum, rel=1e-12)


def test_gain_bound_matches_scan():
    assert gain_bound_at(reference_loop(), 1e-2, 1.0) == pytest.approx(60400.0)
    assert gain_bound_at(differentiator_error_model(), 1e-2, 1.0) == pytest.approx(60301.0)


def test_gain_scan_control_on_a_longer_horizon():
    # on T = 2 the scan runs in u = 2 - t; the box supremum at rho is
    # delta * (|g1(rho)| + |g2(rho)|) = 0.5 * (6/rho^2 + 4/rho + 1)
    model = rational_loop((((-6.0, 2),), ((-4.0, 1), (-1.0, 0))), T=2.0)
    bound = gain_bound_at(model, 1e-2, 0.5)
    assert bound == pytest.approx(0.5 * (60000.0 + 400.0 + 1.0), rel=1e-12)
    table = gain_supremum_scan(model, 0.5, (1.0, 1e-1, 1e-2))
    assert table.kind == "rational_tvg"
    assert table.monotone
    last = table.rows[-1]
    assert last.supremum == pytest.approx(bound, rel=1e-12)
    assert last.arg_time == pytest.approx(2.0 - 1e-2, rel=1e-12)
    assert last.arg_state == (0.5, 0.5)


def test_gain_scan_injection_on_a_longer_horizon():
    # the strongest channel at rho = 1e-2 is |g2| = 6/rho^2 + 3/rho = 60300
    model = rational_diff_error((((-6.0, 1), (-1.0, 0)), ((-6.0, 2), (-3.0, 1))), T=2.0)
    bound = gain_bound_at(model, 1e-2, 2.0)
    assert bound == pytest.approx(2.0 * 60300.0, rel=1e-12)
    table = gain_supremum_scan(model, 2.0, (1.0, 1e-1, 1e-2))
    assert table.monotone
    last = table.rows[-1]
    assert last.supremum == pytest.approx(bound, rel=1e-12)
    assert last.arg_time == pytest.approx(2.0 - 1e-2, rel=1e-12)
    assert last.arg_channel == 1


def test_gain_scan_zero_table_is_not_monotone():
    table = gain_supremum_scan(open_loop_chain(), 1.0, (1e-1, 1e-2, 1e-3))
    assert [r.supremum for r in table.rows] == [0.0, 0.0, 0.0]
    assert table.monotone is False


def test_gain_scan_validates_ladder():
    with pytest.raises(ValueError):
        gain_supremum_scan(reference_loop(), 1.0, (1e-3, 1e-2))
    with pytest.raises(ValueError):
        gain_supremum_scan(reference_loop(), 0.0, (1e-2,))


def test_falsify_uniform_stability_reference_point():
    witness = falsify_uniform_stability(reference_loop(), 1.0, 2.0, 2.5)
    assert witness.s == pytest.approx(0.6, abs=1e-15)
    assert witness.crossed
    assert witness.crossing_time == pytest.approx(0.6543111559408455, rel=1e-9)
    assert witness.attained_norm == pytest.approx(3.783860711651519, rel=1e-9)
    # closed-form peak of the restarted trajectory is about 3.78
    assert abs(witness.attained_norm - 3.78) / 3.78 < 0.02
    assert witness.attained_norm >= 3.7


def test_falsify_default_margin_small_delta():
    witness = falsify_uniform_stability(reference_loop(), 1e-3, 1.0)
    # every bounded start beats any epsilon when released late enough
    assert witness.crossed
    assert witness.s > 0.999


def test_falsify_integrates_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(analysis, "integrate", counted)
    witness = falsify_uniform_stability(reference_loop(), 1.0, 2.0, 2.5)
    assert witness.crossed and calls == [{}]


@pytest.mark.parametrize("model", [reference_loop(),
                                   rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]])],
                         ids=["reference", "order_3"])
def test_falsify_crossing_is_the_located_event_of_a_stopped_run(model):
    """The crossing equals, bit for bit, the bisection on the last step of a
    run that stops at the first knot whose norm exceeds epsilon; a start
    that already exceeds epsilon crosses at the start itself."""
    rng = np.random.default_rng(7)
    crossed = above = 0
    for delta, epsilon in 10.0 ** rng.uniform((-3.0, -1.0), (0.5, 1.0), size=(20, 2)):
        witness = falsify_uniform_stability(model, delta, epsilon)
        if delta > epsilon:
            above += 1
            assert witness.crossed and witness.crossing_time == witness.s
            continue
        condition = lambda t, x: math.hypot(*x) > epsilon
        x0 = np.zeros(model.n)
        x0[0] = delta
        stopped = integrate(model, None, x0, witness.s, model.T - model.horizon.rho_min,
                            stop_condition=condition)
        if stopped.termination.kind != EVENT:
            assert witness.crossing_time is None
            continue
        crossed += 1
        located = _earliest(lambda t: condition(t, stopped.state_at(t)),
                            float(stopped.knot_ts[-2]), stopped.t_last, stopped.T)
        assert witness.crossing_time.hex() == located.hex()
    assert crossed >= 15 and above >= 1


def test_stop_time_residual_closed_form():
    report = evaluate_stop_time(reference_loop(), 0.9,
                                ((1.0, 0.0), (2.0, 0.0), (5.0, 0.0), (10.0, 0.0)))
    res = report.cases[0].residual_state
    assert res[0] == pytest.approx(0.028, abs=1e-6)
    assert res[1] == pytest.approx(-0.54, abs=1e-6)
    # residual norm scales exactly linearly with the start size
    assert report.r_squared >= 0.999
    assert report.slope == pytest.approx(math.hypot(0.028, 0.54), rel=1e-6)
    assert abs(report.intercept) < 1e-9


def test_stop_time_zero_start_gives_zero_residual():
    report = evaluate_stop_time(reference_loop(), 0.9, ((0.0, 0.0),))
    assert report.cases[0].residual_norm == pytest.approx(0.0, abs=1e-12)
    assert report.slope is None  # not enough cases for a fit


def test_stop_time_validates_parameter():
    with pytest.raises(ValueError):
        evaluate_stop_time(reference_loop(), 1.5, ((1.0, 0.0),))
    with pytest.raises(ValueError):
        evaluate_stop_time(reference_loop(), 0.0, ((1.0, 0.0),))


def test_deadzone_noise_free_entries_approach_deadline():
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2,
                               ((1.0, 0.0), (10.0, 0.0), (100.0, 0.0)))
    assert report.variant == "deadzone"
    assert all(c.entered for c in report.cases)
    assert report.no_entry_flags == ()
    entries = [c.entry_time for c in report.cases]
    assert entries == sorted(entries)  # larger starts enter later
    gains = [c.gain_at_entry for c in report.cases]
    assert gains == sorted(gains)  # and pay a larger gain at entry
    model = reference_loop()
    for c in report.cases:
        # closed form from (a, 0): x2 = -6 a u (1 - u) leads, and |x2| = 1e-2
        # at the entry distance u
        u = (1.0 - math.sqrt(1.0 - 4.0 * 1e-2 / (6.0 * c.xi[0]))) / 2.0
        assert c.entry_time == pytest.approx(1.0 - u, rel=1e-9)
        exact = reference_solution(0.0, c.xi, 1.0 - u)
        assert c.gain_at_entry == pytest.approx(abs(model.gain_output(1.0 - u, exact, (0.0, 0.0))),
                                                rel=1e-6)
        assert float(np.max(np.abs(c.final_state))) <= 1e-2 + 1e-9


def test_deadzone_inside_from_the_start():
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((0.005, 0.0),))
    assert report.cases[0].entered
    assert report.cases[0].entry_time == 0.0


def test_deadzone_entry_prevented_by_small_noise():
    # width eta_bar / 100, as in selftest
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-4, ((10.0, 0.0),),
                               noise=lambda: controller_divergence_noise(1e-2))
    assert report.noisy
    assert report.no_entry_flags == (0,)
    case = report.cases[0]
    assert not case.entered
    assert case.entry_time is None
    # the held trajectory is still far outside the box at the floor
    assert abs(case.final_state[1]) > 1.0


def _noisy_deadzone_run(rel_tol=IntegrationOptions().rel_tol):
    """The noisy deadzone cases' run from (10, 0) under the divergence noise
    1e-2, to the floor."""
    return integrate(reference_loop(rho_min=1e-6), controller_divergence_noise(1e-2),
                     np.array([10.0, 0.0]), 0.0, 1.0 - 1e-6, IntegrationOptions(rel_tol=rel_tol))


def _held_segments(traj):
    """(start, end, state at start, noise) of every held segment of a
    reference-loop run: on each, y = x + eta follows the noise-free closed form."""
    edges = (traj.t0, *traj.switch_times, traj.t_last)
    for a, b in zip(edges, edges[1:]):
        x_a = traj.knot_xs[np.flatnonzero(traj.knot_ts == a)[0]]
        yield a, b, x_a, traj.etas[np.flatnonzero(traj.ts == a)[0]]


def _box_norm(a, x_a, eta, ts):
    """||x||inf at the times ts of the held segment from (a, x_a) with noise eta."""
    return np.max(np.abs(reference_solution(a, x_a + eta, ts) - eta), axis=1)


def _segment_min_box_norm(a, b, x_a, eta):
    """Minimum of ||x||inf over [a, b] in the closed form: a geometric grid in
    T - t, then three rounds of a finer grid around the smallest value."""
    ts = np.clip(1.0 - np.geomspace(1.0 - a, 1.0 - b, 100_001), a, b)
    for _ in range(4):
        box = _box_norm(a, x_a, eta, ts)
        j = int(np.argmin(box))
        ts = np.linspace(ts[max(j - 1, 0)], ts[min(j + 1, len(ts) - 1)], 10_001)
    return float(box[j])


def test_noise_keeps_the_closed_form_far_from_the_deadzone_box():
    # the "entry prevented" claim holds in the exact flow of every held
    # segment of the recorded schedule, with a margin of 5x the width 1e-4
    traj = _noisy_deadzone_run()
    assert traj.completed and len(traj.switch_times) == 7
    mins = [_segment_min_box_norm(*seg) for seg in _held_segments(traj)]
    assert min(mins) >= 5 * 1e-4
    # while a box as wide as the noise bound is visited after the first switch
    assert mins[1] < 1e-2


def _noisy_deadzone(rel_tol):
    """The noisy deadzone case at width 1e-2, the noise bound."""
    return evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((10.0, 0.0),),
                             noise=lambda: controller_divergence_noise(1e-2),
                             opts=IntegrationOptions(rel_tol=rel_tol))


def test_noisy_deadzone_state_passes_through_the_box_between_knots():
    # at rel_tol 1e-9 no knot of the run lies in the box, yet the dense output
    # enters it; the reported entry lies in the closed-form visit after the
    # first switch
    traj = _noisy_deadzone_run(1e-9)
    assert np.all(np.max(np.abs(traj.knot_xs), axis=1) > 1e-2)
    case = _noisy_deadzone(1e-9).cases[0]
    assert case.entered
    segments = list(_held_segments(traj))
    assert _segment_min_box_norm(*segments[0]) > 1e-2
    a, b, x_a, eta = segments[1]
    assert a < case.entry_time < b
    ts = np.linspace(a, b, 200_001)
    visit = ts[_box_norm(a, x_a, eta, ts) <= 1e-2]
    # one visit, shorter than 1e-4
    assert 0.0 < visit[-1] - visit[0] < 1e-4
    assert np.all(np.diff(visit) < 2 * (ts[1] - ts[0]))
    assert visit[0] - (ts[1] - ts[0]) <= case.entry_time <= visit[-1]
    # the entry state is the dense output there, on the box's boundary
    assert max(map(abs, case.entry_state)) <= 1e-2
    assert np.array_equal(traj.state_at(case.entry_time), case.entry_state)
    assert _box_norm(a, x_a, eta, [case.entry_time])[0] == pytest.approx(1e-2, rel=1e-6)


@pytest.mark.parametrize("rel_tol", [8e-10, 5e-10, 3e-10, 2e-10, 1e-10])
def test_noisy_deadzone_verdict_does_not_depend_on_rel_tol(rel_tol):
    assert _noisy_deadzone(rel_tol).no_entry_flags == _noisy_deadzone(1e-9).no_entry_flags


def test_deadzone_start_inside_the_box_latches_its_noise_first():
    # the divergence noise takes its sign from x1 at its first observe, so a
    # start inside the box feels +-delta e1 with the sign of its own x1:
    # |6 (x1 + eta1)| = 6 * 0.009 from either side.  Unlatched, the sign is
    # + from both, and the second start would read 6 * 0.001
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((0.004, 0.0), (-0.004, 0.0)),
                               noise=lambda: controller_divergence_noise(1e-2))
    for case in report.cases:
        assert case.entered and case.entry_time == 0.0
        assert case.gain_at_entry == pytest.approx(0.054, rel=1e-12)


class _QueriedNoise(NoiseSource):
    """A small noise queried at every stage, depending on the state, that
    logs for each value call whether it got the state as a list of floats."""

    bound = 1e-3

    def __init__(self):
        self.lists = []

    def value(self, t, x):
        self.lists.append(type(x) is list and all(type(v) is float for v in x))
        return [1e-4 * math.tanh(x[0]), 0.0]


def test_deadzone_queries_a_source_that_is_not_held_with_a_list_at_entry():
    # the entry's noise is the source's value at the entry state, which it
    # gets as a list of floats like every query integrate makes
    model = reference_loop(rho_min=1e-6)
    sources = []

    def fresh():
        sources.append(_QueriedNoise())
        return sources[-1]

    case = evaluate_deadzone(model, 1e-2, ((1.0, 0.0),), noise=fresh).cases[0]
    assert case.entered
    assert len(sources) == 1 and sources[0].lists and all(sources[0].lists)
    eta = [1e-4 * math.tanh(case.entry_state[0]), 0.0]
    assert case.gain_at_entry == abs(float(model.gain_output(case.entry_time,
                                                             np.array(case.entry_state), eta)))


def test_workarounds_take_a_noise_factory_not_an_instance():
    # one stateful source shared by two identical cases would switch in the
    # first and start the second already switched
    noise = controller_divergence_noise(1e-2)
    with pytest.raises(TypeError):
        evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((10.0, 0.0), (10.0, 0.0)),
                          noise=noise)
    with pytest.raises(TypeError):
        evaluate_stop_time(reference_loop(), 0.9, ((1.0, 0.0),), noise=noise)
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((10.0, 0.0), (10.0, 0.0)),
                               noise=lambda: controller_divergence_noise(1e-2))
    assert report.cases[0] == report.cases[1]


def test_deadzone_entry_at_the_event_knot_that_ends_the_run():
    # the probe stops at the first knot inside the box; on the box's boundary
    # or just inside it, the root of the last step's cubic can round to
    # theta = 1.  Here that step is the line from x1 = 2e-2 to the event knot
    # x1 = 1e-2, and its root is 1.0 exactly: the entry is the event knot
    ts, xs = np.array([0.0, 0.5]), np.array([[2e-2, 0.0], [1e-2, 0.0]])
    fs = np.array([[-2e-2, 0.0], [-2e-2, 0.0]])
    probe = Trajectory(ts=ts, xs=xs, etas=np.zeros((2, 2)), knot_fs=fs, knot_fl=fs,
                       knot_ds=np.zeros((2, 2)), t0=0.0, t_last=0.5,
                       termination=Termination(kind=EVENT, t=0.5), trials=1, switch_times=(),
                       T=1.0, rho_min=0.0, n=2)
    assert _box_entry(probe, 1e-2) == (0.5, 0)
    assert _box_entry(probe, 0.99e-2) is None


def test_deadzone_entry_inside_a_step_comes_from_the_d_term():
    # both knots sit at x1 = 2e-2 with zero derivatives, so the cubic is
    # flat and never enters the box; theta^2 (1 - theta)^2 D with D = -0.32
    # dips to 0 at theta = 1/2 and meets x1 = 1e-2 where theta (1 - theta)
    # = 32^(-1/2)
    ts, xs = np.array([0.0, 0.5]), np.array([[2e-2, 0.0], [2e-2, 0.0]])
    fs, ds = np.zeros((2, 2)), np.array([[0.0, 0.0], [-0.32, 0.0]])

    def probe(ds):
        return Trajectory(ts=ts, xs=xs, etas=np.zeros((2, 2)), knot_fs=fs, knot_fl=fs,
                          knot_ds=ds, t0=0.0, t_last=0.5,
                          termination=Termination(kind=REACHED_END, t=0.5), trials=1,
                          switch_times=(), T=1.0, rho_min=0.0, n=2)

    theta = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 / math.sqrt(32.0)))
    t_entry, k = _box_entry(probe(ds), 1e-2)
    assert k == 0 and t_entry == pytest.approx(0.5 * theta, abs=1e-12)
    assert _box_entry(probe(np.zeros((2, 2))), 1e-2) is None


def test_affine_fit_is_the_least_squares_line():
    xs, ys = [1.0, 2.0, 4.0, 8.0], [0.3, 0.5, 1.1, 1.9]
    slope, intercept, r2 = _affine_fit(xs, ys)
    fit = np.polyfit(xs, ys, 1)
    assert slope == pytest.approx(fit[0], rel=1e-12)
    assert intercept == pytest.approx(fit[1], rel=1e-12)
    pred = np.polyval(fit, xs)
    assert r2 == pytest.approx(1.0 - np.sum((ys - pred) ** 2) / np.sum((ys - np.mean(ys)) ** 2),
                               rel=1e-12)
    assert _affine_fit([0.5, 1.5, 2.5], [1.0, 3.0, 5.0]) == (2.0, 0.0, 1.0)
    # starts of one norm fix no slope: the horizontal line through the mean
    assert _affine_fit([1.0, 1.0, 1.0], [0.1, 0.2, 0.3]) == (0.0, pytest.approx(0.2), 0.0)


def test_deadzone_validates_width():
    with pytest.raises(ValueError):
        evaluate_deadzone(reference_loop(), 0.0, ((1.0, 0.0),))


@pytest.mark.parametrize("sweep", [
    lambda xi: check_absolute_deadline(reference_loop(), (0.0,), (xi,)),
    lambda xi: evaluate_stop_time(reference_loop(), 0.9, (xi,)),
    lambda xi: evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, (xi,)),
], ids=["deadline", "stop_time", "deadzone"])
def test_sweeps_raise_on_a_wrong_length_start(sweep):
    # bad input raises; only a numerical failure becomes a failed case
    with pytest.raises(ValueError, match="x0 must have shape"):
        sweep((1.0, 0.0, 0.0))


def test_deadline_check_rejects_a_start_outside_the_span():
    with pytest.raises(ValueError, match="outside"):
        check_absolute_deadline(reference_loop(), (0.0, 1.5), ((1.0, 0.0),))
