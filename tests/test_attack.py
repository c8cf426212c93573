"""Constructive bounded-noise attacks: divergence ladders and terminal errors."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tvglab import attack
from tvglab.attack import (
    ControllerDivergenceNoise,
    ControllerTerminalNoise,
    DifferentiatorDivergenceNoise,
    TerminalRampNoise,
    controller_terminal_error_noise,
    default_ladder,
    default_targets,
    run_controller_ramp_attack,
    run_controller_terminal_attack,
    run_differentiator_terminal_attack,
    run_divergence_attack,
    terminal_plan_window,
    terminal_ramp_gain,
)
from tvglab.core import (
    NoiseBoundViolation,
    differentiator_error_model,
    rational_loop,
    reference_loop,
)
from tvglab.integrate import integrate
from tvglab.oracle import reference_solution


def test_default_targets_double_from_unit_scale():
    t = default_targets(1e-2)
    assert t == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    t5 = default_targets(5.0, count=3)
    assert t5 == (5.0, 10.0, 20.0)
    assert default_ladder(1e-2) == (0.1, 1.0, 10.0)
    assert default_ladder(3.0) == pytest.approx((0.3, 3.0, 30.0))


def test_controller_divergence_noise_validation():
    with pytest.raises(ValueError):
        ControllerDivergenceNoise(eta_bar=0.0, targets=(1.0,))
    with pytest.raises(ValueError):
        ControllerDivergenceNoise(eta_bar=0.01, targets=(1.0,), delta=0.02)
    with pytest.raises(ValueError):
        ControllerDivergenceNoise(eta_bar=0.01, targets=(2.0, 1.0))
    # a zero target has no gate time T - 1/eps
    for noise in (ControllerDivergenceNoise, DifferentiatorDivergenceNoise):
        with pytest.raises(ValueError, match="targets must be positive"):
            noise(eta_bar=0.01, targets=(0.0, 1.0))


def test_controller_divergence_noise_holds_and_latches():
    noise = ControllerDivergenceNoise(eta_bar=0.01, targets=(1.0, 2.0))
    x = np.array([0.5, 0.0])
    noise.observe(0.0, x)
    v = noise.value(0.0, x)
    # held vector is delta * sign(x1) * e1 with default delta = eta_bar / 2
    assert v[0] == pytest.approx(0.005)
    assert v[1] == 0.0
    assert np.linalg.norm(v) <= 0.01
    # stays constant until the target is crossed after the gate
    noise.observe(0.1, np.array([-3.0, 0.0]))
    assert noise.value(0.1, np.array([-3.0, 0.0]))[0] == pytest.approx(0.005)


def _closed_form_crossing(traj, level):
    """First time ||x|| reaches level in the closed form of a reference-loop
    run's held segments (y = x + eta follows the noise-free loop), each
    restarted from the recorded switch state; located on a fine grid, then
    bisected."""
    edges = (traj.t0, *traj.switch_times, traj.t_last)
    for a, b in zip(edges, edges[1:]):
        eta = traj.etas[np.flatnonzero(traj.ts == a)[0]]
        y_a = traj.knot_xs[np.flatnonzero(traj.knot_ts == a)[0]] + eta

        def norm(ts):
            return np.linalg.norm(reference_solution(a, y_a, ts) - eta, axis=-1)

        ts = np.linspace(a, b, 100_001)
        hits = np.flatnonzero(norm(ts) >= level)
        if hits.size:
            lo, hi = ts[max(hits[0] - 1, 0)], ts[hits[0]]
            while lo < hi and (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (lo, mid) if norm(mid) >= level else (mid, hi)
            return hi
    return None


def test_controller_divergence_ladder_small_bound():
    outcome = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2)
    assert outcome.kind == "controller-divergence"
    assert outcome.verdict
    assert outcome.noise_bound == 1e-2
    assert outcome.schedule.delta == pytest.approx(5e-3)
    times = [t for _, t in outcome.peaks]
    assert all(t is not None for t in times)
    assert times == sorted(times)
    assert all(t < 1.0 - 1e-9 for t in times)
    # crossings concentrate near the deadline
    assert times[0] == pytest.approx(0.9954918800308653, rel=1e-9)
    assert times[-1] == pytest.approx(0.9992637211319257, rel=1e-9)
    # each is the first sample at or after the closed form's crossing
    ts = outcome.trajectory.ts
    for level, t in outcome.peaks:
        exact = _closed_form_crossing(outcome.trajectory, level)
        assert ts[np.flatnonzero(ts == t)[0] - 1] < exact <= t
    assert len(outcome.schedule.times) == 7
    assert outcome.schedule.times == outcome.trajectory.switch_times
    assert outcome.trajectory.completed


def test_controller_divergence_ladder_tiny_bound():
    outcome = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-3)
    assert outcome.verdict
    times = [t for _, t in outcome.peaks]
    assert all(t is not None and t < 1.0 - 1e-9 for t in times)
    assert times == sorted(times)
    # smaller bound pushes every crossing closer to the deadline
    assert times[0] > 0.999


def test_differentiator_divergence_ladder():
    outcome = run_divergence_attack(differentiator_error_model(rho_min=1e-9), 1e-2)
    assert outcome.kind == "diff-divergence"
    assert outcome.verdict
    times = [t for _, t in outcome.peaks]
    assert all(t is not None and t < 1.0 - 1e-9 for t in times)
    assert times == sorted(times)
    assert times[0] == pytest.approx(0.9872434967298087, rel=1e-9)
    assert outcome.schedule.delta is None
    assert outcome.schedule.times == outcome.trajectory.switch_times
    outcome3 = run_divergence_attack(differentiator_error_model(rho_min=1e-9), 1e-3)
    assert outcome3.verdict and outcome3.trajectory.completed
    assert all(t is not None for _, t in outcome3.peaks)


def test_differentiator_divergence_noise_is_continuous():
    noise = DifferentiatorDivergenceNoise(eta_bar=0.01, targets=(1.0, 2.0))
    assert isinstance(noise.value(0.0, np.zeros(2)), float)
    assert noise.value(0.0, np.zeros(2)) == pytest.approx(0.01)
    ts = np.linspace(0.0, 0.5, 200)
    vals = np.array([noise.value(t, np.zeros(2)) for t in ts])
    diffs = np.abs(np.diff(vals))
    # piecewise linear, slope magnitude at most 2 eta_bar / (T - t)
    assert np.all(diffs <= 2.0 * 0.01 * np.diff(ts) / (1.0 - ts[1:]) + 1e-12)
    assert np.all(np.abs(vals) <= 0.01 + 1e-15)


def test_divergence_attack_starts_at_zero_state():
    outcome = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2)
    assert np.all(outcome.trajectory.xs[0] == 0.0)
    # bounded noise still drives the state across three decades above its size
    assert outcome.peaks[-1][0] / outcome.noise_bound >= 1e3


def test_divergence_attack_custom_ladder_and_blowup():
    from tvglab.integrate import IntegrationOptions
    outcome = run_divergence_attack(
        reference_loop(rho_min=1e-12), 1e-2,
        targets=default_targets(1e-2, count=12),
        opts=IntegrationOptions(max_norm=1e3))
    assert outcome.trajectory.termination.kind == "blow_up"
    assert outcome.verdict  # ladder fully crossed before the escape


def test_ramp_noise_shape():
    noise = TerminalRampNoise(eta_bar=0.1, slope=1.0)
    assert noise.s == pytest.approx(0.8, abs=1e-15)
    assert noise.value(0.0, None) == -0.1
    assert noise.value(0.8, None) == pytest.approx(-0.1)
    assert noise.value(0.9, None) == pytest.approx(0.0, abs=1e-15)
    assert noise.next_discontinuity(0.0) == pytest.approx(0.8)
    assert noise.next_discontinuity(0.85) == math.inf
    # the same ramp on channel 1 of the loop's list
    vector = TerminalRampNoise(eta_bar=0.1, slope=1.0, n=3)
    for t in (0.0, 0.8, 0.9, 0.99):
        assert vector.value(t, None) == [noise.value(t, None), 0.0, 0.0]
    # a ramp start before 0: under way at t = 0, within the bound up to T
    early = TerminalRampNoise(eta_bar=0.6, slope=1.0)
    assert early.s == pytest.approx(-0.2)
    assert early.value(0.0, None) == pytest.approx(-0.4)
    assert early.value(1.0, None) == pytest.approx(0.6)
    assert early.next_discontinuity(0.0) == math.inf
    with pytest.raises(ValueError, match="eta_bar and slope must be positive"):
        TerminalRampNoise(eta_bar=0.1, slope=0.0)


@pytest.mark.parametrize("eta_bar,epsilon,s_expected", [
    (0.1, 1.0, 0.8),
    (0.01, 0.5, 0.96),
    (0.001, 0.2, 0.99),
])
def test_differentiator_terminal_error_pins_x2(eta_bar, epsilon, s_expected):
    model = differentiator_error_model()
    for ic in ((0.0, 0.0), (5.0, -3.0)):
        out = run_differentiator_terminal_attack(model, eta_bar, epsilon, np.array(ic))
        assert out.kind == "diff-terminal"
        assert out.ramp.s == pytest.approx(s_expected, abs=1e-14)
        assert (out.ramp.eta_bar, out.ramp.slope, out.ramp.T) == (eta_bar, epsilon, 1.0)
        assert out.verdict
        assert abs(out.terminal[1] + epsilon) <= 1e-3 * epsilon
        assert float(np.max(np.abs(out.trajectory.etas))) <= eta_bar * (1 + 1e-12)


def test_terminal_plan_window_reference_point():
    lo, hi = terminal_plan_window(2, 0.1, 0.5)
    assert hi == 1.0
    assert lo == pytest.approx(1.0 - (0.1 / math.sqrt(2.0)) / 6.0, rel=1e-12)
    # wide bounds are capped by the half-horizon rule
    lo2, _ = terminal_plan_window(2, 10.0, 0.1)
    assert lo2 == pytest.approx(0.5)


def test_cascade_plan_structure():
    noise, plan = controller_terminal_error_noise(reference_loop(), 0.1, 0.5)
    # polynomials in u = T - t are coefficient tuples indexed by power: the
    # last channel is parked at -2 epsilon, the profile is a straight line in u
    assert plan.psi[-1] == (-1.0,)
    assert plan.profile[0][0] == 0.0
    assert plan.profile[0][1] == pytest.approx(4.0 * 0.5 / 3.0)
    assert plan.forcing == ()
    assert plan.psi_init == (0.0,)
    x_start = plan.initial_state()
    assert x_start[1] == pytest.approx(-1.0)
    # the planned state and noise stay inside their budgets on [s, T)
    for t in np.linspace(plan.s, 1.0 - 1e-9, 100):
        eta = plan.noise_at(t)
        assert np.linalg.norm(eta) <= 0.1 + 1e-12
    assert noise.bound == 0.1


@pytest.mark.parametrize("model", [reference_loop(),
                                   rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]])],
                         ids=["reference", "order_3"])
def test_plan_at_a_float_time_is_the_zero_dim_value(model):
    # a float time is evaluated on Python floats, a 0-d array through numpy
    noise, plan = controller_terminal_error_noise(model, 0.1, 0.5)
    for t in np.linspace(plan.s, 1.0 - 1e-9, 257).tolist():
        eta = noise.value(t, None)
        assert type(eta) is list and all(type(v) is float for v in eta)
        assert np.array(eta).tobytes() == plan.noise_at(np.array(t)).tobytes()
        assert np.array(plan.state_at(t)).tobytes() == plan.state_at(np.array(t)).tobytes()


@pytest.mark.parametrize("psi_init", [None, (0.003, -0.002)])
def test_order_three_cascade_plan(psi_init):
    model = rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]])
    _, plan = controller_terminal_error_noise(model, 0.1, 0.5, psi_init=psi_init)
    assert len(plan.psi[0]) == 3 and plan.psi[0][2] != 0.0  # psi_1 has degree 2
    ts = np.linspace(plan.s, 1.0 - 1e-9, 200)
    states = plan.state_at(ts)
    for i in range(plan.n - 1):
        # d/dt sum c_m u^m = -sum m c_m u^(m-1) along u = T - t
        rate = tuple(-m * c for m, c in enumerate(plan.psi[i]))[1:]
        u = 1.0 - ts
        d_psi = sum(c * u**m for m, c in enumerate(rate))
        assert d_psi == pytest.approx(states[:, i + 1], rel=1e-12, abs=1e-15)
    assert plan.state_at(plan.s)[-1] == pytest.approx(-1.0, abs=1e-15)
    assert plan.state_at(plan.s)[:-1] == pytest.approx(psi_init or (0.0, 0.0), abs=1e-15)
    assert np.all(np.linalg.norm(plan.noise_at(ts), axis=1) <= 0.1)


def test_tracking_noise_over_its_bound_fails_the_run():
    _, plan = controller_terminal_error_noise(reference_loop(), 0.1, 0.5)
    # the same noise polynomials under a bound 1000 times smaller
    noise = ControllerTerminalNoise(dataclasses.replace(plan, eta_bar=1e-4))
    assert np.linalg.norm(plan.noise_at(plan.s)) > 1e-4
    with pytest.raises(NoiseBoundViolation):
        integrate(reference_loop(), noise, plan.initial_state(), plan.s, 1.0 - 1e-6)


def test_controller_terminal_attack_prepared_state():
    outcome = run_controller_terminal_attack(reference_loop(), 0.1, 0.5)
    assert outcome.kind == "controller-terminal"
    assert outcome.verdict
    assert outcome.tracking_error <= 1e-6
    assert float(np.linalg.norm(outcome.terminal)) >= 0.5
    norms = np.linalg.norm(outcome.trajectory.etas, axis=1)
    assert float(np.max(norms)) <= 0.1 * (1 + 1e-12)
    assert outcome.plan.s == pytest.approx(0.9893933982822017, rel=1e-12)
    # terminal state sits on the plan: x2 = -2 epsilon exactly
    assert outcome.terminal[1] == pytest.approx(-1.0, abs=1e-6)


def test_controller_terminal_attack_explicit_start():
    outcome = run_controller_terminal_attack(reference_loop(), 0.1, 0.5, s=0.99)
    assert outcome.verdict
    assert outcome.plan.s == 0.99
    with pytest.raises(ValueError):
        run_controller_terminal_attack(reference_loop(), 0.1, 0.5, s=0.9)  # outside window


def test_differentiator_ramp_under_way_at_0_pins_x2():
    # s = T - 2 eta_bar / epsilon = -19: the ramp starts mid-way at t = 0
    for ic in ((0.0, 0.0), (5.0, -3.0)):
        out = run_differentiator_terminal_attack(differentiator_error_model(), 1.0, 0.1,
                                                 np.array(ic))
        assert out.ramp.s == -19.0
        assert out.verdict
        assert abs(out.terminal[1] + 0.1) <= 1e-3 * 0.1
        assert float(np.max(np.abs(out.trajectory.etas))) <= 1.0


# the README's (eta_bar, epsilon) grid and the pairs and starts from which the
# cascade plan's steering search once started its plan off the state
_RAMP_STARTS = [(1.0, 0.0), (0.3, -0.2), (-5.0, 7.0), (0.95, 0.7), (0.6, -0.7), (0.5, 0.6)]
_RAMP_BOUNDS = [(0.01, 0.05), (0.01, 0.5), (0.1, 0.05), (0.1, 0.5),
                (2e-3, 1.3e-3), (4e-3, 4e-3), (1.6e-3, 2e-3)]


def _check_controller_ramp(model, eta_bar, epsilon, x0):
    out = run_controller_ramp_attack(model, eta_bar, epsilon, x0)
    assert out.kind == "controller-ramp"
    assert out.trajectory.completed
    assert out.verdict and float(np.linalg.norm(out.terminal)) >= epsilon
    # the ramp's slope 2 epsilon / |b| parks x2 at -2 epsilon, as the cascade plan does
    assert abs(out.terminal[1] + 2.0 * epsilon) <= 1e-2 * 2.0 * epsilon
    etas = out.trajectory.etas
    assert float(np.max(np.abs(etas[:, 0]))) <= eta_bar and not np.any(etas[:, 1:])


@pytest.mark.parametrize("eta_bar, epsilon", _RAMP_BOUNDS)
@pytest.mark.parametrize("x0", _RAMP_STARTS, ids=lambda x0: f"x0={x0[0]},{x0[1]}")
def test_controller_ramp_attack_from_any_start(x0, eta_bar, epsilon):
    _check_controller_ramp(reference_loop(), eta_bar, epsilon, x0)


def test_terminal_ramp_gain_is_exact_on_the_class():
    assert terminal_ramp_gain(reference_loop()) == -3.0
    # Euler exponents 2 and 6
    model = rational_loop([[(-12.0, 2)], [(-7.0, 1)]])
    assert terminal_ramp_gain(model) == -12.0 / 5.0
    for x0 in _RAMP_STARTS[:3]:
        for eta_bar, epsilon in _RAMP_BOUNDS:
            _check_controller_ramp(model, eta_bar, epsilon, x0)


@pytest.mark.parametrize("model, message", [
    (rational_loop([[(-60.0, 3)], [(-36.0, 2)], [(-9.0, 1)]]),
     "controller ramp attack needs the gains c1/(T-t)^2, c2/(T-t), one term each; "
     "got pole orders [[3], [2], [1]]"),
    (rational_loop([[(-0.5, 1)], [(-1.0, 1)]]), "got pole orders [[1], [1]]"),
    (rational_loop([[(-6.0, 2), (1.0, 0)], [(-4.0, 1)]]), "got pole orders [[2, 0], [1]]"),
    # Euler exponents 2 +- sqrt(2): x2 grows like (T - t)**-0.414 without noise
    (rational_loop([[(-2.0, 2)], [(-3.0, 1)]]),
     "gains -2.0/(T-t)^2, -3.0/(T-t) do not bring the noise-free loop to 0 at T"),
    (differentiator_error_model(), "controller ramp attack applies to the control loop"),
], ids=["order_3", "simple_poles", "two_terms", "outside_the_class", "differentiator"])
def test_controller_ramp_attack_rejects_other_tables(model, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_controller_ramp_attack(model, 0.01, 0.5, np.zeros(model.n))


def test_attack_runners_reject_wrong_variant():
    with pytest.raises(ValueError):
        run_differentiator_terminal_attack(reference_loop(), 0.1, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        run_controller_terminal_attack(differentiator_error_model(), 0.1, 0.5)


def test_divergence_attack_checks_its_thresholds_before_the_run(monkeypatch):
    runs = []
    monkeypatch.setattr(attack, "integrate", lambda *args, **kwargs: runs.append(args))
    for model in (reference_loop(), differentiator_error_model()):
        with pytest.raises(ValueError, match="thresholds must be strictly increasing"):
            run_divergence_attack(model, 1e-2, thresholds=(2.0, 1.0))
        with pytest.raises(ValueError, match="thresholds must be positive"):
            run_divergence_attack(model, 1e-2, thresholds=(0.0, 1.0))
    assert runs == []


def test_divergence_attack_is_deterministic():
    a = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2)
    b = run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2)
    assert a.schedule.times == b.schedule.times
    assert np.array_equal(a.trajectory.xs, b.trajectory.xs)
