"""Closed-form trajectory oracle and the solver cross-check built on it."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from tvglab.core import differentiator_error_model
from tvglab.integrate import integrate, terminal_state
from tvglab.oracle import (
    instability_witness_time,
    reference_solution,
    verify_solver_against_oracle,
)


def test_solution_starts_at_initial_condition():
    x = reference_solution(0.3, (2.0, -1.0), 0.3)
    assert x[0] == pytest.approx(2.0, abs=1e-13)
    assert x[1] == pytest.approx(-1.0, abs=1e-13)


def test_solution_known_midpoint_value():
    # from (1, 0) at s = 0: x1(t) = 3u^2 - 2u^3, x2 = -6u + 6u^2 with u = 1 - t
    x = reference_solution(0.0, (1.0, 0.0), 0.5)
    assert x[0] == pytest.approx(0.5, rel=1e-15)
    assert x[1] == pytest.approx(-1.5, rel=1e-15)
    y = reference_solution(0.0, (0.0, 1.0), 0.5)
    assert y[0] == pytest.approx(0.25 - 0.125, rel=1e-15)
    assert y[1] == pytest.approx(-(2.0 * 0.5 - 3.0 * 0.25), rel=1e-15)


def test_solution_vectorized_over_time():
    ts = np.linspace(0.2, 0.99, 57)
    xs = reference_solution(0.2, (3.0, 4.0), ts)
    assert xs.shape == (57, 2)
    one = reference_solution(0.2, (3.0, 4.0), ts[13])
    assert np.allclose(xs[13], one, rtol=1e-15)


def test_solution_second_component_is_the_first_ones_slope():
    s, xi = 0.1, (1.5, -2.0)
    t = 0.6
    h = 1e-6
    xm = reference_solution(s, xi, t - h)
    xp = reference_solution(s, xi, t + h)
    xc = reference_solution(s, xi, t)
    assert (xp[0] - xm[0]) / (2 * h) == pytest.approx(xc[1], rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=0.9),
    xi1=st.floats(min_value=-10.0, max_value=10.0),
    xi2=st.floats(min_value=-10.0, max_value=10.0),
)
def test_solution_vanishes_at_deadline(s, xi1, xi2):
    x = reference_solution(s, (xi1, xi2), 1.0)
    assert abs(x[0]) <= 1e-12 * max(1.0, abs(xi1), abs(xi2))
    assert abs(x[1]) <= 1e-12 * max(1.0, abs(xi1), abs(xi2))


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=0.9),
    a=st.floats(min_value=-4.0, max_value=4.0),
    xi1=st.floats(min_value=-5.0, max_value=5.0),
    xi2=st.floats(min_value=-5.0, max_value=5.0),
    t_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_solution_is_linear_in_initial_state(s, a, xi1, xi2, t_frac):
    t = s + (1.0 - s) * t_frac
    base = reference_solution(s, (xi1, xi2), t)
    scaled = reference_solution(s, (a * xi1, a * xi2), t)
    assert np.allclose(scaled, a * base, rtol=1e-10, atol=1e-9)


def test_solution_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reference_solution(1.0, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        reference_solution(0.5, (1.0, 0.0), 0.4)
    with pytest.raises(ValueError):
        reference_solution(0.0, (1.0, 0.0), 1.1)
    with pytest.raises(ValueError):
        reference_solution(0.0, (1.0, 0.0, 0.0), 0.5)


def test_witness_time_reference_point():
    # delta 1, epsilon 2, eps' 2.5 puts the witness start at 0.6
    assert instability_witness_time(1.0, 2.0, 2.5) == pytest.approx(0.6, abs=1e-15)


def test_witness_time_default_margin():
    # default eps' = 1.05 * max(epsilon, delta)
    s = instability_witness_time(0.5, 0.25)
    assert s == pytest.approx(1.0 - 0.5 / 0.525, rel=1e-14)
    s2 = instability_witness_time(1e-3, 1.0)
    assert s2 == pytest.approx(1.0 - 1e-3 / 1.05, rel=1e-14)


def test_witness_time_scales_with_horizon():
    s = instability_witness_time(1.0, 2.0, 2.5, T=4.0)
    assert s == pytest.approx(4.0 - 0.4, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=1e-6, max_value=10.0),
    epsilon=st.floats(min_value=1e-6, max_value=10.0),
)
def test_witness_time_lies_inside_horizon(delta, epsilon):
    s = instability_witness_time(delta, epsilon)
    assert 0.0 < s < 1.0


def test_witness_time_validation():
    with pytest.raises(ValueError):
        instability_witness_time(0.0, 1.0)
    with pytest.raises(ValueError):
        instability_witness_time(1.0, -1.0)
    with pytest.raises(ValueError):
        instability_witness_time(1.0, 2.0, 1.5)  # margin below max(eps, delta)


def test_solver_matches_oracle_quickly():
    t0 = time.monotonic()
    report = verify_solver_against_oracle(sample_count=20, tol=1e-6, seed=0)
    elapsed = time.monotonic() - t0
    assert report.passed
    assert len(report.cases) == 20
    assert report.max_rel_error <= 1e-6
    assert all(0.0 <= c.s <= 0.9 for c in report.cases)
    assert all(math.hypot(*c.xi) <= 10.0 + 1e-12 for c in report.cases)
    assert elapsed < 10.0


def test_solver_check_is_seed_deterministic():
    a = verify_solver_against_oracle(sample_count=5, seed=3)
    b = verify_solver_against_oracle(sample_count=5, seed=3)
    c = verify_solver_against_oracle(sample_count=5, seed=4)
    assert [x.s for x in a.cases] == [x.s for x in b.cases]
    assert a.max_rel_error == b.max_rel_error
    assert [x.s for x in c.cases] != [x.s for x in a.cases]


@pytest.mark.parametrize("rho", [0.5, 0.1, 1e-2])
def test_differentiator_run_matches_an_independent_solver(rho):
    """The differentiator has no closed form: scipy's DOP853 at tight
    tolerances is its second oracle.  Nearer T the state decays and the
    relative gap grows (2.6e-6 at rho = 1e-4)."""
    model = differentiator_error_model()
    x0 = np.array([1.0, -0.5])
    ours = terminal_state(integrate(model, None, x0, 0.0, 1.0 - 1e-9), rho)
    theirs = solve_ivp(lambda t, x: model.rhs(t, x, 0.0), (0.0, 1.0 - rho), x0,
                       method="DOP853", rtol=1e-12, atol=1e-15).y[:, -1]
    assert np.linalg.norm(ours - theirs) <= 1e-8 * np.linalg.norm(theirs)
