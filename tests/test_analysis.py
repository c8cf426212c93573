"""Deadline verification, gain scans, stability falsification, workarounds."""

import math

import numpy as np
import pytest

from tvglab.analysis import (
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
    differentiator_error_model,
    open_loop_chain,
    rational_diff_error,
    rational_loop,
    reference_loop,
)
from tvglab.oracle import reference_solution

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
    assert norms[0] == pytest.approx(0.05940074733572788, rel=1e-9)
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
    assert entries[0] == pytest.approx(0.9983305462514185, rel=1e-9)
    assert entries == sorted(entries)  # larger starts enter later
    gains = [c.gain_at_entry for c in report.cases]
    assert gains == sorted(gains)  # and pay a larger gain at entry
    assert gains[-1] == pytest.approx(599.9799959402221, rel=1e-6)
    for c in report.cases:
        assert float(np.max(np.abs(c.final_state))) <= 1e-2 + 1e-9


def test_deadzone_inside_from_the_start():
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((0.005, 0.0),))
    assert report.cases[0].entered
    assert report.cases[0].entry_time == 0.0


def test_deadzone_entry_prevented_by_small_noise():
    report = evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2, ((10.0, 0.0),),
                               noise=lambda: controller_divergence_noise(1e-2))
    assert report.noisy
    assert report.no_entry_flags == (0,)
    case = report.cases[0]
    assert not case.entered
    assert case.entry_time is None
    # the held trajectory is still far outside the box at the floor
    assert abs(case.final_state[1]) > 1.0


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
