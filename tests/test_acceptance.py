"""Acceptance suite: one test per headline requirement, at stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test also prints a `criterion N: PASS` line with the
measured numbers (visible with -s or on failure).
"""

import math
import os
import time

import numpy as np
import pytest

from tvglab.analysis import (
    check_absolute_deadline,
    evaluate_stop_time,
    falsify_uniform_stability,
    gain_supremum_scan,
    rho_shrink_profile,
)
from tvglab.attack import (
    run_controller_terminal_attack,
    run_differentiator_terminal_attack,
    run_divergence_attack,
)
from tvglab.cli import main
from tvglab.core import (
    differentiator_error_model,
    open_loop_chain,
    reference_loop,
)
from tvglab.oracle import verify_solver_against_oracle

GRID_S = (0.0, 0.3, 0.6)
GRID_XI = ((1.0, 0.0), (0.0, 1.0), (10.0, -10.0))


def test_criterion_1_solver_matches_closed_form():
    """Integrated loop equals the closed-form solution to 1e-6 relative
    sup-norm for 20 random starts with ||xi|| <= 10, in under 10 s."""
    t0 = time.monotonic()
    report = verify_solver_against_oracle(sample_count=20, tol=1e-6, seed=0)
    elapsed = time.monotonic() - t0
    assert report.passed, f"max relative error {report.max_rel_error}"
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    print(f"criterion 1: PASS - max rel error {report.max_rel_error:.3e} "
          f"over 20 cases in {elapsed:.2f} s")


def test_criterion_2_absolute_deadline_with_shrink_and_negative_control():
    """Terminal norm at T - 1e-3 within 0.1 * max(1, ||xi||) on the 3x3 grid
    for both systems; norms shrink at least linearly over rho in
    {1e-2, 1e-3, 1e-4}; the open-loop chain fails the same check."""
    rep_control = check_absolute_deadline(reference_loop(), GRID_S, GRID_XI,
                                          rho=1e-3, tol=0.1)
    assert rep_control.passed
    rep_diff = check_absolute_deadline(differentiator_error_model(), GRID_S, GRID_XI,
                                       rho=1e-3, tol=0.1)
    assert rep_diff.passed
    rhos = (1e-2, 1e-3, 1e-4)
    for model in (reference_loop(), differentiator_error_model()):
        profile = rho_shrink_profile(model, 0.0, (1.0, 0.0), rhos)
        norms = [v for _, v in profile]
        for (ra, na), (rb, nb) in zip(profile, profile[1:]):
            # at least linear: norm ratio no larger than the rho ratio (5% slack)
            assert nb / na <= (rb / ra) * 1.05, (model.variant, na, nb)
    rep_open = check_absolute_deadline(open_loop_chain(), (0.0,), ((0.0, 1.0),),
                                       rho=1e-3, tol=0.1)
    assert not rep_open.passed
    worst = max(c.terminal_norm for c in rep_control.cases + rep_diff.cases)
    print(f"criterion 2: PASS - 18/18 grid cases, worst terminal norm {worst:.3e}, "
          "shrink at least linear, open loop fails")


def test_criterion_3_ramp_noise_pins_terminal_second_component():
    """(eta_bar, epsilon) in {(0.1, 1), (0.01, 0.5), (0.001, 0.2)}: the ramp
    noise leaves x2(T - 1e-6) = -epsilon within 1e-3 * epsilon from two
    different starts each, all in under 30 s."""
    t0 = time.monotonic()
    model = differentiator_error_model()
    worst = 0.0
    for eta_bar, epsilon in ((0.1, 1.0), (0.01, 0.5), (0.001, 0.2)):
        for ic in ((0.0, 0.0), (5.0, -3.0)):
            out = run_differentiator_terminal_attack(model, eta_bar, epsilon,
                                                     np.array(ic), rho=1e-6)
            err = abs(float(out.terminal[1]) + epsilon)
            assert err <= 1e-3 * epsilon, (eta_bar, epsilon, ic, err)
            assert out.verdict
            worst = max(worst, err / epsilon)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    print(f"criterion 3: PASS - worst relative pin error {worst:.3e} "
          f"across 6 runs in {elapsed:.2f} s")


def test_criterion_4_tracking_attack_reaches_terminal_error():
    """Prepared-state attack with epsilon = 0.5, eta_bar = 0.1: tracks the
    planned cascade within 1e-6 sup-norm, ends with ||x(T - 1e-6)|| >= 0.5,
    and respects the noise bound at every recorded step."""
    out = run_controller_terminal_attack(reference_loop(), 0.1, 0.5, rho=1e-6)
    assert out.tracking_error <= 1e-6, out.tracking_error
    terminal_norm = float(np.linalg.norm(out.terminal))
    assert terminal_norm >= 0.5, terminal_norm
    step_norms = np.linalg.norm(out.trajectory.etas, axis=1)
    assert float(np.max(step_norms)) <= 0.1 * (1.0 + 1e-12)
    assert out.verdict
    print(f"criterion 4: PASS - tracking error {out.tracking_error:.3e}, "
          f"terminal norm {terminal_norm:.6f}, max step noise {np.max(step_norms):.6f}")


@pytest.mark.parametrize("eta_bar", [1e-2, 1e-3])
def test_criterion_5_divergence_ladder(eta_bar):
    """Both divergence constructions cross the ladder {0.1, 1, 10} (three
    decades above eta_bar or more) before T - 1e-9, from x0 = 0, with
    strictly increasing crossing times."""
    for model in (reference_loop(rho_min=1e-9), differentiator_error_model(rho_min=1e-9)):
        out = run_divergence_attack(model, eta_bar, thresholds=(0.1, 1.0, 10.0))
        assert np.all(out.trajectory.xs[0] == 0.0)
        times = [t for _, t in out.peaks]
        assert all(t is not None for t in times), (model.variant, out.peaks)
        assert all(t < 1.0 - 1e-9 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert out.verdict
        assert 10.0 / eta_bar >= 1e3
    print(f"criterion 5: PASS - ladder (0.1, 1, 10) crossed by both systems "
          f"at eta_bar = {eta_bar}")


def test_criterion_6_gain_supremum_growth():
    """Gain scans reproduce the 6 delta / rho^2 growth law over
    rho in {1e-1, 1e-2, 1e-3}: each scan value equals the exact corner
    supremum, the dominant term is within 5% once rho <= 1e-2, and the
    fitted log-log slope is within 5% of 2.  At rho = 0.1 the exact
    supremum exceeds the leading term by the documented first-order
    correction (printed below)."""
    rhos = (1e-1, 1e-2, 1e-3)
    scans = {
        "control": (gain_supremum_scan(reference_loop(), 1.0, rhos),
                    lambda rho: 6.0 / rho**2 + 4.0 / rho),
        "injection": (gain_supremum_scan(differentiator_error_model(), 1.0, rhos),
                      lambda rho: 1.0 + 3.0 / rho + 6.0 / rho**2),
    }
    lines = []
    for label, (table, corner) in scans.items():
        assert table.monotone
        sups = [r.supremum for r in table.rows]
        for row in table.rows:
            assert row.supremum == pytest.approx(corner(row.rho), rel=1e-9)
        for rho, sup in zip(rhos, sups):
            if rho <= 1e-2:
                assert abs(sup * rho**2 / 6.0 - 1.0) <= 0.05, (label, rho, sup)
        slope = np.polyfit(np.log(rhos), np.log(sups), 1)[0]
        assert abs(slope + 2.0) <= 0.05 * 2.0, (label, slope)
        lines.append(f"{label}: sups {sups[0]:.0f}/{sups[1]:.0f}/{sups[2]:.0f}, "
                     f"slope {slope:.4f}, rho=0.1 excess over 6/rho^2 "
                     f"{(sups[0] * rhos[0] ** 2 / 6.0 - 1.0) * 100:.2f}%")
    print("criterion 6: PASS - " + "; ".join(lines))


def test_criterion_7_uniform_stability_falsified():
    """(delta, epsilon) = (1, 2) with margin 2.5: witness start s = 0.6 and
    attained norm at least 3.7, within 2% of the 3.78 prediction."""
    witness = falsify_uniform_stability(reference_loop(), 1.0, 2.0, 2.5)
    assert witness.s == pytest.approx(0.6, abs=1e-12)
    assert witness.crossed
    assert witness.attained_norm >= 3.7
    assert abs(witness.attained_norm - 3.78) / 3.78 <= 0.02
    print(f"criterion 7: PASS - witness s = {witness.s}, attained norm "
          f"{witness.attained_norm:.6f} (prediction 3.78)")


def test_criterion_8_stop_time_residual():
    """Noise-free residual at t_stop = 0.9 from (1, 0) equals
    (0.028, -0.54) within 1e-6 absolute; the residual-vs-start fit over
    ||xi|| in {1, 2, 5, 10} has R^2 >= 0.999."""
    report = evaluate_stop_time(reference_loop(), 0.9,
                                ((1.0, 0.0), (2.0, 0.0), (5.0, 0.0), (10.0, 0.0)))
    res = report.cases[0].residual_state
    assert res[0] == pytest.approx(0.028, abs=1e-6)
    assert res[1] == pytest.approx(-0.54, abs=1e-6)
    assert report.r_squared is not None and report.r_squared >= 0.999
    print(f"criterion 8: PASS - residual ({res[0]:.9f}, {res[1]:.9f}), "
          f"R^2 = {report.r_squared:.6f}")


def test_criterion_9_selftest_is_deterministic(tmp_path):
    """Two full selftest runs produce byte-identical artifacts."""
    d1, d2 = str(tmp_path / "one"), str(tmp_path / "two")
    assert main(["selftest", "--output.dir", d1]) == 0
    assert main(["selftest", "--output.dir", d2]) == 0
    names1 = sorted(os.listdir(d1))
    names2 = sorted(os.listdir(d2))
    assert names1 == names2 and len(names1) >= 10
    for name in names1:
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, f"artifact {name} differs between runs"
    print(f"criterion 9: PASS - {len(names1)} artifacts byte-identical across runs")
