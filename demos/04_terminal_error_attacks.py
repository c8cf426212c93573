"""Bounded noise can also pin the terminal state away from zero.

Divergence is not the only failure mode.  A second family of noise signals
keeps the state bounded and lands it at a chosen distance epsilon from the
origin exactly at the deadline, for any noise budget eta_bar.

For the differentiator, a scalar ramp does it: hold -eta_bar, then ramp up
with slope epsilon from s = T - 2 eta_bar / epsilon.  The loop tracks the
ramp's slope, so the second state component ends at -epsilon regardless of
the initial condition.

For the control loop, the noise makes the measured state follow a planned
cascade whose last component sits at -2 epsilon.  The loop then tracks the
plan exactly and ends at norm >= epsilon.  Starting on the plan is the
cleanest demonstration.  From an arbitrary start, the differentiator's ramp
on the first measured channel does the same: with gains c1/(T-t)^2 and
c2/(T-t), a ramp of slope k leaves x2(T) = k c1/(c2 - c1), which is -3 k on
the reference loop, so the slope 2 epsilon / 3 parks x2 at -2 epsilon.
"""

import numpy as np

from tvglab import (
    differentiator_error_model,
    reference_loop,
    run_controller_ramp_attack,
    run_controller_terminal_attack,
    run_differentiator_terminal_attack,
    terminal_plan_window,
)


def main():
    print("== differentiator: ramp noise pins x2(T) = -epsilon ==")
    model = differentiator_error_model()
    for eta_bar, epsilon in ((0.1, 1.0), (0.01, 0.5), (0.001, 0.2)):
        for ic in ((0.0, 0.0), (5.0, -3.0)):
            out = run_differentiator_terminal_attack(model, eta_bar, epsilon, np.array(ic))
            print(f"  eta_bar {eta_bar:<6} epsilon {epsilon:<4} from {ic}: "
                  f"ramp starts s = {out.ramp.s:.2f}, "
                  f"x2(T - 1e-6) = {out.terminal[1]:+.9f}")
            assert out.verdict
    print("  same terminal value from every start: the ramp wins")
    print()

    print("== control loop: tracking attack with eta_bar = 0.1, epsilon = 0.5 ==")
    window = terminal_plan_window(2, 0.1, 0.5)
    print(f"  feasible plan starts: s in ({window[0]:.6f}, {window[1]})")
    out = run_controller_terminal_attack(reference_loop(), 0.1, 0.5)
    print(f"  prepared start at s = {out.plan.s:.6f}")
    print(f"  sup-norm tracking error: {out.tracking_error:.3e}")
    print(f"  terminal state: ({out.terminal[0]:+.6f}, {out.terminal[1]:+.6f}), "
          f"norm {np.linalg.norm(out.terminal):.6f}")
    worst_eta = float(np.max(np.linalg.norm(out.trajectory.etas, axis=1)))
    print(f"  largest noise used: {worst_eta:.6f} (budget 0.1)")
    assert out.verdict and out.tracking_error < 1e-6 and worst_eta <= 0.1

    print()
    print("== control loop: ramp from any start, eta_bar = 0.1, epsilon = 0.5 ==")
    for ic in ((1.0, 1.0), (-5.0, 7.0)):
        out = run_controller_ramp_attack(reference_loop(), 0.1, 0.5, np.array(ic))
        print(f"  from {ic}: slope {out.ramp.slope:.6f}, ramp starts s = {out.ramp.s:.2f}, "
              f"x2(T - 1e-6) = {out.terminal[1]:+.6f}, terminal norm "
              f"{np.linalg.norm(out.terminal):.6f}")
        assert out.verdict


if __name__ == "__main__":
    main()
