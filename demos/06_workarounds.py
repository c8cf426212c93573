"""What the two standard mitigations buy, and what they cost.

Stopping early: freeze the controller at t_stop < T and coast.  The loop is
perfectly well behaved, but the deadline guarantee is gone; the leftover
error at the deadline scales linearly with the start size, with a fixed
ratio determined by t_stop.

Deadzone: switch the loop off once the state enters a small box.  Noise-free
trajectories enter the box and stay near it, but they enter later and later
(and at higher and higher gain) for larger starts.  Worse, the divergence
noise from demo 03 (bound 0.01) keeps the state out of a box of half-width
0.0001 entirely, so the deadzone never disarms the growing gain.  (A box as
wide as the noise bound is no defence: the state passes through it.)
"""

from tvglab import (
    controller_divergence_noise,
    evaluate_deadzone,
    evaluate_stop_time,
    reference_loop,
)


def main():
    print("== stop at t_stop = 0.9, coast to the deadline ==")
    report = evaluate_stop_time(reference_loop(), 0.9,
                                ((1.0, 0.0), (2.0, 0.0), (5.0, 0.0), (10.0, 0.0)))
    for case in report.cases:
        print(f"  from {case.xi}: residual at T is ({case.residual_state[0]:+.6f}, "
              f"{case.residual_state[1]:+.6f}), norm {case.residual_norm:.6f}")
    print(f"  residual norm = {report.slope:.6f} * start norm "
          f"+ {report.intercept:.2e}  (R^2 = {report.r_squared:.6f})")
    assert report.r_squared > 0.999
    print("  convergence is lost: the residual never shrinks below ~54% of")
    print("  the start size at this t_stop, no matter how long we wait")
    print()

    print("== deadzone of half-width 0.01, noise-free ==")
    model = reference_loop(rho_min=1e-6)
    clean = evaluate_deadzone(model, 1e-2, ((1.0, 0.0), (10.0, 0.0), (100.0, 0.0)))
    for case in clean.cases:
        print(f"  from {case.xi}: enters at t = {case.entry_time:.8f}, "
              f"|feedback at entry| = {abs(case.gain_at_entry):.1f}")
    entries = [c.entry_time for c in clean.cases]
    gains = [abs(c.gain_at_entry) for c in clean.cases]
    assert entries == sorted(entries) and gains == sorted(gains)
    print("  larger starts enter later and pay more gain first")
    print()

    print("== deadzone of half-width 0.0001 under the divergence noise (bound 0.01) ==")
    noisy = evaluate_deadzone(model, 1e-4, ((10.0, 0.0),),
                              noise=lambda: controller_divergence_noise(1e-2))
    case = noisy.cases[0]
    print(f"  entered the box: {case.entered}")
    print(f"  state at the integration floor: ({case.final_state[0]:+.4f}, "
          f"{case.final_state[1]:+.4f})")
    assert noisy.no_entry_flags == (0,)
    print("  the noise keeps the state outside the box, so the deadzone")
    print("  never triggers and the gain keeps growing")


if __name__ == "__main__":
    main()
