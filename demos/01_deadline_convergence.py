"""Noise-free behavior of the bundled loop: exact arrival at the deadline.

The reference loop steers a double integrator with state feedback whose
gains grow like 1/(1-t) and 1/(1-t)^2.  Every noise-free trajectory lands
at the origin exactly at t = 1, no matter where or when it starts.  This
script integrates the loop, checks it against the closed-form solution,
and shows the terminal norm shrinking as we evaluate closer to t = 1.
"""

import numpy as np

from tvglab import (
    integrate,
    reference_loop,
    reference_solution,
    rho_shrink_profile,
    verify_solver_against_oracle,
)


def main():
    model = reference_loop()

    print("== integrating from x(0) = (1, 0) ==")
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 1.0 - 1e-6)
    # nine times, geometric in the distance 1 - t to the deadline
    ts = 1.0 - np.geomspace(1.0, 1e-6, 9)
    xs = traj.state_at(ts)
    exact = reference_solution(0.0, (1.0, 0.0), ts)
    for t, x, e in zip(ts, xs, exact):
        print(f"  t = {t:.8f}  x = ({x[0]: .3e}, {x[1]: .3e})"
              f"  closed form ({e[0]: .3e}, {e[1]: .3e})")
    err = np.max(np.abs(xs - exact))
    print(f"worst deviation from the closed form: {err:.3e}")
    assert err < 1e-8

    print()
    print("== solver vs closed form, 20 random starts ==")
    report = verify_solver_against_oracle(sample_count=20, tol=1e-6, seed=0)
    print(f"max relative sup-norm error: {report.max_rel_error:.3e} "
          f"({'pass' if report.passed else 'FAIL'})")
    assert report.passed

    print()
    print("== terminal norm vs distance to the deadline ==")
    profile = rho_shrink_profile(model, 0.0, (1.0, 0.0), (1e-2, 1e-3, 1e-4, 1e-5))
    for rho, norm in profile:
        print(f"  ||x(1 - {rho:.0e})|| = {norm:.6e}")
    norms = [v for _, v in profile]
    for a, b in zip(norms, norms[1:]):
        assert b < a / 9.0  # at least linear decay in rho
    print("terminal norm decays at least linearly in rho, as built")


if __name__ == "__main__":
    main()
