"""Two structural prices of deadline convergence: gain blow-up and the loss
of uniform stability.

First, the feedback magnitude itself: over the box of unit states the
controller output grows like 6/rho^2 as t approaches 1 - rho, and the
differentiator's strongest injection channel grows the same way.  No
saturation level can contain either loop all the way to the deadline.

Second, uniform stability fails outright.  Uniform stability would demand
one bound epsilon for all start times s; but a start of size delta released
at s = T - delta/eps' overshoots any epsilon < eps' because the loop must
bend the trajectory to zero in the remaining delta/eps' of time.
"""

from tvglab import (
    differentiator_error_model,
    falsify_uniform_stability,
    gain_supremum_scan,
    instability_witness_time,
    reference_loop,
)


def main():
    rhos = (1e-1, 1e-2, 1e-3, 1e-4)
    print("== feedback supremum over ||x||inf <= 1, t <= 1 - rho ==")
    control = gain_supremum_scan(reference_loop(), 1.0, rhos)
    diff = gain_supremum_scan(differentiator_error_model(), 1.0, rhos)
    print(f"  {'rho':>6}  {'control sup':>14}  {'injection sup':>14}  {'6/rho^2':>14}")
    for rc, ri in zip(control.rows, diff.rows):
        print(f"  {rc.rho:>6}  {rc.supremum:>14.1f}  {ri.supremum:>14.1f}"
              f"  {6.0 / rc.rho ** 2:>14.1f}")
    assert control.monotone and diff.monotone
    last = control.rows[-1]
    assert abs(last.supremum * last.rho**2 / 6.0 - 1.0) < 0.01
    print("  both track the 6/rho^2 law; the worst state is always the same corner")
    print()

    print("== falsifying uniform stability ==")
    delta, epsilon, margin = 1.0, 2.0, 2.5
    s = instability_witness_time(delta, epsilon, margin)
    print(f"  claim under test: ||x(s)|| = {delta} implies ||x(t)|| <= {epsilon} for all t")
    print(f"  witness start: s = {s} (release {delta}/{margin} before the deadline)")
    witness = falsify_uniform_stability(reference_loop(), delta, epsilon, margin)
    print(f"  crossing at t = {witness.crossing_time:.6f}, "
          f"peak ||x|| = {witness.attained_norm:.6f} at t = {witness.attained_time:.6f}")
    assert witness.crossed
    assert witness.attained_norm > epsilon

    print()
    print("  the same recipe beats any epsilon: later release, same delta")
    for eps in (4.0, 8.0, 16.0):
        w = falsify_uniform_stability(reference_loop(), delta, eps)
        print(f"    epsilon = {eps:>4}: start s = {w.s:.6f}, "
              f"peak {w.attained_norm:.3f} ({'crossed' if w.crossed else 'missed'})")
        assert w.crossed


if __name__ == "__main__":
    main()
