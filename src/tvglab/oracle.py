"""Independent ground truth for solver validation.

The reference loop admits closed-form trajectories (cubic polynomials in
1 - t), so the adaptive integrator can be checked against exact states at
arbitrary times.  The witness-time formula turns a deadline guarantee into
a constructive lower bound used by the stability falsifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import reference_loop
from .integrate import integrate


def reference_solution(s: float, xi, t):
    """Exact state of the reference loop at time t, started from x(s) = xi.

    Requires 0 <= s <= t <= 1 and s < 1.  Both components are cubic
    polynomials in (1 - t); they vanish at t = 1 for every (s, xi), which is
    the loop's defining deadline property.  t may be a scalar or an array;
    the result has shape (2,) or (len(t), 2).
    """
    if not (0.0 <= s < 1.0):
        raise ValueError(f"start time s must lie in [0, 1), got {s!r}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < s) or np.any(t_arr > 1.0):
        raise ValueError("evaluation times must lie in [s, 1]")
    xi_arr = np.asarray(xi, dtype=float).reshape(-1)
    if xi_arr.shape != (2,):
        raise ValueError(f"initial state must have two components, got {xi_arr.shape}")
    xi1, xi2 = float(xi_arr[0]), float(xi_arr[1])
    us = 1.0 - s
    u = 1.0 - t_arr
    x1 = (3.0 * u**2 / us**2 - 2.0 * u**3 / us**3) * xi1 + (u**2 / us - u**3 / us**2) * xi2
    x2 = (6.0 * u**2 / us**3 - 6.0 * u / us**2) * xi1 + (3.0 * u**2 / us**2 - 2.0 * u / us) * xi2
    out = np.stack([x1, x2], axis=-1)
    return out


def instability_witness_time(delta: float, epsilon: float,
                             eps_prime: Optional[float] = None, T: float = 1.0) -> float:
    """Start time s = T - delta/eps_prime for a uniform-stability counterexample.

    For any loop that drives every trajectory to zero exactly at T, a
    trajectory whose first component has magnitude delta at a start time
    s' >= s must exceed norm epsilon at some instant before T.  eps_prime
    must exceed max(epsilon, delta); it defaults to 1.05 times that maximum.
    Raises when the resulting s would be negative (delta too large for the
    requested epsilon on this horizon).
    """
    if not (delta > 0.0 and epsilon > 0.0):
        raise ValueError("delta and epsilon must be positive")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("T must be positive and finite")
    floor = max(epsilon, delta)
    if eps_prime is None:
        eps_prime = 1.05 * floor
    if not eps_prime > floor:
        raise ValueError(
            f"eps_prime={eps_prime!r} must strictly exceed max(epsilon, delta)={floor!r}")
    s = T - delta / eps_prime
    if s < 0.0:
        raise ValueError(
            f"infeasible witness: delta/eps_prime = {delta / eps_prime!r} exceeds the horizon T={T!r}")
    return s


@dataclass(frozen=True)
class SolverCheckCase:
    s: float
    xi: tuple[float, float]
    max_rel_error: float


@dataclass(frozen=True)
class SolverCheckReport:
    """Worst relative sup-norm deviation between solver and closed form."""

    cases: tuple[SolverCheckCase, ...]
    tol: float
    max_rel_error: float
    passed: bool


def verify_solver_against_oracle(sample_count: int = 20, tol: float = 1e-6,
                                 seed: int = 0) -> SolverCheckReport:
    """Integrate the reference loop from random (s, xi) and compare to the oracle.

    Start times are drawn from [0, 0.9] and initial states from the ball
    ||xi|| <= 10.  Each run, under the default IntegrationOptions, has its
    dense output compared at 200 uniform points over [s, 1 - 1e-4]; the
    per-case error is the sup-norm deviation divided by the sup-norm
    magnitude of the closed-form trajectory.  Only this sampling consumes
    the seed.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = np.random.default_rng(seed)
    model = reference_loop()
    t_end = 1.0 - 1e-4
    cases = []
    worst = 0.0
    for _ in range(sample_count):
        s = float(rng.uniform(0.0, 0.9))
        direction = rng.normal(size=2)
        direction /= max(math.hypot(*direction), 1e-300)
        radius = float(rng.uniform(0.0, 10.0))
        xi = radius * direction
        traj = integrate(model, None, xi, s, t_end)
        tgrid = np.linspace(s, t_end, 200)
        x_num = traj.state_at(tgrid)
        x_ref = reference_solution(s, xi, tgrid)
        scale = max(float(np.max(np.abs(x_ref))), 1e-300)
        rel = float(np.max(np.abs(x_num - x_ref))) / scale
        cases.append(SolverCheckCase(s=s, xi=(float(xi[0]), float(xi[1])), max_rel_error=rel))
        worst = max(worst, rel)
    return SolverCheckReport(cases=tuple(cases), tol=tol, max_rel_error=worst, passed=worst <= tol)
