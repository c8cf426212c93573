"""Time-varying-gain lab: prescribed-time loops, their noise-free deadline
behavior, and constructive bounded-noise attacks that break them.

The package simulates two plant families whose feedback gains grow without
bound as t approaches a deadline T: a controlled integrator chain and the
error dynamics of a prescribed-time differentiator.  It verifies the
absolute-deadline property in the noise-free case, synthesizes arbitrarily
small measurement-noise signals that force divergence or a fixed terminal
error, scans the gain growth, falsifies uniform stability bounds, and
evaluates the stop-early and deadzone mitigations.
"""

# The names the demos, the benchmarks, the tests and the README use; the
# rest of the API is imported from its module (tvglab.core, tvglab.attack, ...).
from .core import (
    GainTable,
    Horizon,
    RationalGain,
    SystemModel,
    differentiator_error_model,
    open_loop_chain,
    rational_diff_error,
    rational_loop,
    reference_loop,
)
from .integrate import (
    IntegrationOptions,
    OutputGrid,
    integrate,
    terminal_state,
)
from .oracle import (
    instability_witness_time,
    reference_solution,
    verify_solver_against_oracle,
)
from .attack import (
    TerminalRampNoise,
    controller_divergence_noise,
    controller_terminal_error_noise,
    default_targets,
    run_controller_ramp_attack,
    run_controller_terminal_attack,
    run_differentiator_terminal_attack,
    run_divergence_attack,
    terminal_plan_window,
)
from .analysis import (
    check_absolute_deadline,
    evaluate_deadzone,
    evaluate_stop_time,
    falsify_uniform_stability,
    gain_bound_at,
    gain_supremum_scan,
    rho_shrink_profile,
)

__version__ = "0.1.0"

__all__ = [
    "GainTable",
    "Horizon",
    "RationalGain",
    "SystemModel",
    "differentiator_error_model",
    "open_loop_chain",
    "rational_diff_error",
    "rational_loop",
    "reference_loop",
    "IntegrationOptions",
    "OutputGrid",
    "integrate",
    "terminal_state",
    "instability_witness_time",
    "reference_solution",
    "verify_solver_against_oracle",
    "TerminalRampNoise",
    "controller_divergence_noise",
    "controller_terminal_error_noise",
    "default_targets",
    "run_controller_ramp_attack",
    "run_controller_terminal_attack",
    "run_differentiator_terminal_attack",
    "run_divergence_attack",
    "terminal_plan_window",
    "check_absolute_deadline",
    "evaluate_deadzone",
    "evaluate_stop_time",
    "falsify_uniform_stability",
    "gain_bound_at",
    "gain_supremum_scan",
    "rho_shrink_profile",
]
