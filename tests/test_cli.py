"""Config parsing, CSV artifacts, exit codes, and run determinism."""

import dataclasses
import importlib
import inspect
import math
import os
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvglab import analysis, attack, cli
from tvglab.cli import (
    ConfigError,
    ExperimentConfig,
    Form,
    fmt,
    main,
    parse_config,
    parse_trajectory_csv,
    trajectory_rows,
    write_trajectory_csv,
)
from tvglab.core import DisturbanceSpec, GainTable, reference_loop
from tvglab.integrate import integrate


def test_fmt_round_trips_reference_values():
    for v in (0.0, -0.0, 1.0, math.pi, 1e-300, -6.25e17, 0.1):
        assert float(fmt(v)) == v


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_all_finite_floats(v):
    assert float(fmt(v)) == v


def test_parse_config_happy_path():
    cfg = parse_config(
        """
        # comment line
        scenario = verify-deadline
        system.T = 1.0
        deadline.rho = 1e-3   # trailing comment
        deadline.ics = 1,0; 0,1
        """)
    assert cfg.scenario == "verify-deadline"
    assert cfg.values["deadline.rho"] == 1e-3
    assert cfg.values["deadline.ics"] == ((1.0, 0.0), (0.0, 1.0))
    assert cfg.values["system.variant"] == "control_loop"  # inferred default


def test_parse_config_collects_every_violation_with_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config(
            "scenario = verify-deadline\n"
            "system.T = -1\n"
            "deadline.rho = 0\n"
            "nonsense.key = 5\n"
            "deadline.tol 0.1\n")
    messages = err.value.violations
    assert len(messages) == 4
    assert any("line 2" in m and "system.T" in m for m in messages)
    assert any("line 3" in m and "deadline.rho" in m for m in messages)
    assert any("line 4" in m and "unknown key" in m for m in messages)
    assert any("line 5" in m for m in messages)


def test_parse_config_requires_scenario():
    with pytest.raises(ConfigError) as err:
        parse_config("system.T = 1.0\n")
    assert any("scenario" in m for m in err.value.violations)


def test_parse_config_subcommand_fills_scenario():
    cfg = parse_config("", subcommand="gain-scan")
    assert cfg.scenario == "gain-scan"
    cfg2 = parse_config("attack.kind = diff-terminal\nattack.eta_bar = 0.1\n"
                        "attack.epsilon = 1.0\n", subcommand="attack")
    assert cfg2.scenario == "attack.diff-terminal"
    assert cfg2.values["system.variant"] == "diff_error"


def test_parse_config_rejects_scenario_subcommand_mismatch():
    with pytest.raises(ConfigError):
        parse_config("scenario = simulate\nsim.x0 = 1,0\n", subcommand="gain-scan")


def test_parse_config_flag_overrides_win():
    cfg = parse_config("scenario = simulate\nsim.x0 = 1,0\nsystem.T = 1.0\n",
                       overrides=[("sim.s", "0.25")])
    assert cfg.values["sim.s"] == 0.25
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = simulate\nsim.x0 = 1,0\n",
                     overrides=[("sim.s", "oops")])
    assert any("flag --sim.s" in m for m in err.value.violations)


def test_parse_config_cross_field_requirements():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = attack.controller-terminal\n")
    msgs = " ".join(err.value.violations)
    assert "attack.eta_bar" in msgs and "attack.epsilon" in msgs
    with pytest.raises(ConfigError):
        parse_config("scenario = attack.diff-divergence\n"
                     "system.variant = control_loop\n"
                     "attack.eta_bar = 0.01\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = simulate\nsim.x0 = 1,0\nsystem.gains = zero\n")


_REMOVED_KEYS = [("system.controller", "zero"), ("system.injection", "zero"), ("system.n", "3"),
                 ("system.ell1", "5"), ("system.ell2", "5"), ("disturbance.kind", "constant"),
                 ("disturbance.value", "0.7"), ("disturbance.amplitude", "5"),
                 ("disturbance.frequency", "3"), ("disturbance.phase", "1"),
                 ("disturbance.samples", "0.2,0.1")]
_BAD_FORMS = [("system.gains", "pt_diff2:1", "pt_diff2 takes 2 parameter(s), got 1"),
              ("system.gains", "zero:x", "invalid literal for int() with base 10: 'x'"),
              ("system.gains", "reference:1", "reference takes 0 parameter(s), got 1"),
              ("system.gains", "ref:1", "unknown form 'ref'; the forms are reference, "
                                        "pt_diff2, zero, a gain table"),
              ("disturbance.signal", "sinusoid:1,2", "sinusoid takes 3 parameter(s), got 2"),
              ("disturbance.signal", "constant:", "constant takes 1 parameter(s), got 0"),
              ("disturbance.signal", "step", "unknown form 'step'; the forms are zero, "
                                             "constant, sinusoid, piecewise"),
              ("disturbance.signal", "piecewise:0.5", "piecewise sample '0.5' must look like t,v"),
              ("disturbance.signal", "piecewise:0.5,1,2; 0.7,0",
               "piecewise sample '0.5,1,2' must look like t,v")]
_REFERENCE_AT_T2 = ["simulate", "--system.T", "2", "--sim.x0", "1,0"]


@pytest.mark.parametrize("argv, message", [
    (_REFERENCE_AT_T2, "system.T: the reference controller is defined for T = 1"),
    (["verify-deadline", "--deadline.starts", "0.5,1.5,-0.1"],
     "deadline.starts: 1.5, -0.1 outside [0, system.T - deadline.rho) = [0, 0.999)"),
    (["verify-deadline", "--deadline.starts", ""], "deadline.starts must not be empty"),
    (["verify-deadline", "--deadline.ics", ""], "deadline.ics must not be empty"),
    (["workaround", "--workaround.variant", "deadzone", "--workaround.ics", ""],
     "workaround.ics must not be empty"),
    (["simulate", "--sim.x0", "1,0,0"], "sim.x0: the model has 2 channels, got 1.0,0.0,0.0"),
    (["verify-deadline", "--deadline.ics", "1,0; 1,0,0; 2"],
     "deadline.ics: the model has 2 channels, got 1.0,0.0,0.0; 2.0"),
    (["workaround", "--workaround.variant", "stop-time", "--workaround.ics", "1,0,0"],
     "workaround.ics: the model has 2 channels, got 1.0,0.0,0.0"),
    # the divergence noise drives the control loop only
    (["workaround", "--workaround.variant", "deadzone", "--system.variant", "diff_error",
      "--workaround.noise_eta_bar", "1e-2"],
     "workaround.noise_eta_bar: the divergence noise needs system.variant = control_loop"),
    (["attack", "--attack.kind", "controller-terminal", "--attack.eta_bar", "0.01",
      "--attack.epsilon", "0.5", "--attack.x0", "1,0,0"],
     "attack.x0: the model has 2 channels, got 1.0,0.0,0.0"),
    (["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1",
      "--attack.epsilon", "1", "--attack.x0", "1,0,0"],
     "attack.x0: the model has 2 channels, got 1.0,0.0,0.0"),
    (["simulate", "--system.gains", "zero:3", "--sim.x0", "1,0"],
     "sim.x0: the model has 3 channels, got 1.0,0.0"),
    (["simulate", "--system.gains", "-60,3; -36,2; -9,1", "--sim.x0", "1,0"],
     "sim.x0: the model has 3 channels, got 1.0,0.0"),
    # Python's float power raised OverflowError at the first rhs, a traceback
    (["simulate", "--system.T", "1e10", "--system.gains", "-1,40; -1,1", "--sim.x0", "1,0"],
     "gain pole order 40 overflows at T=10000000000.0: (T - t)**40 is beyond the float range"),
    # each model part is one key: the parameter keys of one form are gone
    *[(["simulate", f"--{key}", value, "--sim.x0", "1,0"],
       f"flag --{key}: unknown key {key!r}") for key, value in _REMOVED_KEYS],
    # a form takes exactly its own parameters
    *[(["simulate", f"--{key}", value, "--sim.x0", "1,0"],
       f"flag --{key}: bad value for {key}: {message}") for key, value, message in _BAD_FORMS],
], ids=["reference_at_T2", "deadline_starts_out_of_range",
        "deadline_starts_empty", "deadline_ics_empty", "workaround_ics_empty",
        "sim_x0_length", "deadline_ics_length", "workaround_ics_length",
        "workaround_noise_diff_error", "controller_ramp_x0_length", "diff_terminal_x0_length",
        "zero_table_x0_length",
        "rational_table_x0_length", "gain_power_overflow",
        *[f"removed_{key}" for key, _ in _REMOVED_KEYS],
        *[f"bad_form_{value}" for _, value, _ in _BAD_FORMS]])
def test_model_config_errors_fail_at_parse_time(tmp_path, capsys, argv, message):
    subcommand, *flags = argv
    _, overrides, _ = cli._split_flags(flags)
    with pytest.raises(ConfigError) as err:
        parse_config("", subcommand=subcommand, overrides=overrides)
    assert list(err.value.violations) == [message]
    assert main(argv + ["--output.dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


_SIM = ["simulate", "--sim.x0", "1,0"]
_PIECEWISE = ["--disturbance.bound", "0.5", "--disturbance.signal"]
_CONTROLLER_TERMINAL = ["attack", "--attack.kind", "controller-terminal",
                        "--attack.eta_bar", "0.01", "--attack.epsilon", "0.5"]
_NO_PLAN = ("controller is unbounded along every linear tracking profile; "
            "no terminal-error plan exists for this gain table")
_DIVERGENCE = {kind: ["attack", "--attack.kind", kind, "--attack.eta_bar", "0.01"]
               for kind in ("controller-divergence", "diff-divergence")}


@pytest.mark.parametrize("argv, message", [
    (_SIM + ["--system.rho_min", "2"], "rho_min must lie in (0, T), got 2.0"),
    (_SIM + ["--system.rho_min", "1e-20"], "rho_min=1e-20 is below the minimum step 1e-13 * T"),
    (_SIM + ["--sim.t_end", "5"], "t_end=5.0 exceeds T - rho_min = 0.999999999"),
    (_SIM + ["--sim.s", "0.99", "--sim.t_end", "0.5"],
     "need 0 <= t0 < t_end, got t0=0.99, t_end=0.5"),
    (_SIM + ["--system.gains", "-6,-2; -4,1"],
     "pole order must be a nonnegative integer, got -2"),
    (_SIM + _PIECEWISE + ["piecewise:0.6,0.1; 0.2,0.1"],
     "piecewise disturbance samples must be time sorted"),
    (_SIM + _PIECEWISE + ["piecewise:0.2,0.6"],
     "piecewise disturbance sample exceeds the declared bound"),
    (["simulate", "--system.gains", "-6,2", "--sim.x0", "1"],
     "gain table needs at least two channels"),
    (["gain-scan", "--scan.rhos", "0.1,0.2"],
     "rhos must be a nonempty strictly decreasing sequence"),
    (["gain-scan", "--scan.rhos", ""], "rhos must be a nonempty strictly decreasing sequence"),
    (["gain-scan", "--scan.rhos", "2,0.1"], "rho values must lie in (0, T)"),
    (["verify-deadline", "--deadline.shrink_rhos", "1e-4,1e-3"],
     "rhos must be a nonempty strictly decreasing sequence"),
    (["workaround", "--workaround.variant", "stop-time", "--workaround.t_stop", "2"],
     "t_stop must lie in (0, T - rho_min)"),
    (_CONTROLLER_TERMINAL + ["--attack.s", "2"], "s must lie in [0, T)"),
    (_CONTROLLER_TERMINAL + ["--attack.s", "0.99"],
     "requested start s=0.99 violates the plan's noise or window budget; move s closer to T"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.targets", "2,1"],
     "targets must be a nonempty strictly increasing sequence"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.thresholds", "2,1"],
     "thresholds must be a nonempty strictly increasing sequence"),
    # an empty ladder proves nothing: all([]) held, and the verdict passed
    (_DIVERGENCE["controller-divergence"] + ["--attack.thresholds", ""],
     "thresholds must be a nonempty strictly increasing sequence"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.thresholds=0,2"],
     "thresholds must be positive"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.delta", "0.5"],
     "delta must lie in (0, eta_bar]"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.targets=0,2"], "targets must be positive"),
    (_DIVERGENCE["diff-divergence"] + ["--attack.targets", "2,1"],
     "targets must be a nonempty strictly increasing sequence"),
    (_DIVERGENCE["diff-divergence"] + ["--attack.targets=0,2"], "targets must be positive"),
    (_DIVERGENCE["diff-divergence"] + ["--attack.thresholds", "2,1"],
     "thresholds must be a nonempty strictly increasing sequence"),
    (_DIVERGENCE["diff-divergence"] + ["--attack.thresholds", ""],
     "thresholds must be a nonempty strictly increasing sequence"),
    # a start on or above the ladder would read crossings at t = 0
    (_DIVERGENCE["controller-divergence"] + ["--attack.x0", "20,0", "--system.rho_min", "1e-9"],
     "the start norm 20.0 is not below the first threshold 0.1 of attack.thresholds"),
    (_DIVERGENCE["diff-divergence"] + ["--attack.x0", "0,0.5", "--attack.thresholds", "0.5,5"],
     "the start norm 0.5 is not below the first threshold 0.5 of attack.thresholds"),
    (_CONTROLLER_TERMINAL + ["--system.gains", "-60,3; -36,2; -9,1", "--attack.x0", "1,0,0"],
     "controller ramp attack needs the gains c1/(T-t)^2, c2/(T-t), one term each; "
     "got pole orders [[3], [2], [1]]"),
    (_CONTROLLER_TERMINAL + ["--system.gains", "-0.5,1; -1,1", "--attack.x0", "1,0"],
     "controller ramp attack needs the gains c1/(T-t)^2, c2/(T-t), one term each; "
     "got pole orders [[1], [1]]"),
    (_CONTROLLER_TERMINAL + ["--attack.psi_init", "0,0"], "psi_init needs 1 values, got 2"),
    (_CONTROLLER_TERMINAL + ["--system.gains", "-0.5,1; -1,1"], _NO_PLAN),
    (_CONTROLLER_TERMINAL + ["--system.gains", "-2,1; -3,1; -1,1"], _NO_PLAN),
    # a ramp that starts at or after T - rho would give a verdict on a run
    # that never saw it
    (["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "1e-7", "--attack.epsilon", "1"],
     "the ramp starts at s=0.9999998, not before T - rho = 0.999999 (attack.rho = 1e-06)"),
    (["attack", "--attack.kind", "controller-terminal", "--attack.x0", "1,0", "--attack.eta_bar",
      "1e-7", "--attack.epsilon", "1"],
     "the ramp starts at s=0.9999997, not before T - rho = 0.999999 (attack.rho = 1e-06)"),
    (["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1", "--attack.epsilon", "1",
      "--attack.rho", "0.5"],
     "the ramp starts at s=0.8, not before T - rho = 0.5 (attack.rho = 0.5)"),
], ids=["rho_min_past_T", "rho_min_below_min_step", "t_end_past_floor", "t_end_before_s",
        "negative_pole_order", "piecewise_unsorted", "piecewise_over_bound", "one_channel_table",
        "scan_rhos_increasing", "scan_rhos_empty", "scan_rhos_past_T", "shrink_rhos_increasing",
        "t_stop_past_T", "plan_start_past_T", "plan_start_late", "controller_targets_decreasing",
        "controller_thresholds_decreasing", "controller_thresholds_empty",
        "controller_threshold_zero", "delta_above_eta_bar", "controller_target_zero",
        "diff_targets_decreasing", "diff_target_zero", "diff_thresholds_decreasing",
        "diff_thresholds_empty", "controller_start_above_ladder", "diff_start_on_ladder",
        "ramp_order_3", "ramp_simple_poles", "psi_init_length", "no_plan_2",
        "no_plan_3", "diff_ramp_past_rho", "controller_ramp_past_rho", "diff_ramp_past_large_rho"])
def test_library_value_error_is_a_config_error(tmp_path, capsys, argv, message):
    # bad input the library rejects with ValueError, at parse time (while the
    # model is built) or when the scenario runs, exits 1 and writes nothing
    out = tmp_path / "out"
    assert main(argv + ["--output.dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (_DIVERGENCE["diff-divergence"] + ["--attack.psi_init", "5", "--attack.tol", "7"],
     "attack kind diff-divergence does not read attack.psi_init, attack.tol"),
    # the differentiator's ramps have no held amplitude
    (_DIVERGENCE["diff-divergence"] + ["--attack.delta", "0.005"],
     "attack kind diff-divergence does not read attack.delta"),
    (_DIVERGENCE["controller-divergence"] + ["--attack.epsilon", "0.5", "--attack.tol", "1e-3"],
     "attack kind controller-divergence does not read attack.epsilon, attack.tol"),
    # attack.x0 picks the ramp attack, which reads no tolerance
    (_CONTROLLER_TERMINAL + ["--attack.x0", "1,0", "--attack.tol", "1e-3"],
     "attack kind controller-terminal with attack.x0 does not read attack.tol"),
    # nor a plan start, as the prelude run it replaced did not either
    (_CONTROLLER_TERMINAL + ["--attack.x0", "1,0", "--attack.s", "0.9", "--attack.psi_init", "0"],
     "attack kind controller-terminal with attack.x0 does not read attack.psi_init, attack.s"),
    (["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1", "--attack.epsilon", "1",
      "--attack.thresholds", "1,2"],
     "attack kind diff-terminal does not read attack.thresholds"),
], ids=["diff_divergence_psi_init_tol", "diff_divergence_delta", "controller_divergence_epsilon",
        "controller_terminal_x0", "prelude_s_psi_init", "diff_terminal_thresholds"])
def test_attack_key_the_kind_does_not_read_is_a_config_error(tmp_path, capsys, argv, message):
    _, overrides, _ = cli._split_flags(argv[1:])
    with pytest.raises(ConfigError) as err:
        parse_config("", subcommand="attack", overrides=overrides)
    assert list(err.value.violations) == [message]
    out = tmp_path / "out"
    assert main(argv + ["--output.dir", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists() or not any(out.iterdir())


def test_every_attack_key_a_kind_reads_is_accepted():
    values = {"eta_bar": "0.01", "epsilon": "0.5", "delta": "0.005", "targets": "1,2",
              "thresholds": "0.1,1", "x0": "1,0", "rho": "1e-6", "tol": "1e-3", "s": "0.99",
              "psi_init": "0"}
    runs = [*cli._ATTACK_RUNS.items(), ("controller-terminal", cli._RAMP_RUN)]
    for kind, (runner, keys) in runs:
        # every key names a parameter of the runner, which gets it by name
        inspect.signature(runner).bind(None, opts=None, **dict.fromkeys(keys))
        overrides = [("attack.kind", kind)] + [(f"attack.{key}", values[key]) for key in keys]
        cfg = parse_config("", subcommand="attack", overrides=overrides)
        assert cfg.explicit == {key for key, _ in overrides}
        assert cli._attack_run(kind, cfg) == (runner, keys)


@pytest.mark.parametrize("argv", [
    ["verify-deadline", "--deadline.shrink_rhos", "1e-4,1e-3"],
    _DIVERGENCE["controller-divergence"] + ["--attack.thresholds", "2,1"],
    _DIVERGENCE["diff-divergence"] + ["--attack.thresholds", "2,1"],
], ids=["shrink_rhos_increasing", "controller_thresholds_decreasing",
        "diff_thresholds_decreasing"])
def test_bad_ladder_is_rejected_before_any_integration(tmp_path, monkeypatch, argv):
    runs = []

    def recorded(*args, **kwargs):
        runs.append(args)
        return integrate(*args, **kwargs)

    for module in (analysis, attack, cli):
        monkeypatch.setattr(module, "integrate", recorded)
    assert main(argv + ["--output.dir", str(tmp_path)]) == 1
    assert runs == []


@pytest.mark.parametrize("argv", [
    _CONTROLLER_TERMINAL + ["--integration.max_norm", "0.5"],
    ["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1", "--attack.epsilon", "1",
     "--integration.max_norm", "0.05"],
    # the ramp attack from x0 = (1, 0) swings past the norm bound on its way to T
    _CONTROLLER_TERMINAL + ["--attack.x0", "1,0", "--integration.max_norm", "0.5"],
], ids=["controller_terminal", "diff_terminal", "controller_ramp"])
def test_terminal_attack_that_stops_early_is_a_numerical_failure(tmp_path, capsys, argv):
    assert main(argv + ["--output.dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: integration stopped early: blow_up"]


def test_controller_ramp_attack_runs_from_any_start(tmp_path):
    # a start the cascade plan's steering search once ended in step_underflow from
    code = main(_CONTROLLER_TERMINAL + ["--attack.x0", "0.3,-0.2", "--output.dir", str(tmp_path)])
    assert code == 0
    parsed = parse_trajectory_csv(str(tmp_path / "tvglab_attack_controller_terminal.csv"))
    # slope 2 epsilon / 3 on the reference loop: s = T - 3 eta_bar / epsilon
    assert [c for c in parsed["comments"] if c.startswith("# ramp")] == [
        f"# ramp: s = {fmt(1.0 - 2.0 * 0.01 / (2.0 * 0.5 / 3.0))}"]
    assert parsed["etas"][0].tolist() == [-0.01, 0.0]
    summary = (tmp_path / "tvglab_attack_controller_terminal_summary.txt").read_text().splitlines()
    assert "verdict: pass" in summary
    state, = [line for line in summary if line.startswith("terminal state: ")]
    terminal = [float(v) for v in state.removeprefix("terminal state: ").split(", ")]
    assert abs(terminal[1] + 1.0) <= 1e-2


def test_reference_horizon_check_leaves_selftest_and_other_tables_alone():
    # selftest rejects system.T when it runs, and its checks' flags leave
    # system.T at 1; the differentiator's table has no fixed horizon
    parse_config("", subcommand="selftest", overrides=[("system.T", "2")])
    parse_config("", subcommand="simulate",
                 overrides=[("system.T", "2"), ("sim.x0", "1,0"), ("system.variant", "diff_error")])
    parse_config("", subcommand="simulate",
                 overrides=[("system.T", "1"), ("sim.x0", "1,0")])


def test_selftest_rejects_every_key_it_does_not_read(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["selftest", "--integration.rel_tol", "5e-10", "--attack.eta_bar", "0.5",
            "--system.T", "3", "--seed", "0", "--output.prefix", "st", "--output.dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: selftest reads no key but seed and output.*; "
        "got attack.eta_bar, integration.rel_tol, system.T"]
    assert not out.exists()


@pytest.mark.parametrize("flags, fragment", [
    (["stray"], "config error: unexpected argument 'stray'"),
    (["--sim.x0"], "config error: flag --sim.x0 needs a value"),
])
def test_flag_problems_are_config_errors(capsys, flags, fragment):
    assert main(["simulate", *flags]) == 1
    assert capsys.readouterr().err.startswith(fragment)


def test_parse_config_choice_validation():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = verify-deadline\nsim.grid = cubic\nsim.grid_count = 1\n")
    assert any("sim.grid must be one of" in m for m in err.value.violations)
    assert any("sim.grid_count must lie in [2, " in m for m in err.value.violations)


def test_trajectory_csv_round_trip_is_bit_exact(tmp_path):
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.97)
    rows = trajectory_rows(model, traj, 1.0 - np.geomspace(1.0, 0.03, 50))
    assert len(rows["ts"]) > len(traj.ts)
    path = str(tmp_path / "traj.csv")
    write_trajectory_csv(path, rows, None, ["# note: round trip fixture"])
    parsed = parse_trajectory_csv(path)
    assert parsed["header"] == ["t", "x1", "x2", "eta1", "eta2", "gain_out"]
    _assert_same_table(parsed, rows)
    assert "# note: round trip fixture" in parsed["comments"]


def _table_rows(variant, values):
    """The trajectory CSV columns of a two-channel model of the given
    variant, filled row by row from values (t, x1, x2, eta..., gain_out)."""
    cols = 6 if variant == "control_loop" else 5
    data = np.asarray(values, dtype=float).reshape(-1, cols)
    return {"ts": data[:, 0], "xs": data[:, 1:3], "etas": data[:, 3:-1], "gains": data[:, -1]}


def _body(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[1:]


def _assert_same_table(parsed, rows):
    for key in ("ts", "xs", "etas", "gains"):
        assert parsed[key].shape == rows[key].shape
        assert parsed[key].tobytes() == rows[key].tobytes()


@pytest.mark.parametrize("variant", ["control_loop", "diff_error"])
def test_trajectory_csv_rows_are_fmt_text(tmp_path, variant):
    edge = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e-300,
            math.nextafter(1e-300, 0.0), -math.nextafter(1e-300, 1.0), 2.2250738585072014e-308,
            -1.7976931348623157e308, 0.0, -5e-324]
    cols = 6 if variant == "control_loop" else 5
    # every value in every column, over more rows than one written block
    columns = _table_rows(variant, [np.roll(edge, k)[:cols] for k in range(1100)])
    path = str(tmp_path / "edge.csv")
    write_trajectory_csv(path, columns)
    table = np.column_stack([columns["ts"], columns["xs"], columns["etas"], columns["gains"]])
    assert _body(path) == [",".join(fmt(v) for v in row) for row in table]
    _assert_same_table(parse_trajectory_csv(path), columns)


@pytest.mark.parametrize("variant", ["control_loop", "diff_error"])
def test_one_row_trajectory_csv_parses_to_a_table(tmp_path, variant):
    cols = 6 if variant == "control_loop" else 5
    columns = _table_rows(variant, [0.5 + k for k in range(cols)])
    path = str(tmp_path / "one.csv")
    write_trajectory_csv(path, columns)
    parsed = parse_trajectory_csv(path)
    assert parsed["xs"].shape == (1, 2)
    assert parsed["etas"].shape == (1, cols - 4)
    _assert_same_table(parsed, columns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1).filter(
    lambda b: (b >> 52) & 0x7FF != 0x7FF), min_size=6, max_size=120))
def test_trajectory_csv_round_trips_random_bit_patterns(tmp_path_factory, bits):
    values = np.array(bits[:len(bits) // 6 * 6], dtype=np.uint64).view(np.float64)
    columns = _table_rows("control_loop", values)
    path = str(tmp_path_factory.getbasetemp() / "bits.csv")
    write_trajectory_csv(path, columns)
    _assert_same_table(parse_trajectory_csv(path), columns)


# any 64-bit pattern (NaN, infinities, subnormals), or a normal value of
# either sign with 1e-280 < |v| < 1e281, which the row kernel formats itself
_ANY_BITS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.builds(lambda sign, mag: sign << 63 | mag, st.integers(0, 1),
              st.integers(min_value=0x05D0000000000000, max_value=0x7A3FFFFFFFFFFFFF)))


@settings(max_examples=100, deadline=None)
@given(st.lists(_ANY_BITS, min_size=6, max_size=120))
def test_trajectory_csv_rows_are_fmt_text_for_any_bit_pattern(tmp_path_factory, bits):
    values = np.array(bits[:len(bits) // 6 * 6], dtype=np.uint64).view(np.float64)
    columns = _table_rows("control_loop", values)
    path = str(tmp_path_factory.getbasetemp() / "any_bits.csv")
    write_trajectory_csv(path, columns)
    assert _body(path) == [",".join(fmt(v) for v in row) for row in values.reshape(-1, 6)]


def _count_fallback_rows(monkeypatch):
    """Patch the scalar row formatter to record each row it is given."""
    rows = []
    fallback = cli._format_row
    monkeypatch.setattr(cli, "_format_row", lambda row: rows.append(row) or fallback(row))
    return rows


def test_trajectory_csv_mixes_kernel_rows_and_fallback_rows(tmp_path, monkeypatch):
    powers = [float(f"1e{k}") for k in range(-30, 31)]
    kernel = [w for v in powers for w in (math.nextafter(v, 0.0), math.nextafter(v, math.inf))]
    # 1e17 .. 1e22 are doubles, but 10**(16 - E) is not, so their exact
    # scaled value 1e16 sits on the edge of the range no margin can prove
    kernel += [v for v in powers if not 1e17 <= v <= 1e22]
    # exact ties of the 17th digit, rounded half to even; 2**-25 is a tie
    # where 10**(16 - E) is not a double, so the kernel cannot prove it
    kernel += [2172391473906716.25, -1234567890123456.75, 1.0 + 2.0**-17, 0.0, -0.0,
               1e-280, -math.nextafter(1e281, 0.0)]
    fallback = [1e17, 1e20, -1e22, 2.0**-25, 5e-324, -2.225073858507201e-308,
                2.2250738585072014e-308, math.nextafter(1e-280, 0.0), 1e281,
                -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    rows = []
    for r in range(1100):
        row = [kernel[(6 * r + j) % len(kernel)] for j in range(6)]
        if r % 5 == 0:
            row[r % 6] = fallback[(r // 5) % len(fallback)]
        rows.append(row)
    columns = _table_rows("control_loop", rows)
    path = str(tmp_path / "mixed.csv")
    formatted = _count_fallback_rows(monkeypatch)
    write_trajectory_csv(path, columns)
    assert _body(path) == [",".join(fmt(v) for v in row) for row in rows]
    assert len(formatted) == 220


def _tokens(path):
    return [tok for row in _body(path) for tok in row.split(",")]


def _table(parsed):
    return np.column_stack([parsed["ts"], parsed["xs"], parsed["etas"], parsed["gains"]])


def _bits(*values):
    return np.array(values).view(np.uint64).tolist()


# NaN, +-inf, +-0, the smallest and largest subnormals and normals, and
# values with 3-digit exponents
@settings(max_examples=100, deadline=None)
@given(st.lists(_ANY_BITS, min_size=6, max_size=120))
@example(bits=_bits(math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324))
@example(bits=_bits(2.225073858507201e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
                    1e-100, -3.5e123, 1e-281))
def test_trajectory_csv_reads_any_bit_pattern_as_float_does(tmp_path_factory, bits):
    values = np.array(bits[:len(bits) // 6 * 6], dtype=np.uint64).view(np.float64)
    columns = _table_rows("control_loop", values)
    path = str(tmp_path_factory.getbasetemp() / "read_bits.csv")
    write_trajectory_csv(path, columns)
    table = _table(parse_trajectory_csv(path))
    expected = np.array([float(tok) for tok in _tokens(path)]).reshape(table.shape)
    assert table.tobytes() == expected.tobytes()


def _count_fallback_fields(monkeypatch):
    """Patch the reader's scalar fallback to record each token it is given."""
    tokens = []
    fallback = cli._parse_field
    monkeypatch.setattr(cli, "_parse_field", lambda tok: tokens.append(tok) or fallback(tok))
    return tokens


def test_trajectory_csv_reader_mixes_kernel_tokens_and_fallback_tokens(tmp_path, monkeypatch):
    powers = [float(f"1e{k}") for k in range(-30, 31)]
    # 1e17 .. 1e22, which the writer leaves to its fallback, are proven here:
    # 10**(E - 16) is a double
    kernel = [fmt(w) for v in powers for w in (v, math.nextafter(v, 0.0), math.nextafter(v, 9e99))]
    # the ends of the table's range, zeros, an even 17-digit integer, which
    # is a double, and texts fmt never writes that are no ties
    kernel += ["1.0000000000000000e-281", "-9.9999999999999999e+281", "0.0000000000000000e+00",
               "-0.0000000000000000e+00", "1.0000000000000002e+16", "0.0000000000000005e+00",
               "3.3333333333333333e+200"]
    # ties of the 17th digit between two doubles (2**53 + 1, 2**52 + 1/2 and
    # 2**52 + 3/2, where 10**(E - 16) is not a double), exponents past the
    # table, subnormals, the smallest normal, non-finite values and texts
    # outside fmt's layout; the last six are as long as fmt's text, each
    # with one byte out of place
    fallback = ["1.0000000000000001e+16", "9.0071992547409930e+15", "4.5035996273704965e+15",
                "-4.5035996273704975e+15", "1.0000000000000000e-282", "1.0000000000000000e+282",
                fmt(5e-324), fmt(-2.225073858507201e-308), fmt(2.2250738585072014e-308),
                fmt(1.7976931348623157e308), "nan", "inf", "-inf", "+1.0000000000000000e+00",
                "1.5", " 2.0000000000000000e+00", "1.000000000000000e+000",
                "1.0000000000000000E+00", "1.000_000000000000e+00", "1_0000000000000000e+00",
                "\t.5000000000000000e+00", "1.0000000000000000e+10 "]
    rows = []
    for r in range(1100):
        row = [kernel[(6 * r + j) % len(kernel)] for j in range(6)]
        if r % 5 == 0:
            row[r % 6] = fallback[(r // 5) % len(fallback)]
        rows.append(row)
    path = tmp_path / "mixed.csv"
    path.write_text("t,x1,x2,eta1,eta2,gain_out\n" + "".join(",".join(r) + "\n" for r in rows))
    assert path.stat().st_size > 2 * cli._CSV_BLOCK_BYTES
    read = _count_fallback_fields(monkeypatch)
    table = _table(parse_trajectory_csv(str(path)))
    expected = np.array([[float(tok) for tok in row] for row in rows])
    assert table.tobytes() == expected.tobytes()
    assert len(read) == 220
    assert {tok.decode() for tok in read} == set(fallback)


def _real_table_lines(tmp_path, rows=3000):
    """A written trajectory CSV's columns and lines, on a uniform grid of
    rows points, several blocks long."""
    model = reference_loop()
    traj = integrate(model, None, np.array([1.0, 0.0]), 0.0, 0.97)
    table = trajectory_rows(model, traj, np.linspace(0.0, 0.97, rows))
    path = str(tmp_path / "real.csv")
    write_trajectory_csv(path, table, None, ["# note: before the header"])
    with open(path, encoding="utf-8") as fh:
        return table, fh.read().split("\n")


@pytest.mark.parametrize("bad, message", [
    (["1,2,3,4,5"], "5 fields, the header has 6"),
    (["1,2,3,4,5,6,7"], "7 fields, the header has 6"),
    (["1,2,3,4,5", "1,2,3,4,5,6,7"], "5 fields, the header has 6"),
    (["   "], "1 fields, the header has 6"),
    (["1,2,x,4,5,6"], "could not convert string to float: b'x'"),
], ids=["short", "long", "short_then_long", "whitespace", "bad_field"])
@pytest.mark.parametrize("row", [0, 2500])
@pytest.mark.parametrize("comment", [False, True], ids=["rows_only", "comment_before"])
def test_trajectory_csv_row_that_does_not_fit_names_its_line(tmp_path, bad, message, row, comment):
    _, lines = _real_table_lines(tmp_path)
    lines[2 + row:2 + row + len(bad)] = bad  # after the note and the header
    if comment:
        lines.insert(2, "# note: between the header and the rows")
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines))
    line = 3 + row + comment
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {message}") + "$"):
        parse_trajectory_csv(str(path))


@pytest.mark.parametrize("header", [
    "t,x1,eta1,x2,gain_out", "t, x1 ,eta1,gain_out", "t,x2,x1,eta1,gain_out", "t,x1,x2,gain_out",
    "t,eta1,gain_out", "x1,t,eta1,gain_out", "t,x1,eta1,gain_out,x2", "t,x1,eta1"])
def test_trajectory_csv_header_that_is_not_the_writer_layout_is_rejected(tmp_path, header):
    # columns were once found by counting names that start with x and eta:
    # t,x1,eta1,x2,gain_out over 1,2,3,4,5 read as xs [[2, 3]] and etas [[4]]
    path = tmp_path / "header.csv"
    path.write_text(f"{header}\n" + ",".join(str(k) for k in range(header.count(",") + 1)) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: header {header!r} is not the layout t,x1..xn,eta1..etam,gain_out") + "$"):
        parse_trajectory_csv(str(path))


def test_trajectory_csv_rows_narrower_than_the_header_are_rejected(tmp_path):
    path = tmp_path / "narrow.csv"
    path.write_text("t,x1,x2,eta1,eta2,gain_out\n1,2,3,4,5\n")
    with pytest.raises(ValueError, match="line 2: 5 fields, the header has 6$"):
        parse_trajectory_csv(str(path))


@pytest.mark.parametrize("variant", ["control_loop", "diff_error"])
def test_header_only_trajectory_csv_gives_empty_columns(tmp_path, variant):
    columns = _table_rows(variant, [])
    path = str(tmp_path / "empty.csv")
    write_trajectory_csv(path, columns, None, ["# note: no samples"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsed = parse_trajectory_csv(path)
    assert parsed["comments"] == ["# note: no samples"]
    assert parsed["ts"].shape == parsed["gains"].shape == (0,)
    assert parsed["xs"].shape == (0, 2)
    assert parsed["etas"].shape == (0, columns["etas"].shape[1])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_trajectory_csv_reader_skips_blank_lines_and_collects_comments(tmp_path, newline):
    # '#' lines are comments wherever they stand, blank lines are skipped, a
    # row drops its text from '#' on, and a missing last newline is no fault
    columns, lines = _real_table_lines(tmp_path)
    lines[2 + 900] += "  # inline"
    lines[2 + 700:2 + 700] = ["", "# note: between rows", ""]
    lines[2:2] = ["", "# note: after the header"]
    lines[1:1] = [""]
    path = tmp_path / "spaced.csv"
    path.write_bytes(newline.join(lines + [""]).encode().rstrip(newline.encode()))
    parsed = parse_trajectory_csv(str(path))
    assert parsed["header"] == ["t", "x1", "x2", "eta1", "eta2", "gain_out"]
    assert parsed["comments"] == ["# note: before the header", "# note: after the header",
                                  "# note: between rows"]
    _assert_same_table(parsed, columns)


@pytest.mark.parametrize("argv", [
    ["--sim.x0", "1,0", "--sim.grid_count", "2000"],
    ["--system.gains", "zero:2", "--sim.x0", "1,0"],
], ids=["reference_loop", "zero_table"])
def test_real_trajectory_tables_need_no_fallback_row(tmp_path, monkeypatch, argv):
    formatted = _count_fallback_rows(monkeypatch)
    read = _count_fallback_fields(monkeypatch)
    assert main(["simulate", *argv, "--output.dir", str(tmp_path), "--output.prefix", "run"]) == 0
    path = tmp_path / "run_simulate.csv"
    parsed = parse_trajectory_csv(str(path))
    assert len(parsed["ts"]) > cli._CSV_BLOCK_ROWS
    assert path.stat().st_size > cli._CSV_BLOCK_BYTES
    if "zero:2" in argv:
        assert np.all(parsed["xs"][:, 0] == 1.0)
    assert formatted == []
    assert read == []


def test_simulate_writes_artifacts_and_exits_zero(tmp_path):
    code = main(["simulate", "--sim.x0", "1,0", "--output.dir", str(tmp_path),
                 "--output.prefix", "run"])
    assert code == 0
    csv_path = tmp_path / "run_simulate.csv"
    assert csv_path.exists()
    assert (tmp_path / "run_simulate_summary.txt").exists()
    parsed = parse_trajectory_csv(str(csv_path))
    assert any(c.startswith("# config: scenario = simulate") for c in parsed["comments"])
    assert parsed["ts"][0] == 0.0


@pytest.mark.parametrize("variant, gains, form", [
    ("control_loop", "-6,2; -4,1", Form(None, (((-6.0, 2),), ((-4.0, 1),)))),
    ("diff_error", "-6,1; -6,2", Form(None, (((-6.0, 1),), ((-6.0, 2),)))),
    ("control_loop", None, Form("reference")),
    ("diff_error", None, Form("pt_diff2", (1.0, 1.0))),
    ("diff_error", "pt_diff2:2,0.5", Form("pt_diff2", (2.0, 0.5))),
    ("control_loop", "zero:2", Form("zero", (2,))),
], ids=["control_loop", "diff_error", "reference_default", "pt_diff2_default", "pt_diff2",
        "zero_table"])
def test_rational_gains_run_and_echo_back(tmp_path, variant, gains, form):
    argv = ["simulate", "--system.variant", variant, "--sim.x0", "1,0",
            "--output.dir", str(tmp_path), "--output.prefix", "rat"]
    assert main(argv + ([] if gains is None else ["--system.gains", gains])) == 0
    parsed = parse_trajectory_csv(str(tmp_path / "rat_simulate.csv"))
    echo = [c for c in parsed["comments"] if c.startswith("# config: system.gains = ")]
    assert echo == [f"# config: system.gains = {form}"]
    back = parse_config(f"scenario = simulate\nsim.x0 = 1,0\nsystem.variant = {variant}\n"
                        + echo[0][len("# config: "):])
    assert back.values["system.gains"] == form


def test_gains_echo_parses_back_with_an_empty_channel():
    # every form of system.gains and disturbance.signal (the gain table with an
    # empty channel) builds what its library constructor builds, and the config
    # echo parses back to the same values
    table = (((-60.0, 3), (0.1, 0)), (), ((-9.0, 1),))
    cases = [
        ("system.gains = -60,3 0.1,0; ; -9,1", Form(None, table), GainTable.rational(table)),
        ("system.gains = reference", Form("reference"), GainTable.reference()),
        ("system.variant = diff_error\nsystem.gains = pt_diff2:2,0.5", Form("pt_diff2", (2.0, 0.5)),
         GainTable.prescribed_time_diff(2, 0.5)),
        ("system.gains = zero:3", Form("zero", (3,)), GainTable.zero(3)),
        ("disturbance.signal = zero", Form("zero"), DisturbanceSpec("zero", 1.0)),
        ("disturbance.signal = constant:-0.2", Form("constant", (-0.2,)),
         DisturbanceSpec("constant", 1.0, value=-0.2)),
        ("disturbance.signal = sinusoid:0.1,3,0.5", Form("sinusoid", (0.1, 3.0, 0.5)),
         DisturbanceSpec("sinusoid", 1.0, amplitude=0.1, frequency=3.0, phase=0.5)),
        ("disturbance.signal = piecewise:0.2,0.5; 0.6,-0.3",
         Form("piecewise", ((0.2, 0.5), (0.6, -0.3))),
         DisturbanceSpec("piecewise", 1.0, samples=((0.2, 0.5), (0.6, -0.3)))),
    ]
    for text, form, built in cases:
        key = text.rpartition("\n")[2].partition(" = ")[0]
        cfg = parse_config(f"scenario = gain-scan\ndisturbance.bound = 1\n{text}\n")
        assert cfg.values[key] == form
        model = cli.build_model(cfg)
        assert (model.gains if key == "system.gains" else model.disturbance) == built
        echo = [line[len("# config: "):] for line in cli.config_echo_lines(cfg)]
        assert f"{key} = {form}" in echo
        assert parse_config("\n".join(echo)).values == cfg.values


def test_exit_code_contract(tmp_path):
    out = ["--output.dir", str(tmp_path)]
    # 0: property held
    assert main(["verify-deadline"] + out) == 0
    # 3: scenario ran, declared property failed (no feedback, deadline missed)
    assert main(["verify-deadline", "--system.gains", "zero:2",
                 "--output.prefix", "open"] + out) == 3
    # 1: config violation
    assert main(["verify-deadline", "--system.T", "-1"] + out) == 1
    # 1: unknown subcommand
    assert main(["explode"]) == 1
    # 2: numerical failure (escape below the blow-up guard)
    assert main(["simulate", "--sim.x0", "1,0", "--integration.max_norm", "0.5",
                 "--output.prefix", "esc"] + out) == 2


def test_simulate_that_uses_up_its_step_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("tvglab.integrate"), "MAX_TRIAL_STEPS", 200)
    argv = ["simulate", "--system.variant", "diff_error", "--system.gains", "-6,2; -4,1", "--sim.x0", "1,0", "--output.dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "simulate: integration ended early: step_budget"]
    summary = (tmp_path / "tvglab_simulate_summary.txt").read_text().splitlines()
    assert "termination: step_budget" in summary


@pytest.mark.parametrize("variant", ["control_loop", "diff_error"])
def test_simulate_whose_gain_power_underflows_exits_2(tmp_path, capsys, variant):
    # 0 / (T - t)**40 divides by zero where the power underflows to 0.0 near
    # the deadline: the step is rejected there, not a traceback
    argv = _SIM + ["--system.variant", variant, "--system.gains", "0,40; -1,1",
                   "--output.dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "simulate: integration ended early: step_underflow"]
    summary = (tmp_path / "tvglab_simulate_summary.txt").read_text().splitlines()
    assert "termination: step_underflow" in summary


def test_flat_gain_scan_exits_3(tmp_path):
    assert main(["gain-scan", "--system.gains", "zero:2",
                 "--output.dir", str(tmp_path)]) == 3
    assert "monotone: False" in (tmp_path / "tvglab_gain_scan_summary.txt").read_text()


def test_verify_deadline_case_that_fails_numerically_exits_2(tmp_path):
    # a terminal norm above max_norm 2 stops the escaping case early
    assert main(["verify-deadline", "--integration.max_norm", "2",
                 "--output.dir", str(tmp_path)]) == 2
    text = (tmp_path / "tvglab_deadline.csv").read_text()
    assert "failed: integration stopped early: blow_up" in text


def test_attack_subcommand_reports_computed_ramp(tmp_path, capsys):
    code = main(["attack", "--attack.kind", "diff-terminal",
                 "--attack.eta_bar", "0.1", "--attack.epsilon", "1.0",
                 "--output.dir", str(tmp_path)])
    assert code == 0
    parsed = parse_trajectory_csv(str(tmp_path / "tvglab_attack_diff_terminal.csv"))
    ramp_lines = [c for c in parsed["comments"] if c.startswith("# ramp: s = ")]
    assert len(ramp_lines) == 1
    assert float(ramp_lines[0].rpartition("= ")[2]) == pytest.approx(0.8, abs=1e-15)
    # scalar measurement noise: exactly one eta column
    assert parsed["header"] == ["t", "x1", "x2", "eta1", "gain_out"]
    assert float(np.max(np.abs(parsed["etas"]))) <= 0.1


def test_tracking_noise_over_its_bound_exits_2(tmp_path, capsys, monkeypatch):
    planned = attack.controller_terminal_error_noise

    def overshooting(*args, **kwargs):
        _, plan = planned(*args, **kwargs)
        return attack.ControllerTerminalNoise(dataclasses.replace(plan, eta_bar=1e-4)), plan

    monkeypatch.setattr(attack, "controller_terminal_error_noise", overshooting)
    code = main(["attack", "--attack.kind", "controller-terminal",
                 "--attack.eta_bar", "0.1", "--attack.epsilon", "0.5",
                 "--output.dir", str(tmp_path)])
    assert code == 2
    assert "tracking noise exceeded its bound" in capsys.readouterr().err


def test_controller_terminal_plan_that_starts_past_t_minus_rho_is_a_config_error(tmp_path, capsys):
    # at eta_bar 1e-6 the plan window is about 1.1e-7 wide, inside rho = 1e-6
    code = main(["attack", "--attack.kind", "controller-terminal", "--attack.eta_bar", "1e-6",
                 "--attack.epsilon", "0.5", "--output.dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "the plan starts at s=0.99999989" in err and "(attack.rho = 1e-06)" in err
    assert list(tmp_path.iterdir()) == []


def test_attack_subcommand_needs_a_kind(tmp_path, capsys):
    assert main(["attack", "--attack.eta_bar", "0.1",
                 "--output.dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "attack.kind" in err


def test_workaround_subcommand_needs_a_variant(tmp_path, capsys):
    assert main(["workaround", "--output.dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: scenario: the workaround subcommand needs workaround.variant or an "
        "explicit scenario = workaround.<kind> (kinds: stop-time, deadzone)"]


def test_divergence_attack_schedule_is_echoed(tmp_path):
    code = main(["attack", "--attack.kind", "controller-divergence",
                 "--attack.eta_bar", "0.01", "--system.rho_min", "1e-9",
                 "--output.dir", str(tmp_path)])
    assert code == 0
    parsed = parse_trajectory_csv(str(tmp_path / "tvglab_attack_controller_divergence.csv"))
    switches = [c for c in parsed["comments"] if c.startswith("# schedule: switch")]
    assert len(switches) == 7
    times = [float(c.rpartition("= ")[2]) for c in switches]
    assert times == sorted(times)
    peaks = [c for c in parsed["comments"] if c.startswith("# peak: threshold")]
    assert len(peaks) == 3


def test_workaround_subcommand(tmp_path):
    code = main(["workaround", "--workaround.variant", "stop-time",
                 "--workaround.ics", "1,0;2,0;5,0;10,0",
                 "--output.dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "tvglab_workaround_stop_time.csv").read_text()
    assert "# fit: slope = " in text
    assert "xi1,xi2,residual_x1,residual_x2,residual_norm" in text


@pytest.mark.parametrize("variant", ["stop-time", "deadzone"])
def test_noisy_workaround_runs_on_every_channel_count(tmp_path, variant):
    # the divergence noise has one channel per state channel: two-channel
    # noise on the order-3 loop was a shape error, exit 1
    assert main(["workaround", "--workaround.variant", variant,
                 "--system.gains", "-60,3; -36,2; -9,1", "--workaround.ics", "1,0,0; 2,0,0; 5,0,0",
                 "--workaround.noise_eta_bar", "1e-2", "--output.dir", str(tmp_path)]) == 0
    summary = (tmp_path / f"tvglab_workaround_{variant.replace('-', '_')}_summary.txt").read_text()
    assert "noisy: True" in summary
    if variant == "stop-time":
        r_squared = float(summary.rpartition("r_squared = ")[2].split()[0])
        assert r_squared > 0.999
    else:
        assert "no entry before T - rho_min for cases: 0, 1, 2" in summary


def test_trajectory_rows_take_state_at_and_the_noise_of_the_opening_knot():
    model = reference_loop()
    traj = integrate(model, attack.controller_divergence_noise(1e-2), np.array([1.0, -0.5]),
                     0.0, 1.0 - 1e-9)
    assert traj.switch_times
    # grid points at step midpoints, on every knot, and at and past t_last
    mids = 0.5 * (traj.ts[1:] + traj.ts[:-1])
    rows = trajectory_rows(model, traj, np.concatenate([mids, traj.ts, [traj.t_last, 1.0]]))
    ts, xs, etas = rows["ts"], rows["xs"], rows["etas"]
    assert len(ts) == len(traj.ts) + len(mids) and np.all(np.diff(ts) > 0.0)
    knots = np.isin(ts, traj.ts)
    assert ts[knots].tobytes() == traj.ts.tobytes()
    assert xs[knots].tobytes() == traj.xs.tobytes() and etas[knots].tobytes() == traj.etas.tobytes()
    assert ts[~knots].tobytes() == mids.tobytes()
    assert xs[~knots].tobytes() == traj.state_at(mids).tobytes()
    # the noise of the knot that opens the step, not of the switch that closes it
    assert etas[~knots].tobytes() == traj.etas[:-1].tobytes()
    assert not np.array_equal(traj.etas[:-1], traj.etas[1:])


def test_non_finite_gain_column_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.SystemModel, "gain_output",
                        lambda self, t, x, eta: np.full(np.shape(t), np.nan))
    assert main(["simulate", "--sim.x0", "1,0", "--output.dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: non-finite value in integration record"]
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_gain_scan_and_falsify_subcommands(tmp_path):
    assert main(["gain-scan", "--output.dir", str(tmp_path)]) == 0
    scan = (tmp_path / "tvglab_gain_scan.csv").read_text()
    assert "rho,supremum,arg_time,arg_x1,arg_x2,arg_channel" in scan
    assert main(["falsify-stability", "--falsify.eps_prime", "2.5",
                 "--output.dir", str(tmp_path)]) == 0
    summary = (tmp_path / "tvglab_falsify_summary.txt").read_text()
    assert "s = 5.9999999999999998e-01" in summary


_EVERY_SCENARIO = {
    "simulate": ["simulate", "--sim.x0", "1,0", "--sim.grid_count", "2"],
    "verify_deadline": ["verify-deadline"],
    "verify_deadline_failed_cases": ["verify-deadline", "--integration.max_norm", "2"],
    "controller_divergence": _DIVERGENCE["controller-divergence"] + ["--system.rho_min", "1e-9"],
    "diff_divergence": _DIVERGENCE["diff-divergence"],
    "controller_terminal": _CONTROLLER_TERMINAL,
    "controller_ramp": _CONTROLLER_TERMINAL + ["--attack.x0", "1,0"],
    "diff_terminal": ["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1",
                      "--attack.epsilon", "1.0"],
    "gain_scan": ["gain-scan"],
    "falsify": ["falsify-stability", "--falsify.eps_prime", "2.5"],
    "stop_time": ["workaround", "--workaround.variant", "stop-time"],
    "deadzone": ["workaround", "--workaround.variant", "deadzone", "--system.rho_min", "1e-6"],
}


@pytest.mark.parametrize("argv", _EVERY_SCENARIO.values(), ids=_EVERY_SCENARIO)
def test_summary_repeats_the_csv_fact_lines(tmp_path, argv):
    # the CSV's '#' lines after the config echo are the summary's lines after
    # 'scenario: ...', each with '# ' in front
    main(argv + ["--output.dir", str(tmp_path)])
    summary_path, = tmp_path.glob("*_summary.txt")
    scenario, *facts = summary_path.read_text().splitlines()
    csv_lines = summary_path.with_name(summary_path.name.replace("_summary.txt", ".csv")) \
        .read_text().splitlines()
    header = next(i for i, line in enumerate(csv_lines) if not line.startswith("#"))
    echo = [line for line in csv_lines if line.startswith("# config: ")]
    assert csv_lines[:len(echo)] == echo
    assert f"# config: scenario = {scenario.removeprefix('scenario: ')}" in echo
    assert facts and csv_lines[len(echo):header] == [f"# {fact}" for fact in facts]


@pytest.fixture(scope="module")
def selftest_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("selftest")
    assert main(["selftest", "--output.dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("stem", ["gain_scan_control", "attack_controller_divergence", "falsify"],
                         ids=["table", "noisy_trajectory", "noise_free_trajectory"])
def test_selftest_csv_is_the_cli_run_of_its_flags(tmp_path, selftest_dir, stem):
    # selftest runs each check through the scenario runner of its flags and
    # writes it with the same writer, config echo included
    args, = [a for _, s, a, _ in cli._SELFTEST_CHECKS if s == stem]
    assert main(shlex.split(args) + ["--output.dir", str(tmp_path)]) == 0
    csv_path, = tmp_path.glob("*.csv")
    assert csv_path.read_bytes() == (selftest_dir / f"tvglab_selftest_{stem}.csv").read_bytes()


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--sim.x0", "1,0", "--sim.grid_count"], "sim.grid_count"),
    (["gain-scan", "--scan.time_samples"], "scan.time_samples"),
], ids=["grid_count", "time_samples"])
def test_oversized_counts_are_rejected_at_parse_time(tmp_path, capsys, monkeypatch, argv, key):
    # 10**11 samples would ask numpy for terabytes; the config is rejected
    # before any scenario runs
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("the scenario ran"))
    assert main(argv + [str(10 ** 11), "--output.dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: flag --{key}: {key} must lie in [2, 10000000] (got '100000000000')"]
    assert not any(tmp_path.iterdir())


def test_config_file_and_env_output_dir(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("scenario = attack.diff-terminal\n"
                        "attack.eta_bar = 0.1\n"
                        "attack.epsilon = 2.0\n")
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    code = main(["attack", "--config", str(cfg_file),
                 "--output.dir", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "tvglab_attack_diff_terminal.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["attack", "--attack.kind", "diff-terminal", "--attack.eta_bar", "0.1",
            "--attack.epsilon", "1.0"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output.dir", d1]) == 0
    assert main(args + ["--output.dir", d2]) == 0
    for name in sorted(os.listdir(d1)):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_help_exits_cleanly(capsys):
    assert main([]) == 0
    assert "subcommands" in capsys.readouterr().out
    assert main(["--help"]) == 0
