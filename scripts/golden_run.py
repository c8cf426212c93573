#!/usr/bin/env python3
"""Golden run: every CLI scenario and demo of this checkout, hashed.

    python3 scripts/golden_run.py OUT
    python3 scripts/golden_run.py --against REF OUT

Runs selftest, the README examples, a set of further CLI scenarios (every
subcommand, both variants, both grid kinds, zero and rational tables, other
horizons, disturbances, every attack kind, controller-terminal from a
prepared plan start and as the ramp attack from attack.x0, and
runs that end in exit codes 1, 2 and 3) and the six demos, each as its own
process with tvglab imported from the src/ directory next to this script.
Each scenario gets a directory OUT/<name>/ holding the artifacts it wrote
(under artifacts/), its stdout.txt, stderr.txt and exit.txt.  The checkout
path is replaced by "<root>" in stdout and stderr, so two checkouts at
different paths can be compared.  OUT/MANIFEST.sha256 lists the sha256 of
every file under OUT, in `sha256sum` format and sorted by path.  The script
exits 1 when any run's exit code differs from EXPECTED_EXIT (0 for runs not
listed there), or when a run expected to exit 1 (a config error) leaves any
file under artifacts/; exit codes, unlike hashes, are the same on every
machine.

Two checkouts are byte-identical on these runs when their manifests are.
--against REF extracts the committed files of REF (`git archive`, as
scripts/bench_pairs.py does) into a temporary directory, runs REF's own
golden run into OUT/base and this checkout's into OUT/head, prints the
unified diff of the two manifests ("identical" when there is none), then
labels each .csv present on both sides whose hash differs: "comments only"
when its lines not starting with '#' are byte-identical, "data" otherwise.
It exits 1 when the manifests differ.  Each side's exit-code check is
printed but does not decide the exit status.

The hashes hold for one machine and one numpy/BLAS build only.  The
stepper makes no BLAS call, so recorded states do not depend on the BLAS
kernel chosen for the CPU, but some derived values do: 1-D norms
(np.linalg.norm, as in the deadline checks and the oracle errors), the
stop-time fit and the cascade plan's least-squares fit call BLAS or LAPACK,
whose rounding differs between kernels.  Compare two checkouts on one
machine; do not pin the hashes.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = ROOT / "demos"
TIMEOUT_S = 300

RAMP_CONFIG = """\
scenario = attack.diff-terminal
attack.eta_bar = 0.1
attack.epsilon = 1.0
integration.rel_tol = 1e-9
output.prefix = ramp_demo
"""

BAD_CONFIG = """\
system.variant = control_loop
system.rho_min = 1e-9
system.T = -1
deadline.rho = 1e-3
deadline.tol = 0.1
nonsense.key = 1
"""

# name -> tvglab arguments; "{cfg}" stands for the scenario's config file,
# written from CONFIGS
SCENARIOS: dict[str, list[str]] = {
    # README examples
    "readme_simulate": ["simulate", "--sim.x0", "1,0"],
    "readme_verify_deadline": ["verify-deadline"],
    "readme_diff_terminal": ["attack", "--attack.kind", "diff-terminal",
                             "--attack.eta_bar", "0.1", "--attack.epsilon", "1.0"],
    "readme_controller_divergence": ["attack", "--attack.kind", "controller-divergence",
                                     "--attack.eta_bar", "0.01", "--system.rho_min", "1e-9"],
    "readme_rational_simulate": ["simulate", "--system.gains", "-6,2; -4,1", "--sim.x0", "1,0"],
    "readme_gain_scan": ["gain-scan", "--scan.rhos", "1e-1,1e-2,1e-3"],
    "readme_falsify": ["falsify-stability", "--falsify.eps_prime", "2.5"],
    "readme_deadzone": ["workaround", "--workaround.variant", "deadzone",
                        "--system.rho_min", "1e-6"],
    "readme_selftest": ["selftest"],
    "readme_config_file": ["attack", "--config", "{cfg}"],
    "readme_bad_config": ["verify-deadline", "--config", "{cfg}"],
    # simulate: both variants, grid kinds and sizes, tables, horizons, disturbances
    "sim_loop_uniform_8000": ["simulate", "--sim.x0", "1,-0.5", "--sim.grid", "uniform",
                              "--sim.grid_count", "8000"],
    "sim_loop_grid_2": ["simulate", "--sim.x0", "1,0", "--sim.grid_count", "2"],
    "sim_loop_sub_span": ["simulate", "--sim.x0", "0.5,2", "--sim.s", "0.3",
                          "--sim.t_end", "0.9", "--sim.grid", "uniform"],
    "sim_loop_piecewise": ["simulate", "--sim.x0", "1,0", "--disturbance.bound", "0.5",
                           "--disturbance.signal", "piecewise:0.2,0.5; 0.6,-0.3; 0.95,0.1"],
    "sim_loop_constant": ["simulate", "--sim.x0", "1,0", "--disturbance.bound", "0.2",
                          "--disturbance.signal", "constant:-0.2"],
    "sim_loop_zero_table": ["simulate", "--system.gains", "zero:2", "--sim.x0", "1,1"],
    # nine channels: the stepper's error norm sums them pairwise, as numpy does
    "sim_loop_rational_9": ["simulate", "--system.gains", "; ".join(["-1,1"] * 9),
                            "--sim.x0", "1,-1,1,-1,1,-1,1,-1,1", "--sim.grid", "uniform"],
    "sim_loop_rational_3": ["simulate", "--system.gains", "-60,3; -36,2; -9,1",
                            "--sim.x0", "1,0,-1"],
    "sim_loop_rational_T3": ["simulate", "--system.gains", "-6,2; -4,1", "--system.T", "3",
                             "--sim.x0", "1,0", "--sim.grid", "uniform", "--sim.grid_count", "3000"],
    "sim_diff_geometric_8000": ["simulate", "--system.variant", "diff_error", "--sim.x0", "1,-0.5",
                                "--sim.grid_count", "8000"],
    "sim_diff_uniform_sinusoid": ["simulate", "--system.variant", "diff_error", "--sim.x0", "1,-0.5",
                                  "--sim.grid", "uniform", "--sim.grid_count", "2000",
                                  "--disturbance.bound", "0.1",
                                  "--disturbance.signal", "sinusoid:0.1,3,0"],
    "sim_diff_zero_table": ["simulate", "--system.variant", "diff_error", "--system.gains", "zero:2",
                            "--sim.x0", "1,-1"],
    "sim_diff_T2": ["simulate", "--system.variant", "diff_error", "--system.T", "2",
                    "--system.gains", "pt_diff2:2,0.5", "--sim.x0", "-1,3"],
    # verify-deadline, gain-scan, falsify-stability on other settings
    "verify_diff": ["verify-deadline", "--system.variant", "diff_error"],
    "verify_diff_T3": ["verify-deadline", "--system.variant", "diff_error", "--system.T", "3"],
    "verify_open_loop": ["verify-deadline", "--system.gains", "zero:2"],
    "gain_scan_diff": ["gain-scan", "--system.variant", "diff_error"],
    "falsify_default": ["falsify-stability"],
    # attacks
    "attack_diff_divergence": ["attack", "--attack.kind", "diff-divergence",
                               "--attack.eta_bar", "1e-3"],
    "attack_controller_divergence_1e-3": ["attack", "--attack.kind", "controller-divergence",
                                          "--attack.eta_bar", "1e-3", "--system.rho_min", "1e-9"],
    "attack_controller_terminal": ["attack", "--attack.kind", "controller-terminal",
                                   "--attack.eta_bar", "0.01", "--attack.epsilon", "0.5"],
    "attack_controller_ramp": ["attack", "--attack.kind", "controller-terminal",
                               "--attack.x0", "1,0", "--attack.eta_bar", "0.01",
                               "--attack.epsilon", "0.5"],
    "attack_controller_ramp_from_0.3_-0.2": [
        "attack", "--attack.kind", "controller-terminal", "--attack.x0", "0.3,-0.2",
        "--attack.eta_bar", "0.01", "--attack.epsilon", "0.5"],
    "attack_diff_terminal_small": ["attack", "--attack.kind", "diff-terminal",
                                   "--attack.eta_bar", "1e-3", "--attack.epsilon", "0.2"],
    # workarounds
    "workaround_stop_time": ["workaround", "--workaround.variant", "stop-time"],
    "workaround_deadzone_noise": ["workaround", "--workaround.variant", "deadzone",
                                  "--system.rho_min", "1e-6", "--workaround.noise_eta_bar", "1e-3"],
    # branches of the runners and artifact writers: failed cases, nan cells,
    # empty ladders, notes, plots and every non-zero exit code
    "verify_max_norm_2": ["verify-deadline", "--integration.max_norm", "2"],
    "verify_no_shrink": ["verify-deadline", "--deadline.shrink_rhos", ""],
    "gain_scan_zero_table": ["gain-scan", "--system.gains", "zero:2"],
    "falsify_zero_table": ["falsify-stability", "--system.gains", "zero:2"],
    "attack_diff_terminal_tight_tol": ["attack", "--attack.kind", "diff-terminal",
                                       "--attack.eta_bar", "0.1", "--attack.epsilon", "1.0",
                                       "--attack.tol", "1e-12"],
    "attack_diff_divergence_1e-2": ["attack", "--attack.kind", "diff-divergence",
                                    "--attack.eta_bar", "1e-2"],
    "attack_controller_terminal_late_s": ["attack", "--attack.kind", "controller-terminal",
                                          "--attack.eta_bar", "0.01", "--attack.epsilon", "0.5",
                                          "--attack.s", "0.99"],
    "sim_reference_T2": ["simulate", "--system.T", "2", "--sim.x0", "1,0"],
    "sim_plot": ["simulate", "--sim.x0", "1,0", "--output.plot", "true"],
    "workaround_stop_time_max_norm_50": ["workaround", "--workaround.variant", "stop-time",
                                         "--integration.max_norm", "50"],
    "workaround_deadzone_max_norm_50": ["workaround", "--workaround.variant", "deadzone",
                                        "--system.rho_min", "1e-6", "--integration.max_norm", "50"],
    # config errors caught at parse time
    "verify_starts_out_of_range": ["verify-deadline", "--deadline.starts", "0.5,1.5"],
    "verify_starts_empty": ["verify-deadline", "--deadline.starts", ""],
    "workaround_ics_empty": ["workaround", "--workaround.variant", "stop-time",
                             "--workaround.ics", ""],
    "sim_x0_wrong_length": ["simulate", "--sim.x0", "1,0,0"],
    "verify_ics_wrong_length": ["verify-deadline", "--deadline.ics", "1,0,0"],
    "workaround_ics_wrong_length": ["workaround", "--workaround.variant", "stop-time",
                                    "--workaround.ics", "1,0,0"],
    "attack_controller_ramp_x0_wrong_length": ["attack", "--attack.kind", "controller-terminal",
                                               "--attack.x0", "1,0,0", "--attack.eta_bar", "0.01",
                                               "--attack.epsilon", "0.5"],
    "attack_diff_terminal_x0_wrong_length": ["attack", "--attack.kind", "diff-terminal",
                                             "--attack.x0", "1,0,0", "--attack.eta_bar", "0.1",
                                             "--attack.epsilon", "1.0"],
    "sim_n_mismatch": ["simulate", "--system.gains", "zero:3", "--sim.x0", "1,0"],
    # keys and parameters that no longer exist: each model part is one key
    "sim_ell1_removed_key": ["simulate", "--system.ell1", "5", "--sim.x0", "1,0"],
    "sim_disturbance_value_removed_key": ["simulate", "--disturbance.value", "0.7",
                                          "--sim.x0", "1,0"],
    "sim_pt_diff2_one_parameter": ["simulate", "--system.variant", "diff_error",
                                   "--system.gains", "pt_diff2:1", "--sim.x0", "1,0"],
    # config errors the model's constructors find at parse time
    "sim_rho_min_past_T": ["simulate", "--sim.x0", "1,0", "--system.rho_min", "2"],
    "sim_rational_negative_pole": ["simulate", "--system.gains", "-6,-2; -4,1", "--sim.x0", "1,0"],
    "sim_rational_one_channel": ["simulate", "--system.gains", "-6,2", "--sim.x0", "1"],
    "sim_piecewise_unsorted": ["simulate", "--sim.x0", "1,0", "--disturbance.bound", "0.5",
                               "--disturbance.signal", "piecewise:0.6,0.1; 0.2,0.1"],
    # config errors the library finds when the scenario runs; nothing is written
    "sim_rho_min_below_min_step": ["simulate", "--sim.x0", "1,0", "--system.rho_min", "1e-20"],
    "sim_t_end_past_floor": ["simulate", "--sim.x0", "1,0", "--sim.t_end", "5"],
    "gain_scan_rhos_increasing": ["gain-scan", "--scan.rhos", "0.1,0.2"],
    "verify_shrink_rhos_increasing": ["verify-deadline", "--deadline.shrink_rhos", "1e-4,1e-3"],
    "workaround_t_stop_past_T": ["workaround", "--workaround.variant", "stop-time",
                                 "--workaround.t_stop", "2"],
    "attack_controller_divergence_targets_decreasing": [
        "attack", "--attack.kind", "controller-divergence", "--attack.eta_bar", "0.01",
        "--attack.targets", "2,1"],
    "attack_controller_terminal_psi_init_length": [
        "attack", "--attack.kind", "controller-terminal", "--attack.eta_bar", "0.01",
        "--attack.epsilon", "0.5", "--attack.psi_init", "0,0"],
    "attack_controller_ramp_unsupported_table": [
        "attack", "--attack.kind", "controller-terminal", "--attack.x0", "1,0",
        "--system.gains", "-0.5,1; -1,1", "--attack.eta_bar", "0.01", "--attack.epsilon", "0.5"],
    # the ramp is already under way at t = 0
    "attack_diff_terminal_ramp_before_0": ["attack", "--attack.kind", "diff-terminal",
                                           "--attack.eta_bar", "1", "--attack.epsilon", "0.1"],
}

# name -> exit code, for every scenario that does not exit 0 (1 config error,
# 2 numerical failure, 3 a declared property failed)
EXPECTED_EXIT: dict[str, int] = {
    "readme_bad_config": 1,
    "sim_reference_T2": 1,
    "verify_starts_out_of_range": 1,
    "verify_starts_empty": 1,
    "workaround_ics_empty": 1,
    "sim_x0_wrong_length": 1,
    "verify_ics_wrong_length": 1,
    "workaround_ics_wrong_length": 1,
    "attack_controller_ramp_x0_wrong_length": 1,
    "attack_diff_terminal_x0_wrong_length": 1,
    "sim_n_mismatch": 1,
    "sim_ell1_removed_key": 1,
    "sim_disturbance_value_removed_key": 1,
    "sim_pt_diff2_one_parameter": 1,
    "sim_rho_min_past_T": 1,
    "sim_rational_negative_pole": 1,
    "sim_rational_one_channel": 1,
    "sim_piecewise_unsorted": 1,
    "sim_rho_min_below_min_step": 1,
    "sim_t_end_past_floor": 1,
    "gain_scan_rhos_increasing": 1,
    "verify_shrink_rhos_increasing": 1,
    "workaround_t_stop_past_T": 1,
    "attack_controller_divergence_targets_decreasing": 1,
    "attack_controller_terminal_psi_init_length": 1,
    "attack_controller_ramp_unsupported_table": 1,
    "attack_controller_terminal_late_s": 1,
    "workaround_stop_time_max_norm_50": 2,
    "workaround_deadzone_max_norm_50": 2,
    "verify_max_norm_2": 2,
    "verify_open_loop": 3,
    "gain_scan_zero_table": 3,
    "falsify_zero_table": 3,
    "attack_diff_terminal_tight_tol": 3,
}

CONFIGS = {"readme_config_file": RAMP_CONFIG, "readme_bad_config": BAD_CONFIG}


def _record(out: Path, proc: subprocess.CompletedProcess) -> None:
    root = str(ROOT)
    (out / "stdout.txt").write_text(proc.stdout.replace(root, "<root>"))
    (out / "stderr.txt").write_text(proc.stderr.replace(root, "<root>"))
    (out / "exit.txt").write_text(f"{proc.returncode}\n")


def run_all(out_root: Path) -> list[tuple[str, int]]:
    env = dict(os.environ)
    env.pop("TVGLAB_OUTPUT_DIR", None)  # would redirect the artifacts
    env["PYTHONPATH"] = str(SRC)
    exits = []
    for name, args in SCENARIOS.items():
        out = out_root / name
        (out / "artifacts").mkdir(parents=True)
        if name in CONFIGS:
            (out / "run.cfg").write_text(CONFIGS[name])
        argv = [a.replace("{cfg}", "run.cfg") for a in args]
        cmd = [sys.executable, "-m", "tvglab.cli", *argv, "--output.dir", "artifacts"]
        proc = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        _record(out, proc)
        exits.append((name, proc.returncode))
    for demo in sorted(DEMOS.glob("*.py")):
        out = out_root / f"demo_{demo.stem}"
        out.mkdir(parents=True)
        proc = subprocess.run([sys.executable, str(demo)], cwd=out, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        _record(out, proc)
        exits.append((out.name, proc.returncode))
    return exits


def write_manifest(out_root: Path) -> Path:
    lines = []
    for path in sorted(p for p in out_root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out_root).as_posix()}\n")
    manifest = out_root / "MANIFEST.sha256"
    manifest.write_text("".join(lines))
    return manifest


def compare_manifests(base: Path, head: Path) -> int:
    """Print the unified diff of two manifests, or "identical"; 1 when they
    differ, else 0."""
    diff = list(difflib.unified_diff(base.read_text().splitlines(keepends=True),
                                     head.read_text().splitlines(keepends=True),
                                     fromfile=str(base), tofile=str(head)))
    print("".join(diff) if diff else "identical", end="" if diff else "\n")
    return 1 if diff else 0


def _hashes(out_root: Path) -> dict[str, str]:
    """Path -> sha256 of the manifest in out_root."""
    lines = (out_root / "MANIFEST.sha256").read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def label_csv_diffs(base: Path, head: Path) -> None:
    """Print "comments only" or "data" and the path of each .csv that both
    golden runs wrote with different hashes: "comments only" when the lines
    that do not start with '#' are byte-identical."""
    old, new = _hashes(base), _hashes(head)
    changed = [p for p in old.keys() & new.keys() if p.endswith(".csv") and old[p] != new[p]]
    for path in sorted(changed):
        data = [[line for line in (root / path).read_bytes().splitlines(keepends=True)
                 if not line.startswith(b"#")] for root in (base, head)]
        print(f"{'comments only' if data[0] == data[1] else 'data'}  {path}")


def against(ref: str, out_root: Path) -> int:
    """Golden runs of ref and of this checkout, each by its own script, into
    out_root/base and out_root/head, their manifest diff and the labels of
    label_csv_diffs; the exit status of compare_manifests."""
    from bench_pairs import extract  # this script's directory leads sys.path

    base_dir = Path(tempfile.mkdtemp(prefix="golden-base-"))
    try:
        commit = extract(ref, base_dir)
        for side, checkout, name in (("base", base_dir, commit), ("head", ROOT, ROOT.name)):
            proc = subprocess.run([sys.executable, str(checkout / "scripts" / "golden_run.py"),
                                   str(out_root / side)], capture_output=True, text=True)
            print(f"{side} {name}: golden run exited {proc.returncode}")
            sys.stderr.write(proc.stderr)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    code = compare_manifests(out_root / "base" / "MANIFEST.sha256",
                             out_root / "head" / "MANIFEST.sha256")
    label_csv_diffs(out_root / "base", out_root / "head")
    return code


def golden(out_root: Path) -> int:
    """Run every scenario and demo into out_root and write its manifest;
    1 when a run's exit code differs from EXPECTED_EXIT or a config error
    wrote artifacts."""
    out_root.mkdir(parents=True, exist_ok=True)
    wrong = 0
    for name, code in run_all(out_root):
        expected = EXPECTED_EXIT.get(name, 0)
        note = "" if code == expected else f"  (expected {expected})"
        if expected == 1 and any((out_root / name / "artifacts").iterdir()):
            note += "  (a config error wrote artifacts)"
        print(f"{code}  {name}{note}")
        wrong += note != ""
    print(f"manifest: {write_manifest(out_root)}")
    if wrong:
        print(f"golden_run: {wrong} run(s) differ from EXPECTED_EXIT or wrote artifacts "
              "on a config error", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", metavar="REF",
                        help="also run REF's golden run and compare the manifests")
    args = parser.parse_args(argv)
    out_root = args.out.resolve()
    if out_root.exists() and any(out_root.iterdir()):
        print(f"golden_run: {out_root} is not empty", file=sys.stderr)
        return 1
    return golden(out_root) if args.against is None else against(args.against, out_root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
