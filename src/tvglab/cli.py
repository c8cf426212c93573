"""Experiment harness for the toolkit.

Subcommands: simulate, verify-deadline, attack, gain-scan, falsify-stability,
workaround, selftest.  Configuration is line-based ``key = value`` text with
dotted section prefixes (``system.T = 1.0``); command-line flags mirror the
config keys (``--system.T 1.0``) and override the file.  Every run writes CSV
artifacts plus a text summary into the output directory (``output.dir``,
overridden by the TVGLAB_OUTPUT_DIR environment variable).  ``system.gains``
and ``disturbance.signal`` name a form and carry only its parameters
(``pt_diff2:1,1``, ``constant:0.2``); USAGE lists the forms.

Exit codes: 0 scenario ran and its declared properties held; 1 config error;
2 numerical failure; 3 scenario ran but a declared property failed.  The
exception type decides between 1 and 2: the library raises ValueError for
bad input (exit 1) and NumericalFailure for a run that broke (exit 2).  A
config is checked at parse time by building the model it describes; a
config error, whether found then or while the scenario runs, writes no file.

Trajectory CSV layout: header ``t,x1..xn,eta1..etan,gain_out`` (a single
``eta1`` column for scalar-noise systems), '#'-prefixed comment rows carrying
the effective config and any switching schedule, and floats printed with 17
significant digits so a re-parse reproduces every value bit-exactly.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    CONTROL_LOOP,
    DIFF_ERROR,
    DisturbanceSpec,
    GainTable,
    Horizon,
    NumericalFailure,
    SystemModel,
)
from .integrate import IntegrationOptions, OutputGrid, Trajectory, integrate
from .oracle import verify_solver_against_oracle
from .attack import (
    controller_divergence_noise,
    run_controller_terminal_attack,
    run_controller_terminal_attack_with_prelude,
    run_differentiator_terminal_attack,
    run_divergence_attack,
)
from .analysis import (
    DeadlineReport,
    GainScanTable,
    WorkaroundReport,
    _rho_ladder,
    check_absolute_deadline,
    evaluate_deadzone,
    evaluate_stop_time,
    falsify_uniform_stability,
    gain_supremum_scan,
    rho_shrink_profile,
)

OUTPUT_DIR_ENV = "TVGLAB_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_PROPERTY = 3

ATTACK_KINDS = ("controller-divergence", "controller-terminal",
                "diff-divergence", "diff-terminal")
# each kind's runner and the attack.* keys passed to it by name: with
# attack.kind, and attack.prelude for controller-terminal, the only attack.*
# keys the kind reads.  controller-terminal with attack.prelude = true runs
# _PRELUDE_RUN, which steers from attack.x0 and finds its own plan start
_ATTACK_RUNS = {
    "controller-divergence": (run_divergence_attack,
                              ("eta_bar", "delta", "targets", "thresholds", "x0")),
    "diff-divergence": (run_divergence_attack, ("eta_bar", "targets", "thresholds", "x0")),
    "controller-terminal": (run_controller_terminal_attack,
                            ("eta_bar", "epsilon", "rho", "s", "psi_init")),
    "diff-terminal": (run_differentiator_terminal_attack, ("eta_bar", "epsilon", "rho", "tol", "x0")),
}
_PRELUDE_RUN = (run_controller_terminal_attack_with_prelude, ("eta_bar", "epsilon", "rho", "x0"))
WORKAROUND_KINDS = ("stop-time", "deadzone")
SCENARIOS = (("simulate", "verify-deadline", "gain-scan", "falsify-stability", "selftest")
             + tuple(f"attack.{k}" for k in ATTACK_KINDS)
             + tuple(f"workaround.{k}" for k in WORKAROUND_KINDS))


_FLOAT_FORMAT = "%.16e"
# trajectory CSV rows go through _format_rows this many at a time, which
# bounds the kernel's working set
_CSV_BLOCK_ROWS = 512


def fmt(v: float) -> str:
    """Fixed 17-significant-digit float text; float(fmt(v)) == v exactly."""
    return _FLOAT_FORMAT % float(v)


# Tables of _format_rows.  _POW10[:, k - _K_MIN] holds, for 10**k, hi (the
# nearest double), hi's 2**27 + 1 split hh + hl, lo = 10**k - hi rounded
# (0 exactly when 10**k is a double, 0 <= k <= 22), and the margin a result
# needs to count as proven (0 when exact), for k = 16 - E, |E| <= _E_MAX.
# Built with int arithmetic, whose true division is correctly rounded.
_SPLIT = 134217729.0  # 2**27 + 1
_PROOF_MARGIN = 1e-6
_E_MAX = 281
_K_MIN = 16 - _E_MAX


def _pow10_table() -> np.ndarray:
    table = np.empty((5, 2 * _E_MAX + 1))
    for j, k in enumerate(range(_K_MIN, 16 + _E_MAX + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        lo = (num * q - p * den) / (den * q)
        c = _SPLIT * hi
        hh = c - (c - hi)
        table[:, j] = hi, hh, hi - hh, lo, 0.0 if lo == 0.0 else _PROOF_MARGIN
    return table


def _words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), "<u4")


_POW10 = _pow10_table()
# 4-byte text words: sign (or NUL), NUL, leading digit, '.'; four digits;
# 'e', exponent sign, hundreds digit (or NUL), tens digit; units digit, ',',
# NUL, NUL.  The exponent words are indexed by E + _EXP_OFFSET.
_LEAD_WORDS = _words("".join(f"{s}\0{d}." for d in range(10) for s in ("\0", "-")))
_TWO_DIGITS = [f"{i:02d}" for i in range(100)]
# joined a hundred words at a time, so that import never holds 10000 strings
_DIGIT_WORDS = _words("".join(["".join([a + b for b in _TWO_DIGITS]) for a in _TWO_DIGITS]))
_EXP_OFFSET = 300
_EXP_WORDS, _UNIT_WORDS = _words("".join(
    f"e{'-' if e < 0 else '+'}{abs(e) // 100 or chr(0)}{abs(e) % 100:02d},\0\0"
    for e in range(-_EXP_OFFSET, _EXP_OFFSET + 1))).reshape(-1, 2).T.copy()


def _scaled(a: np.ndarray, i: np.ndarray):
    """a * 10**k as p + q for k = i + _K_MIN, each value's proof margin, and
    p + q - 1e16 and p + q - 1e17.  p + e is Dekker's exact product of a and
    hi; each operation is its own ufunc, so no fused multiply-add can change
    its rounding."""
    hi, hh, hl, lo, margin = _POW10.take(i, axis=1)
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    e = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    q = e + a * lo
    return p, q, margin, (p - 1e16) + q, (p - 1e17) + q


def _format_row(row: Sequence[float]) -> str:
    """One CSV row, each value formatted by % as fmt does."""
    return ",".join([_FLOAT_FORMAT] * len(row)) % tuple(row) + "\n"


def _format_rows(block: np.ndarray) -> str:
    """The text of _format_row for every row of a C-ordered 2-D float block,
    from one vectorised pass.

    Each value a = |v| is scaled to P = a * 10**(16 - E), E = floor(log10 a),
    as p + q (_scaled), with E corrected by one where P falls outside
    [1e16, 1e17).  p >= 2**53 is an even integer, so N = p + rint(q) is P
    rounded half to even, and N's 17 digits with exponent E are the %.16e
    text.  Where 10**(16 - E) is a double every step is exact.  Elsewhere q
    is within 1e-14 of its true value, and a value counts as proven only
    when q is _PROOF_MARGIN away from a rounding tie and P as far inside
    [1e16, 1e17).  A row holding any value that is not proven, not finite,
    subnormal or outside 1e-280 <= |v| < 1e281 is written by _format_row.
    Each value fills seven text words whose NUL bytes are then removed.
    """
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e281)  # E and its correction stay within _E_MAX
    a = np.where(fast, a, 1.0)
    i = (16 - _K_MIN - np.floor(np.log10(a))).astype(np.intp)
    p, q, margin, low, high = _scaled(a, i)
    fix = (low < 0.0) | (high >= 0.0)
    if fix.any():
        i[fix] += np.where(low[fix] < 0.0, 1, -1)
        p[fix], q[fix], margin[fix], low[fix], high[fix] = _scaled(a[fix], i[fix])
    r = np.rint(q)
    fast &= (low >= margin) & (high < -margin) & (np.abs(q - r) <= 0.5 - margin)
    n = p.astype(np.int64) + r.astype(np.int64)
    e = (16 - _K_MIN + _EXP_OFFSET) - i
    top = n >= 10 ** 17
    n[top] = 10 ** 16
    e += top
    zero = v == 0.0
    n[zero] = 0
    e[zero] = _EXP_OFFSET

    out = np.empty((len(v), 7), "<u4")
    lead = n // 10 ** 16
    out[:, 0] = _LEAD_WORDS[2 * lead + np.signbit(v)]
    n -= lead * 10 ** 16
    upper = n // 10 ** 8
    for col, half in ((1, upper), (3, n - upper * 10 ** 8)):
        quad = half // 10 ** 4
        out[:, col] = _DIGIT_WORDS[quad]
        out[:, col + 1] = _DIGIT_WORDS[half - quad * 10 ** 4]
    out[:, 5] = _EXP_WORDS[e]
    out[:, 6] = _UNIT_WORDS[e]
    text = out.view(np.uint8).reshape(rows, cols * 28)
    text[:, -3] = ord("\n")
    bad = ~(fast | zero)
    if not bad.any():
        return text.tobytes().translate(None, b"\0").decode("ascii")
    pieces = []
    start = 0
    for row in np.flatnonzero(bad.reshape(rows, cols).any(axis=1)).tolist():
        pieces += [text[start:row].tobytes().translate(None, b"\0").decode("ascii"),
                   _format_row(block[row].tolist())]
        start = row + 1
    pieces.append(text[start:].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(pieces)


# ---------------------------------------------------------------------------
# config schema


def _parse_floats(text: str, number: type = float) -> tuple:
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    return tuple(number(p) for p in parts)


def _parse_vectors(text: str) -> tuple[tuple[float, ...], ...]:
    groups = [g for g in text.split(";") if g.strip() != ""]
    return tuple(_parse_floats(g) for g in groups)


def _parse_samples(text: str) -> tuple[tuple[float, ...], ...]:
    """A piecewise disturbance's samples 't,v; t,v; ...', each one pair."""
    for group in text.split(";"):
        if group.strip() != "" and len(_parse_floats(group)) != 2:
            raise ValueError(f"piecewise sample {group.strip()!r} must look like t,v")
    return _parse_vectors(text)


def _parse_gains(text: str) -> tuple[tuple[tuple[float, int], ...], ...]:
    """Per-channel gain tables: channels split by ';', terms by whitespace,
    each term 'c,p' meaning c / (T-t)**p.  An empty channel is a zero gain."""
    channels = text.split(";")
    out = []
    for ch in channels:
        terms = []
        for tok in ch.split():
            c_txt, _, p_txt = tok.partition(",")
            if p_txt == "":
                raise ValueError(f"gain term {tok!r} must look like c,p")
            terms.append((float(c_txt), int(p_txt)))
        out.append(tuple(terms))
    return tuple(out)


def _format_value(val) -> str:
    """A parsed config value in the syntax it is parsed from, floats as fmt text."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return fmt(val)
    if isinstance(val, tuple):
        sep = "; " if val and isinstance(val[0], tuple) else ","
        return sep.join(_format_value(v) for v in val)
    return str(val)


@dataclass(frozen=True)
class Form:
    """A system.gains or disturbance.signal value: the name of its form and
    that form's parameters, or name None and the channels of a gain table.
    str() writes it in the syntax it is parsed from, so it parses back equal."""

    name: Optional[str]
    params: tuple = ()

    def __str__(self) -> str:
        if self.name is None:
            return "; ".join(" ".join(f"{fmt(c)},{p}" for c, p in ch) for ch in self.params)
        return f"{self.name}:{_format_value(self.params)}" if self.params else self.name


# form name -> (parser of the text after ':', parameter count or None for any,
# constructor of the parameters, a disturbance's bound first); None: a table
_GAIN_FORMS = {
    "reference": (_parse_floats, 0, GainTable.reference),
    "pt_diff2": (_parse_floats, 2, GainTable.prescribed_time_diff),
    "zero": (lambda text: _parse_floats(text, int), 1, GainTable.zero),
    None: (_parse_gains, None, lambda *channels: GainTable.rational(channels)),
}
_SIGNAL_FORMS = {
    "zero": (_parse_floats, 0, lambda bound: DisturbanceSpec("zero", bound)),
    "constant": (_parse_floats, 1, lambda bound, v: DisturbanceSpec("constant", bound, value=v)),
    "sinusoid": (_parse_floats, 3, lambda bound, a, f, phase: DisturbanceSpec(
        "sinusoid", bound, amplitude=a, frequency=f, phase=phase)),
    "piecewise": (_parse_samples, None,
                  lambda bound, *samples: DisturbanceSpec("piecewise", bound, samples=samples)),
}
_DEFAULT_GAINS = {CONTROL_LOOP: Form("reference"), DIFF_ERROR: Form("pt_diff2", (1.0, 1.0))}


def _parse_form(text: str, forms: dict) -> Form:
    """'name' or 'name:parameters' for a name in forms, with exactly that
    form's parameter count, or the whole text as the form None if forms has
    one and the text has no ':'."""
    name, colon, rest = text.partition(":")
    name = name.strip()
    if name not in forms:
        if colon or None not in forms:
            raise ValueError(f"unknown form {name!r}; the forms are "
                             + ", ".join(f or "a gain table" for f in forms))
        name, rest = None, text
    parse, count, _ = forms[name]
    params = parse(rest)
    if count is not None and len(params) != count:
        raise ValueError(f"{name} takes {count} parameter(s), got {len(params)}")
    return Form(name, params)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class KeySpec:
    parse: Callable[[str], object]
    default: object = None
    check: Optional[Callable[[object], Optional[str]]] = None
    choices: Optional[tuple[str, ...]] = None
    help: str = ""


def _positive(name: str):
    return lambda v: None if v > 0 else f"{name} must be positive"


def _nonnegative(name: str):
    return lambda v: None if v >= 0 else f"{name} must be nonnegative"


def _in_open_01(name: str):
    return lambda v: None if 0.0 < v < 1.0 else f"{name} must lie in (0, 1)"


_OPTS = IntegrationOptions()
KEY_SPECS: dict[str, KeySpec] = {
    "scenario": KeySpec(str, None, choices=SCENARIOS, help="what to run"),
    "attack.kind": KeySpec(str, None, choices=ATTACK_KINDS,
                           help="shorthand: scenario = attack.<kind>"),
    "workaround.variant": KeySpec(str, None, choices=WORKAROUND_KINDS,
                                  help="shorthand: scenario = workaround.<kind>"),
    "seed": KeySpec(int, 0, help="seed for randomized grids (oracle checks)"),

    "system.variant": KeySpec(str, None, choices=(CONTROL_LOOP, DIFF_ERROR),
                              help="plant family; default inferred from scenario"),
    "system.gains": KeySpec(lambda text: _parse_form(text, _GAIN_FORMS), None,
                            help="reference, pt_diff2:l1,l2, zero:n or a table 'c,p c,p; c,p' "
                                 "of terms c/(T-t)**p; default by system.variant"),
    "system.T": KeySpec(float, 1.0, _positive("system.T"), help="deadline instant"),
    "system.rho_min": KeySpec(float, None, _positive("system.rho_min"),
                              help="hard floor on T - t during integration"),

    "disturbance.signal": KeySpec(lambda text: _parse_form(text, _SIGNAL_FORMS), Form("zero"),
                                  help="d(t) on the last channel: zero, constant:v, "
                                       "sinusoid:a,f,phase or piecewise:t,v; t,v; ..."),
    "disturbance.bound": KeySpec(float, 0.0, _nonnegative("disturbance.bound")),

    "integration.rel_tol": KeySpec(float, _OPTS.rel_tol, _positive("integration.rel_tol")),
    "integration.abs_tol": KeySpec(float, _OPTS.abs_tol, _positive("integration.abs_tol")),
    "integration.max_norm": KeySpec(float, _OPTS.max_norm, _positive("integration.max_norm")),
    "integration.max_step_fraction": KeySpec(float, _OPTS.max_step_fraction,
                                             _in_open_01("integration.max_step_fraction")),

    "sim.s": KeySpec(float, 0.0, _nonnegative("sim.s"), help="start time"),
    "sim.x0": KeySpec(_parse_floats, None, help="start state, e.g. '1,0'"),
    "sim.t_end": KeySpec(float, None, _positive("sim.t_end")),
    "sim.grid": KeySpec(str, "geometric", choices=("geometric", "uniform")),
    "sim.grid_count": KeySpec(int, 512, lambda v: None if v >= 2 else "sim.grid_count must be >= 2"),

    "deadline.rho": KeySpec(float, 1e-3, _positive("deadline.rho")),
    "deadline.tol": KeySpec(float, 0.1, _positive("deadline.tol")),
    "deadline.starts": KeySpec(_parse_floats, (0.0, 0.3, 0.6)),
    "deadline.ics": KeySpec(_parse_vectors, ((1.0, 0.0), (0.0, 1.0), (10.0, -10.0))),
    "deadline.shrink_rhos": KeySpec(_parse_floats, (1e-2, 1e-3, 1e-4),
                                    help="rho ladder for the shrink profile; empty to skip"),

    "attack.eta_bar": KeySpec(float, None, _positive("attack.eta_bar"), help="noise bound"),
    "attack.epsilon": KeySpec(float, None, _positive("attack.epsilon"),
                              help="terminal-error target"),
    "attack.delta": KeySpec(float, None, _positive("attack.delta"),
                            help="held amplitude for controller-divergence"),
    "attack.targets": KeySpec(_parse_floats, None, help="peak-target ladder override"),
    "attack.thresholds": KeySpec(_parse_floats, None, help="verdict ladder override"),
    "attack.rho": KeySpec(float, 1e-6, _positive("attack.rho"),
                          help="terminal evaluation distance from T"),
    "attack.tol": KeySpec(float, 1e-3, _positive("attack.tol"),
                          help="relative tolerance of the diff-terminal verdict"),
    "attack.s": KeySpec(float, None, _nonnegative("attack.s"),
                        help="plan start for controller-terminal"),
    "attack.psi_init": KeySpec(_parse_floats, None,
                               help="planned start values, channels 1..n-1"),
    "attack.prelude": KeySpec(_parse_bool, False,
                              help="controller-terminal: steer from attack.x0 first"),
    "attack.x0": KeySpec(_parse_floats, None, help="start state for divergence/prelude runs"),

    "scan.delta": KeySpec(float, 1.0, _positive("scan.delta")),
    "scan.rhos": KeySpec(_parse_floats, (1e-1, 1e-2, 1e-3)),
    "scan.time_samples": KeySpec(int, 64, lambda v: None if v >= 2 else "scan.time_samples must be >= 2"),

    "falsify.delta": KeySpec(float, 1.0, _positive("falsify.delta")),
    "falsify.epsilon": KeySpec(float, 2.0, _positive("falsify.epsilon")),
    "falsify.eps_prime": KeySpec(float, None, _positive("falsify.eps_prime")),

    "workaround.t_stop": KeySpec(float, 0.9, _positive("workaround.t_stop")),
    "workaround.width": KeySpec(float, 1e-2, _positive("workaround.width")),
    "workaround.ics": KeySpec(_parse_vectors, ((1.0, 0.0), (10.0, 0.0), (100.0, 0.0))),
    "workaround.noise_eta_bar": KeySpec(float, None, _positive("workaround.noise_eta_bar"),
                                        help="run the sweep under divergence noise of this bound"),

    "output.dir": KeySpec(str, "."),
    "output.prefix": KeySpec(str, "tvglab"),
    "output.plot": KeySpec(_parse_bool, False, help="also write an SVG norm plot"),
}


class ConfigError(Exception):
    """Carries every violation found while reading a configuration."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)
    explicit: set = field(default_factory=set)

    def get(self, key: str):
        return self.values[key]

    @property
    def scenario(self) -> str:
        return self.values["scenario"]


def parse_config(text: str, subcommand: Optional[str] = None,
                 overrides: Optional[Sequence[tuple[str, str]]] = None) -> ExperimentConfig:
    """Parse key = value lines, apply flag overrides, validate everything.

    Raises ConfigError listing every violation (unknown key, bad value,
    range violation, cross-field conflict), each tagged with its source
    line or flag.
    """
    violations: list[str] = []
    cfg = ExperimentConfig(values={k: s.default for k, s in KEY_SPECS.items()})

    def assign(key: str, raw: str, where: str) -> None:
        spec = KEY_SPECS.get(key)
        if spec is None:
            violations.append(f"{where}: unknown key {key!r}")
            return
        try:
            val = spec.parse(raw.strip())
        except (ValueError, TypeError) as exc:
            violations.append(f"{where}: bad value for {key}: {exc}")
            return
        if spec.choices is not None and val not in spec.choices:
            violations.append(f"{where}: {key} must be one of {', '.join(spec.choices)}")
            return
        if spec.check is not None:
            msg = spec.check(val)
            if msg is not None:
                violations.append(f"{where}: {msg} (got {raw.strip()!r})")
                return
        cfg.values[key] = val
        cfg.explicit.add(key)

    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        if sep == "":
            violations.append(f"line {line_no}: expected 'key = value', got {body!r}")
            continue
        assign(key.strip(), raw, f"line {line_no}")

    for i, (key, raw) in enumerate(overrides or (), start=1):
        assign(key, raw, f"flag --{key}")

    _resolve_scenario(cfg, subcommand, violations)
    _cross_validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def _resolve_scenario(cfg: ExperimentConfig, subcommand: Optional[str],
                      violations: list[str]) -> None:
    scenario = cfg.values.get("scenario")
    if scenario is None and subcommand is not None:
        if subcommand == "attack":
            kind = cfg.values.get("attack.kind")
            if kind is None:
                violations.append(
                    "scenario: the attack subcommand needs attack.kind or an explicit "
                    f"scenario = attack.<kind> (kinds: {', '.join(ATTACK_KINDS)})")
                return
            scenario = f"attack.{kind}"
        elif subcommand == "workaround":
            kind = cfg.values.get("workaround.variant")
            if kind is None:
                violations.append(
                    "scenario: the workaround subcommand needs workaround.variant or an "
                    "explicit scenario = workaround.<kind>")
                return
            scenario = f"workaround.{kind}"
        else:
            scenario = subcommand
        cfg.values["scenario"] = scenario
    elif scenario is None:
        violations.append("scenario: missing required key 'scenario'")
        return
    elif subcommand is not None:
        base = scenario.split(".", 1)[0]
        if base != subcommand:
            violations.append(
                f"scenario: config says {scenario!r} but the subcommand is {subcommand!r}")
    if cfg.values.get("system.variant") is None:
        diff = cfg.values["scenario"] in ("attack.diff-divergence", "attack.diff-terminal")
        cfg.values["system.variant"] = DIFF_ERROR if diff else CONTROL_LOOP
    if cfg.values.get("system.gains") is None:
        cfg.values["system.gains"] = _DEFAULT_GAINS[cfg.values["system.variant"]]


def _cross_validate(cfg: ExperimentConfig, violations: list[str]) -> None:
    """Checks that name a config key first; once none fails, the model the
    config describes is built, and whatever its constructors reject is a
    violation too.  The channel count of the start states comes from it."""
    scenario = cfg.values.get("scenario")
    if scenario is None:
        return
    required = DIFF_ERROR if scenario.startswith("attack.diff") else CONTROL_LOOP
    if (scenario.startswith("attack.") or scenario == "falsify-stability") \
            and cfg.values["system.variant"] != required:
        violations.append(f"scenario {scenario} requires system.variant = {required}")
    if scenario.startswith("attack.") and cfg.values.get("attack.eta_bar") is None:
        violations.append(f"scenario {scenario} requires attack.eta_bar")
    if scenario in ("attack.controller-terminal", "attack.diff-terminal") \
            and cfg.values.get("attack.epsilon") is None:
        violations.append(f"scenario {scenario} requires attack.epsilon")
    if scenario == "attack.controller-terminal" and cfg.values["attack.prelude"] \
            and cfg.values.get("attack.x0") is None:
        violations.append("attack.prelude requires attack.x0")
    if scenario.startswith("attack."):
        kind = scenario.split(".", 1)[1]
        prelude = kind == "controller-terminal" and cfg.values["attack.prelude"]
        _, keys = _PRELUDE_RUN if prelude else _ATTACK_RUNS[kind]
        reads = ("kind", *keys, *(("prelude",) if kind == "controller-terminal" else ()))
        unread = sorted(key for key in cfg.explicit
                        if key.startswith("attack.") and key[len("attack."):] not in reads)
        if unread:
            violations.append(f"attack kind {kind}{' with attack.prelude' if prelude else ''} "
                              f"does not read {', '.join(unread)}")
    if scenario == "simulate" and cfg.values.get("sim.x0") is None:
        violations.append("scenario simulate requires sim.x0")
    if scenario == "verify-deadline":
        T, rho = cfg.values["system.T"], cfg.values["deadline.rho"]
        outside = [s for s in cfg.values["deadline.starts"] if not (0.0 <= s < T - rho)]
        if outside:
            violations.append(f"deadline.starts: {', '.join(repr(s) for s in outside)} outside "
                              f"[0, system.T - deadline.rho) = [0, {T - rho!r})")
    base = scenario.split(".", 1)[0]
    empty_keys = {"verify-deadline": ("deadline.starts", "deadline.ics"),
                  "workaround": ("workaround.ics",)}.get(base, ())
    violations.extend(f"{key} must not be empty" for key in empty_keys if not cfg.values[key])
    if cfg.values["system.gains"].name == "reference" and scenario != "selftest" \
            and "system.T" in cfg.explicit and cfg.values["system.T"] != 1.0:
        violations.append("system.T: the reference controller is defined for T = 1")
    if violations:
        return
    try:
        n = build_model(cfg).n
    except ValueError as exc:
        violations.append(str(exc))
        return
    if scenario == "attack.diff-terminal" and cfg.values.get("attack.x0") is None:
        cfg.values["attack.x0"] = (0.0,) * n
    key = {"simulate": "sim.x0", "verify-deadline": "deadline.ics",
           "workaround": "workaround.ics", "attack": "attack.x0"}.get(base)
    if key and cfg.values.get(key) is not None:
        states = cfg.values[key] if key.endswith(".ics") else (cfg.values[key],)
        wrong = [",".join(repr(v) for v in x) for x in states if len(x) != n]
        if wrong:
            violations.append(f"{key}: the model has {n} channels, got {'; '.join(wrong)}")


# ---------------------------------------------------------------------------
# model assembly


def build_model(cfg: ExperimentConfig) -> SystemModel:
    horizon = Horizon(T=cfg.values["system.T"], rho_min=cfg.values["system.rho_min"] or 0.0)
    gains, signal = cfg.values["system.gains"], cfg.values["disturbance.signal"]
    return SystemModel(variant=cfg.values["system.variant"], horizon=horizon,
                       gains=_GAIN_FORMS[gains.name][2](*gains.params),
                       disturbance=_SIGNAL_FORMS[signal.name][2](cfg.values["disturbance.bound"],
                                                                 *signal.params))


def build_options(cfg: ExperimentConfig, grid: Optional[OutputGrid] = None) -> IntegrationOptions:
    return IntegrationOptions(rel_tol=cfg.values["integration.rel_tol"],
                              abs_tol=cfg.values["integration.abs_tol"],
                              max_norm=cfg.values["integration.max_norm"],
                              max_step_fraction=cfg.values["integration.max_step_fraction"],
                              output_grid=grid)


# ---------------------------------------------------------------------------
# artifact writers


def config_echo_lines(cfg: ExperimentConfig) -> list[str]:
    """Effective configuration as comment lines; output paths are excluded so
    artifacts stay byte-identical across output locations."""
    return [f"# config: {key} = {_format_value(cfg.values[key])}" for key in sorted(KEY_SPECS)
            if not key.startswith("output.") and cfg.values[key] is not None]


def write_trajectory_csv(path: str, traj: Trajectory, cfg: Optional[ExperimentConfig] = None,
                         extra_comments: Sequence[str] = ()) -> None:
    """Write the config echo, extra_comments, the header and one row of
    %.16e text (the text of fmt) per sample.  Rows come from the vectorised
    _format_rows, _CSV_BLOCK_ROWS at a time; a row it cannot prove goes to
    the scalar _format_row."""
    n = traj.n
    eta_cols = traj.etas.shape[1]
    header = ["t"] + [f"x{i + 1}" for i in range(n)] \
        + [f"eta{i + 1}" for i in range(eta_cols)] + ["gain_out"]
    lines = []
    if cfg is not None:
        lines.extend(config_echo_lines(cfg))
    lines.extend(extra_comments)
    lines.append(",".join(header))
    data = np.column_stack((traj.ts, traj.xs, traj.etas, traj.gains))
    blocks = (_format_rows(data[i:i + _CSV_BLOCK_ROWS])
              for i in range(0, len(data), _CSV_BLOCK_ROWS))
    _write_lines(path, lines, blocks)


def parse_trajectory_csv(path: str) -> dict:
    """Re-read a trajectory CSV; np.loadtxt reproduces the values bit-exactly."""
    header = None
    rows = []
    comments = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line)
    if header is None:
        raise ValueError(f"no header row in {path}")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    n = sum(1 for h in header if h.startswith("x"))
    eta_cols = sum(1 for h in header if h.startswith("eta"))
    return {"header": header, "comments": comments, "ts": data[:, 0],
            "xs": data[:, 1:1 + n], "etas": data[:, 1 + n:1 + n + eta_cols],
            "gains": data[:, -1]}


def _write_lines(path: str, lines: Sequence[str], more: Iterable[str] = ()) -> None:
    """Write the lines, each ended by a newline, then each piece of more as
    it is produced."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(more)


def _fmt_or_nan(v: Optional[float]) -> str:
    return "nan" if v is None else fmt(v)


def _table(comments: Sequence[str], cases: Sequence, header: Sequence[str],
           rows: Iterable[Sequence[str]]) -> list[str]:
    """Comment lines, one '# case i failed' line per failed case, the header
    row, then the rows, as CSV lines."""
    lines = list(comments)
    lines += [f"# case {i} failed: {c.failure}" for i, c in enumerate(cases) if c.failure]
    lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    return lines


def deadline_table(report: DeadlineReport,
                   shrink: Sequence[tuple[str, tuple[tuple[float, float], ...]]] = ()) -> list[str]:
    n = max((len(c.xi) for c in report.cases), default=2)
    comments = [f"# deadline: rho = {fmt(report.rho)}, tol = {fmt(report.tol)}"]
    comments += [f"# shrink {label}: " + ", ".join(f"rho={fmt(r)} norm={fmt(v)}" for r, v in profile)
                 for label, profile in shrink]
    header = ["s"] + [f"xi{i + 1}" for i in range(n)] + ["terminal_norm", "bound", "passed"]
    rows = ([fmt(c.s), *map(fmt, c.xi), _fmt_or_nan(c.terminal_norm), fmt(c.bound),
             "1" if c.passed else "0"] for c in report.cases)
    return _table(comments, report.cases, header, rows)


def scan_table(table: GainScanTable) -> list[str]:
    width = max(len(r.arg_state) for r in table.rows)
    comments = [f"# scan: kind = {table.kind}, delta = {fmt(table.delta)}, "
                f"monotone = {'1' if table.monotone else '0'}"]
    header = ["rho", "supremum", "arg_time"] + [f"arg_x{i + 1}" for i in range(width)] \
        + ["arg_channel"]
    rows = ([fmt(r.rho), fmt(r.supremum), fmt(r.arg_time), *map(fmt, r.arg_state),
             *["nan"] * (width - len(r.arg_state)),
             str(-1 if r.arg_channel is None else r.arg_channel)] for r in table.rows)
    return _table(comments, (), header, rows)


def workaround_table(report: WorkaroundReport) -> list[str]:
    n = max(len(c.xi) for c in report.cases)
    comments = [f"# workaround: variant = {report.variant}, parameter = {fmt(report.parameter)}, "
                f"noisy = {'1' if report.noisy else '0'}"]
    if report.slope is not None:
        comments.append(f"# fit: slope = {fmt(report.slope)}, intercept = {fmt(report.intercept)}, "
                        f"r_squared = {fmt(report.r_squared)}")
    if report.no_entry_flags:
        flagged = ", ".join(str(i) for i in report.no_entry_flags)
        comments.append(f"# no entry before T - rho_min for cases: {flagged}")
    header = [f"xi{i + 1}" for i in range(n)]
    if report.variant == "stop_time":
        header += [f"residual_x{i + 1}" for i in range(n)] + ["residual_norm"]
        rows = ([*map(fmt, c.xi), *(["nan"] * (n + 1) if c.residual_state is None
                                    else [*map(fmt, c.residual_state), fmt(c.residual_norm)])]
                for c in report.cases)
    else:
        header += ["entered", "entry_time", "gain_at_entry"] + [f"final_x{i + 1}" for i in range(n)]
        rows = ([*map(fmt, c.xi), "1" if c.entered else "0", _fmt_or_nan(c.entry_time),
                 _fmt_or_nan(c.gain_at_entry),
                 *(["nan"] * n if c.final_state is None else map(fmt, c.final_state))]
                for c in report.cases)
    return _table(comments, report.cases, header, rows)


def maybe_write_plot(path: str, traj: Trajectory, enabled: bool) -> None:
    """Log-scale plot of the state norm against time, near the deadline."""
    if not enabled:
        return
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plot requested but matplotlib is not installed; skipping", file=sys.stderr)
        return
    matplotlib.rcParams["svg.hashsalt"] = "tvglab"
    norms = np.linalg.norm(traj.xs, axis=1)
    fig, ax = plt.subplots(figsize=(7.0, 4.0))
    ax.semilogy(traj.ts, np.maximum(norms, 1e-300))
    ax.set_xlabel("t")
    ax.set_ylabel("state norm")
    ax.grid(True, which="both", alpha=0.3)
    fig.tight_layout()
    fig.savefig(path, metadata={"Date": None})
    plt.close(fig)


# ---------------------------------------------------------------------------
# scenario runners


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario run produced, before run() names and writes it.

    The CSV <prefix>_<stem>.csv holds the config echo, then either table (the
    lines after the echo) or trajectory with its comment lines; the summary
    goes to <prefix>_<stem>_summary.txt.  error, when set, is printed to
    stderr after the artifacts are written.
    """

    stem: str
    summary: Sequence[str]
    exit_code: int
    table: Sequence[str] = ()
    trajectory: Optional[Trajectory] = None
    comments: Sequence[str] = ()
    error: str = ""


def _file_name(cfg: ExperimentConfig, stem: str, ext: str = "csv") -> str:
    return f"{cfg.values['output.prefix']}_{stem}.{ext}"


def _out_path(cfg: ExperimentConfig, out_dir: str, stem: str, ext: str = "csv") -> str:
    return os.path.join(out_dir, _file_name(cfg, stem, ext))


def _run_simulate(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    grid = OutputGrid(kind=cfg.values["sim.grid"], count=cfg.values["sim.grid_count"])
    opts = build_options(cfg, grid=grid)
    t_end = cfg.values["sim.t_end"]
    t_end = model.horizon.T - model.horizon.rho_min if t_end is None else t_end
    x0 = np.asarray(cfg.values["sim.x0"], dtype=float)
    traj = integrate(model, None, x0, cfg.values["sim.s"], t_end, opts)
    final = traj.xs[-1]
    summary = [
        "scenario: simulate",
        f"variant: {model.variant}",
        f"span: [{fmt(traj.t0)}, {fmt(traj.t_last)}]",
        f"termination: {traj.termination.kind}",
        f"final state: {', '.join(fmt(v) for v in final)}",
        f"final norm: {fmt(float(np.linalg.norm(final)))}",
        f"artifact: {_file_name(cfg, 'simulate')}",
    ]
    comments = [f"# termination: {traj.termination.kind} at t = {fmt(traj.termination.t)}"]
    return ScenarioResult("simulate", summary, EXIT_OK if traj.completed else EXIT_NUMERICAL,
                          trajectory=traj, comments=comments, error="" if traj.completed
                          else f"simulate: integration ended early: {traj.termination.kind}")


def _run_verify_deadline(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    opts = build_options(cfg)
    rhos = cfg.values["deadline.shrink_rhos"]
    if rhos:
        _rho_ladder(rhos)  # a bad ladder is rejected before the sweep
    report = check_absolute_deadline(model, cfg.values["deadline.starts"],
                                     cfg.values["deadline.ics"],
                                     rho=cfg.values["deadline.rho"],
                                     tol=cfg.values["deadline.tol"], opts=opts)
    shrink = []
    if rhos and report.passed:
        xi = cfg.values["deadline.ics"][0]
        prof = rho_shrink_profile(model, cfg.values["deadline.starts"][0], xi, rhos, opts=opts)
        shrink.append((",".join(fmt(v) for v in xi), prof))
    summary = ["scenario: verify-deadline",
               f"variant: {model.variant}",
               f"cases: {len(report.cases)}",
               f"passed: {report.passed}"]
    for c in report.cases:
        norm_txt = fmt(c.terminal_norm) if c.terminal_norm is not None else "failed"
        summary.append(f"  s={fmt(c.s)} xi=({', '.join(fmt(v) for v in c.xi)}) "
                       f"terminal={norm_txt} bound={fmt(c.bound)} "
                       f"{'ok' if c.passed else 'FAIL'}")
    failed = any(c.failure for c in report.cases)
    code = EXIT_NUMERICAL if failed else EXIT_OK if report.passed else EXIT_PROPERTY
    return ScenarioResult("deadline", summary, code, table=deadline_table(report, shrink))


def _run_attack(cfg: ExperimentConfig) -> ScenarioResult:
    kind = cfg.scenario.split(".", 1)[1]
    model = build_model(cfg)
    opts = build_options(cfg)
    eta_bar = cfg.values["attack.eta_bar"]
    epsilon = cfg.values["attack.epsilon"]
    prelude = kind == "controller-terminal" and cfg.values["attack.prelude"]
    runner, keys = _PRELUDE_RUN if prelude else _ATTACK_RUNS[kind]
    outcome = runner(model, opts=opts, **{key: cfg.values[f"attack.{key}"] for key in keys})
    head = f"# attack: kind = {kind}, eta_bar = {fmt(eta_bar)}"
    if kind in ("controller-divergence", "diff-divergence"):
        comments = [head]
        if outcome.schedule.delta is not None:
            comments.append(f"# schedule: delta = {fmt(outcome.schedule.delta)}")
        comments.append("# schedule: targets = "
                        + ",".join(fmt(v) for v in outcome.schedule.targets))
        for k_i, t_i in enumerate(outcome.schedule.times):
            comments.append(f"# schedule: switch {k_i} at t = {fmt(t_i)}")
        for thr, t_c in outcome.peaks:
            t_txt = fmt(t_c) if t_c is not None else "never"
            comments.append(f"# peak: threshold {fmt(thr)} first crossed at {t_txt}")
    elif kind == "controller-terminal":
        comments = [f"{head}, epsilon = {fmt(epsilon)}",
                    f"# plan: s = {fmt(outcome.plan.s)}",
                    f"# plan: tracking_error = {fmt(outcome.tracking_error)}"]
    else:
        comments = [f"{head}, epsilon = {fmt(epsilon)}", f"# ramp: s = {fmt(outcome.ramp.s)}"]
    if outcome.notes:
        comments.append(f"# note: {outcome.notes}")
    summary = [f"scenario: attack.{kind}",
               f"noise bound: {fmt(outcome.noise_bound)}",
               f"verdict: {'pass' if outcome.verdict else 'FAIL'}"]
    if outcome.terminal is not None:
        summary.append(f"terminal state: {', '.join(fmt(v) for v in outcome.terminal)}")
        summary.append(f"terminal norm: {fmt(float(np.linalg.norm(outcome.terminal)))}")
    if outcome.tracking_error is not None:
        summary.append(f"tracking error: {fmt(outcome.tracking_error)}")
    if outcome.peaks is not None:
        for thr, t_c in outcome.peaks:
            summary.append(f"threshold {fmt(thr)}: "
                           + (f"crossed at {fmt(t_c)}" if t_c is not None else "never crossed"))
    if outcome.notes:
        summary.append(f"notes: {outcome.notes}")
    return ScenarioResult(f"attack_{kind.replace('-', '_')}", summary,
                          EXIT_OK if outcome.verdict else EXIT_PROPERTY,
                          trajectory=outcome.trajectory, comments=comments)


def _run_gain_scan(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    table = gain_supremum_scan(model, cfg.values["scan.delta"], cfg.values["scan.rhos"],
                               time_samples=cfg.values["scan.time_samples"])
    summary = ["scenario: gain-scan",
               f"kind: {table.kind}",
               f"delta: {fmt(table.delta)}",
               f"monotone: {table.monotone}"]
    for r in table.rows:
        ch = "" if r.arg_channel is None else f" channel {r.arg_channel + 1}"
        summary.append(f"  rho={fmt(r.rho)} sup={fmt(r.supremum)}{ch} at t={fmt(r.arg_time)}")
    return ScenarioResult("gain_scan", summary, EXIT_OK if table.monotone else EXIT_PROPERTY,
                          table=scan_table(table))


def _run_falsify(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    opts = build_options(cfg)
    witness = falsify_uniform_stability(model, cfg.values["falsify.delta"],
                                        cfg.values["falsify.epsilon"],
                                        eps_prime=cfg.values["falsify.eps_prime"], opts=opts)
    comments = [f"# witness: s = {fmt(witness.s)}, delta = {fmt(witness.delta)}, "
                f"epsilon = {fmt(witness.epsilon)}, eps_prime = {fmt(witness.eps_prime)}"]
    if witness.crossing_time is not None:
        comments.append(f"# witness: first crossing at t = {fmt(witness.crossing_time)}")
    comments.append(f"# witness: attained norm {fmt(witness.attained_norm)} "
                    f"at t = {fmt(witness.attained_time)}")
    summary = ["scenario: falsify-stability",
               f"start: x(s) = delta * e1 with s = {fmt(witness.s)}, delta = {fmt(witness.delta)}",
               f"crossed epsilon = {fmt(witness.epsilon)}: {'yes' if witness.crossed else 'NO'}"]
    if witness.crossing_time is not None:
        summary.append(f"first crossing: t = {fmt(witness.crossing_time)}")
    summary.append(f"attained norm: {fmt(witness.attained_norm)} at t = {fmt(witness.attained_time)}")
    return ScenarioResult("falsify", summary, EXIT_OK if witness.crossed else EXIT_PROPERTY,
                          trajectory=witness.trajectory, comments=comments)


def _run_workaround(cfg: ExperimentConfig) -> ScenarioResult:
    kind = cfg.scenario.split(".", 1)[1]
    model = build_model(cfg)
    opts = build_options(cfg)
    noise_bound = cfg.values["workaround.noise_eta_bar"]
    noise = None
    if noise_bound is not None:
        noise = lambda: controller_divergence_noise(noise_bound, T=model.horizon.T)
    if kind == "stop-time":
        report = evaluate_stop_time(model, cfg.values["workaround.t_stop"],
                                    cfg.values["workaround.ics"], noise=noise, opts=opts)
    else:
        report = evaluate_deadzone(model, cfg.values["workaround.width"],
                                   cfg.values["workaround.ics"], noise=noise, opts=opts)
    summary = [f"scenario: workaround.{kind}",
               f"parameter: {fmt(report.parameter)}",
               f"noisy: {report.noisy}"]
    for c in report.cases:
        if report.variant == "stop_time":
            res = "failed" if c.residual_state is None else f"residual norm {fmt(c.residual_norm)}"
        elif c.failure:
            res = f"failed ({c.failure})"
        elif not c.entered:
            res = "no entry before T - rho_min"
        else:
            res = f"entry at {fmt(c.entry_time)}, gain {fmt(c.gain_at_entry)}"
        summary.append(f"  xi=({', '.join(fmt(v) for v in c.xi)}): {res}")
    if report.slope is not None:
        summary.append(f"fit: slope = {fmt(report.slope)}, intercept = {fmt(report.intercept)}, "
                       f"R^2 = {fmt(report.r_squared)}")
    if report.no_entry_flags:
        summary.append("flagged cases (no entry): "
                       + ", ".join(str(i) for i in report.no_entry_flags))
    failed = any(c.failure for c in report.cases)
    return ScenarioResult(f"workaround_{kind.replace('-', '_')}", summary,
                          EXIT_NUMERICAL if failed else EXIT_OK, table=workaround_table(report))


def _selftest(cfg: ExperimentConfig, out_dir: str) -> int:
    """Deterministic battery touching every capability; artifacts are
    byte-identical across runs with the same config and seed.  Unlike the
    scenario runners' CSVs, its artifacts carry no config echo."""
    from .core import reference_loop, differentiator_error_model, open_loop_chain

    unread = sorted(key for key in cfg.explicit
                    if key not in ("scenario", "seed") and not key.startswith("output."))
    if unread:
        raise ValueError(f"selftest reads no key but seed and output.*; got {', '.join(unread)}")

    grid_s = (0.0, 0.3, 0.6)
    grid_xi = ((1.0, 0.0), (0.0, 1.0), (10.0, -10.0))
    rhos = (1e-1, 1e-2, 1e-3)

    def oracle_table(report) -> list[str]:
        return _table(["# oracle check", f"# max_rel_error = {fmt(report.max_rel_error)}"], (),
                      ["s", "xi1", "xi2", "max_rel_error"],
                      ([fmt(c.s), fmt(c.xi[0]), fmt(c.xi[1]), fmt(c.max_rel_error)]
                       for c in report.cases))

    def increasing(values) -> bool:
        return all(b > a for a, b in zip(values, values[1:]))

    # (check name, artifact stem or None, call, predicate on its result,
    # artifact lines: the table, or the comment lines of the result's trajectory)
    battery = [
        ("oracle equivalence (8 seeded cases, tol 1e-6)", "selftest_oracle",
         lambda: verify_solver_against_oracle(sample_count=8, tol=1e-6, seed=cfg.values["seed"]),
         lambda r: r.passed, oracle_table),
        ("absolute deadline, control loop", "selftest_deadline_control",
         lambda: check_absolute_deadline(reference_loop(), grid_s, grid_xi),
         lambda r: r.passed, deadline_table),
        ("absolute deadline, differentiator error model", "selftest_deadline_diff",
         lambda: check_absolute_deadline(differentiator_error_model(), grid_s, grid_xi),
         lambda r: r.passed, deadline_table),
        ("open-loop negative control fails the deadline check", None,
         lambda: check_absolute_deadline(open_loop_chain(), (0.0,), ((0.0, 1.0),)),
         lambda r: not r.passed, None),
        ("controller divergence ladder", "selftest_attack_controller_divergence",
         lambda: run_divergence_attack(reference_loop(rho_min=1e-9), 1e-2),
         lambda r: r.verdict,
         lambda r: [f"# schedule: switch {k} at t = {fmt(t)}"
                    for k, t in enumerate(r.schedule.times)]),
        ("differentiator divergence ladder", "selftest_attack_diff_divergence",
         lambda: run_divergence_attack(differentiator_error_model(rho_min=1e-9), 1e-2),
         lambda r: r.verdict, lambda r: []),
        ("controller terminal-error tracking", "selftest_attack_controller_terminal",
         lambda: run_controller_terminal_attack(reference_loop(), 0.1, 0.5),
         lambda r: r.verdict and r.tracking_error <= 1e-6,
         lambda r: [f"# plan: s = {fmt(r.plan.s)}"]),
        ("differentiator terminal ramp", "selftest_attack_diff_terminal",
         lambda: run_differentiator_terminal_attack(differentiator_error_model(), 0.1, 1.0,
                                                    (0.0, 0.0)),
         lambda r: r.verdict, lambda r: [f"# ramp: s = {fmt(r.ramp.s)}"]),
        ("controller gain scan monotone", "selftest_gain_scan_control",
         lambda: gain_supremum_scan(reference_loop(), 1.0, rhos),
         lambda r: r.monotone, scan_table),
        ("injection gain scan monotone", "selftest_gain_scan_diff",
         lambda: gain_supremum_scan(differentiator_error_model(), 1.0, rhos),
         lambda r: r.monotone, scan_table),
        ("uniform-stability falsification", "selftest_falsify",
         lambda: falsify_uniform_stability(reference_loop(), 1.0, 2.0, 2.5),
         lambda r: r.crossed,
         lambda r: [f"# witness: s = {fmt(r.s)}", f"# witness: attained = {fmt(r.attained_norm)}"]),
        ("stop-time residual fit", "selftest_workaround_stop_time",
         lambda: evaluate_stop_time(reference_loop(), 0.9,
                                    ((1.0, 0.0), (2.0, 0.0), (5.0, 0.0), (10.0, 0.0))),
         lambda r: r.r_squared is not None and r.r_squared >= 0.999, workaround_table),
        ("deadzone noise-free entries ordered", "selftest_workaround_deadzone",
         lambda: evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-2,
                                   ((1.0, 0.0), (10.0, 0.0), (100.0, 0.0))),
         lambda r: (all(c.entered for c in r.cases)
                    and increasing([c.entry_time for c in r.cases])
                    and increasing([c.gain_at_entry for c in r.cases])),
         workaround_table),
        # width eta_bar / 100: in the held segments' closed form |x|inf stays above 5e-4
        ("deadzone entry prevented by bounded noise", "selftest_workaround_deadzone_noisy",
         lambda: evaluate_deadzone(reference_loop(rho_min=1e-6), 1e-4, ((10.0, 0.0),),
                                   noise=lambda: controller_divergence_noise(1e-2)),
         lambda r: r.no_entry_flags == (0,), workaround_table),
    ]

    checks: list[tuple[str, bool]] = []
    noisy_csvs = []  # (path, noise bound) of the attack trajectories
    for name, stem, call, predicate, artifact in battery:
        result = call()
        if stem is not None:
            path = _out_path(cfg, out_dir, stem)
            if hasattr(result, "trajectory"):
                write_trajectory_csv(path, result.trajectory, None, artifact(result))
                if hasattr(result, "noise_bound"):
                    noisy_csvs.append((path, result.noise_bound))
            else:
                _write_lines(path, artifact(result))
        checks.append((name, predicate(result)))

    round_trip_ok = True
    bound_ok = True
    for path, bound in noisy_csvs:
        parsed = parse_trajectory_csv(path)
        if float(np.max(np.linalg.norm(parsed["etas"], axis=1))) > bound * (1.0 + 1e-12):
            bound_ok = False
        table = np.column_stack((parsed["ts"], parsed["xs"], parsed["etas"], parsed["gains"]))
        rebuilt = parsed["comments"] + [",".join(parsed["header"])] \
            + [",".join(map(fmt, row)) for row in table.tolist()]
        with open(path, "r", encoding="utf-8") as fh:
            if fh.read() != "\n".join(rebuilt) + "\n":
                round_trip_ok = False
    checks.append(("trajectory CSVs round-trip bit-exactly", round_trip_ok))
    checks.append(("trajectory CSV noise columns respect bounds", bound_ok))

    all_ok = all(ok for _, ok in checks)
    lines = ["scenario: selftest"] + [f"{'PASS' if ok else 'FAIL'}: {name}" for name, ok in checks]
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
    _write_lines(_out_path(cfg, out_dir, "selftest_summary", "txt"), lines)
    return EXIT_OK if all_ok else EXIT_PROPERTY


# keyed by the scenario up to its first '.'
_RUNNERS: dict[str, Callable[[ExperimentConfig], ScenarioResult]] = {
    "simulate": _run_simulate,
    "verify-deadline": _run_verify_deadline,
    "attack": _run_attack,
    "gain-scan": _run_gain_scan,
    "falsify-stability": _run_falsify,
    "workaround": _run_workaround,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured scenario, write its artifacts and return the
    process exit code.  A scenario runner returns before anything is
    written, so a scenario that raises writes nothing (selftest writes as it
    goes)."""
    out_dir = os.environ.get(OUTPUT_DIR_ENV) or cfg.values["output.dir"]
    try:
        if cfg.scenario == "selftest":
            return _selftest(cfg, out_dir)
        result = _RUNNERS[cfg.scenario.split(".", 1)[0]](cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    csv_path = _out_path(cfg, out_dir, result.stem)
    if result.trajectory is None:
        _write_lines(csv_path, config_echo_lines(cfg) + list(result.table))
    else:
        write_trajectory_csv(csv_path, result.trajectory, cfg, result.comments)
        maybe_write_plot(_out_path(cfg, out_dir, result.stem, "svg"), result.trajectory,
                         cfg.values["output.plot"])
    _write_lines(_out_path(cfg, out_dir, f"{result.stem}_summary", "txt"), result.summary)
    if result.error:
        print(result.error, file=sys.stderr)
    return result.exit_code


def _split_flags(argv: Sequence[str]) -> tuple[Optional[str], list[tuple[str, str]], list[str]]:
    """Extract (config_path, key overrides, problems) from flag arguments."""
    config_path = None
    overrides: list[tuple[str, str]] = []
    problems: list[str] = []
    i = 0
    args = list(argv)
    while i < len(args):
        tok = args[i]
        if not tok.startswith("--"):
            problems.append(f"unexpected argument {tok!r} (flags look like --key value)")
            i += 1
            continue
        body = tok[2:]
        key, eq, val = body.partition("=")
        if not eq:
            if i + 1 >= len(args):
                problems.append(f"flag --{key} needs a value")
                break
            val = args[i + 1]
            i += 1
        if key == "config":
            config_path = val
        else:
            overrides.append((key, val))
        i += 1
    return config_path, overrides, problems


USAGE = """usage: tvglab SUBCOMMAND [--config FILE] [--KEY VALUE | --KEY=VALUE ...]

subcommands: simulate | verify-deadline | attack | gain-scan |
             falsify-stability | workaround | selftest

Flags mirror config keys (e.g. --system.T 1.0 --attack.eta_bar 0.01).
--system.gains is reference, pt_diff2:l1,l2, zero:n or a table
"c,p c,p; c,p" of terms c/(T-t)**p; --disturbance.signal is zero,
constant:v, sinusoid:a,f,phase or "piecewise:t,v; t,v; ...".
attack needs --attack.kind {controller-divergence, controller-terminal,
diff-divergence, diff-terminal}, and an attack.* key that kind does not
read is a config error; workaround needs --workaround.variant
{stop-time, deadzone}.  The TVGLAB_OUTPUT_DIR environment variable
overrides output.dir."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return EXIT_OK
    subcommand = argv[0]
    if subcommand not in (*_RUNNERS, "selftest"):
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return EXIT_CONFIG
    config_path, overrides, problems = _split_flags(argv[1:])
    try:
        if problems:
            raise ConfigError(problems)
        text = ""
        if config_path is not None:
            try:
                with open(config_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError([f"cannot read {config_path!r}: {exc}"]) from exc
        cfg = parse_config(text, subcommand=subcommand, overrides=overrides)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
