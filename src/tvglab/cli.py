"""Experiment harness for the toolkit.

Subcommands: simulate, verify-deadline, attack, gain-scan, falsify-stability,
workaround, selftest.  Configuration is line-based ``key = value`` text with
dotted section prefixes (``system.T = 1.0``); command-line flags mirror the
config keys (``--system.T 1.0``) and override the file.  Every run writes CSV
artifacts plus a text summary into the output directory (``output.dir``,
overridden by the TVGLAB_OUTPUT_DIR environment variable).  ``system.gains``
and ``disturbance.signal`` name a form and carry only its parameters
(``pt_diff2:1,1``, ``constant:0.2``); USAGE lists the forms.

Each scenario's runner returns a ScenarioResult: the library's record and
the run's facts, an ordered list of (label, text) pairs.  One writer
renders the facts twice: as '# label: text' lines after the config echo in
<prefix>_<stem>.csv, and as 'label: text' lines after 'scenario: ...' in
<prefix>_<stem>_summary.txt.  selftest runs the oracle check, then each of
its checks as the scenario of that check's flags, through the same runners
and writer under the stem selftest_<stem>, and lists PASS or FAIL per check
in <prefix>_selftest_summary.txt.

Exit codes: 0 scenario ran and its declared properties held; 1 config error;
2 numerical failure; 3 scenario ran but a declared property failed.  The
exception type decides between 1 and 2: the library raises ValueError for
bad input (exit 1) and NumericalFailure for a run that broke (exit 2).  A
config is checked at parse time by building the model it describes; a
config error, whether found then or while the scenario runs, writes no file.

Trajectory CSV layout: header ``t,x1..xn,eta1..etan,gain_out`` (a single
``eta1`` column for scalar-noise systems), '#'-prefixed comment rows carrying
the effective config and the scenario's facts, and floats printed with 17
significant digits so a re-parse reproduces every value bit-exactly.
"""

from __future__ import annotations

import os
import shlex
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
from .oracle import SolverCheckReport, verify_solver_against_oracle
from .attack import (
    controller_divergence_noise,
    run_controller_ramp_attack,
    run_controller_terminal_attack,
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
# attack.kind, the only attack.* keys the kind reads.  controller-terminal
# with attack.x0 set runs _RAMP_RUN, the ramp attack from that start, in
# place of the cascade plan's prepared start
_ATTACK_RUNS = {
    "controller-divergence": (run_divergence_attack,
                              ("eta_bar", "delta", "targets", "thresholds", "x0")),
    "diff-divergence": (run_divergence_attack, ("eta_bar", "targets", "thresholds", "x0")),
    "controller-terminal": (run_controller_terminal_attack,
                            ("eta_bar", "epsilon", "rho", "s", "psi_init")),
    "diff-terminal": (run_differentiator_terminal_attack, ("eta_bar", "epsilon", "rho", "tol", "x0")),
}
_RAMP_RUN = (run_controller_ramp_attack, ("eta_bar", "epsilon", "rho", "x0"))
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


# Tables of _format_rows and _parse_rows.  _POW10[:, k - _K_MIN] holds, for
# 10**k, hi (the nearest double), hi's 2**27 + 1 split hh + hl, lo = 10**k - hi
# rounded (0 exactly when 10**k is a double, 0 <= k <= 22), and the margin a
# written value needs to count as proven (0 when exact), for |k| <= 16 + _E_MAX:
# the writer's 10**(16 - E) and the reader's 10**(E - 16), |E| <= _E_MAX.
# Built with int arithmetic, whose true division is correctly rounded.
_SPLIT = 134217729.0  # 2**27 + 1
_PROOF_MARGIN = 1e-6
_E_MAX = 281
_K_MIN = -16 - _E_MAX


def _pow10_table() -> np.ndarray:
    table = np.empty((5, 1 - 2 * _K_MIN))
    for j, k in enumerate(range(_K_MIN, 1 - _K_MIN)):
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


def _scaled(a: np.ndarray, i: np.ndarray, b: Optional[np.ndarray] = None):
    """(a + b) * 10**k as p + q for k = i + _K_MIN (b = 0 when not given), and
    each value's proof margin.  p + e is Dekker's exact product of a and hi;
    each operation is its own ufunc, so no fused multiply-add can change its
    rounding."""
    hi, hh, hl, lo, margin = _POW10.take(i, axis=1)
    p = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    e = al * hl - (((p - ah * hh) - al * hh) - ah * hl)
    q = e + a * lo if b is None else e + (a * lo + b * hi)
    return p, q, margin


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
    p, q, margin = _scaled(a, i)
    low, high = (p - 1e16) + q, (p - 1e17) + q
    fix = (low < 0.0) | (high >= 0.0)
    if fix.any():
        i[fix] += np.where(low[fix] < 0.0, 1, -1)
        p[fix], q[fix], margin[fix] = _scaled(a[fix], i[fix])
        low, high = (p - 1e16) + q, (p - 1e17) + q
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


# The reader takes trajectory CSV rows this many bytes at a time, whole lines,
# which bounds its working set.  _PAD follows each block, so that every
# token's three 8-byte windows lie inside the buffer.
_CSV_BLOCK_BYTES = 1 << 16
_PAD = bytes(24)
# a read value counts as proven when its double-double, moved this much of
# itself either way, still rounds to the same double; the double-double's
# error is below 2**-86 of it
_READ_MARGIN = 2.0 ** -70


def _word(text: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(text, "little"))


def _layout(pattern: str) -> tuple[np.uint64, np.uint64, np.uint64]:
    """The words with which _misfits checks an 8-byte window against pattern:
    'd' a digit, '?' any byte, any other character itself."""
    return (_word(bytes(ord("0") if c in "d?" else ord(c) for c in pattern)),
            _word(bytes(0x76 if c in "d?" else 0x7F for c in pattern)),
            _word(bytes(0 if c == "?" else 0x80 for c in pattern)))


# a %.16e token after its '-': lead digit, '.', 16 digits, 'e', exponent sign
# and 2 or 3 exponent digits, 22 or 23 bytes read as three 8-byte windows at
# offsets 0, 8 and 16; the 'e' and the sign are compared whole
_HEAD, _MID, _TAIL = _layout("d.dddddd"), _layout("dddddddd"), _layout("dd??dd??")
_TAIL3_HIGH = _layout("dd??ddd?")[2]  # the tail of a 3-digit exponent
_E_PLUS, _E_MINUS = _word(b"e+"), _word(b"e-")
_NIBBLES = _word(b"\x0f" * 8)


def _misfits(w: np.ndarray, xor, add, high) -> np.ndarray:
    """Nonzero where a window of w does not fit its _layout words.  w ^ xor
    turns a fitting digit into 0..9 and a fitting character into 0, and
    adding 0x76 or 0x7F sets a byte's high bit just where it is larger.  A
    carry leaves only a byte whose own high bit is set, and can only add a
    misfit to the next byte, never hide one; a misfit sends the token to
    _parse_field."""
    x = w ^ xor
    return ((x + add) | x) & high


def _eight_digits(w: np.ndarray) -> np.ndarray:
    """The value of each word's eight ASCII digits (NUL counts as 0), its
    first byte the most significant, by uint64 wraparound arithmetic."""
    w = ((w & _NIBBLES) * 2561) >> 8
    w = ((w & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((w & 0x0000FFFF0000FFFF) * 42949672960001) >> 32


def _parse_field(token: bytes) -> float:
    """One CSV field that _parse_rows cannot prove, read by float()."""
    return float(token)


def _parse_rows(buf: bytes, cols: int, where: Callable[[int], str]) -> np.ndarray:
    """The (rows, cols) values of the CSV rows in buf: whole lines, each ended
    by a newline, then _PAD.  A row whose field count is not cols raises a
    ValueError that where(row) names.

    Each token's place comes from the separators; a token in fmt's %.16e
    layout (_misfits finds the others) is N = 17 digits with exponent E.  For
    |E| <= _E_MAX its value N * 10**(E - 16) is formed as p + q (_scaled, N =
    nh + nl with nh a double and nl an integer, |nl| < 16) and rounded to r
    = p + q.  r is the value only when p + q +- _READ_MARGIN * p round to r
    as well.  Every other token goes to _parse_field.
    """
    b = np.frombuffer(buf, np.uint8)
    sep = np.flatnonzero((b == 44) | (b == 10))
    newline = b[sep] == 10
    rows = int(np.count_nonzero(newline))
    if len(sep) != rows * cols or not newline[cols - 1::cols].all():
        fields = np.diff(np.flatnonzero(newline), prepend=-1)
        row = int(np.flatnonzero(fields != cols)[0])
        raise ValueError(f"{where(row)}: {fields[row]} fields, the header has {cols}")
    starts = np.empty_like(sep)
    starts[0] = 0
    starts[1:] = sep[:-1] + 1
    neg = b[starts] == 45
    s = starts + neg
    size = sep - s
    three = size == 23  # a 3-digit exponent
    windows = np.ndarray((len(b) - 7,), "<u8", buf, 0, (1,))  # 8 bytes at every offset
    head, mid, tail = windows[s], windows[s + 8], windows[s + 16]
    sign = (tail >> 16) & 0xFFFF
    minus = sign == _E_MINUS
    misfits = _misfits(head, *_HEAD) | _misfits(mid, *_MID) \
        | _misfits(tail, *_TAIL[:2], np.where(three, _TAIL3_HIGH, _TAIL[2]))
    ok = ((size == 22) | three) & (minus | (sign == _E_PLUS)) & (misfits == 0)
    # the lead digit moved next to the first six decimals: NUL, lead, d1..d6
    top = _eight_digits((head & 0xFFFFFFFFFFFF0000) | ((head & 0xFF) << 8))
    # byte 0: the last two decimals, byte 4: the first two exponent digits
    pairs = ((tail & _NIBBLES) * 2561) >> 8
    n = top * 10 ** 10 + _eight_digits(mid) * 100 + (pairs & 0xFF)
    tens = (pairs >> 32) & 0xFF
    exp = np.where(three, tens * 10 + ((tail >> 48) & 0xF), tens).astype(np.intp)
    ok &= exp <= _E_MAX
    exp = np.minimum(exp, _E_MAX)
    nh = n.astype(np.float64)
    nl = (n - nh.astype(np.uint64)).view(np.int64).astype(np.float64)
    p, q, _ = _scaled(nh, np.where(minus, -16 - _K_MIN - exp, exp - 16 - _K_MIN), nl)
    r = p + q
    m = p * _READ_MARGIN
    ok &= (p + (q + m) == r) & (p + (q - m) == r)
    out = np.where(neg, -r, r)
    for j in np.flatnonzero(~ok).tolist():
        try:
            out[j] = _parse_field(buf[starts[j]:sep[j]])
        except ValueError as exc:
            raise ValueError(f"{where(j // cols)}: {exc}") from None
    return out.reshape(rows, cols)


def _read_rows(data: bytes, pos: int, cols: int, where: Callable[[int], str]) -> np.ndarray:
    """The (rows, cols) table of the CSV lines in data[pos:], each ended by a
    newline, read by _parse_rows _CSV_BLOCK_BYTES at a time; where(row)
    names the line of a row."""
    view = memoryview(data)
    blocks = [np.empty((0, cols))]
    row = 0
    while pos < len(data):
        end = data.rfind(b"\n", pos, pos + _CSV_BLOCK_BYTES) + 1 or data.find(b"\n", pos) + 1
        blocks.append(_parse_rows(b"".join((view[pos:end], _PAD)), cols,
                                  lambda r: where(row + r)))
        row += len(blocks[-1])
        pos = end
    return np.concatenate(blocks)


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


# the largest output grid or scan sample count: each point takes a row of
# floats that numpy allocates up front
_MAX_COUNT = 10 ** 7


def _count(name: str):
    return lambda v: None if 2 <= v <= _MAX_COUNT else f"{name} must lie in [2, {_MAX_COUNT}]"


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
    "sim.grid_count": KeySpec(int, 512, _count("sim.grid_count")),

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
    "attack.x0": KeySpec(_parse_floats, None,
                         help="start state; controller-terminal then runs the ramp attack"),

    "scan.delta": KeySpec(float, 1.0, _positive("scan.delta")),
    "scan.rhos": KeySpec(_parse_floats, (1e-1, 1e-2, 1e-3)),
    "scan.time_samples": KeySpec(int, 64, _count("scan.time_samples")),

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

    for key, raw in overrides or ():
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
        scenario = subcommand
        key = {"attack": "attack.kind", "workaround": "workaround.variant"}.get(subcommand)
        if key is not None:
            kind = cfg.values.get(key)
            if kind is None:
                violations.append(
                    f"scenario: the {subcommand} subcommand needs {key} or an explicit "
                    f"scenario = {subcommand}.<kind> (kinds: {', '.join(KEY_SPECS[key].choices)})")
                return
            scenario = f"{subcommand}.{kind}"
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
    if scenario.startswith("attack."):
        kind = scenario.split(".", 1)[1]
        runner, keys = _attack_run(kind, cfg)
        unread = sorted(key for key in cfg.explicit
                        if key.startswith("attack.") and key[len("attack."):] not in ("kind", *keys))
        if unread:
            ramp = " with attack.x0" if runner is run_controller_ramp_attack else ""
            violations.append(f"attack kind {kind}{ramp} does not read {', '.join(unread)}")
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


def _trajectory_header(n: int, eta_cols: int) -> list[str]:
    return ["t", *(f"x{i + 1}" for i in range(n)), *(f"eta{i + 1}" for i in range(eta_cols)),
            "gain_out"]


def write_trajectory_csv(path: str, traj: Trajectory, cfg: Optional[ExperimentConfig] = None,
                         extra_comments: Sequence[str] = ()) -> None:
    """Write the config echo, extra_comments, the header and one row of
    %.16e text (the text of fmt) per sample.  Rows come from the vectorised
    _format_rows, _CSV_BLOCK_ROWS at a time; a row it cannot prove goes to
    the scalar _format_row."""
    lines = []
    if cfg is not None:
        lines.extend(config_echo_lines(cfg))
    lines.extend(extra_comments)
    lines.append(",".join(_trajectory_header(traj.n, traj.etas.shape[1])))
    data = np.column_stack((traj.ts, traj.xs, traj.etas, traj.gains))
    blocks = (_format_rows(data[i:i + _CSV_BLOCK_ROWS])
              for i in range(0, len(data), _CSV_BLOCK_ROWS))
    _write_lines(path, lines, blocks)


def parse_trajectory_csv(path: str) -> dict:
    """Re-read a trajectory CSV, every value bit-exactly.

    Lines end in LF, CRLF or CR.  Blank lines are skipped, '#' lines are
    comments wherever they stand, and the first other line is the header,
    which must be the writer's t,x1..xn,eta1..etam,gain_out (n, m >= 1) or
    a ValueError names the file and the header; in a row, text from a '#'
    on is dropped.  Every row must have as many fields as the header, or a
    ValueError names its line.

    Rows are read _CSV_BLOCK_BYTES at a time by _parse_rows, the inverse of
    _format_rows.  A token in fmt's layout is read with integer arithmetic
    and its value formed as a double-double whose error is below 2**-86 of
    it.  Proof rule: the double r nearest that double-double is the value
    only when the double-double moved by _READ_MARGIN (2**-70) of itself
    either way still rounds to r.  fmt's 17 digits lie within about 5e-17
    of the value they write, and a double's rounding interval reaches at
    least 5.55e-17 of it on either side, so every zero and every token fmt
    writes with an exponent in -281..281 (about 1e-281 <= |v| < 1e282) is
    proven.
    Fallback: every other token (nan, inf, subnormals, other exponents,
    decimal ties such as 1.0000000000000001e+16, any other text) goes to
    float().
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    comments = []
    header = None
    pos = line_no = 0
    while header is None and pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        line = data[pos:end]
        pos, line_no = end + 1, line_no + 1
        if line.startswith(b"#"):
            comments.append(line.decode("utf-8"))
        elif line:
            header = line.decode("utf-8").split(",")
    if header is None:
        raise ValueError(f"no header row in {path}")
    n = sum(1 for h in header if h.startswith("x"))
    eta_cols = sum(1 for h in header if h.startswith("eta"))
    if header != _trajectory_header(n, eta_cols) or not n or not eta_cols:
        raise ValueError(f"{path}: header {','.join(header)!r} is not the layout "
                         "t,x1..xn,eta1..etam,gain_out")
    cols = len(header)
    table = None
    # rows on consecutive lines, as the writer leaves them: one pass over the
    # bytes; a blank line makes it fail
    if data.find(b"#", pos) < 0:
        if not data.endswith(b"\n") and pos < len(data):
            data += b"\n"
        try:
            table = _read_rows(data, pos, cols, lambda row: f"{path}, line {line_no + 1 + row}")
        except ValueError:
            pass  # a blank line, or a fault that the pass below names
    if table is None:
        kept, line_nos = [], []
        for k, line in enumerate(data[pos:].split(b"\n"), start=line_no + 1):
            if line.startswith(b"#"):
                comments.append(line.decode("utf-8"))
            elif line:
                kept.append(line.split(b"#", 1)[0] + b"\n")
                line_nos.append(k)
        table = _read_rows(b"".join(kept), 0, cols, lambda row: f"{path}, line {line_nos[row]}")
    return {"header": header, "comments": comments, "ts": table[:, 0],
            "xs": table[:, 1:1 + n], "etas": table[:, 1 + n:1 + n + eta_cols],
            "gains": table[:, -1]}


def _write_lines(path: str, lines: Sequence[str], more: Iterable[str] = ()) -> None:
    """Write the lines, each ended by a newline, then each piece of more as
    it is produced."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(more)


def _fmt_or_nan(v: Optional[float]) -> str:
    return "nan" if v is None else fmt(v)


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> list[str]:
    """The header row, then the rows, as CSV lines."""
    return [",".join(header), *(",".join(row) for row in rows)]


def deadline_table(report: DeadlineReport) -> list[str]:
    n = max((len(c.xi) for c in report.cases), default=2)
    header = ["s"] + [f"xi{i + 1}" for i in range(n)] + ["terminal_norm", "bound", "passed"]
    rows = ([fmt(c.s), *map(fmt, c.xi), _fmt_or_nan(c.terminal_norm), fmt(c.bound),
             "1" if c.passed else "0"] for c in report.cases)
    return _table(header, rows)


def scan_table(table: GainScanTable) -> list[str]:
    width = max(len(r.arg_state) for r in table.rows)
    header = ["rho", "supremum", "arg_time"] + [f"arg_x{i + 1}" for i in range(width)] \
        + ["arg_channel"]
    rows = ([fmt(r.rho), fmt(r.supremum), fmt(r.arg_time), *map(fmt, r.arg_state),
             *["nan"] * (width - len(r.arg_state)),
             str(-1 if r.arg_channel is None else r.arg_channel)] for r in table.rows)
    return _table(header, rows)


def workaround_table(report: WorkaroundReport) -> list[str]:
    n = max(len(c.xi) for c in report.cases)
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
    return _table(header, rows)


def oracle_table(report: SolverCheckReport) -> list[str]:
    rows = ([fmt(c.s), fmt(c.xi[0]), fmt(c.xi[1]), fmt(c.max_rel_error)] for c in report.cases)
    return _table(["s", "xi1", "xi2", "max_rel_error"], rows)


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


Fact = tuple[str, str]


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario run produced, before _write_result writes it.

    facts are the run's (label, text) lines in order; record is the
    library's result (a report, an attack outcome or a trajectory).  The
    CSV holds the record's trajectory, or else table (its header and rows).
    error, when set, is printed to stderr after the artifacts are written.
    """

    stem: str
    facts: Sequence[Fact]
    exit_code: int
    record: object
    table: Sequence[str] = ()
    error: str = ""

    @property
    def trajectory(self) -> Optional[Trajectory]:
        if isinstance(self.record, Trajectory):
            return self.record
        return getattr(self.record, "trajectory", None)


def _out_path(cfg: ExperimentConfig, out_dir: str, stem: str, ext: str = "csv") -> str:
    return os.path.join(out_dir, f"{cfg.values['output.prefix']}_{stem}.{ext}")


def _write_summary(cfg: ExperimentConfig, out_dir: str, stem: str, facts: Sequence[Fact]) -> None:
    """<prefix>_<stem>_summary.txt: 'scenario: ...', then one 'label: text'
    line per fact."""
    _write_lines(_out_path(cfg, out_dir, f"{stem}_summary", "txt"),
                 [f"scenario: {cfg.scenario}", *(f"{label}: {text}" for label, text in facts)])


def _write_result(cfg: ExperimentConfig, out_dir: str, stem: str, result: ScenarioResult) -> None:
    """Write a result as <prefix>_<stem>.csv and its summary.  The CSV holds
    the config echo, one '# label: text' line per fact, then the trajectory
    or the table; a trajectory gets the SVG plot too when output.plot is
    set."""
    path = _out_path(cfg, out_dir, stem)
    comments = [f"# {label}: {text}" for label, text in result.facts]
    traj = result.trajectory
    if traj is None:
        _write_lines(path, config_echo_lines(cfg) + comments + list(result.table))
    else:
        write_trajectory_csv(path, traj, cfg, comments)
        maybe_write_plot(_out_path(cfg, out_dir, stem, "svg"), traj, cfg.values["output.plot"])
    _write_summary(cfg, out_dir, stem, result.facts)


def _case_failures(cases: Sequence) -> list[Fact]:
    return [(f"case {i} failed", c.failure) for i, c in enumerate(cases) if c.failure]


def _run_simulate(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    grid = OutputGrid(kind=cfg.values["sim.grid"], count=cfg.values["sim.grid_count"])
    opts = build_options(cfg, grid=grid)
    t_end = cfg.values["sim.t_end"]
    t_end = model.horizon.T - model.horizon.rho_min if t_end is None else t_end
    x0 = np.asarray(cfg.values["sim.x0"], dtype=float)
    traj = integrate(model, None, x0, cfg.values["sim.s"], t_end, opts)
    final = traj.xs[-1]
    facts = [("variant", model.variant),
             ("span", f"[{fmt(traj.t0)}, {fmt(traj.t_last)}]"),
             ("termination", traj.termination.kind),
             ("final state", ", ".join(map(fmt, final))),
             ("final norm", fmt(float(np.linalg.norm(final))))]
    return ScenarioResult("simulate", facts, EXIT_OK if traj.completed else EXIT_NUMERICAL, traj,
                          error="" if traj.completed
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
    facts = [("variant", model.variant),
             ("deadline", f"rho = {fmt(report.rho)}, tol = {fmt(report.tol)}"),
             ("cases", str(len(report.cases))),
             ("passed", str(report.passed))]
    if rhos and report.passed:
        xi = cfg.values["deadline.ics"][0]
        prof = rho_shrink_profile(model, cfg.values["deadline.starts"][0], xi, rhos, opts=opts)
        facts.append((f"shrink {','.join(map(fmt, xi))}",
                      ", ".join(f"rho={fmt(r)} norm={fmt(v)}" for r, v in prof)))
    failed = any(c.failure for c in report.cases)
    code = EXIT_NUMERICAL if failed else EXIT_OK if report.passed else EXIT_PROPERTY
    return ScenarioResult("deadline", facts + _case_failures(report.cases), code, report,
                          deadline_table(report))


def _attack_run(kind: str, cfg: ExperimentConfig):
    """The runner of an attack kind and the attack.* keys it reads."""
    if kind == "controller-terminal" and cfg.values["attack.x0"] is not None:
        return _RAMP_RUN
    return _ATTACK_RUNS[kind]


def _run_attack(cfg: ExperimentConfig) -> ScenarioResult:
    kind = cfg.scenario.split(".", 1)[1]
    model = build_model(cfg)
    opts = build_options(cfg)
    epsilon = cfg.values["attack.epsilon"]
    runner, keys = _attack_run(kind, cfg)
    outcome = runner(model, opts=opts, **{key: cfg.values[f"attack.{key}"] for key in keys})
    facts = [("attack", f"kind = {kind}, eta_bar = {fmt(outcome.noise_bound)}"
                        + ("" if epsilon is None else f", epsilon = {fmt(epsilon)}")),
             ("verdict", "pass" if outcome.verdict else "FAIL")]
    schedule = outcome.schedule
    if schedule is not None:
        if schedule.delta is not None:
            facts.append(("schedule", f"delta = {fmt(schedule.delta)}"))
        facts.append(("schedule", "targets = " + ",".join(map(fmt, schedule.targets))))
        facts += [("schedule", f"switch {k} at t = {fmt(t)}") for k, t in enumerate(schedule.times)]
    for thr, t_c in outcome.peaks or ():
        facts.append(("peak", f"threshold {fmt(thr)} first crossed at "
                              + ("never" if t_c is None else fmt(t_c))))
    if outcome.plan is not None:
        facts.append(("plan", f"s = {fmt(outcome.plan.s)}"))
    if outcome.ramp is not None:
        facts.append(("ramp", f"s = {fmt(outcome.ramp.s)}"))
    if outcome.terminal is not None:
        facts += [("terminal state", ", ".join(map(fmt, outcome.terminal))),
                  ("terminal norm", fmt(float(np.linalg.norm(outcome.terminal))))]
    if outcome.tracking_error is not None:
        facts.append(("tracking error", fmt(outcome.tracking_error)))
    if outcome.notes:
        facts.append(("note", outcome.notes))
    return ScenarioResult(f"attack_{kind.replace('-', '_')}", facts,
                          EXIT_OK if outcome.verdict else EXIT_PROPERTY, outcome)


def _run_gain_scan(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    table = gain_supremum_scan(model, cfg.values["scan.delta"], cfg.values["scan.rhos"],
                               time_samples=cfg.values["scan.time_samples"])
    facts = [("kind", table.kind), ("delta", fmt(table.delta)), ("monotone", str(table.monotone))]
    return ScenarioResult("gain_scan", facts, EXIT_OK if table.monotone else EXIT_PROPERTY, table,
                          scan_table(table))


def _run_falsify(cfg: ExperimentConfig) -> ScenarioResult:
    model = build_model(cfg)
    opts = build_options(cfg)
    witness = falsify_uniform_stability(model, cfg.values["falsify.delta"],
                                        cfg.values["falsify.epsilon"],
                                        eps_prime=cfg.values["falsify.eps_prime"], opts=opts)
    facts = [("witness", f"x(s) = delta * e1 with s = {fmt(witness.s)}, "
                         f"delta = {fmt(witness.delta)}, epsilon = {fmt(witness.epsilon)}, "
                         f"eps_prime = {fmt(witness.eps_prime)}"),
             ("crossed epsilon", "yes" if witness.crossed else "NO")]
    if witness.crossing_time is not None:
        facts.append(("first crossing", f"t = {fmt(witness.crossing_time)}"))
    facts.append(("attained norm",
                  f"{fmt(witness.attained_norm)} at t = {fmt(witness.attained_time)}"))
    return ScenarioResult("falsify", facts, EXIT_OK if witness.crossed else EXIT_PROPERTY, witness)


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
    facts = [("parameter", fmt(report.parameter)), ("noisy", str(report.noisy))]
    if report.slope is not None:
        facts.append(("fit", f"slope = {fmt(report.slope)}, intercept = {fmt(report.intercept)}, "
                             f"r_squared = {fmt(report.r_squared)}"))
    if report.no_entry_flags:
        facts.append(("no entry before T - rho_min for cases",
                      ", ".join(map(str, report.no_entry_flags))))
    failed = any(c.failure for c in report.cases)
    return ScenarioResult(f"workaround_{kind.replace('-', '_')}",
                          facts + _case_failures(report.cases),
                          EXIT_NUMERICAL if failed else EXIT_OK, report, workaround_table(report))


# keyed by the scenario up to its first '.'
_RUNNERS: dict[str, Callable[[ExperimentConfig], ScenarioResult]] = {
    "simulate": _run_simulate,
    "verify-deadline": _run_verify_deadline,
    "attack": _run_attack,
    "gain-scan": _run_gain_scan,
    "falsify-stability": _run_falsify,
    "workaround": _run_workaround,
}


def _increasing(values: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


# selftest's checks after the oracle's: (name, artifact stem, the tvglab
# arguments of the scenario it runs, predicate on that scenario's record)
_SELFTEST_CHECKS = (
    ("absolute deadline, control loop", "deadline_control",
     'verify-deadline --deadline.shrink_rhos ""', lambda r: r.passed),
    ("absolute deadline, differentiator error model", "deadline_diff",
     'verify-deadline --system.variant diff_error --deadline.shrink_rhos ""', lambda r: r.passed),
    ("open-loop negative control fails the deadline check", "deadline_open_loop",
     "verify-deadline --system.gains zero:2 --deadline.starts 0 --deadline.ics 0,1",
     lambda r: not r.passed),
    ("controller divergence ladder", "attack_controller_divergence",
     "attack --attack.kind controller-divergence --attack.eta_bar 0.01 --system.rho_min 1e-9",
     lambda r: r.verdict),
    ("differentiator divergence ladder", "attack_diff_divergence",
     "attack --attack.kind diff-divergence --attack.eta_bar 0.01 --system.rho_min 1e-9",
     lambda r: r.verdict),
    ("controller terminal-error tracking", "attack_controller_terminal",
     "attack --attack.kind controller-terminal --attack.eta_bar 0.1 --attack.epsilon 0.5",
     lambda r: r.verdict and r.tracking_error <= 1e-6),
    ("differentiator terminal ramp", "attack_diff_terminal",
     "attack --attack.kind diff-terminal --attack.eta_bar 0.1 --attack.epsilon 1",
     lambda r: r.verdict),
    ("controller gain scan monotone", "gain_scan_control", "gain-scan", lambda r: r.monotone),
    ("injection gain scan monotone", "gain_scan_diff", "gain-scan --system.variant diff_error",
     lambda r: r.monotone),
    ("uniform-stability falsification", "falsify", "falsify-stability --falsify.eps_prime 2.5",
     lambda r: r.crossed),
    ("stop-time residual fit", "workaround_stop_time",
     'workaround --workaround.variant stop-time --workaround.ics "1,0; 2,0; 5,0; 10,0"',
     lambda r: r.r_squared is not None and r.r_squared >= 0.999),
    ("deadzone noise-free entries ordered", "workaround_deadzone",
     "workaround --workaround.variant deadzone --system.rho_min 1e-6",
     lambda r: (all(c.entered for c in r.cases) and _increasing([c.entry_time for c in r.cases])
                and _increasing([c.gain_at_entry for c in r.cases]))),
    # width eta_bar / 100: in the held segments' closed form |x|inf stays above 5e-4
    ("deadzone entry prevented by bounded noise", "workaround_deadzone_noisy",
     "workaround --workaround.variant deadzone --system.rho_min 1e-6 --workaround.width 1e-4 "
     "--workaround.ics 10,0 --workaround.noise_eta_bar 1e-2",
     lambda r: r.no_entry_flags == (0,)),
)


def _selftest(cfg: ExperimentConfig, out_dir: str) -> int:
    """Deterministic battery touching every capability: the oracle check,
    then each _SELFTEST_CHECKS scenario, run by its runner and written by
    _write_result as selftest_<stem>, config echo included.  Artifacts are
    byte-identical across runs with the same config and seed."""
    unread = sorted(key for key in cfg.explicit
                    if key not in ("scenario", "seed") and not key.startswith("output."))
    if unread:
        raise ValueError(f"selftest reads no key but seed and output.*; got {', '.join(unread)}")

    report = verify_solver_against_oracle(sample_count=8, tol=1e-6, seed=cfg.values["seed"])
    _write_result(cfg, out_dir, "selftest_oracle", ScenarioResult(
        "oracle", [("max_rel_error", fmt(report.max_rel_error)), ("passed", str(report.passed))],
        EXIT_OK if report.passed else EXIT_PROPERTY, report, oracle_table(report)))
    checks = [("oracle equivalence (8 seeded cases, tol 1e-6)", report.passed)]
    round_trips, bounds = [], []  # one entry per attack trajectory CSV
    for name, stem, args, predicate in _SELFTEST_CHECKS:
        subcommand, *flags = shlex.split(args)
        check = parse_config("", subcommand, _split_flags(flags)[1])
        check.values.update((k, v) for k, v in cfg.values.items() if k.startswith("output."))
        result = _RUNNERS[subcommand](check)
        _write_result(check, out_dir, f"selftest_{stem}", result)
        checks.append((name, predicate(result.record)))
        if hasattr(result.record, "noise_bound"):
            path = _out_path(check, out_dir, f"selftest_{stem}")
            parsed = parse_trajectory_csv(path)
            bounds.append(float(np.max(np.linalg.norm(parsed["etas"], axis=1)))
                          <= result.record.noise_bound * (1.0 + 1e-12))
            table = np.column_stack((parsed["ts"], parsed["xs"], parsed["etas"], parsed["gains"]))
            rebuilt = parsed["comments"] + [",".join(parsed["header"])] \
                + [",".join(map(fmt, row)) for row in table.tolist()]
            with open(path, "r", encoding="utf-8") as fh:
                round_trips.append(fh.read() == "\n".join(rebuilt) + "\n")
    checks += [("trajectory CSVs round-trip bit-exactly", all(round_trips)),
               ("trajectory CSV noise columns respect bounds", all(bounds))]

    all_ok = all(ok for _, ok in checks)
    verdicts = [("PASS" if ok else "FAIL", name) for name, ok in checks]
    _write_summary(cfg, out_dir, "selftest", verdicts + [("overall", "PASS" if all_ok else "FAIL")])
    return EXIT_OK if all_ok else EXIT_PROPERTY


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured scenario, write its artifacts and return the
    process exit code.  A scenario runner returns before anything is
    written, so a scenario that raises writes nothing (selftest writes each
    check as it goes)."""
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
    _write_result(cfg, out_dir, result.stem, result)
    if result.error:
        print(result.error, file=sys.stderr)
    return result.exit_code


def _split_flags(argv: Sequence[str]) -> tuple[Optional[str], list[tuple[str, str]], list[str]]:
    """Extract (config_path, key overrides, problems) from flag arguments."""
    config_path = None
    overrides: list[tuple[str, str]] = []
    problems: list[str] = []
    args = iter(argv)
    for tok in args:
        if not tok.startswith("--"):
            problems.append(f"unexpected argument {tok!r} (flags look like --key value)")
            continue
        key, eq, val = tok[2:].partition("=")
        if not eq:
            val = next(args, None)
            if val is None:
                problems.append(f"flag --{key} needs a value")
                break
        if key == "config":
            config_path = val
        else:
            overrides.append((key, val))
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
