"""Per-layer tracing for the tvglab benchmark, done from the benchmark's files.

Tracer.install() wraps the public functions and methods of each tvglab
module (core, integrate, oracle, attack, analysis, cli) and rebinds every
name that refers to them in every loaded tvglab module: integrate,
terminal_state and detect_peaks are imported by name into attack, analysis,
oracle and cli, so patching their home module alone would miss most calls.
Methods are patched on their class, which every binding shares.

Spans are aggregated in memory per key as (calls, inclusive ns, exclusive
ns, value_at ns below); exclusive time is the span minus its direct child
spans, so the exclusive times of one layer's spans add up to the time spent
in that layer's own code.  A few hooks record counts where the work happens:
committed steps, samples, dense-output points, switches and CSV bytes.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from typing import Callable

LAYERS = ("core", "integrate", "oracle", "attack", "analysis", "cli")

VALUE_AT = "core.RationalGain.value_at"
RHS = "core.SystemModel.rhs"
GAIN_OUTPUT = "core.SystemModel.gain_output"
INTEGRATE = "integrate.integrate"
STATE_AT = "integrate.Trajectory.state_at"
DETECT_PEAKS = "integrate.detect_peaks"
PLAN = "attack.controller_terminal_error_noise"
DIVERGENCE = "attack.run_divergence_attack"
REFERENCE_SOLUTION = "oracle.reference_solution"
ANALYSIS_ENTRIES = ("analysis.falsify_uniform_stability", "analysis.evaluate_deadzone")
PARSE_CONFIG = "cli.parse_config"
WRITE_CSV = "cli.write_trajectory_csv"
PARSE_CSV = "cli.parse_trajectory_csv"
CLI_MAIN = "cli.main"

# cli.fmt formats one CSV field; a span per field would cost more than the
# field and swamp the CSV write time it is meant to explain.
UNTRACED = frozenset({"cli.fmt"})

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps tvglab's public callables; aggregates spans and counts in memory.

    begin(name) starts a fresh scope (one per workload); stats and counts of
    earlier scopes stay in scopes[name].
    """

    def __init__(self):
        self.scopes: dict[str, tuple[dict, dict]] = {}
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.attack_noise_keys: dict[str, set[str]] = {"value": set(), "observe": set()}
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, scope: str) -> None:
        self.stats, self.counts = {}, {}
        self.scopes[scope] = (self.stats, self.counts)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the tvglab layers and
        rebind every name that refers to one of them."""
        mods = {name: importlib.import_module(f"tvglab.{name}") for name in LAYERS}
        holders = [importlib.import_module("tvglab"), *mods.values()]
        noise_base = mods["core"].NoiseSource
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    key = f"{layer}.{name}"
                    if key in UNTRACED:
                        continue
                    wrapper = self._wrap(key, obj)
                    for holder in holders:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                self._set(holder, attr, wrapper)
                elif inspect.isclass(obj):
                    is_noise = issubclass(obj, noise_base)
                    if name.startswith("_") and not is_noise:
                        continue
                    self._wrap_methods(layer, obj, is_noise and layer == "attack")

    def _wrap_methods(self, layer: str, cls: type, attack_noise: bool) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                self._set(cls, attr, self._wrap(key, val))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(key, val.__func__)))
            else:
                continue
            if attack_noise and attr in self.attack_noise_keys:
                self.attack_noise_keys[attr].add(key)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        is_value_at = key == VALUE_AT
        before, after = _HOOKS.get(key) or (
            _OBSERVE_HOOK if key.endswith(".observe") else (None, None))
        tracer = self

        def traced(*args, **kwargs):
            token = before(tracer) if before is not None else None
            frame = [0, 0]  # direct-children ns, value_at ns below
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                below = dt if is_value_at else frame[1]
                stat = tracer.stats.get(key)
                if stat is None:
                    stat = tracer.stats[key] = [0, 0, 0, 0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                stat[3] += below
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += below
            if after is not None:
                after(tracer, token, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced


def _integrate_before(tracer: Tracer):
    return tracer.counts.get("observe", 0)


def _integrate_after(tracer: Tracer, observed_before, args, kwargs, traj) -> None:
    """Counts from one returned Trajectory.

    The committed steps are counted twice: from the knots of the returned
    trajectory, and from the observe calls made during the span (one at t0,
    then one per committed step, none for an event's final step).  The
    traced run asserts that both agree.
    """
    observed = tracer.counts.get("observe", 0) - observed_before
    event = traj.termination.kind == "event"
    tracer.count("integrate_calls")
    tracer.count("steps", len(traj.knot_ts) - 1)
    tracer.count("steps_observed", observed - 1 + event)
    tracer.count("observe_in_integrate", observed)
    tracer.count("samples", len(traj.ts))
    tracer.count("events", event)
    tracer.count("decades", math.log10((traj.T - traj.t0) / (traj.T - traj.t_last)))


def _observe_after(tracer: Tracer, token, args, kwargs, switched) -> None:
    tracer.count("observe")
    tracer.count("switches", bool(switched))


def _state_at_after(tracer: Tracer, token, args, kwargs, result) -> None:
    tracer.count("state_at_points", len(result) if result.ndim == 2 else 1)


def _divergence_after(tracer: Tracer, token, args, kwargs, outcome) -> None:
    tracer.count("armed", len(outcome.schedule.times))
    tracer.count("targets", len(outcome.schedule.targets))


def _csv_bytes(name: str) -> Callable:
    def after(tracer: Tracer, token, args, kwargs, result) -> None:
        tracer.count(name, os.path.getsize(args[0] if args else kwargs["path"]))
    return after


# key -> (before, after); before's return value is passed to after
_HOOKS = {
    INTEGRATE: (_integrate_before, _integrate_after),
    STATE_AT: (None, _state_at_after),
    DIVERGENCE: (None, _divergence_after),
    WRITE_CSV: (None, _csv_bytes("csv_written_bytes")),
    PARSE_CSV: (None, _csv_bytes("csv_parsed_bytes")),
}
_OBSERVE_HOOK = (None, _observe_after)


def _layer_self_ns(stats: dict, layer: str) -> int:
    return sum(s[2] for k, s in stats.items() if k.startswith(layer + "."))


def layer_metrics(tracer: Tracer, untraced_ns: int, traced_ns: int) -> dict[str, float]:
    """Every per-layer metric BENCHMARK.json declares, by name.

    baseline.json records, beside each, the workload it is read from, the
    end-to-end metric it should move and why it is measured.
    """
    zero = [0, 0, 0, 0]
    sd, cd = tracer.scopes["deadline_sweep"]
    sa, ca = tracer.scopes["attack_suite"]
    sc, cc = tracer.scopes["dense_artifacts"]

    def stat(stats, key):
        return stats.get(key, zero)

    def mean(stats, key, scale=1e-3):
        s = stat(stats, key)
        return _ratio(s[1], s[0]) * scale

    va, rhs = stat(sd, VALUE_AT), stat(sd, RHS)
    integ_d, integ_c = stat(sd, INTEGRATE), stat(sc, INTEGRATE)
    steps = cd.get("steps", 0)
    trials = (rhs[0] - cd.get("integrate_calls", 0) - cd.get("switches", 0)
              - cd.get("events", 0)) / 6.0
    noise = [stat(sa, k) for k in tracer.attack_noise_keys["value"]]
    observe = [stat(sa, k) for k in tracer.attack_noise_keys["observe"]]
    analysis_calls = sum(stat(sa, k)[0] for k in ANALYSIS_ENTRIES)
    write, parse = stat(sc, WRITE_CSV), stat(sc, PARSE_CSV)
    return {
        "core.value_at_calls": va[0],
        "core.value_at_ns": _ratio(va[1], va[0]),
        "core.rhs_calls": rhs[0],
        "core.rhs_us": _ratio(rhs[1] - rhs[3], rhs[0]) * 1e-3,
        "core.gain_output_us": mean(sc, GAIN_OUTPUT),
        "integrate.steps": steps,
        "integrate.self_us_per_step": _ratio(integ_d[2], steps) * 1e-3,
        "integrate.rhs_per_step": _ratio(rhs[0], steps),
        "integrate.accept_ratio": _ratio(steps, trials),
        "integrate.steps_per_decade": _ratio(steps, cd.get("decades", 0.0)),
        "integrate.samples": cc.get("samples", 0),
        "integrate.self_us_per_sample": _ratio(integ_c[2], cc.get("samples", 0)) * 1e-3,
        "integrate.state_at_us_per_point": _ratio(stat(sd, STATE_AT)[1],
                                                  cd.get("state_at_points", 0)) * 1e-3,
        "integrate.detect_peaks_ms": mean(sa, DETECT_PEAKS, 1e-6),
        "attack.noise_value_calls": sum(s[0] for s in noise),
        "attack.noise_value_us": _ratio(sum(s[1] for s in noise), sum(s[0] for s in noise)) * 1e-3,
        "attack.observe_us": _ratio(sum(s[1] for s in observe), sum(s[0] for s in observe)) * 1e-3,
        "attack.switches": ca.get("switches", 0),
        "attack.plan_ms": mean(sa, PLAN, 1e-6),
        "attack.armed_frac": _ratio(ca.get("armed", 0), ca.get("targets", 0)),
        "oracle.reference_solution_us": mean(sd, REFERENCE_SOLUTION),
        "analysis.self_ms": _ratio(_layer_self_ns(sa, "analysis"), analysis_calls) * 1e-6,
        "cli.config_parse_us": mean(sc, PARSE_CONFIG),
        "cli.csv_bytes": _ratio(cc.get("csv_written_bytes", 0), write[0]),
        "cli.csv_write_mb_per_s": _ratio(cc.get("csv_written_bytes", 0), write[1]) * 1e3,
        "cli.csv_parse_mb_per_s": _ratio(cc.get("csv_parsed_bytes", 0), parse[1]) * 1e3,
        "cli.self_ms": _ratio(_layer_self_ns(sc, "cli"), stat(sc, CLI_MAIN)[0]) * 1e-6,
        "trace.overhead_frac": _ratio(traced_ns, untraced_ns) - 1.0,
    }
