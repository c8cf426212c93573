"""The summary arithmetic of scripts/bench_pairs.py: medians, spreads,
relative changes and pair wins."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_metrics_are_the_declared_end_to_end_metrics():
    names = [name for name, _, _ in bench_pairs.METRICS]
    declared = bench_pairs.BENCHMARK["end_to_end"]
    assert names == [m["name"] for m in declared]
    assert {better for _, _, better in bench_pairs.METRICS} <= {"lower", "higher"}
    assert bench_pairs.BOUNDS == {m["name"]: m["bound"] for m in declared}


def test_median_and_interquartile_range():
    assert bench_pairs.median([3.0, 1.0, 2.0]) == 2.0
    assert bench_pairs.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench_pairs.iqr([1.0, 3.0]) == 1.0
    assert bench_pairs.iqr([7.0]) == 0.0
    assert bench_pairs.iqr([5.0, 5.0, 5.0]) == 0.0


def test_change_is_head_over_base_minus_one():
    assert bench_pairs.change(20.0, 17.0) == pytest.approx(-0.15)
    assert bench_pairs.change(2.0, 3.0) == pytest.approx(0.5)
    assert bench_pairs.change(0.0, 0.0) == 0.0
    assert bench_pairs.change(0.0, 1.0) == math.inf
    assert bench_pairs.change(0.0, -1.0) == -math.inf


def test_wins_follow_the_metric_direction_and_skip_ties():
    base, head = [10.0, 10.0, 10.0, 10.0], [9.0, 10.0, 11.0, 8.0]
    assert bench_pairs.wins(base, head, "lower") == 2
    assert bench_pairs.wins(base, head, "higher") == 1
    assert bench_pairs.wins(base, base, "lower") == 0


def test_summary_rows_per_metric():
    metrics = (("op_ms_p50", "ms", "lower"), ("ops_per_s", "1/s", "higher"))
    pairs = [({"op_ms_p50": 20.0, "ops_per_s": 50.0}, {"op_ms_p50": 17.0, "ops_per_s": 50.0}),
             ({"op_ms_p50": 22.0, "ops_per_s": 48.0}, {"op_ms_p50": 18.0, "ops_per_s": 52.0}),
             ({"op_ms_p50": 21.0, "ops_per_s": 49.0}, {"op_ms_p50": 21.5, "ops_per_s": 49.0})]
    p50, rate = bench_pairs.summary_rows(pairs, metrics)
    assert p50[:2] == ("op_ms_p50", "ms")
    assert p50[2] == 21.0 and p50[3] == 1.0 and p50[4] == 18.0
    assert p50[5] == pytest.approx(2.25)
    assert p50[6] == pytest.approx(18.0 / 21.0 - 1.0)
    assert p50[7:] == (2, 0)
    assert rate[2] == 49.0 and rate[4] == 50.0 and rate[5] == pytest.approx(1.5)
    assert rate[7:] == (1, 2)


def test_beyond_bound_is_a_worse_median_change_larger_than_the_bound():
    # a lower-is-better metric is worse when it rises, higher-is-better when it falls
    assert bench_pairs.beyond_bound(0.26, "lower", 0.25)
    assert not bench_pairs.beyond_bound(0.25, "lower", 0.25)
    assert not bench_pairs.beyond_bound(-0.9, "lower", 0.25)
    assert bench_pairs.beyond_bound(-0.11, "higher", 0.1)
    assert not bench_pairs.beyond_bound(-0.1, "higher", 0.1)
    assert not bench_pairs.beyond_bound(0.9, "higher", 0.1)
    assert bench_pairs.beyond_bound(bench_pairs.change(0.0, 1.0), "lower", 0.25)
    assert not bench_pairs.beyond_bound(bench_pairs.change(0.0, 0.0), "lower", 0.25)


def test_pairs_must_be_positive():
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", "--workload", "attack_suite", "--pairs", "0"])
    assert exc.value.code == 2
