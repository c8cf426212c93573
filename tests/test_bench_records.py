"""Committed benchmark records: each BENCH_*.json at the repository root is
the last stdout line of `python3 benchmarks/run.py --workload all ...` and
must be a complete, correct run."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_a_complete_correct_run(path):
    record = json.loads(path.read_text())
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] > 0
    metrics = record["metrics"]
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK["end_to_end"]:
            key = f"{workload['name']}.{metric['name']}"
            assert key in metrics, f"{path.name} lacks {key}"
            assert metrics[key]["unit"] == metric["unit"]
            assert math.isfinite(metrics[key]["value"])
