"""The committed benchmark records, ``BENCH_*.json``, against the benchmark's
declaration in ``BENCHMARK.json``.

Each record holds, per workload, the parent and change quartiles of every
end-to-end metric. A record passes when every declared workload and metric is
there for both sides, the quartiles are ordered, no run failed, and no change
median is worse than its parent's by more than the metric's bound: a share of
the parent median, or absolute digits for a metric measured in digits.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _regression(metric: dict, parent: float, change: float) -> float:
    """How much worse the change median is than the parent's, in the unit of
    the metric's bound; negative when it is better."""
    worse = change - parent if metric["better"] == "lower" else parent - change
    return worse if metric["unit"] == "digits" else worse / parent


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_no_run_failed(path, workload):
    record = json.loads(path.read_text())["workloads"][workload]
    assert record["parent"]["failed_runs"] == 0 and record["change"]["failed_runs"] == 0


@pytest.mark.parametrize("name", sorted(METRICS))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_metric_is_recorded_ordered_and_within_its_bound(path, workload, name):
    record = json.loads(path.read_text())["workloads"][workload]
    sides = {side: record[side][name] for side in ("parent", "change")}
    for q in sides.values():
        assert q["n"] >= 1 and q["q1"] <= q["median"] <= q["q3"]
    metric = METRICS[name]
    assert _regression(metric, sides["parent"]["median"], sides["change"]["median"]) <= metric["bound"]
