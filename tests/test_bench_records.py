"""Every BENCH_*.json at the repo root is a readable before/after record.

A record states a claim on one workload and metric of BENCHMARK.json and
gives parent and change medians of every end-to-end metric for every
workload there.  Only the files are read; no benchmark runs.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
METRICS = set(END_TO_END) | {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_claims_a_benchmark_metric(path):
    claim = json.loads(path.read_text())["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in METRICS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_medians_for_every_workload(path):
    workloads = json.loads(path.read_text())["workloads"]
    for name in WORKLOADS:
        metrics = workloads[name]["metrics"]
        for metric in END_TO_END:
            for side in ("parent", "change"):
                median = metrics[metric][side]["median"]
                assert isinstance(median, (int, float)) and median > 0, (name, metric, side)


BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_claim_improves_its_metric(path):
    # the change median beats the parent median in the direction that
    # BENCHMARK.json gives for the claimed metric
    record = json.loads(path.read_text())
    claim = record["claim"]
    medians = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = medians["parent"]["median"], medians["change"]["median"]
    assert BETTER[claim["metric"]] in ("higher", "lower")
    assert change > parent if BETTER[claim["metric"]] == "higher" else change < parent


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_claim_meets_the_protocol_rule(path):
    # recounted from the runs: the change is better in at least 9 of 10
    # pairs, as many as the record says, and its median gain exceeds the
    # parent's quartile spread
    record = json.loads(path.read_text())
    claim = record["claim"]
    runs = record["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = runs["parent_runs"], runs["change_runs"]
    assert len(parent) == len(change) == record["workloads"][claim["workload"]]["pairs"]
    sign = 1 if BETTER[claim["metric"]] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    assert wins == runs["change_better_pairs"]
    assert wins >= 0.9 * len(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (statistics.median(change) - statistics.median(parent))
    assert gain > q3 - q1
