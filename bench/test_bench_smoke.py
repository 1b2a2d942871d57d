"""Smoke test of the benchmark itself (not collected by tier-1's testpaths):

    python3 -m pytest bench/test_bench_smoke.py -q

One ``--scale tiny`` pass of the whole suite, traced and untraced, checking
the shape of what it prints and writes rather than any timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7


@pytest.fixture(scope="module")
def result():
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--scale", "tiny",
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, timeout=300)
    return json.loads((BENCH_DIR / "out" / f"result_{SEED}.json").read_text())


def test_contract_counts_and_names():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(CONTRACT["workloads"]) == 6
    assert len(CONTRACT["end_to_end"]) <= 10
    assert len(CONTRACT["per_layer"]) < 128
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])


def test_every_metric_present_with_unit(result):
    assert result["problems"] == []
    reached = set()
    for entry in CONTRACT["workloads"]:
        row = result["workloads"][entry["name"]]
        assert row["failed"] == 0
        for metric in CONTRACT["end_to_end"]:
            measured = row["end_to_end"][metric["name"]]
            assert measured["unit"] == metric["unit"]
            assert measured["median"] > 0
        reached.update(row["per_layer"])
        declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
        for name, measured in row["per_layer"].items():
            assert measured["unit"] == declared[name]
    # Every declared layer metric is reached by at least one workload.
    assert reached == {m["name"] for m in CONTRACT["per_layer"]}


def test_driver_line_carries_every_declared_metric():
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "hier_deadline", "--scale", "tiny", "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=300)
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and not line["failed"]
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    # No scheduler on the hierarchical trainer: absent, not a measured zero.
    detail = json.loads((BENCH_DIR / "out" /
                         f"run_hier_deadline_s{SEED}_t1.json").read_text())
    assert "phase.train_s" in detail["absent"]


def test_child_spans_never_exceed_their_parent(result):
    for entry in CONTRACT["workloads"]:
        trace = json.loads((BENCH_DIR / "out" /
                            f"trace_{entry['name']}.json").read_text())
        spans = trace["spans"]
        assert spans, entry["name"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            assert end >= start
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2]
                covered[parent] += end - start
        for (_, start, end, _, _), inside in zip(spans, covered):
            assert inside <= (end - start) * (1 + 1e-9) + 1e-9
