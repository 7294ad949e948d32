"""The committed ``BENCH_*.json`` files keep the layout that README's
"Benchmark trajectory" section describes."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(w["name"] for w in BENCHMARK["workloads"])
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def check_final_line(line):
    """One run's final JSON line, as perfbench/run.py prints it."""
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["correct"], bool)
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
    assert 0 <= line["failed"] <= line["attempted"]
    assert line["metrics"]
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert isinstance(metric["unit"], str)


def test_there_are_benchmark_files():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_layout(path):
    bench = json.loads(path.read_text())
    for key in ("parent", "command", "host"):
        assert isinstance(bench[key], str) and bench[key]
    assert set(bench["runs"]) == {"parent", "change"}
    for side in bench["runs"].values():
        assert sorted(side) == WORKLOADS
        for seeds in side.values():
            assert set(seeds) == {"seed0", "seed1"}
            for traces in seeds.values():
                assert set(traces) == {"trace0", "trace1"}
                for line in traces.values():
                    check_final_line(line)

    if "counts" in bench:
        counts = bench["counts"]
        assert isinstance(counts["notes"], str)
        for side in ("parent", "change"):
            assert sorted(counts[side]) == WORKLOADS
            for work in counts[side].values():
                assert all(isinstance(x, (int, float)) for x in work.values())

    if "claim" in bench:
        claim = bench["claim"]
        assert claim["workload"] in WORKLOADS
        parent, change = claim["parent"], claim["change"]
        assert len(parent) == len(change) == 10
        for values, key in ((parent, "parent_quartiles"), (change, "change_quartiles")):
            want = [round(q, 4) for q in statistics.quantiles(values, n=4)]
            assert claim[key] == pytest.approx(want, abs=1e-4)
        higher = BETTER[claim["metric"]] == "higher"
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        assert claim["change_better_pairs"] == won
