"""Tests of the paired-benchmark harness's summary (scripts/bench_pairs.py); nothing is run."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(side, pair, **metrics):
    return {"side": side, "workload": "mms", "seed": 1, "trace": 0, "pair": pair,
            "run_order": 1, "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_sides_alternate_which_goes_first():
    assert bench_pairs.side_order(1) == ("parent", "change")
    assert bench_pairs.side_order(2) == ("change", "parent")
    assert bench_pairs.side_order(3) == ("parent", "change")


def test_quartiles_inclusive_and_single_value():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.5, 2.0, 4.0]  # better than the parent in pairs 1, 3, 4 and 5
    runs = [run("parent", i + 1, solve_s=p) for i, p in enumerate(parent)]
    runs += [run("change", i + 1, solve_s=c) for i, c in enumerate(change)]
    (row,) = bench_pairs.summarize(runs)
    assert (row["workload"], row["seed"], row["trace"], row["metric"]) == ("mms", 1, 0, "solve_s")
    assert row["parent"] == (2.0, 3.0, 4.0)
    assert row["change"] == (1.5, 2.0, 2.5)
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert row["ratio"] == pytest.approx(2.0 / 3.0)
    line = bench_pairs.format_rows([row])[0]
    assert "wins 4/5" in line and "-33.3%" in line


def test_wins_count_complete_pairs_only():
    runs = [run("parent", 1, score=1.0), run("change", 1, score=2.0),
            run("parent", 2, score=1.0), run("change", 2, score=0.5),
            run("parent", 3, score=1.0),  # its change run reported nothing
            {**run("change", 3), "result": None}]
    (row,) = bench_pairs.summarize(runs)
    assert (row["wins"], row["pairs"]) == (1, 2)
    assert row["parent"] == (1.0, 1.0, 1.0)
    assert row["change"] == (0.875, 1.25, 1.625)
