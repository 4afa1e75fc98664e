"""Tests of the paired-benchmark harness (scripts/bench_pairs.py): its summaries, and runs
of a stub perfbench."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(side, pair, **metrics):
    return {"side": side, "workload": "mms", "seed": 1, "trace": 0, "pair": pair,
            "run_order": 1, "exit": 0,
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


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


def test_checks_name_each_run_with_no_result_or_an_incorrect_one():
    failing = run("change", 2, score=1.0)
    failing["result"].update(correct=False, failed=3)
    runs = [run("parent", 1, score=1.0), run("change", 1, score=1.0),
            run("parent", 2, score=1.0), failing,
            {**run("change", 3), "exit": 1, "result": None}, run("parent", 3, score=1.0)]
    parent, change = bench_pairs.check_rows(runs)  # the parent's row first
    counts = ("side", "runs", "failed", "attempted")
    assert tuple(parent[k] for k in counts) == ("parent", 3, 0, 30)
    assert parent["no_result"] == parent["incorrect"] == []
    assert tuple(change[k] for k in counts) == ("change", 3, 3, 20)
    assert change["no_result"] == [(3, 1)] and change["incorrect"] == [(2, 0)]
    lines = bench_pairs.format_check_rows([parent, change])
    assert lines[0] == "mms seed 1 trace 0 parent: 3 runs, checks failed 0/30"
    assert lines[1] == ("mms seed 1 trace 0 change: 3 runs, checks failed 3/20; "
                        "no result: pair 3 (exit 1); correct false: pair 2 (exit 0)")


def test_checks_of_a_file_without_exit_codes():
    old = {key: value for key, value in run("parent", 1, score=1.0).items() if key != "exit"}
    old["result"]["correct"] = False
    (row,) = bench_pairs.check_rows([old, {**old, "pair": 2, "result": None}])
    assert row["incorrect"] == [(1, None)] and row["no_result"] == [(2, None)]


def test_run_side_keeps_the_exit_code(tmp_path):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text("import sys\nprint('log')\nprint('{\"correct\": false}')\nsys.exit(3)\n")
    assert bench_pairs.run_side(tmp_path, "mms", 1, 1.0, 0) == ({"correct": False}, 3)
    script.write_text("import sys\nsys.exit(2)\n")
    assert bench_pairs.run_side(tmp_path, "mms", 1, 1.0, 0) == (None, 2)
