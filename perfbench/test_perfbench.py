"""Tests for the benchmark itself: span arithmetic, percentiles, seeding, binding restore.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import types
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


# --- self time on synthetic spans -----------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("step", 0.0, 10.0, -1),
        ("lap", 1.0, 3.0, 0),
        ("solve", 4.0, 8.0, 0),
        ("lap", 5.0, 6.0, 2),
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_covered_merges_overlaps_and_clips_to_parent():
    assert tracer.covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracer.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracer.covered([], 0.0, 10.0) == 0.0


def test_summarize_medians_and_breakdown_account_for_parent():
    spans = [
        ("step", 0.0, 10.0, -1),
        ("lap", 1.0, 3.0, 0),
        ("step", 10.0, 14.0, -1),
        ("lap", 11.0, 12.0, 2),
        ("write", 20.0, 21.0, -1),
    ]
    stats = tracer.summarize(spans, {4: 123})
    assert stats["step"].calls == 2
    assert stats["step"].median_us == pytest.approx(7.0e6)
    assert stats["step"].median_self_us == pytest.approx(5.5e6)
    assert stats["lap"].median_us == pytest.approx(1.5e6)
    assert stats["write"].bytes == 123
    breakdown = tracer.child_breakdown(spans, "step")
    assert breakdown == pytest.approx({"lap": 1.5, "self": 5.5})
    assert sum(breakdown.values()) == pytest.approx(7.0)


def test_wrapped_calls_nest_and_write_one_line_per_span(tmp_path):
    module = types.SimpleNamespace(inner=lambda: None)
    module.outer = lambda: module.inner()
    targets = [tracer.Target("m.outer", ((module, "outer"),)),
               tracer.Target("m.inner", ((module, "inner"),))]
    with tracer.Tracer(targets) as tr:
        module.outer()
    tr.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [(r["name"], r["parent"]) for r in rows] == [("m.outer", -1), ("m.inner", 0)]
    assert rows[0]["start"] <= rows[1]["start"] <= rows[1]["end"] <= rows[0]["end"]


# --- percentile and sample-count rule --------------------------------------


@pytest.mark.parametrize(
    "n, expected", [(0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99)]
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 50) == 5.0
    assert run.percentile(values, 90) == 9.0
    assert run.percentile(values, 100) == 10.0
    assert run.percentile([7.0], 90) == 7.0


def test_per_program_call_is_exact_when_divisible():
    assert run.per_program_call(30, 3) == 10
    assert isinstance(run.per_program_call(30, 3), int)
    assert run.per_program_call(31, 2) == 15.5


# --- seeding and repeatability ---------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


def _traced_step_calls(seed: int, workdir: Path) -> int:
    wl = workloads.WORKLOADS["cli_io"]
    prepared = wl.prepare(wl.make_inputs(seed), workdir)
    with tracer.Tracer(workloads.trace_targets()) as tr:
        output = wl.call(prepared, [])
    checks = workloads.Checks()
    wl.check(prepared, output, checks)
    assert checks.failed == 0, checks.failures
    return tracer.summarize(tr.spans)["stepper.step"].calls


def test_step_calls_and_mms_err_repeat_for_a_fixed_seed(tmp_path):
    first = _traced_step_calls(3, tmp_path / "first")
    assert first > 0
    assert _traced_step_calls(3, tmp_path / "second") == first

    wl = workloads.WORKLOADS["bump1d"]
    prepared = wl.prepare(wl.make_inputs(3), tmp_path)
    errors = [wl.accuracy(prepared, None, workloads.Checks()) for _ in range(2)]
    assert errors[0] > 0.0
    assert errors[0] == errors[1]


# --- bindings are restored ---------------------------------------------------


def _bindings():
    return {
        (id(owner), attr): getattr(owner, attr)
        for target in workloads.trace_targets()
        for owner, attr in target.bindings
    }


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    wl = workloads.WORKLOADS["bump1d"]
    prepared = wl.prepare(wl.make_inputs(1), tmp_path)
    with tracer.Tracer(workloads.trace_targets()) as tr:
        assert _bindings() != before
        wl.warmup(prepared)
    assert tr.spans
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())


def test_bindings_restored_when_the_traced_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(workloads.trace_targets()):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is fn for key, fn in before.items())


# --- BENCHMARK.json matches what the runner prints ---------------------------


def test_benchmark_file_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_names()
    by_name = {w["name"]: w["why"] for w in spec["workloads"]}
    assert all(by_name[name] == wl.why for name, wl in workloads.WORKLOADS.items())


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """Few set-up probes, and spans written under tmp_path."""
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")
    return tmp_path


def _last_json(capsys) -> dict:
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.per_layer_names())])
def test_last_line_carries_every_metric(trace, names, quick, capsys):
    code = run.main(["--workload", "cli_io", "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == names


def test_traced_run_writes_its_spans(quick, capsys):
    assert run.main(["--workload", "bump2d", "--seconds", "0.1", "--trace", "1"]) == 0
    rows = (quick / "spans" / "bump2d.jsonl").read_text().splitlines()
    assert {json.loads(line)["name"] for line in rows} >= {"stepper.run", "stepper.step"}


def test_program_failures_are_counted_not_raised(quick, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("run did not complete")

    wl = workloads.WORKLOADS["mms"]
    monkeypatch.setitem(workloads.WORKLOADS, "mms",
                        dataclasses.replace(wl, call=broken, warmup=broken))
    assert run.main(["--workload", "mms", "--seconds", "0.1", "--trace", "0"]) == 1
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] == 2 and result["attempted"] >= 2
    assert "solve_s" not in result["metrics"] and "setup_s" in result["metrics"]


def test_snapshot_count_follows_the_cadence():
    # cli_io: records every 0.0002 to t=0.02, a snapshot set every fifth record
    assert workloads.expected_records(0.02, 0.0002) == 101
    assert workloads.expected_snapshot_sets(101, 0.0002) == 21
    assert workloads.expected_snapshot_sets(1, 0.0002) == 1
