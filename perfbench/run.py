"""Run one arcsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bump1d --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced calls of the same workload,
reports per-layer metrics from the spans plus the tracing overhead, and
writes the spans to ``.perfbench_spans/<workload>.jsonl`` in the checkout.
Either way every output is checked; a failed check, or a program call that
raises, is counted, not raised. Human-readable lines go first; the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"
# set-up probes per untraced run, spread evenly over its timed calls
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
FAILED = object()   # what guarded() returns when the call raised

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "interval_p50_ms": "ms",
    "interval_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "mms_err": "1",
}

# traced functions whose time per call is reported (every workload calls them)
TIMED_LAYERS = {
    "stepper.run": ("s",),
    "stepper.step": ("us", "self_us"),
    "stepper.stable_dt": ("us",),
    "grid.laplacian_values": ("us",),
    "grid.div_u_grad_values": ("us",),
    "elliptic.solve_w_values": ("us", "self_us"),
    "kinetics.f_of": ("us",),
    "kinetics.g_of": ("us",),
    "diagnostics.record": ("us",),
}
# traced functions only cli_io calls: counts and bytes here, times in the printed lines
COUNTED_LAYERS = {
    "grid.save_snapshot": ("bytes",),
    "diagnostics.write_csv": ("bytes",),
    "config.parse_config": (),
    "config.build_run_config": (),
}
UNITS = {"s": "s", "us": "us", "self_us": "us", "calls": "count", "bytes": "bytes"}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, as a traced run reports them."""
    names = {}
    for layer, kinds in {**TIMED_LAYERS, **COUNTED_LAYERS}.items():
        for kind in ("calls", *kinds):
            names[f"{layer}.{kind}"] = UNITS[kind]
    names["trace_overhead_pct"] = "%"
    return names


def tail_percentile(n: int) -> int | None:
    """Highest of p50/p90/p99 that has at least ten samples beyond it (None if none)."""
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100.0 >= 10.0:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def per_program_call(total: int, calls: int) -> int | float:
    """A count per program call; exact (an int) when every call did the same work."""
    return total // calls if total % calls == 0 else total / calls


def guarded(checks, name: str, fn, *args):
    """``fn(*args)``; if it raises, print the traceback, count a failed check, return FAILED."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        checks.check(name, False, "raised")
        return FAILED


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """One fresh-interpreter set-up time: spawn to 'ready for the first step', in seconds."""
    spawn = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - spawn


class Runner:
    """Timed, checked program calls of one workload in one process."""

    def __init__(self, workload, prepared: dict):
        self.workload = workload
        self.prepared = prepared
        self.last_output = None

    def call(self, checks, intervals: list):
        """One timed, checked program call: its seconds, or None if the program raised."""
        gc.collect()
        t0 = time.perf_counter()
        output = guarded(checks, "program call", self.workload.call, self.prepared, intervals)
        if output is FAILED:
            return None
        duration = time.perf_counter() - t0
        guarded(checks, "output checks", self.workload.check, self.prepared, output, checks)
        self.last_output = output
        self.workload.cleanup(output)
        return duration


def run_untraced(runner, seed, seconds, workdir, checks):
    """Timed calls for ``seconds``, with the set-up probes spread evenly among them.

    Probing between calls makes ``setup_s`` sample the same spells of the
    machine as ``solve_s``. Returns (metrics, notes); a metric that cannot be
    computed is left out.
    """
    wl = runner.workload
    guarded(checks, "warm-up", wl.warmup, runner.prepared)
    setup, durations, intervals = [], [], []

    def probe():
        t = guarded(checks, "set-up probe", probe_setup, wl.name, seed,
                    workdir / f"probe{len(setup)}")
        setup.append(t)

    start = time.perf_counter()
    while True:
        while len(setup) < SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds):
            probe()
        duration = runner.call(checks, intervals)
        if duration is None:
            break
        durations.append(duration)
        if len(durations) >= 2 and time.perf_counter() - start + duration > seconds:
            break
    while len(setup) < SETUP_PROBES:
        probe()
    setup = [t for t in setup if t is not FAILED]

    metrics = {}
    if runner.last_output is not None:
        error = guarded(checks, "accuracy", wl.accuracy, runner.prepared,
                        runner.last_output, checks)
        if error is not FAILED:
            metrics["mms_err"] = error
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if durations:
        metrics["solve_s"] = statistics.median(durations)
    if intervals:
        metrics["interval_p50_ms"] = statistics.median(intervals) * 1e3
        metrics["interval_p90_ms"] = percentile(intervals, 90) * 1e3

    tail = tail_percentile(len(intervals))
    notes = [
        f"calls: {len(durations)}"
        + (f", solve_s per call min {min(durations):.4f} max {max(durations):.4f}"
           if durations else ""),
        "setup probes: " + " ".join(f"{t:.4f}" for t in setup),
        f"interval samples: {len(intervals)} (highest percentile with >= 10 beyond: "
        f"{'none' if tail is None else f'p{tail}'})",
    ]
    return metrics, notes


def run_traced(runner, seconds, checks, spans_path: Path):
    """Alternating untraced and traced calls for ``seconds``; writes the spans at the end."""
    import workloads

    guarded(checks, "warm-up", runner.workload.warmup, runner.prepared)
    targets = workloads.trace_targets()
    tr = tracer.Tracer(targets)
    # untraced and traced calls alternate, so a slow spell of the machine
    # weighs on both sides of trace_overhead_pct alike
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        untraced_call = runner.call(checks, [])
        with tr:
            traced_call = runner.call(checks, [])
        if untraced_call is None or traced_call is None:
            break
        plain.append(untraced_call)
        traced.append(traced_call)
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(spans_path)
    if not traced:
        return {}, []

    stats = tracer.summarize(tr.spans, tr.bytes)
    per_call = len(traced)
    metrics = {}
    for layer, kinds in {**TIMED_LAYERS, **COUNTED_LAYERS}.items():
        s = stats.get(layer, tracer.LayerStats())
        values = {"calls": per_program_call(s.calls, per_call), "s": s.median_us / 1e6,
                  "us": s.median_us, "self_us": s.median_self_us,
                  "bytes": per_program_call(s.bytes, per_call)}
        for kind in ("calls", *kinds):
            metrics[f"{layer}.{kind}"] = values[kind]
    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    metrics["trace_overhead_pct"] = overhead

    notes = [f"untraced program calls {len(plain)}, traced program calls {len(traced)} "
             f"(the metrics give counts and bytes per program call; the lines below, totals)",
             f"spans: {len(tr.spans)} written to {spans_path}"]
    for target in targets:
        s = stats.get(target.name)
        if s is None:
            notes.append(f"{target.name:26s} not called")
            continue
        notes.append(f"{target.name:26s} calls {s.calls:8d}  median {s.median_us:12.2f} us  "
                     f"self {s.median_self_us:12.2f} us  total {s.total_s:9.4f} s"
                     + (f"  bytes {s.bytes}" if s.bytes else ""))
    breakdown = tracer.child_breakdown(tr.spans, "stepper.step")
    if breakdown:
        total = sum(breakdown.values())
        parts = "  ".join(f"{k} {v * 1e6:.1f}" for k, v in sorted(breakdown.items()))
        notes.append(f"mean us per step: {parts}  = {total * 1e6:.1f}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    wl = workloads.WORKLOADS[args.workload]
    units = per_layer_names() if args.trace else END_TO_END

    workdir = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    checks = workloads.Checks()
    metrics, notes = {}, []
    try:
        prepared = guarded(checks, "set-up", wl.prepare, wl.make_inputs(seed), workdir)
        if prepared is not FAILED:
            runner = Runner(wl, prepared)
            if args.trace:
                metrics, notes = run_traced(runner, args.seconds, checks,
                                            SPANS_DIR / f"{wl.name}.jsonl")
            else:
                metrics, notes = run_untraced(runner, seed, args.seconds, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for name in units:
        if name in metrics and not math.isfinite(metrics[name]):
            checks.check(f"{name} finite", False, repr(metrics[name]))
            del metrics[name]
    missing = [name for name in units if name not in metrics]

    print(f"workload {wl.name}, seed {seed}, trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")
    if missing:
        print(f"  not measured: {', '.join(missing)}")
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"fail_frac = {checks.failed / max(checks.attempted, 1):.6g}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": checks.failed == 0 and not missing,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
