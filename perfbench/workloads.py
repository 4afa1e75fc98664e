"""The benchmark's workloads: seeded inputs, set-up, one program call, checks.

Every workload is closed loop: one process, one thread, each program call
made after the previous one returns. ``make_inputs(seed)`` derives the
inputs from the seed alone (a few percent of perturbation on amplitudes,
centres or coefficients, inside each configuration's hypotheses), so the
same seed always gives the same inputs. The program sees only those inputs.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and pins numerical libraries to one thread, so the benchmark
measures the arcsim source next to it and nothing installed elsewhere.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "arcsim" / "__init__.py").is_file():
    raise ImportError(f"arcsim sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import arcsim  # noqa: E402
from arcsim import cli, config, diagnostics, elliptic, grid, kinetics, mms, stepper  # noqa: E402

if Path(arcsim.__file__).resolve().parent != SRC / "arcsim":
    raise ImportError(f"imported arcsim from {arcsim.__file__}, not from {SRC}")

DEFAULT_SEED = 1
MASS_TOL = 1e-10
SUP_V_TOL = 1e-10

# The manufactured-solution study: the mms workload's program call, and the
# accuracy check every other workload makes once per run. Acceptance
# criterion 9 runs 4 grids (25..200) to t=0.1, ~10 s: a 25 s run then holds
# two calls and 8 record intervals, far too few for a steady median or p90.
# Three grids ending at the same 200 cells, to t=0.005, take ~0.4 s each.
MMS_STUDY = dict(refinements=3, base_cells=50, t_end=0.005)


class Checks:
    """Pass/fail tally; a failed check is counted, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    prepare: Callable[[dict, Path], dict]     # set-up: configs plus the initial solve
    warmup: Callable[[dict], None]
    call: Callable[[dict, list], object]      # one timed program call; appends record intervals
    check: Callable[[dict, object, Checks], None]
    accuracy: Callable[[dict, object, Checks], float]   # the run's mms_err
    cleanup: Callable[[object], None] = lambda output: None


def _jitter(rng: random.Random, scale: float) -> float:
    return scale * (2.0 * rng.random() - 1.0)


def interval_timer(intervals: list, chain: Callable | None = None) -> Callable:
    """A run() callback appending the wall time since the previous record of the same run."""
    last = []

    def callback(state, rec):
        if chain is not None:
            chain(state, rec)
        now = time.perf_counter()
        if last:
            intervals.append(now - last[0])
        last[:] = [now]

    return callback


@contextlib.contextmanager
def record_intervals(module, intervals: list):
    """Route ``module.run`` through a shim that times the intervals between records.

    Used where the program calls ``stepper.run`` itself (CLI, MMS); the shim
    chains any callback the caller passes and is removed on exit.
    """
    original = module.run

    def run(run_config, forcing=None, callback=None):
        return original(run_config, forcing=forcing, callback=interval_timer(intervals, callback))

    module.run = run
    try:
        yield
    finally:
        module.run = original


def _mms_params(seed: int) -> kinetics.ModelParams:
    rng = random.Random(f"mms-{seed}")
    base = mms.default_params()
    return dataclasses.replace(
        base,
        chi=base.chi * (1.0 + _jitter(rng, 0.03)),
        xi=base.xi * (1.0 + _jitter(rng, 0.03)),
    )


def mms_study(params: kinetics.ModelParams):
    return mms.run_convergence(**MMS_STUDY, params=params)


def check_mms(result, checks: Checks) -> float:
    """Check the observed order; returns the finest grid's error (the mms_err metric)."""
    lo, hi = mms.ORDER_WINDOW
    checks.check("mms order", not result.skipped and lo <= result.observed_order <= hi,
                 f"observed order {result.observed_order:.4f}")
    return result.errors[-1]


def study_accuracy(prepared: dict, output, checks: Checks) -> float:
    """mms_err of the other workloads: one study on the run's seeded coefficients."""
    return check_mms(mms_study(prepared["inputs"]["mms_params"]), checks)


# --- checks shared by the run()-based workloads ---------------------------


def check_records(records, termination, m0, v0_sup, expected, checks: Checks, label: str):
    checks.check(f"{label} termination", termination == stepper.COMPLETED, termination)
    finite = all(r.is_finite() for r in records)
    checks.check(f"{label} records finite", finite and len(records) == expected,
                 f"{len(records)} records, {expected} expected")
    if records:
        drift = max(abs(r.mass - m0) for r in records)
        budget = drift + records[-1].clipped_mass
        checks.check(f"{label} mass", budget <= MASS_TOL * m0,
                     f"drift + clipped = {budget:.3e}")
        worst = max(r.sup_v for r in records)
        checks.check(f"{label} sup v", worst <= v0_sup * (1.0 + SUP_V_TOL),
                     f"max sup v {worst!r} > sup v0 {v0_sup!r}")


def expected_records(t_end: float, interval: float) -> int:
    return 1 + math.ceil(t_end / interval - 1e-9)


# --- bump1d / bump2d: stepper.run on the acceptance configurations -------------


def _bump_config(inputs: dict) -> stepper.RunConfig:
    dim = inputs["dim"]
    spec = grid.GridSpec(dim, inputs["n_cells"], (1.0,) * dim)
    params = kinetics.ModelParams(**inputs["params"])
    u0 = config.build_profile(spec, *inputs["u0"])
    v0 = config.build_profile(spec, *inputs["v0"])
    return stepper.RunConfig(
        grid=spec, params=params, u0=u0, v0=v0, t_end=inputs["t_end"],
        dt_safety=0.8, output_interval=inputs["output_interval"],
    )


def bump1d_inputs(seed: int) -> dict:
    rng = random.Random(f"bump1d-{seed}")
    return {
        "dim": 1,
        "n_cells": (200,),
        "params": dict(chi=1.0, xi=1.0, delta=1.0, K=1.0, gamma=1.0, alpha=0.5, l=1.0, n=1),
        # (profile, amplitude, offset, centre, width)
        "u0": ("cosine-bump", 1.0 + _jitter(rng, 0.03), 0.5, (0.5 + _jitter(rng, 0.02),), (0.5,)),
        "v0": ("constant", 0.0, 1.0 + _jitter(rng, 0.03), None, None),
        "t_end": 0.1,
        "output_interval": 0.001,
        "mms_params": _mms_params(seed),
    }


def bump2d_inputs(seed: int) -> dict:
    rng = random.Random(f"bump2d-{seed}")
    centre_u = (0.5 + _jitter(rng, 0.02), 0.5 + _jitter(rng, 0.02))
    centre_v = (0.5 + _jitter(rng, 0.02), 0.5 + _jitter(rng, 0.02))
    return {
        "dim": 2,
        "n_cells": (64, 64),
        "params": dict(chi=1.0, xi=0.5, delta=1.0, K=1.0, gamma=1.0, alpha=0.9, l=1.0, n=2),
        "u0": ("gaussian-bump", 1.0 + _jitter(rng, 0.03), 0.5, centre_u, (0.15, 0.15)),
        "v0": ("gaussian-bump", 0.5 * (1.0 + _jitter(rng, 0.03)), 0.5, centre_v, (0.2, 0.2)),
        "t_end": 0.1,
        "output_interval": 0.001,
        "mms_params": _mms_params(seed),
    }


def bump_prepare(inputs: dict, workdir: Path) -> dict:
    run_config = _bump_config(inputs)
    stepper.initial_state(run_config)
    return {"inputs": inputs, "config": run_config}


def bump_warmup(prepared: dict) -> None:
    run_config = prepared["config"]
    stepper.run(dataclasses.replace(run_config, t_end=5 * run_config.output_interval))


def bump_call(prepared: dict, intervals: list):
    return stepper.run(prepared["config"], callback=interval_timer(intervals))


def bump_check(prepared: dict, output, checks: Checks) -> None:
    records, _final, termination = output
    run_config = prepared["config"]
    check_records(
        records, termination, grid.integrate(run_config.u0),
        float(np.max(run_config.v0.values)),
        expected_records(run_config.t_end, run_config.output_interval), checks, "run",
    )


# --- cli_io: arcsim simulate with dense records and snapshots --------------

# just under five record intervals, so every fifth record writes a snapshot
# however the record times round
CLI_SNAPSHOT_EVERY = 0.00095


def expected_snapshot_sets(n_records: int, output_interval: float) -> int:
    """u/v/w snapshot sets a run with ``n_records`` records writes.

    The first record writes one, then every ``stride``-th record: the first
    one at least CLI_SNAPSHOT_EVERY after the last snapshot.
    """
    stride = math.ceil(CLI_SNAPSHOT_EVERY / output_interval)
    return 1 + (n_records - 1) // stride if n_records else 0


def cli_inputs(seed: int) -> dict:
    inputs = bump2d_inputs(seed)
    u0, v0 = inputs["u0"], inputs["v0"]
    lines = [
        "grid.dim = 2",
        "grid.n_cells = 64 64",
        "params.chi = 1.0",
        "params.xi = 0.5",
        "params.alpha = 0.9",
    ]
    for name, (profile, amplitude, offset, centre, width) in (("u0", u0), ("v0", v0)):
        lines += [
            f"initial.{name}.profile = {profile}",
            f"initial.{name}.amplitude = {amplitude!r}",
            f"initial.{name}.offset = {offset!r}",
            f"initial.{name}.center = {centre[0]!r} {centre[1]!r}",
            f"initial.{name}.width = {width[0]!r} {width[1]!r}",
        ]
    lines += [
        "run.t_end = 0.02",
        "run.dt_safety = 0.8",
        "run.output_interval = 0.0002",
        "output.prefix = bench",
    ]
    return {"config_text": "\n".join(lines) + "\n", "mms_params": inputs["mms_params"]}


def cli_prepare(inputs: dict, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "simulate.cfg"
    path.write_text(inputs["config_text"])
    values = config.parse_config(path.read_text())
    run_config, prefix = config.build_run_config(values)
    stepper.initial_state(run_config)
    return {"inputs": inputs, "workdir": workdir, "config_path": path, "config": run_config,
            "prefix": prefix, "calls": 0}


def cli_call(prepared: dict, intervals: list):
    prepared["calls"] += 1
    out = prepared["workdir"] / f"out{prepared['calls']}"
    argv = ["simulate", str(prepared["config_path"]), "--out", str(out),
            "--snapshot-every", repr(CLI_SNAPSHOT_EVERY)]
    with record_intervals(cli, intervals), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, out


def cli_warmup(prepared: dict) -> None:
    output = cli_call(prepared, [])
    cli_cleanup(output)


def read_diagnostics(path: Path):
    """Diagnostics CSV -> (metadata dict, list of row dicts of floats)."""
    meta, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (float(v) for v in line.split(",")))))
    return meta, rows


def cli_check(prepared: dict, output, checks: Checks) -> None:
    code, out = output
    run_config, prefix = prepared["config"], prepared["prefix"]
    checks.check("cli exit code", code == 0, f"exit code {code}")
    csv_path = out / f"{prefix}_diagnostics.csv"
    if not checks.check("cli diagnostics written", csv_path.is_file(), str(csv_path)):
        return
    meta, rows = read_diagnostics(csv_path)
    records = [diagnostics.DiagRecord(**row) for row in rows]
    n_records = expected_records(run_config.t_end, run_config.output_interval)
    check_records(
        records, meta.get("termination", "missing"), grid.integrate(run_config.u0),
        float(np.max(run_config.v0.values)), n_records, checks, "cli",
    )
    snapshots = sorted(out.glob(f"{prefix}_[uvw]_*.dat"))
    expected = 3 * expected_snapshot_sets(n_records, run_config.output_interval)
    loaded_ok = len(snapshots) == expected
    for path in snapshots:
        field, t = grid.load_snapshot(path)
        loaded_ok &= (field.spec == run_config.grid and field.is_finite()
                      and bool(np.all(field.values >= 0.0)) and 0.0 <= t <= run_config.t_end)
    checks.check("cli snapshots load", loaded_ok,
                 f"{len(snapshots)} snapshot files, {expected} expected")


def cli_cleanup(output) -> None:
    shutil.rmtree(output[1], ignore_errors=True)


# --- mms: the acceptance manufactured-solution study -------------------------


def mms_inputs(seed: int) -> dict:
    return {"mms_params": _mms_params(seed)}


def mms_prepare(inputs: dict, workdir: Path) -> dict:
    """Build each grid's configuration and solve its initial repellent (fills the caches)."""
    params = inputs["mms_params"]
    solution = mms.cosine_solution(params)
    for k in range(MMS_STUDY["refinements"]):
        spec = grid.GridSpec.interval(MMS_STUDY["base_cells"] * 2**k, 1.0)
        x = grid.cell_centers(spec)[0]
        run_config = stepper.RunConfig(
            grid=spec, params=params, u0=grid.ScalarField(spec, solution.u(x, 0.0)),
            v0=grid.ScalarField(spec, solution.v(x, 0.0)), t_end=MMS_STUDY["t_end"],
        )
        stepper.initial_state(run_config, solution.forcing)
    return {"inputs": inputs}


def mms_warmup(prepared: dict) -> None:
    mms_study(prepared["inputs"]["mms_params"])


def mms_call(prepared: dict, intervals: list):
    with record_intervals(mms, intervals):
        return mms_study(prepared["inputs"]["mms_params"])


def mms_check(prepared: dict, result, checks: Checks) -> None:
    check_mms(result, checks)


def mms_accuracy(prepared: dict, result, checks: Checks) -> float:
    return result.errors[-1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bump1d",
            "1D N=200 acceptance run: a step is mostly Python/numpy call overhead "
            "and the banded-Cholesky elliptic path",
            bump1d_inputs, bump_prepare, bump_warmup, bump_call, bump_check,
            study_accuracy,
        ),
        Workload(
            "bump2d",
            "2D 64x64 acceptance run: DCT elliptic path on 32 KB arrays, "
            "arithmetic and FFT weigh more and the step count is diffusion-limited",
            bump2d_inputs, bump_prepare, bump_warmup, bump_call, bump_check,
            study_accuracy,
        ),
        Workload(
            "mms",
            "1D manufactured-solution study, grids 50..200: the only exact reference, "
            "so it carries the accuracy a faster scheme must keep",
            mms_inputs, mms_prepare, mms_warmup, mms_call, mms_check, mms_accuracy,
        ),
        Workload(
            "cli_io",
            "arcsim simulate 2D 64x64 with dense records and snapshots: "
            "config parsing, diagnostics, CSV and snapshot writes dominate",
            cli_inputs, cli_prepare, cli_warmup, cli_call, cli_check, study_accuracy,
            cli_cleanup,
        ),
    )
}


def trace_targets():
    """The traced functions, each at every module binding its callers look it up by."""
    from tracer import Target

    return [
        Target("cli.main", ((cli, "main"),)),
        Target("mms.run_convergence", ((mms, "run_convergence"),)),
        Target("config.parse_config", ((config, "parse_config"),)),
        Target("config.build_run_config", ((config, "build_run_config"),)),
        Target("stepper.run", ((stepper, "run"), (cli, "run"), (mms, "run"))),
        Target("stepper.initial_state", ((stepper, "initial_state"),)),
        Target("stepper.stable_dt", ((stepper, "stable_dt"),)),
        Target("stepper.step", ((stepper, "step"),)),
        Target("grid.laplacian_values",
               ((grid, "laplacian_values"), (stepper, "laplacian_values"),
                (elliptic, "laplacian_values"))),
        Target("grid.div_u_grad_values",
               ((grid, "div_u_grad_values"), (stepper, "div_u_grad_values"))),
        Target("kinetics.f_of", ((kinetics, "f_of"), (stepper, "f_of"))),
        Target("kinetics.g_of", ((kinetics, "g_of"), (stepper, "g_of"))),
        Target("elliptic.solve_w_values", ((elliptic, "solve_w_values"),)),
        Target("diagnostics.record", ((diagnostics, "record"),)),
        Target("diagnostics.write_csv", ((diagnostics, "write_csv"),), path_arg=1),
        Target("grid.save_snapshot", ((grid, "save_snapshot"), (cli, "save_snapshot")),
               path_arg=2),
    ]
