"""Command-line entry point: simulate, thresholds, figures, sweep, mms, validate-config.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical breakdown,
3 verification failure. All output files land under the --out directory.

simulate --snapshot-every hands each u/v/w snapshot set to one writer process,
forked at the first set, so the text formatting runs on another CPU while the run
steps; a failed write ends the run with its OSError before the diagnostics CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import config as cfg
from . import diagnostics, mms, theory
from .grid import save_snapshot
from .kinetics import validate_hypotheses
from .stepper import BREAKDOWN, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BREAKDOWN = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for breakdowns
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def _require_values(flag: str, values: list) -> None:
    """Reject an empty list given to ``flag``: a usage error, as ``main`` reports a ValueError."""
    if not values:
        raise ValueError(f"empty {flag} list")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _check_out(path: str) -> None:
    """Reject an output directory that cannot be made: its nearest existing path is no directory."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValueError(f"--out {path}: {existing} is not a directory")


def _load_config(path: str):
    with open(path) as fh:
        return cfg.parse_config(fh.read())


def _hypotheses(run_config):
    """The boundedness hypotheses, checked at chi*sup(v0) of the run's initial data."""
    s = run_config.params.chi * float(np.max(run_config.v0.values))
    return validate_hypotheses(run_config.params, chi_v0_sup=s)


def _print_warnings(report):
    for message in report.warnings:
        print(f"warning: {message}")


def _simulate(values, run_config, csv_path, callback=None, before_csv=lambda: None):
    """Run one config; write its diagnostics CSV with the config and termination as metadata."""
    records, _, termination = run(run_config, callback=callback)
    before_csv()
    metadata = {key: cfg.format_value(v) for key, v in values.items()}
    metadata["termination"] = termination
    _ensure_out(os.path.dirname(csv_path))
    diagnostics.write_csv(records, csv_path, metadata)
    return records, termination


def _write_snapshot_set(t, files):
    for path, field in files:
        save_snapshot(field, t, path)


def _snapshot_writer(conn, parent_end):
    """The forked writer: write each (t, files) set received until None, then send None; or
    send the first failed write's OSError and stop. A closed pipe ends it quietly."""
    import signal

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the parent, which ends this
    try:
        while (snapshot_set := conn.recv()) is not None:
            try:
                _write_snapshot_set(*snapshot_set)
            except OSError as exc:
                return conn.send(exc)
        conn.send(None)
    except (EOFError, BrokenPipeError):  # the parent stopped early and closed its end
        pass


class _SnapshotWriter:
    """Hands snapshot sets to one process forked at the first set, so formatting overlaps the
    stepping; without ``fork`` each set is written in-process. The process only formats and
    writes text, so it never needs the BLAS threads that a fork does not copy."""

    process = conn = None

    def send(self, t, files):
        if self.process is None:
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                return _write_snapshot_set(t, files)
            ctx = multiprocessing.get_context("fork")
            self.conn, child_end = ctx.Pipe()
            self.process = ctx.Process(target=_snapshot_writer, args=(child_end, self.conn))
            self.process.start()
            child_end.close()
        self._send((t, files))

    def finish(self):
        """Return once every set is written; raise the first failed write's OSError."""
        if self.process is not None:
            self._send(None)
            if (error := self._received()) is not None:
                raise error

    def close(self):
        """End the process on any path: close the pipe, wait a bounded time, then kill it."""
        if self.process is not None:
            self.conn.close()
            self.process.join(timeout=10.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)

    def _send(self, message):
        """Send, unless the process has stopped: then raise its error."""
        try:
            if not self.conn.poll():
                return self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError):
            pass
        raise self._received()

    def _received(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError):  # it died without a word: killed, or a bug
            self.process.join(timeout=10.0)
            return OSError(f"snapshot writer ended with exit code {self.process.exitcode}")


def _write_table(path, header, rows):
    """Write a CSV table (floats as %.17g, anything else as str) and report its path."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {path}")


def cmd_validate_config(args) -> int:
    values = _load_config(args.config)
    run_config, _ = cfg.build_run_config(values)
    _print_warnings(_hypotheses(run_config))
    print(cfg.serialize_config(values), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 0.0 <= args.snapshot_every < math.inf:
        raise ValueError(f"--snapshot-every must be >= 0 and finite, got {args.snapshot_every}")
    values = _load_config(args.config)
    run_config, prefix = cfg.build_run_config(values)
    out = args.out  # made when the first file is written, so a failed start leaves none
    _check_out(out)
    _print_warnings(_hypotheses(run_config))

    next_snapshot = [0.0]
    writer = _SnapshotWriter()

    def callback(state, rec):
        if args.snapshot_every == 0.0 or state.t < next_snapshot[0]:
            return
        _ensure_out(out)
        fields = (("u", state.u), ("v", state.v), ("w", state.w))
        writer.send(state.t, [(os.path.join(out, f"{prefix}_{name}_{state.step:08d}.dat"), field)
                              for name, field in fields])
        next_snapshot[0] = state.t + args.snapshot_every

    csv_path = os.path.join(out, f"{prefix}_diagnostics.csv")
    try:
        records, termination = _simulate(values, run_config, csv_path, callback, writer.finish)
    finally:
        writer.close()

    print(f"termination: {termination}")
    if records:
        rec = records[-1]
        print(
            f"final t = {rec.t:.6g}: mass = {rec.mass:.12g}, sup_u = {rec.sup_u:.6g}, "
            f"sup_v = {rec.sup_v:.6g}, y_p = {rec.y_p:.6g}, clipped_mass = {rec.clipped_mass:.3e}"
        )
    print(f"diagnostics: {csv_path}")
    return EXIT_BREAKDOWN if termination == BREAKDOWN else EXIT_OK


def cmd_thresholds(args) -> int:
    for flag, values in (("--n", args.n), ("--p", args.p), ("--s", args.s)):
        _require_values(flag, values)
    header = ("n", "p", "s", "threshold_const", "xi_threshold", "critical_coeff")
    rows = []
    for n in args.n:
        coeff = theory.critical_coefficient(n)
        for p in args.p:
            const = theory.threshold_constant(p, n)
            for s in args.s:
                rows.append((n, p, s, const, theory.xi_threshold(p, n, s), coeff))

    widths = [max(len(h), 14) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.8g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))

    if args.out is not None:
        _write_table(os.path.join(_ensure_out(args.out), "thresholds.csv"), header, rows)
    return EXIT_OK


def cmd_figures(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    out = _ensure_out(args.out)
    if args.variant == "fig1":
        domains, curves = theory.COMPARISON_S_MAX, lambda n, s: (
            theory.logistic_threshold(s, n),
            theory.repulsion_curve(s, n),
        )
    else:
        domains, curves = theory.MATCHED_S_MAX, lambda n, s: theory.matched_p_curves(n, s)

    for n in theory.CURVE_DIMENSIONS:
        samples = np.linspace(0.0, domains[n], args.samples).tolist()
        _write_table(os.path.join(out, f"{args.variant}_n{n}.csv"), ("s", "C_mu", "C_xi"),
                     [(s, *curves(n, s)) for s in samples])

    if args.variant == "fig2":
        _write_table(os.path.join(out, "fig2_rho0.csv"), ("n", "rho0"),
                     [(n, theory.crossover_abscissa(n)) for n in theory.CURVE_DIMENSIONS])
    return EXIT_OK


def _sweep_worker(task):
    values, axis, value, csv_path = task
    values = {**values, f"params.{axis}": value}
    run_config, _ = cfg.build_run_config(values)
    records, termination = _simulate(values, run_config, csv_path)
    max_sup_u = max((r.sup_u for r in records), default=float("nan"))
    max_y_p = max((r.y_p for r in records), default=float("nan"))
    return (value, termination, max_sup_u, max_y_p, _hypotheses(run_config).satisfied)


def cmd_sweep(args) -> int:
    import concurrent.futures

    values = _load_config(args.config)
    axes = [(name, vals) for name, vals in (("xi", args.xi), ("chi", args.chi)) if vals is not None]
    if len(axes) != 1:
        print("error: exactly one of --xi/--chi must be given", file=sys.stderr)
        return EXIT_USAGE
    axis, sweep_values = axes[0]
    _require_values(f"--{axis}", sweep_values)
    prefix = values.get("output.prefix", "run")
    names = {}  # diagnostics file name -> its sweep value; %.6g can merge close values
    for value in sweep_values:
        name = f"{prefix}_{axis}_{value:.6g}_diagnostics.csv"
        if name in names:
            raise ValueError(f"--{axis} values {names[name]!r} and {value!r} both write {name}")
        names[name] = value

    out = _ensure_out(args.out)
    rows = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_sweep_worker, (values, axis, v, os.path.join(out, name)))
                   for name, v in names.items()]
        for value, future in zip(sweep_values, futures):
            try:
                rows.append(future.result())
            except Exception as exc:  # per-run failure recorded, sweep continues
                print(f"warning: run {axis}={value:g} failed: {exc}")
                rows.append((value, "failed", float("nan"), float("nan"), None))

    header = (axis, "termination", "max_sup_u", "max_y_p", "hypotheses_ok")
    _write_table(os.path.join(out, f"{prefix}_sweep_{axis}.csv"), header, rows)
    return EXIT_OK


def cmd_mms(args) -> int:
    result = mms.run_convergence(
        args.refinements, base_cells=args.base_cells, t_end=args.t_end, variant=args.variant
    )
    for line in result.lines():
        print(line)
    return EXIT_OK if result.passed else EXIT_VERIFICATION


def build_parser() -> _Parser:
    parser = _Parser(prog="arcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation from a config file")
    sim.add_argument("config")
    sim.add_argument("--out", default="out")
    sim.add_argument("--snapshot-every", type=float, default=0.0, metavar="T",
                     help="write u/v/w snapshots every T time units (0 = never)")
    sim.set_defaults(func=cmd_simulate)

    val = sub.add_parser("validate-config", help="parse, validate, and echo a config")
    val.add_argument("config")
    val.set_defaults(func=cmd_validate_config)

    thr = sub.add_parser("thresholds", help="tabulate the explicit repulsion thresholds")
    thr.add_argument("--n", type=_int_list, default=[3, 4, 5, 6])
    thr.add_argument("--p", type=_float_list, default=[2.0])
    thr.add_argument("--s", type=_float_list, default=[1.0])
    thr.add_argument("--out", default=None)
    thr.set_defaults(func=cmd_thresholds)

    fig = sub.add_parser("figures", help="write the comparison-curve CSV data")
    fig.add_argument("variant", choices=("fig1", "fig2"))
    fig.add_argument("--out", default="out")
    fig.add_argument("--samples", type=int, default=201)
    fig.set_defaults(func=cmd_figures)

    swp = sub.add_parser("sweep", help="run one simulation per parameter value")
    swp.add_argument("config")
    swp.add_argument("--xi", type=_float_list, default=None)
    swp.add_argument("--chi", type=_float_list, default=None)
    swp.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    swp.add_argument("--out", default="out")
    swp.set_defaults(func=cmd_sweep)

    ver = sub.add_parser("mms", help="manufactured-solution convergence verification")
    ver.add_argument("--refinements", type=int, default=4)
    ver.add_argument("--base-cells", type=int, default=25)
    ver.add_argument("--t-end", type=float, default=0.1)
    ver.add_argument("--variant", choices=("cosine", "constant"), default="cosine")
    ver.set_defaults(func=cmd_mms)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
