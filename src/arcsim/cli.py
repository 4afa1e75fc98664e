"""Command-line entry point: simulate, thresholds, figures, sweep, mms, validate-config.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical breakdown,
3 verification failure. All output files land under the --out directory.
"""

from __future__ import annotations

import argparse
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


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_config(path: str):
    with open(path) as fh:
        return cfg.parse_config(fh.read())


def _print_warnings(report):
    for message in report.warnings:
        print(f"warning: {message}")


def cmd_validate_config(args) -> int:
    values = _load_config(args.config)
    run_config, _ = cfg.build_run_config(values)
    s = run_config.params.chi * float(np.max(run_config.v0.values))
    _print_warnings(validate_hypotheses(run_config.params, chi_v0_sup=s))
    print(cfg.serialize_config(values), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    values = _load_config(args.config)
    run_config, prefix = cfg.build_run_config(values)
    out = _ensure_out(args.out)

    s = run_config.params.chi * float(np.max(run_config.v0.values))
    _print_warnings(validate_hypotheses(run_config.params, chi_v0_sup=s))

    next_snapshot = [0.0]

    def callback(state, rec):
        if args.snapshot_every <= 0.0 or state.t < next_snapshot[0]:
            return
        for name, field in (("u", state.u), ("v", state.v), ("w", state.w)):
            path = os.path.join(out, f"{prefix}_{name}_{state.step:08d}.dat")
            save_snapshot(field, state.t, path)
        next_snapshot[0] = state.t + args.snapshot_every

    records, final, termination = run(run_config, callback=callback)

    csv_path = os.path.join(out, f"{prefix}_diagnostics.csv")
    metadata = {key: cfg.format_value(v) for key, v in values.items()}
    metadata["termination"] = termination
    diagnostics.write_csv(records, csv_path, metadata)

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
    for p in args.p:
        if p <= 1.0:
            print(f"error: p must be > 1, got {p}", file=sys.stderr)
            return EXIT_USAGE
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
        out = _ensure_out(args.out)
        path = os.path.join(out, "thresholds.csv")
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")
        print(f"wrote {path}")
    return EXIT_OK


def cmd_figures(args) -> int:
    out = _ensure_out(args.out)
    if args.variant == "fig1":
        domains, curves = theory.COMPARISON_S_MAX, lambda n, s: (
            theory.logistic_threshold(s, n),
            theory.repulsion_curve(s, n),
        )
    else:
        domains, curves = theory.MATCHED_S_MAX, lambda n, s: theory.matched_p_curves(n, s)

    for n in theory.CURVE_DIMENSIONS:
        path = os.path.join(out, f"{args.variant}_n{n}.csv")
        with open(path, "w") as fh:
            fh.write("s,C_mu,C_xi\n")
            for s in np.linspace(0.0, domains[n], args.samples):
                mu, xi = curves(n, float(s))
                fh.write(f"{s:.17g},{mu:.17g},{xi:.17g}\n")
        print(f"wrote {path}")

    if args.variant == "fig2":
        path = os.path.join(out, "fig2_rho0.csv")
        with open(path, "w") as fh:
            fh.write("n,rho0\n")
            for n in theory.CURVE_DIMENSIONS:
                fh.write(f"{n},{theory.crossover_abscissa(n):.17g}\n")
        print(f"wrote {path}")
    return EXIT_OK


def _sweep_worker(task):
    values, axis, value, out, prefix = task
    values = dict(values)
    values[f"params.{axis}"] = value
    run_config, _ = cfg.build_run_config(values)
    records, _, termination = run(run_config)

    csv_path = os.path.join(out, f"{prefix}_{axis}_{value:.6g}_diagnostics.csv")
    metadata = {key: cfg.format_value(v) for key, v in values.items()}
    metadata["termination"] = termination
    diagnostics.write_csv(records, csv_path, metadata)

    s = run_config.params.chi * float(np.max(run_config.v0.values))
    report = validate_hypotheses(run_config.params, chi_v0_sup=s)
    max_sup_u = max((r.sup_u for r in records), default=float("nan"))
    max_y_p = max((r.y_p for r in records), default=float("nan"))
    return (value, termination, max_sup_u, max_y_p, report.satisfied)


def cmd_sweep(args) -> int:
    import concurrent.futures

    values = _load_config(args.config)
    axes = [(name, vals) for name, vals in (("xi", args.xi), ("chi", args.chi)) if vals is not None]
    if len(axes) != 1:
        print("error: exactly one of --xi/--chi must be given", file=sys.stderr)
        return EXIT_USAGE
    axis, sweep_values = axes[0]
    if not sweep_values:
        print(f"error: empty sweep list for axis --{axis}", file=sys.stderr)
        return EXIT_USAGE

    out = _ensure_out(args.out)
    prefix = values.get("output.prefix", "run")
    tasks = [(values, axis, v, out, prefix) for v in sweep_values]

    rows = [None] * len(tasks)
    failures = [None] * len(tasks)
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
        futures = {pool.submit(_sweep_worker, task): i for i, task in enumerate(tasks)}
        for future in concurrent.futures.as_completed(futures):
            i = futures[future]
            try:
                rows[i] = future.result()
            except Exception as exc:  # per-run failure recorded, sweep continues
                failures[i] = str(exc)
                rows[i] = (sweep_values[i], "failed", float("nan"), float("nan"), None)

    summary = os.path.join(out, f"{prefix}_sweep_{axis}.csv")
    with open(summary, "w") as fh:
        fh.write(f"{axis},termination,max_sup_u,max_y_p,hypotheses_ok\n")
        for value, termination, sup_u, y_p, ok in rows:
            fh.write(f"{value:.17g},{termination},{sup_u:.17g},{y_p:.17g},{ok}\n")
    for i, failure in enumerate(failures):
        if failure is not None:
            print(f"warning: run {axis}={sweep_values[i]:g} failed: {failure}")
    print(f"wrote {summary}")
    return EXIT_OK


def cmd_mms(args) -> int:
    if args.refinements < 3:
        print("error: --refinements must be >= 3", file=sys.stderr)
        return EXIT_USAGE
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
