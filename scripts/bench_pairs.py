"""Paired benchmark runs of a parent checkout against this tree, from one harness.

    python3 scripts/bench_pairs.py --parent ../parent --label step_once \\
        --workloads mms --seeds 1 --pairs 10 --seconds 25

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in the parent checkout and once in this tree, each in a fresh process,
and swaps which side goes first from one pair to the next, so a slow spell of
the machine weighs on both sides alike. Every result line is kept, tagged with
its side, workload, seed, trace, pair and run order, in ``BENCH_<label>.json``
at the root of this tree (``--append`` adds to an existing file), with the
run's exit code. At the end the script prints, per workload, seed and metric,
the median and quartiles of each side, the relative change of the medians, and
in how many pairs the change was lower (every perfbench metric is better
lower). Then, per workload, seed and side, it prints the summed ``failed`` and
``attempted`` checks and names each run that printed no result or a result
with ``correct: false``: the metric rows alone would not show them. Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds T --trace R"


def side_order(pair: int) -> tuple[str, str]:
    """Which side runs first: the parent in odd pairs, the change in even ones."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict | None, int]:
    """One perfbench run in ``checkout``: its last output line as JSON, or None if there is
    none, and its exit code."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, json.JSONDecodeError):
        print(f"  {checkout}: exit {done.returncode}, no result line; stderr:\n{done.stderr[-2000:]}")
        return None, done.returncode


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict]) -> list[dict]:
    """Per (workload, seed, trace, metric): each side's quartiles and the change's wins.

    A pair counts when both of its sides report the metric; the change wins it
    when its value is lower.
    """
    values: dict[tuple, dict[int, dict[str, float]]] = {}
    for run in runs:
        metrics = (run.get("result") or {}).get("metrics", {})
        for name, metric in metrics.items():
            key = (run["workload"], run["seed"], run["trace"], name)
            values.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = metric["value"]
    rows = []
    for (workload, seed, trace, name), pairs in sorted(values.items()):
        row = {"workload": workload, "seed": seed, "trace": trace, "metric": name}
        for side in SIDES:
            side_values = [p[side] for p in pairs.values() if side in p]
            row[side] = quartiles(side_values) if side_values else None
        complete = [p for p in pairs.values() if len(p) == 2]
        row["pairs"] = len(complete)
        row["wins"] = sum(p["change"] < p["parent"] for p in complete)
        if row["parent"] and row["change"] and row["parent"][1] != 0.0:
            row["ratio"] = row["change"][1] / row["parent"][1]
        else:
            row["ratio"] = None
        rows.append(row)
    return rows


def check_rows(runs: list[dict]) -> list[dict]:
    """Per (workload, seed, trace, side): the number of runs, the summed ``failed`` and
    ``attempted`` checks, and as (pair, exit code) the runs that printed no result and
    those whose result reads ``correct: false``. A file written before exit codes were
    kept gives None for the code."""
    rows: dict[tuple, dict] = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["trace"], SIDES.index(run["side"]))
        row = rows.setdefault(key, {"workload": run["workload"], "seed": run["seed"],
                                    "trace": run["trace"], "side": run["side"], "runs": 0,
                                    "failed": 0, "attempted": 0, "no_result": [], "incorrect": []})
        row["runs"] += 1
        result, tag = run.get("result"), (run["pair"], run.get("exit"))
        if result is None:
            row["no_result"].append(tag)
            continue
        if result.get("correct") is not True:
            row["incorrect"].append(tag)
        row["failed"] += result.get("failed", 0)
        row["attempted"] += result.get("attempted", 0)
    return [rows[key] for key in sorted(rows)]


def format_check_rows(rows: list[dict]) -> list[str]:
    out = []
    for row in rows:
        line = (f"{row['workload']} seed {row['seed']} trace {row['trace']} {row['side']}: "
                f"{row['runs']} runs, checks failed {row['failed']}/{row['attempted']}")
        for name, runs in (("no result", row["no_result"]), ("correct false", row["incorrect"])):
            if runs:
                line += f"; {name}: " + ", ".join(f"pair {p} (exit {code})" for p, code in runs)
        out.append(line)
    return out


def format_rows(rows: list[dict]) -> list[str]:
    out = []
    for row in rows:
        sides = "  ".join(
            f"{side} {q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" if q else f"{side} -"
            for side, q in ((s, row[s]) for s in SIDES)
        )
        change = "" if row["ratio"] is None else f"  {100.0 * (row['ratio'] - 1.0):+.1f}%"
        out.append(f"{row['workload']} seed {row['seed']} trace {row['trace']} {row['metric']}: "
                   f"{sides}{change}  wins {row['wins']}/{row['pairs']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", default="bump1d,bump2d,mms,cli_io")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--description", default="")
    parser.add_argument("--append", action="store_true", help="add to an existing file's runs")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    path = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "description": args.description, "command": COMMAND, "runs": []}
    if args.append and path.is_file():
        doc = json.loads(path.read_text())
        doc["description"] = args.description or doc.get("description", "")
    runs = doc["runs"]

    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            done = [r["pair"] for r in runs
                    if (r["workload"], r["seed"], r["trace"]) == (workload, seed, args.trace)]
            first = max(done, default=0) + 1
            for pair in range(first, first + args.pairs):
                for order, side in enumerate(side_order(pair), start=1):
                    result, code = run_side(checkouts[side], workload, seed, args.seconds,
                                            args.trace)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "trace": args.trace, "pair": pair, "run_order": order,
                                 "exit": code, "result": result})
                    path.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} seed {seed} pair {pair} done", flush=True)

    for line in format_rows(summarize(runs)) + format_check_rows(check_rows(runs)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
