"""End-to-end command-line tests; commands run in-process through main()."""

import csv
import errno
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arcsim import cli, config, theory
from arcsim.cli import EXIT_BREAKDOWN, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from arcsim.grid import load_snapshot, save_snapshot
from arcsim.stepper import run

HOMOGENEOUS = """
grid.dim = 1
grid.n_cells = 32
initial.u0.profile = constant
initial.u0.amplitude = 2.0
initial.v0.profile = constant
initial.v0.amplitude = 1.0
run.t_end = 0.05
run.output_interval = 0.025
output.prefix = homo
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class TestSimulate:
    def test_homogeneous_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "out"
        code = main(["simulate", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "termination: completed" in captured.out
        rows = read_csv_rows(out / "homo_diagnostics.csv")
        assert len(rows) == 3
        masses = [float(r["mass"]) for r in rows]
        assert masses[-1] == pytest.approx(masses[0], rel=1e-13)

    def test_alpha_warning_is_advisory(self, tmp_path, capsys):
        text = HOMOGENEOUS + "params.alpha = 2.0\nparams.n = 3\n"
        cfg = write_config(tmp_path, text)
        code = main(["simulate", cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == EXIT_OK  # warning only, run proceeds
        assert "alpha=2 outside (0, 5/6)" in captured.out
        assert "termination: completed" in captured.out

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS.replace("grid.n_cells = 32", ""))
        code = main(["simulate", cfg, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "grid.n_cells" in captured.err

    @pytest.mark.parametrize(
        "line",
        [
            "run.t_end = nan",
            "run.t_end = inf",
            "run.output_interval = nan",
            "run.blowup_factor = nan",
            "params.chi = nan",
            "grid.length = inf",
        ],
    )
    def test_nonfinite_value_is_usage_error(self, tmp_path, capsys, line):
        key = line.partition(" = ")[0]
        text = "\n".join(row for row in HOMOGENEOUS.splitlines() if not row.startswith(key))
        cfg = write_config(tmp_path, f"{text}\n{line}\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert key.rsplit(".", 1)[1] in err and "must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", [1, 3])
    def test_attractant_overflow_is_usage_error(self, tmp_path, capsys, n):
        text = HOMOGENEOUS.replace("initial.v0.amplitude = 1.0", "initial.v0.amplitude = 1e10")
        cfg = write_config(tmp_path, f"{text}params.chi = 1e300\nparams.n = {n}\n")
        out = tmp_path / "o"
        assert main(["simulate", cfg, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "config error: chi * max(v0) of the initial data must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_repellent_overflow_is_usage_error(self, tmp_path, capsys):
        text = HOMOGENEOUS.replace("grid.n_cells = 32", "grid.n_cells = 20").replace(
            "initial.u0.profile = constant", "initial.u0.profile = cosine-bump"
        )
        cfg = write_config(tmp_path, f"{text}grid.length = 1000\nparams.delta = 1e305\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: delta * h^2 must be finite, got delta = 1e+305 and h = 50")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "grid_and_delta, message",
        [
            ("grid.length = 1000\nparams.delta = 1e305\n",
             "error: delta * h^2 must be finite, got delta = 1e+305 and h = 50\n"),
            ("grid.length = 1e-20\nparams.delta = 1e-300\n",
             "error: delta * h^2 underflows to 0, got delta = 1e-300 and h = 5e-22\n"),
        ],
    )
    def test_failed_initial_solve_leaves_no_output(self, tmp_path, capsys, grid_and_delta, message):
        text = HOMOGENEOUS.replace("grid.n_cells = 32", "grid.n_cells = 20").replace(
            "initial.u0.profile = constant", "initial.u0.profile = cosine-bump"
        )
        cfg = write_config(tmp_path, text + grid_and_delta)
        out = tmp_path / "o"
        code = main(["simulate", cfg, "--out", str(out), "--snapshot-every", "0.01"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_snapshots_written_and_loadable(self, tmp_path):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "snaps"
        code = main(["simulate", cfg, "--out", str(out), "--snapshot-every", "0.02"])
        assert code == EXIT_OK
        snaps = sorted(out.glob("homo_u_*.dat"))
        assert snaps
        field, t = load_snapshot(snaps[0])
        assert field.spec.n_cells == (32,)
        assert np.all(field.values == 2.0)
        assert t >= 0.0

    @pytest.mark.parametrize("every", ["nan", "inf", "-1"])
    def test_bad_snapshot_interval_is_usage_error(self, tmp_path, capsys, every):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "o"
        assert main(["simulate", cfg, "--out", str(out), "--snapshot-every", every]) == EXIT_USAGE
        assert "--snapshot-every must be >= 0 and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["simulate", cfg, "--out", str(b)]) == EXIT_OK
        assert (a / "homo_diagnostics.csv").read_bytes() == (b / "homo_diagnostics.csv").read_bytes()


class TestOutUnderAFile:
    @pytest.mark.parametrize("below", [(), ("sub",), ("sub", "dir")])
    def test_simulate_fails_by_name_before_the_run(self, tmp_path, capsys, monkeypatch, below):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the run started"))
        before = sorted(tmp_path.rglob("*"))
        out = blocker.joinpath(*below)
        code = main(["simulate", cfg, "--out", str(out), "--snapshot-every", "0.01"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", [("figures", "fig1"), ("sweep", "CFG", "--xi", "1.0")])
    def test_other_commands_name_the_failure(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        argv = [cfg if arg == "CFG" else arg for arg in command]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [("simulate", "CFG"), ("sweep", "CFG", "--xi", "1.0"),
                                         ("figures", "fig1"), ("thresholds",)])
    def test_empty_out_is_named_before_anything_runs(self, tmp_path, capsys, monkeypatch, command):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("the run started"))
        before = sorted(tmp_path.rglob("*"))
        argv = [cfg if arg == "CFG" else arg for arg in command]
        assert main([*argv, "--out", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: --out must not be empty\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


SMALL_1D = """
grid.dim = 1
grid.n_cells = 17
initial.u0.profile = cosine-bump
initial.u0.amplitude = 2.0
initial.v0.profile = cosine-bump
initial.v0.amplitude = 1.0
params.chi = 5.0
run.t_end = 0.02
run.output_interval = 0.002
output.prefix = s1
"""

SMALL_2D = """
grid.dim = 2
grid.n_cells = 6 5
grid.length = 1.0 1.3
initial.u0.profile = cosine-bump
initial.u0.amplitude = 2.0
initial.u0.center = 0.3 0.6
initial.u0.width = 0.4 0.5
initial.v0.profile = cosine-bump
initial.v0.amplitude = 1.0
params.chi = 5.0
run.t_end = 0.02
run.output_interval = 0.002
output.prefix = s2
"""

BREAKDOWN = HOMOGENEOUS.replace("initial.v0.profile = constant",
                                "initial.v0.profile = cosine-bump") + "params.chi = 1e30\n"


def reference_snapshots(cfg, ref_dir):
    """Every record's u/v/w snapshot, written in-process by save_snapshot; the file names in
    record order."""
    run_config, prefix = config.build_run_config(config.parse_config(Path(cfg).read_text()))
    ref_dir.mkdir()
    names = []

    def callback(state, rec):
        for name, field in (("u", state.u), ("v", state.v), ("w", state.w)):
            names.append(f"{prefix}_{name}_{state.step:08d}.dat")
            save_snapshot(field, state.t, ref_dir / names[-1])

    run(run_config, callback=callback)
    return names


class TestSnapshotWriter:
    """simulate --snapshot-every hands its sets to a forked writer process."""

    @pytest.mark.parametrize("text", [SMALL_1D, SMALL_2D], ids=["1d", "2d"])
    @pytest.mark.parametrize("every, stride", [("1e-9", 1), ("0.005", 3)])
    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "without_fork"])
    def test_bytes_match_save_snapshot_of_the_same_states(
        self, tmp_path, monkeypatch, text, every, stride, fork
    ):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        cfg = write_config(tmp_path, text)
        names = reference_snapshots(cfg, tmp_path / "ref")
        sets = [names[i:i + 3] for i in range(0, len(names), 3)]
        expected = sorted(name for names_of_set in sets[::stride] for name in names_of_set)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out), "--snapshot-every", every]) == EXIT_OK
        written = sorted(path.name for path in out.glob("*.dat"))
        assert written == expected and len(sets) > 6
        for name in written:
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("which", [0, -1], ids=["first_set", "last_set"])
    def test_failed_write_is_named_and_writes_no_csv(self, tmp_path, capsys, which):
        cfg = write_config(tmp_path, SMALL_1D)
        names = reference_snapshots(cfg, tmp_path / "ref")
        blocked = tmp_path / "out" / names[::3][which]  # a u snapshot
        blocked.mkdir(parents=True)
        code = main(["simulate", cfg, "--out", str(tmp_path / "out"), "--snapshot-every", "1e-9"])
        reason = str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(blocked)))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "out" / "s1_diagnostics.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the writer runs in-process, where os._exit would end the tests")
    def test_writer_that_dies_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "save_snapshot", lambda *args: os._exit(3))
        cfg = write_config(tmp_path, SMALL_1D)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out), "--snapshot-every", "1e-9"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: snapshot writer ended with exit code 3\n"
        assert not (out / "s1_diagnostics.csv").exists()
        assert multiprocessing.active_children() == []

    def test_breakdown_leaves_no_process(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BREAKDOWN)
        out = tmp_path / "out"
        code = main(["simulate", cfg, "--out", str(out), "--snapshot-every", "0.01"])
        assert code == EXIT_BREAKDOWN
        assert "termination: breakdown" in capsys.readouterr().out
        assert len(list(out.glob("homo_[uvw]_*.dat"))) == 3
        assert multiprocessing.active_children() == []

    def test_interrupt_leaves_no_process(self, tmp_path, monkeypatch):
        def interrupted(run_config, callback):
            def stop_after_first_set(state, rec):
                callback(state, rec)
                raise KeyboardInterrupt

            return run(run_config, callback=stop_after_first_set)

        monkeypatch.setattr(cli, "run", interrupted)
        cfg = write_config(tmp_path, SMALL_1D)
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", cfg, "--out", str(tmp_path / "out"), "--snapshot-every", "1e-9"])
        assert multiprocessing.active_children() == []

    def test_run_without_snapshots_never_loads_multiprocessing(self, tmp_path):
        """In a fresh interpreter, import arcsim and a simulate without snapshots load no
        multiprocessing."""
        cfg = write_config(tmp_path, SMALL_1D)
        code = (
            "import sys\n"
            "import arcsim, arcsim.cli\n"
            f"argv = ['simulate', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]\n"
            "assert arcsim.cli.main([*argv, '--snapshot-every', '0']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"


class TestValidateConfig:
    def test_echoes_normalized_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        assert main(["validate-config", cfg]) == EXIT_OK
        captured = capsys.readouterr()
        assert "grid.n_cells = 32" in captured.out
        assert "run.t_end = 0.05" in captured.out

    def test_rejects_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS + "params.delta = -1\n")
        assert main(["validate-config", cfg]) == EXIT_USAGE
        assert "delta" in capsys.readouterr().err


class TestThresholds:
    def test_table_and_csv(self, tmp_path, capsys):
        code = main(
            ["thresholds", "--n", "2,3", "--p", "1.5", "--s", "1.0", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(tmp_path / "thresholds.csv")
        assert len(rows) == 2
        low = next(r for r in rows if r["n"] == "2")
        assert float(low["threshold_const"]) == 0.0
        assert float(low["xi_threshold"]) == 0.0
        assert float(low["critical_coeff"]) == 0.0
        high = next(r for r in rows if r["n"] == "3")
        assert float(high["xi_threshold"]) == pytest.approx(8.130551289532086, rel=1e-12)
        assert float(high["critical_coeff"]) == pytest.approx(8.130551289532086, rel=1e-12)

    def test_csv_bytes(self, tmp_path):
        code = main(["thresholds", "--n", "2,3", "--p", "1.5", "--s", "0,1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        const = f"{theory.threshold_constant(1.5, 3):.17g}"
        coeff = f"{theory.critical_coefficient(3):.17g}"
        assert (tmp_path / "thresholds.csv").read_text() == (
            "n,p,s,threshold_const,xi_threshold,critical_coeff\n"
            "2,1.5,0,0,0,0\n"
            "2,1.5,1,0,0,0\n"
            f"3,1.5,0,{const},0,{coeff}\n"
            f"3,1.5,1,{const},{theory.xi_threshold(1.5, 3, 1.0):.17g},{coeff}\n"
        )

    def test_invalid_p_rejected(self, capsys):
        assert main(["thresholds", "--p", "0.5"]) == EXIT_USAGE
        assert "p must be > 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--p", "nan", "p must be > 1 and finite, got nan"),
            ("--p", "inf", "p must be > 1 and finite, got inf"),
            ("--s", "nan", "s must be >= 0 and finite, got nan"),
        ],
    )
    def test_nonfinite_value_rejected(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "o"
        assert main(["thresholds", "--n", "3", flag, value, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("flag", ["--n", "--p", "--s"])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert main(["thresholds", flag, " ", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: empty {flag} list" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestFigures:
    def test_comparison_curves(self, tmp_path):
        code = main(["figures", "fig1", "--out", str(tmp_path), "--samples", "51"])
        assert code == EXIT_OK
        for n in (3, 4, 5, 6):
            rows = read_csv_rows(tmp_path / f"fig1_n{n}.csv")
            assert len(rows) == 51
            assert float(rows[0]["s"]) == 0.0
            assert float(rows[-1]["s"]) == pytest.approx(theory.COMPARISON_S_MAX[n])
            s = float(rows[-1]["s"])
            assert float(rows[-1]["C_xi"]) == pytest.approx(
                theory.critical_coefficient(n) * s ** (4.0 / n), rel=1e-12
            )

    def test_matched_curves_and_crossover(self, tmp_path):
        code = main(["figures", "fig2", "--out", str(tmp_path), "--samples", "41"])
        assert code == EXIT_OK
        assert (tmp_path / "fig2_rho0.csv").read_text() == "n,rho0\n" + "".join(
            f"{n},{theory.crossover_abscissa(n):.17g}\n" for n in (3, 4, 5, 6)
        )
        rho = {int(r["n"]): float(r["rho0"]) for r in read_csv_rows(tmp_path / "fig2_rho0.csv")}
        assert rho[3] == pytest.approx(0.598, abs=0.01)
        assert rho[6] == pytest.approx(0.285, abs=0.01)
        # at the right end of every plotted window the logistic demand dominates
        for n in (3, 4, 5, 6):
            rows = read_csv_rows(tmp_path / f"fig2_n{n}.csv")
            assert float(rows[-1]["C_mu"]) > float(rows[-1]["C_xi"])

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["figures", "fig1", "--samples", "0", "--out", str(out)]) == EXIT_USAGE
        assert "error: --samples must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_xi_sweep_rows_in_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        code = main(["sweep", cfg, "--xi", "0.5,1.0,2.0", "--jobs", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv_rows(out / "homo_sweep_xi.csv")
        assert [float(r["xi"]) for r in rows] == [0.5, 1.0, 2.0]
        assert all(r["termination"] == "completed" for r in rows)
        sups = {float(r["max_sup_u"]) for r in rows}
        assert sups == {2.0}  # homogeneous runs are xi-independent

    def test_summary_bytes(self, tmp_path):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--xi", "0.5,1", "--jobs", "1", "--out", str(out)]) == EXIT_OK
        assert (out / "homo_sweep_xi.csv").read_text() == (
            "xi,termination,max_sup_u,max_y_p,hypotheses_ok\n"
            "0.5,completed,2,4,True\n"
            "1,completed,2,4,True\n"
        )
        assert sorted(p.name for p in out.glob("*_diagnostics.csv")) == [
            "homo_xi_0.5_diagnostics.csv",
            "homo_xi_1_diagnostics.csv",
        ]

    @pytest.mark.parametrize(
        "xi, first, second",
        [("1.0000001,1.0000002,1", "1.0000001", "1.0000002"), ("1,1", "1.0", "1.0")],
    )
    def test_points_sharing_a_file_are_usage_error(self, tmp_path, capsys, xi, first, second):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--xi", xi, "--jobs", "2", "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --xi values {first} and {second} both write homo_xi_1_diagnostics.csv\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_failed_run_recorded_and_sweep_continues(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        code = main(["sweep", cfg, "--xi", "0.5,-1,2", "--jobs", "2", "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out.splitlines()
        assert captured[0].startswith("warning: run xi=-1 failed: ")
        assert "xi must be finite and > 0" in captured[0]
        assert captured[1] == f"wrote {out / 'homo_sweep_xi.csv'}"
        assert (out / "homo_sweep_xi.csv").read_text() == (
            "xi,termination,max_sup_u,max_y_p,hypotheses_ok\n"
            "0.5,completed,2,4,True\n"
            "-1,failed,nan,nan,None\n"
            "2,completed,2,4,True\n"
        )
        assert sorted(p.name for p in out.glob("*_diagnostics.csv")) == [
            "homo_xi_0.5_diagnostics.csv",
            "homo_xi_2_diagnostics.csv",
        ]

    def test_annotation_flips_at_threshold(self, tmp_path):
        text = HOMOGENEOUS + "params.n = 3\nparams.alpha = 0.5\nparams.chi = 1.0\n"
        cfg = write_config(tmp_path, text)
        needed = theory.critical_coefficient(3)  # chi*sup(v0) = 1 here
        lo, hi = 0.5 * needed, 2.0 * needed
        out = tmp_path / "sweep"
        code = main(["sweep", cfg, "--xi", f"{lo},{hi}", "--jobs", "1", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_csv_rows(out / "homo_sweep_xi.csv")
        assert rows[0]["hypotheses_ok"] == "False"
        assert rows[1]["hypotheses_ok"] == "True"

    @pytest.mark.parametrize("jobs, xi, workers", [("8", "1", 1), ("2", "0.5,1,2", 2),
                                                   ("3", "0.5,1", 2)])
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, monkeypatch, jobs, xi, workers):
        # a fake pool that records its size and runs each task in this process
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--xi", xi, "--jobs", jobs, "--out", str(out)]) == EXIT_OK
        assert sizes == [workers]
        assert len(read_csv_rows(out / "homo_sweep_xi.csv")) == len(xi.split(","))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("a pool was made"))
        cfg = write_config(tmp_path, HOMOGENEOUS)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg, "--xi", "1", "--jobs", jobs, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_empty_axis_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        assert main(["sweep", cfg, "--xi", " "]) == EXIT_USAGE
        assert "error: empty --xi list" in capsys.readouterr().err

    def test_exactly_one_axis_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HOMOGENEOUS)
        assert main(["sweep", cfg]) == EXIT_USAGE
        assert main(["sweep", cfg, "--xi", "1", "--chi", "1"]) == EXIT_USAGE


class TestMms:
    def test_too_few_refinements(self, capsys):
        assert main(["mms", "--refinements", "2"]) == EXIT_USAGE
        assert "refinements" in capsys.readouterr().err

    def test_constant_variant_skips_order_check(self, capsys):
        code = main(["mms", "--refinements", "3", "--base-cells", "8", "--t-end", "0.01",
                     "--variant", "constant"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert "skipped" in captured.out

    def test_verification_exit_code_reserved(self):
        assert EXIT_VERIFICATION == 3
