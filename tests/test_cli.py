import json

import numpy as np
import pytest

from saddlekit.cli import (
    CASE_MAP,
    EXIT_DIVERGED,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_USAGE,
    MAX_OMEGA_POINTS,
    main,
    parse_omega_grid,
    resolve_solver,
)
from saddlekit import cli
from saddlekit.cli import UsageError
from saddlekit.linalg import NotPositiveDefinite
from saddlekit.solvers import STAGNATED, IterationReport, SolveConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_omega_grid(self):
        assert parse_omega_grid("0.5:1.5:0.5") == [0.5, 1.0, 1.5]
        assert parse_omega_grid("1:1:1") == [1.0]
        assert parse_omega_grid("1:10000:1") == [float(k) for k in range(1, MAX_OMEGA_POINTS + 1)]

    def test_omega_grid_errors(self):
        # the last grid's (b - a) / step overflows to inf
        for bad in ("1:2", "2:1:0.5", "1:2:-1", "a:b:c", "-1e308:1e308:1e-300", "0:0.02:0.01"):
            with pytest.raises(UsageError):
                parse_omega_grid(bad)
        with pytest.raises(UsageError, match="1000001 points, more than 10000"):
            parse_omega_grid("0.1:0.2:1e-7")

    def test_case_map_families(self):
        assert CASE_MAP["I"] == ("constraint", "symmetric_scaled")
        assert CASE_MAP["II"] == ("constraint", "triangular_split")
        assert CASE_MAP["IV"] == ("block_diag", "triangular_split")
        assert CASE_MAP["V"] == ("block_tri", "symmetric_scaled")

    def test_solver_gating(self):
        with pytest.raises(UsageError):
            resolve_solver("VI", "gcp")
        with pytest.raises(UsageError):
            resolve_solver("I", "stationary")
        assert resolve_solver("I", None) == "gcp"
        assert resolve_solver("V", None) == "stationary"
        assert resolve_solver("VI", "qmr") == "qmr"


class TestGen:
    def test_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sys"
        code, stdout, _ = run(capsys, "gen", "-l", "4", "--nu", "1.0",
                              "--out", str(out))
        assert code == EXIT_OK
        assert json.loads(stdout) == {"l": 4, "nu": 1.0, "n": 24, "m": 16}
        for name in ("W.mtx", "B.mtx", "f.mtx", "g.mtx", "meta.json"):
            assert (out / name).exists()

    def test_coarse_grid_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen", "-l", "3", "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE


class TestSolve:
    def test_converged_exit_zero(self, capsys):
        code, out, _ = run(capsys, "solve", "--case", "I", "--solver", "gcp",
                           "-l", "8", "--nu", "0.1", "--omega", "1.0")
        assert code == EXIT_OK
        assert "converged" in out

    def test_max_iters_exit_two(self, capsys):
        code, out, _ = run(capsys, "solve", "--case", "I", "-l", "8",
                           "--nu", "0.1", "--omega", "1.0", "--max-iters", "2")
        assert code == EXIT_MAX_ITERS

    def test_divergence_exit_three(self, capsys):
        code, out, _ = run(capsys, "solve", "--case", "I", "-l", "8",
                           "--nu", "0.1", "--omega", "0.05")
        assert code == EXIT_DIVERGED

    def test_case_solver_mismatch_usage(self, capsys):
        code, _, err = run(capsys, "solve", "--case", "VI", "--solver", "gcp",
                           "-l", "8", "--omega", "1.0")
        assert code == EXIT_USAGE
        assert "gmres or qmr" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "solve", "--case", "I", "-l", "8",
                           "--nu", "0.1", "--omega", "1.0", "--format", "json")
        payload = json.loads(out)
        assert payload["converged"] is True and payload["case"] == "I"

    def test_deterministic_output(self, capsys, tmp_path):
        args = ("solve", "--case", "I", "-l", "8", "--nu", "0.1",
                "--omega", "1.0", "--seed", "3")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_csv_sorted_with_best(self, capsys):
        code, out, _ = run(capsys, "sweep", "--case", "I", "-l", "8",
                           "--nu", "0.1", "--omega-grid", "0.8:1.2:0.2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "omega,iterations,final_res,status"
        omegas = [float(l.split(",")[0]) for l in lines[1:-1]]
        assert omegas == sorted(omegas)
        assert lines[-1].startswith("# best_omega=")

    def test_singleton_matches_solve(self, capsys):
        _, solve_out, _ = run(capsys, "solve", "--case", "I", "-l", "8",
                              "--nu", "0.1", "--omega", "1.0")
        _, sweep_out, _ = run(capsys, "sweep", "--case", "I", "-l", "8",
                              "--nu", "0.1", "--omega-grid", "1:1:1")
        it_solve = solve_out.strip().splitlines()[1].split(",")[2]
        it_sweep = sweep_out.strip().splitlines()[1].split(",")[1]
        assert it_solve == it_sweep


class TestAnalyze:
    def test_reports_gamma_and_bounds(self, capsys):
        code, out, _ = run(capsys, "analyze", "--case", "I", "-l", "8",
                           "--nu", "0.1", "--omega", "1.0")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["gamma_XPW"] < 1.0
        assert {"omega_bound_symmetric", "omega_bound_triangular",
                "pd_bound"} <= set(payload)
        assert payload["lemma4_null_ok"] and payload["lemma4_index_ok"]

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, "analyze", "--case", "I", "-l", "32",
                           "--omega", "1.0")
        assert code == EXIT_USAGE

    def test_pd_refusal(self, capsys):
        code, _, err = run(capsys, "analyze", "--case", "II", "-l", "8",
                           "--nu", "0.1", "--omega", "50.0")
        assert code == EXIT_USAGE
        assert "positive definite" in err


def test_sweep_ignores_thread_variable(capsys, monkeypatch):
    # the sweep reads no environment variable: a thread count of 0 changes nothing
    argv = ("sweep", "--case", "I", "-l", "4", "--omega-grid", "1:1:1")
    want = run(capsys, *argv)
    monkeypatch.setenv("SADDLEKIT_THREADS", "0")
    got = run(capsys, *argv)
    assert want[0] == EXIT_OK
    assert got == want


def test_table_grid_guard(capsys):
    code, _, err = run(capsys, "table", "2", "-l", "8")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("solve", "--case", "I", "-l", "2", "--omega", "1.0"),
    ("solve", "--case", "I", "-l", "4", "--nu", "-1", "--omega", "1.0"),
    ("solve", "--case", "I", "-l", "4", "--omega", "0"),
    ("sweep", "--case", "I", "-l", "2", "--omega-grid", "1:1:1"),
    ("sweep", "--case", "I", "-l", "4", "--nu", "-1", "--omega-grid", "1:1:1"),
    ("analyze", "--case", "I", "-l", "2", "--omega", "1.0"),
    ("analyze", "--case", "I", "-l", "4", "--nu", "-1", "--omega", "1.0"),
    ("solve", "--case", "I", "-l", "4", "--omega", "nan"),
    ("solve", "--case", "I", "-l", "4", "--omega", "inf"),
    ("solve", "--case", "I", "-l", "4", "--nu", "nan", "--omega", "1.0"),
    ("solve", "--case", "I", "-l", "4", "--nu", "inf", "--omega", "1.0"),
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "nan:1:0.1"),
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "0.1:inf:0.1"),
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "0.1:0.2:inf"),
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "0.1:0.2:1e-7"),
    ("sweep", "--case", "II", "-l", "4", "--omega-grid", "0:0.02:0.01"),
    ("solve", "--case", "IV", "-l", "8", "--omega", "1e300"),
    ("solve", "--case", "VI", "-l", "8", "--omega", "1e300"),
    ("solve", "--case", "II", "-l", "8", "--omega", "1e-320"),
], ids=["solve-l", "solve-nu", "solve-omega", "sweep-l", "sweep-nu", "analyze-l", "analyze-nu",
        "solve-omega-nan", "solve-omega-inf", "solve-nu-nan", "solve-nu-inf",
        "sweep-grid-nan-a", "sweep-grid-inf-b", "sweep-grid-inf-step", "sweep-grid-too-large",
        "sweep-grid-zero-a", "solve-IV-omega-huge", "solve-VI-omega-huge",
        "solve-II-omega-tiny"])
def test_bad_input_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("saddlekit: error:")


@pytest.mark.parametrize("case,omega,reason", [
    ("IV", "1e300", "infs or NaNs"),  # P^{-1} overflows while forming E
    ("III", "1e-320", "P is singular"),  # omega H underflows to a singular factor
], ids=["overflow", "singular"])
def test_unusable_omega_names_omega(capsys, case, omega, reason):
    # a point a sweep records as infeasible: solve says which omega and why
    code, out, err = run(capsys, "solve", "--case", case, "-l", "8", "--omega", omega)
    assert code == EXIT_USAGE and out == ""
    assert f"--omega {float(omega):g}: " in err and reason in err


def test_sweep_json_is_strict(capsys):
    # the infeasible rows have no RES: null, never the non-JSON NaN
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    code, out, _ = run(capsys, "sweep", "--case", "IV", "-l", "8", "--max-iters", "20",
                       "--omega-grid", "0.5:1e300:5e299", "--format", "json")
    assert code == EXIT_OK
    runs = json.loads(out, parse_constant=refuse)["runs"]
    assert [r["status"] for r in runs] == ["diverged", "infeasible", "infeasible"]
    assert runs[0]["final_res"] > 0 and runs[1]["final_res"] is None


@pytest.mark.parametrize("command, argv, target", [
    ("solve", ("--case", "I", "-l", "4", "--omega", "1"), "missing/x.csv"),
    ("sweep", ("--case", "I", "-l", "4", "--omega-grid", "1:1:1"), "missing/x.csv"),
    ("analyze", ("--case", "I", "-l", "4", "--omega", "1"), "missing/x.json"),
    ("table", ("2", "-l", "16"), "missing/x.csv"),
    ("gen", ("-l", "4"), "file"),
    ("solve", ("--case", "I", "-l", "4", "--omega", "1"), "."),
], ids=["solve", "sweep", "analyze", "table", "gen", "solve-dir"])
def test_unwritable_out_usage_error(capsys, monkeypatch, tmp_path, command, argv, target):
    # a missing directory or a directory given as the file (gen: an existing
    # file) is refused before any system is built
    def no_work(*args, **kwargs):
        raise AssertionError("work started before checking --out")

    (tmp_path / "file").write_text("")
    out = str(tmp_path / target)
    monkeypatch.setattr(cli, "build_oseen", no_work)
    code, stdout, err = run(capsys, command, *argv, "--out", out)
    assert code == EXIT_USAGE
    assert stdout == ""
    assert out in err


def test_stagnated_exit_three(capsys, monkeypatch):
    # every end other than converged and max_iters exits 3, stagnated included
    def stagnated(solver, system, pc, cfg, case_label=""):
        return IterationReport(iterations=9, residual_history=[1.0, 0.5], omega=1.0,
                               case_label=case_label, status=STAGNATED)

    monkeypatch.setattr(cli, "solve_with", stagnated)
    code, out, _ = run(capsys, "solve", "--case", "I", "-l", "4", "--omega", "1")
    assert code == EXIT_DIVERGED
    assert "stagnated" in out


def test_internal_value_error_not_a_usage_error(capsys, monkeypatch):
    # only the input-validating calls are wrapped; a fault deeper down still raises
    def broken(*args, **kwargs):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "solve_with", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["solve", "--case", "I", "-l", "4", "--omega", "1.0"])


@pytest.mark.parametrize("argv", [
    ("solve", "--case", "I", "-l", "4", "--omega", "1", "--tol", "-1"),
    ("solve", "--case", "I", "-l", "4", "--omega", "1", "--max-iters", "0"),
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "1:1:1", "--restart", "0"),
    ("table", "2", "-l", "16", "--tol", "-1"),
    ("solve", "--case", "I", "-l", "4", "--omega", "1", "--tol", "nan"),
    ("solve", "--case", "I", "-l", "4", "--omega", "1", "--tol", "inf"),
], ids=["solve-tol", "solve-max-iters", "sweep-restart", "table-tol", "solve-tol-nan",
        "solve-tol-inf"])
def test_bad_solve_config_usage_error(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before validating the solve configuration")

    monkeypatch.setattr(cli, "build_oseen", no_work)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "invalid solve configuration" in err


@pytest.mark.parametrize("argv", [
    ("solve", "--case", "I", "-l", "4", "--nu", "0.001", "--omega", "1"),
    ("analyze", "--case", "I", "-l", "4", "--nu", "0.001", "--omega", "1"),
    ("solve", "--case", "III", "-l", "5", "--nu", "0.001", "--omega", "1"),
    # case II builds without the SPD check on H; the omega bounds run it
    ("analyze", "--case", "II", "-l", "4", "--nu", "0.001", "--omega", "0.01"),
    ("sweep", "--case", "I", "-l", "4", "--nu", "0.001", "--omega-grid", "1:2:1"),
    ("sweep", "--case", "III", "-l", "5", "--nu", "0.001", "--omega-grid", "1:2:1"),
], ids=["solve-I-l4", "analyze-I-l4", "solve-III-l5", "analyze-II-bounds", "sweep-I-l4",
        "sweep-III-l5"])
def test_indefinite_sym_w_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    l = argv[argv.index("-l") + 1]
    assert "sym(W) > 0" in err
    assert f"l={l}" in err and "nu=0.001" in err


def test_not_positive_definite_from_solver_propagates(monkeypatch):
    # only the build and the bounds are wrapped; a solver fault still raises
    def broken(*args, **kwargs):
        raise NotPositiveDefinite("not an input error")

    monkeypatch.setattr(cli, "solve_with", broken)
    with pytest.raises(NotPositiveDefinite, match="not an input error"):
        main(["solve", "--case", "I", "-l", "4", "--omega", "1.0"])


@pytest.mark.parametrize("flag", [("--tol", "5"), ("--max-iters", "3"), ("--restart", "2"),
                                  ("--format", "csv")], ids=lambda f: f[0])
def test_analyze_rejects_solve_flags(capsys, monkeypatch, flag):
    # analyze runs no solve and prints JSON only: these flags would be ignored
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected command line")

    monkeypatch.setattr(cli, "build_oseen", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--case", "I", "-l", "6", "--omega", "1", *flag])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("argv", [
    ("solve", "--case", "I", "--omega", "1"),
    ("sweep", "--case", "I", "--omega-grid", "1:1:1"),
    ("table", "2"),
], ids=["solve", "sweep", "table"])
def test_solve_flag_defaults_are_solve_config(argv):
    args = cli.make_parser().parse_args(list(argv))
    cfg = SolveConfig()
    assert (args.tol, args.max_iters, args.restart) == (cfg.tol, cfg.max_iters, cfg.restart)


def test_python_m_saddlekit(tmp_path):
    # `python -m saddlekit` runs the same command line as the installed script
    import os
    import subprocess
    import sys
    from pathlib import Path

    import saddlekit

    env = dict(os.environ)
    src = str(Path(saddlekit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["solve", "--case", "I", "--solver", "gcp", "-l", "4", "--nu", "0.5", "--omega", "1.0"]
    proc = subprocess.run([sys.executable, "-m", "saddlekit", *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "converged" in proc.stdout
    usage = subprocess.run([sys.executable, "-m", "saddlekit", "table", "5"], env=env,
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert usage.returncode == EXIT_USAGE
