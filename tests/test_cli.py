import json

import numpy as np
import pytest

from saddlekit.cli import (
    CASE_MAP,
    EXIT_DIVERGED,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_omega_grid,
    resolve_solver,
)
from saddlekit import cli
from saddlekit.cli import UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_omega_grid(self):
        assert parse_omega_grid("0.5:1.5:0.5") == [0.5, 1.0, 1.5]
        assert parse_omega_grid("1:1:1") == [1.0]

    def test_omega_grid_errors(self):
        for bad in ("1:2", "2:1:0.5", "1:2:-1", "a:b:c"):
            with pytest.raises(UsageError):
                parse_omega_grid(bad)

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


@pytest.mark.parametrize("argv", [
    ("sweep", "--case", "I", "-l", "4", "--omega-grid", "1:1:1"),
    ("table", "2", "-l", "16"),
])
def test_bad_thread_count_usage(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before validating SADDLEKIT_THREADS")

    monkeypatch.setattr(cli, "build_oseen", no_work)
    monkeypatch.setattr(cli, "run_table", no_work)
    monkeypatch.setenv("SADDLEKIT_THREADS", "0")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "SADDLEKIT_THREADS" in err


def test_table_grid_guard(capsys):
    code, _, err = run(capsys, "table", "2", "-l", "8")
    assert code == EXIT_USAGE
