from types import SimpleNamespace

import numpy as np
import pytest

from saddlekit import tables
from saddlekit.solvers import CONVERGED, MAX_ITERS, IterationReport, SolveConfig
from saddlekit.tables import (
    CASE_MAP,
    CASES,
    DASH_GRID,
    PUBLISHED_OMEGA,
    TABLE_SOLVER,
    resolve_solver,
    run_table,
)


def test_case_map_families():
    assert CASE_MAP["I"] == ("constraint", "symmetric_scaled")
    assert CASE_MAP["II"] == ("constraint", "triangular_split")
    assert CASE_MAP["IV"] == ("block_diag", "triangular_split")
    assert CASE_MAP["V"] == ("block_tri", "symmetric_scaled")


def test_solver_gating():
    with pytest.raises(ValueError, match="gmres or qmr"):
        resolve_solver("VI", "gcp")
    with pytest.raises(ValueError, match="gmres or qmr"):
        resolve_solver("I", "stationary")
    assert resolve_solver("I", None) == "gcp"
    assert resolve_solver("V", None) == "stationary"
    assert resolve_solver("VI", "qmr") == "qmr"


@pytest.mark.parametrize("table_id,l,refusal", [
    *[pytest.param(2, l, r"tabulated for l in \{16, 32\}", id=str(l)) for l in (4, 8, 17, 64)],
    pytest.param(5, 16, "no table 5: tables are 2, 3, 4", id="table5"),
])
def test_run_table_refuses_untabulated_grid(monkeypatch, table_id, l, refusal):
    # an l with no published omega would print a table of dash checks; the
    # table id is checked with it, before the first system is built
    def no_work(*args, **kwargs):
        raise AssertionError("built a system for an untabulated table")

    monkeypatch.setattr(tables, "build_oseen", no_work)
    with pytest.raises(ValueError, match=refusal):
        run_table(table_id, l, SolveConfig())


def test_run_table_row_shapes(monkeypatch):
    # each cell is one sweep and one best run; the row reads (published omega,
    # best): the best run, a published nonconvergent cell, a confirmed dash,
    # or a dash that some omega of DASH_GRID converged
    converged_at = {("I", 0.1): 2, ("IV", 0.1): 5}  # (case, nu) -> grid index
    sweeps = []

    def sweep(system, family, kind, grid, solver, cfg, case_label):
        assert CASE_MAP[case_label] == (family, kind)
        sweeps.append((system.nu, case_label, grid, solver))
        hit = converged_at.get((case_label, system.nu))
        return [IterationReport(9 if i == hit else 5000, [0.5], w, case_label,
                                CONVERGED if i == hit else MAX_ITERS)
                for i, w in enumerate(grid)]

    monkeypatch.setattr(tables, "build_oseen", lambda l, nu, seed=0: SimpleNamespace(nu=nu))
    monkeypatch.setattr(tables, "omega_sweep", sweep)
    rows = run_table(2, 16, SolveConfig())
    assert [(row["nu"], row["case"]) for row in rows] == [
        (nu, case) for nu in (0.1, 0.001) for case in CASES]
    by_cell = {(row["nu"], row["case"]): row for row in rows}
    # published, converged: the best omega of {0.9, 1, 1.1} x 1.00
    assert by_cell[0.1, "I"] == {"nu": 0.1, "case": "I", "omega": "1.1", "iterations": 9,
                                 "status": CONVERGED}
    # published, none converged
    assert by_cell[0.1, "II"] == {"nu": 0.1, "case": "II", "omega": "0.98",
                                  "iterations": "-", "status": "nonconvergent"}
    # dash, none converged
    assert by_cell[0.1, "III"] == {"nu": 0.1, "case": "III", "omega": "-",
                                   "iterations": "-", "status": "nonconvergent"}
    # dash, some omega converged
    assert by_cell[0.1, "IV"] == {"nu": 0.1, "case": "IV", "omega": "-",
                                  "iterations": "-", "status": "CONVERGED?"}
    for nu, case, grid, solver in sweeps:
        omega = PUBLISHED_OMEGA[2].get((case, nu, 16))
        want = DASH_GRID if omega is None else [0.9 * omega, omega, 1.1 * omega]
        assert np.array_equal(grid, want)
        assert solver == resolve_solver(case, TABLE_SOLVER[2])
