"""The paper's experiments: Cases I-VI and its three benchmark tables.

Cases map onto preconditioner families exactly as in the benchmark setup:
I/II constraint, III/IV block-diagonal, V/VI block-triangular; odd cases
use the symmetric scaled P = omega*H, even cases the triangular split.
"""

from __future__ import annotations

import numpy as np

from .precond import BLOCK_DIAG, BLOCK_TRI, CONSTRAINT, SYMMETRIC_SCALED, TRIANGULAR_SPLIT
from .problems import build_oseen
from .solvers import SolveConfig, best_report, omega_sweep

CASE_MAP = {
    "I": (CONSTRAINT, SYMMETRIC_SCALED),
    "II": (CONSTRAINT, TRIANGULAR_SPLIT),
    "III": (BLOCK_DIAG, SYMMETRIC_SCALED),
    "IV": (BLOCK_DIAG, TRIANGULAR_SPLIT),
    "V": (BLOCK_TRI, SYMMETRIC_SCALED),
    "VI": (BLOCK_TRI, TRIANGULAR_SPLIT),
}
CASES = tuple(CASE_MAP)

# Published optimal omega per (table, case, nu, l); None marks a cell that
# did not converge within 5000 steps for any omega in (0, 2000].
PUBLISHED_OMEGA = {
    2: {
        ("I", 0.1, 16): 1.00, ("I", 0.1, 32): 1.00,
        ("II", 0.1, 16): 0.98, ("II", 0.1, 32): 0.99,
        ("II", 0.001, 16): 0.08, ("II", 0.001, 32): 0.16,
    },
    3: {
        ("I", 0.1, 16): 1.50, ("I", 0.1, 32): 1.61,
        ("II", 0.1, 16): 0.63, ("II", 0.1, 32): 0.64,
        ("III", 0.1, 16): 0.03, ("III", 0.1, 32): 0.02,
        ("IV", 0.1, 16): 0.02, ("IV", 0.1, 32): 0.02,
        ("V", 0.1, 16): 0.01, ("V", 0.1, 32): 0.02,
        ("I", 0.001, 16): 26.40, ("I", 0.001, 32): 28.62,
        ("II", 0.001, 16): 0.04, ("II", 0.001, 32): 0.05,
        ("III", 0.001, 16): 0.04, ("III", 0.001, 32): 0.02,
        ("IV", 0.001, 16): 0.06, ("IV", 0.001, 32): 0.10,
        ("V", 0.001, 16): 0.02, ("V", 0.001, 32): 0.01,
    },
    4: {
        ("I", 0.1, 16): 1.52, ("I", 0.1, 32): 1.59,
        ("II", 0.1, 16): 0.60, ("II", 0.1, 32): 0.63,
        ("III", 0.1, 16): 2.12, ("III", 0.1, 32): 2.11,
        ("IV", 0.1, 16): 1.00, ("IV", 0.1, 32): 0.99,
        ("V", 0.1, 16): 1.26, ("V", 0.1, 32): 1.11,
        ("VI", 0.1, 16): 0.90, ("VI", 0.1, 32): 0.85,
        ("I", 0.001, 16): 24.10, ("I", 0.001, 32): 21.60,
        ("II", 0.001, 16): 0.06, ("II", 0.001, 32): 0.05,
        ("IV", 0.001, 16): 0.09, ("IV", 0.001, 32): 0.11,
        ("V", 0.001, 16): 28.35, ("V", 0.001, 32): 25.67,
        ("VI", 0.001, 16): 0.02, ("VI", 0.001, 32): 0.04,
    },
}
# the grid sizes l the paper publishes omegas for
TABULATED_L = tuple(sorted({l for cells in PUBLISHED_OMEGA.values() for _, _, l in cells}))
# the columns of a table row, in printing order
COLUMNS = ("nu", "case", "omega", "iterations", "status")
# None: the case's own scheme (resolve_solver)
TABLE_SOLVER = {2: None, 3: "gmres", 4: "qmr"}
DASH_GRID = np.geomspace(1e-3, 2000.0, 10)


def resolve_solver(case: str, solver: str | None) -> str:
    """Check the case/solver pairing; 'gcp' needs a singular family.

    None picks the case's own scheme: 'stationary' for the block-triangular
    family, 'gcp' for the singular ones.  A mismatched pair is a ValueError.
    """
    family = CASE_MAP[case][0]
    if solver is None:
        return "stationary" if family == BLOCK_TRI else "gcp"
    if solver == "gcp" and family == BLOCK_TRI:
        raise ValueError(
            f"case {case} uses the nonsingular block-triangular preconditioner; "
            "the GCP scheme applies a Moore-Penrose inverse and targets the "
            "singular families (cases I-IV).  Use --solver stationary, gmres or qmr.")
    if solver == "stationary" and family != BLOCK_TRI:
        raise ValueError(
            f"case {case} uses a singular preconditioner; the stationary scheme "
            "with an exact inverse needs cases V/VI.  Use --solver gcp, gmres or qmr.")
    return solver


def check_tabulated(table_id: int, l: int):
    """Refuse a table the paper does not print, or a grid size it publishes no omega for."""
    if table_id not in PUBLISHED_OMEGA:
        raise ValueError(f"no table {table_id}: tables are {', '.join(map(str, PUBLISHED_OMEGA))}")
    if l not in TABULATED_L:
        sizes = ", ".join(map(str, TABULATED_L))
        raise ValueError(f"published omegas are tabulated for l in {{{sizes}}}")


def run_table(table_id: int, l: int, cfg: SolveConfig, seed: int = 0) -> list[dict]:
    """Long-form rows (nu, case, omega, iterations, status) for one table.

    Every cell is one sweep: {0.9, 1.0, 1.1} x its published omega, or
    DASH_GRID for a published dash.  A published cell reads its best
    converged run; a dash is confirmed when no omega converges and reads
    CONVERGED? otherwise.
    """
    check_tabulated(table_id, l)
    rows = []
    for nu in (0.1, 0.001):
        system = build_oseen(l, nu, seed=seed)
        for case in CASES:
            solver = resolve_solver(case, TABLE_SOLVER[table_id])
            omega = PUBLISHED_OMEGA[table_id].get((case, nu, l))
            grid = DASH_GRID if omega is None else [0.9 * omega, omega, 1.1 * omega]
            best = best_report(omega_sweep(system, *CASE_MAP[case], grid, solver=solver,
                                           cfg=cfg, case_label=case))
            if best is None:
                cell = ("-" if omega is None else f"{omega:g}", "-", "nonconvergent")
            elif omega is None:
                cell = ("-", "-", "CONVERGED?")
            else:
                cell = (f"{best.omega:g}", best.iterations, best.status)
            rows.append(dict(zip(COLUMNS, (nu, case, *cell))))
    return rows
