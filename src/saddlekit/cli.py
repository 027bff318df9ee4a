"""Command-line front end: generate problems, solve, sweep, analyze, tabulate.

Cases map onto preconditioner families exactly as in the benchmark setup:
I/II constraint, III/IV block-diagonal, V/VI block-triangular; odd cases
use the symmetric scaled P = omega*H, even cases the triangular split.

Exit codes: 0 converged, 2 iteration limit, 3 any other end of a solve
(diverged, breakdown, stagnated), 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import check_lemma4, omega_bound_symmetric, omega_bound_triangular
from .linalg import LinAlgFailure, NotPositiveDefinite
from .precond import (
    BLOCK_DIAG,
    BLOCK_TRI,
    CONSTRAINT,
    PChoice,
    SYMMETRIC_SCALED,
    TRIANGULAR_SPLIT,
    build,
    pd_bound,
)
from .problems import build_oseen, export
from .solvers import (
    MAX_ITERS,
    SolveConfig,
    best_report,
    omega_sweep,
    solve_with,
)

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3
EXIT_USAGE = 64

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
# None: the case's own scheme (resolve_solver)
TABLE_SOLVER = {2: None, 3: "gmres", 4: "qmr"}
DASH_GRID = np.geomspace(1e-3, 2000.0, 10)
#: Largest omega grid ``parse_omega_grid`` accepts; each point is one build and one solve.
MAX_OMEGA_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def parse_omega_grid(text: str) -> list[float]:
    """Parse 'a:b:step' into an inclusive arithmetic grid."""
    try:
        a, b, step = (float(t) for t in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad omega grid {text!r}: expected a:b:step") from exc
    if not np.isfinite([a, b, step]).all() or a <= 0 or step <= 0 or b < a:
        raise UsageError(f"bad omega grid {text!r}: need finite 0 < a <= b and step > 0")
    # np.arange's own length, before its ceiling; an overflow reads inf
    count = (b + 0.5 * step - a) / step
    if count > MAX_OMEGA_POINTS:
        size = f"{math.ceil(count)} points" if math.isfinite(count) else "too many points"
        raise UsageError(f"bad omega grid {text!r}: {size}, more than {MAX_OMEGA_POINTS}")
    return [float(w) for w in np.arange(a, b + 0.5 * step, step)]


def resolve_solver(case: str, solver: str | None) -> str:
    """Check the case/solver pairing; 'gcp' needs a singular family.

    None picks the case's own scheme: 'stationary' for the block-triangular
    family, 'gcp' for the singular ones.
    """
    family = CASE_MAP[case][0]
    if solver is None:
        return "stationary" if family == BLOCK_TRI else "gcp"
    if solver == "gcp" and family == BLOCK_TRI:
        raise UsageError(
            f"case {case} uses the nonsingular block-triangular preconditioner; "
            "the GCP scheme applies a Moore-Penrose inverse and targets the "
            "singular families (cases I-IV).  Use --solver stationary, gmres or qmr.")
    if solver == "stationary" and family != BLOCK_TRI:
        raise UsageError(
            f"case {case} uses a singular preconditioner; the stationary scheme "
            "with an exact inverse needs cases V/VI.  Use --solver gcp, gmres or qmr.")
    return solver


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), its input-validation ValueError a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _premised(system, make, *args, **kwargs):
    """make(*args, **kwargs), a NotPositiveDefinite from an indefinite sym(W) a usage error."""
    try:
        return make(*args, **kwargs)
    except NotPositiveDefinite as exc:
        raise UsageError(
            f"the premise sym(W) > 0 fails on the l={system.l} grid at nu={system.nu:g} "
            f"({exc}); use a finer grid or a larger nu") from exc


def _solve_config(args) -> SolveConfig:
    return _checked(SolveConfig, tol=args.tol, max_iters=args.max_iters,
                    restart=args.restart)


def build_case(system, case: str, omega: float, enforce_pd: bool = False):
    """The case's preconditioner.  An omega that a sweep would record as
    infeasible (the PD gate, a P that overflows, a singular factor) is a
    usage error that names omega."""
    family, kind = CASE_MAP[case]
    p_choice = _checked(PChoice, kind=kind, omega=omega)
    try:
        return _premised(system, build, system, family, p_choice, enforce_pd=enforce_pd)
    except (ValueError, LinAlgFailure) as exc:
        raise UsageError(f"--omega {omega:g}: {exc}") from exc


def sweep_case(system, case: str, grid, solver: str, cfg: SolveConfig):
    """One report per grid omega for a case, built without the PD gate."""
    family, kind = CASE_MAP[case]
    return _premised(system, omega_sweep, system, family, kind, grid, solver=solver, cfg=cfg,
                     case_label=case, enforce_pd=False)


# every flag that more than one command takes, declared once:
# name -> (option strings, add_argument keywords)
_FLAGS = {
    "l": (("-l", "--grid"), dict(type=int, default=16, dest="l",
                                 help="cells per side of the MAC grid (default 16)")),
    "nu": (("--nu",), dict(type=float, default=0.1, help="viscosity (default 0.1)")),
    "case": (("--case",), dict(choices=CASES, required=True)),
    "tol": (("--tol",), dict(type=float, default=SolveConfig.tol)),
    "max_iters": (("--max-iters",), dict(type=int, default=SolveConfig.max_iters)),
    "restart": (("--restart",), dict(type=int, default=SolveConfig.restart)),
    "seed": (("--seed",), dict(type=int, default=0)),
    "format": (("--format",), dict(choices=("csv", "json"), default="csv")),
    "out": (("--out",), dict(default=None, help="output file (default: stdout)")),
    "solver": (("--solver",), dict(choices=("gcp", "stationary", "gmres", "qmr"))),
    "omega": (("--omega",), dict(type=float, required=True)),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    for name in names:
        options, kwargs = _FLAGS[name]
        p.add_argument(*options, **kwargs)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saddlekit",
                     description="Singular saddle-point solver toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate and export a cavity problem")
    _add_flags(g, "l", "nu", "seed")
    g.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("solve", help="run a single solve")
    _add_flags(s, "l", "nu", "case", "tol", "max_iters", "restart", "seed", "format", "out",
               "solver", "omega")

    w = sub.add_parser("sweep", help="solve over an omega grid")
    _add_flags(w, "l", "nu", "case", "tol", "max_iters", "restart", "seed", "format", "out",
               "solver")
    w.add_argument("--omega-grid", required=True, metavar="a:b:step")

    a = sub.add_parser("analyze", help="spectral diagnostics for one case")
    _add_flags(a, "l", "nu", "case", "seed", "out", "omega")

    t = sub.add_parser("table", help="reproduce a benchmark table")
    t.add_argument("table_id", type=int, choices=(2, 3, 4))
    _add_flags(t, "l", "tol", "max_iters", "restart", "seed", "out")
    return parser


def _check_out(command: str, out: str | None):
    """Refuse an --out that cannot be written, before any work is done.

    gen writes a directory, so every existing part of its path must be one;
    the other commands write one file into an existing directory.
    """
    if out is None:
        return
    path = Path(out)
    if command == "gen":
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise UsageError(f"--out {out}: {existing} exists and is not a directory")
    elif path.is_dir():
        raise UsageError(f"--out {out}: is a directory")
    elif not path.parent.is_dir():
        raise UsageError(f"--out {out}: directory {path.parent} does not exist")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _report_payload(report):
    return {
        "converged": report.converged,
        "iterations": report.iterations,
        "final_res": report.final_res if math.isfinite(report.final_res) else None,
        "omega": report.omega,
        "status": report.status,
        "case": report.case_label,
    }


def _report_text(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_report_payload(report), indent=2, default=float,
                          allow_nan=False) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["case", "omega", "iterations", "final_res", "status"])
    w.writerow([report.case_label, f"{report.omega:g}", report.iterations,
                f"{report.final_res:.6e}", report.status])
    return buf.getvalue()


def cmd_gen(args) -> int:
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    meta = export(system, args.out)
    print(json.dumps(meta, allow_nan=False))
    return EXIT_OK


def cmd_solve(args) -> int:
    solver = resolve_solver(args.case, args.solver)
    cfg = _solve_config(args)
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    pc = build_case(system, args.case, args.omega)
    report = solve_with(solver, system, pc, cfg, case_label=args.case)
    _emit(_report_text(report, args.format), args.out)
    if report.converged:
        return EXIT_OK
    return EXIT_MAX_ITERS if report.status == MAX_ITERS else EXIT_DIVERGED


def cmd_sweep(args) -> int:
    solver = resolve_solver(args.case, args.solver)
    grid = parse_omega_grid(args.omega_grid)
    cfg = _solve_config(args)
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    reports = sweep_case(system, args.case, grid, solver, cfg)
    best = best_report(reports)
    if args.format == "json":
        payload = {"case": args.case, "best_omega": best.omega if best else None,
                   "runs": [_report_payload(r) for r in reports]}
        _emit(json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n", args.out)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["omega", "iterations", "final_res", "status"])
        for r in reports:
            final = "-" if not np.isfinite(r.final_res) else f"{r.final_res:.6e}"
            w.writerow([f"{r.omega:g}", r.iterations if r.converged else "-",
                        final, r.status])
        if best is not None:
            buf.write(f"# best_omega={best.omega:g} iterations={best.iterations}\n")
        else:
            buf.write("# best_omega=-\n")
        _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.l > 16:
        raise UsageError("analyze is limited to l <= 16 (dense spectral cost)")
    family, kind = CASE_MAP[args.case]
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    pc = build_case(system, args.case, args.omega, enforce_pd=True)
    bounds = {
        "omega_bound_symmetric": _premised(system, omega_bound_symmetric, system.W),
        "omega_bound_triangular": _premised(system, omega_bound_triangular, system.W),
        "pd_bound": pd_bound(system.W),
    }
    if family == BLOCK_TRI:
        payload = {"case": args.case, "omega": args.omega, "note":
                   "nonsingular block-triangular family: the singular-iteration "
                   "convergence diagnostics target cases I-IV"}
        payload.update(bounds)
        _emit(json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n", args.out)
        return EXIT_OK
    report = check_lemma4(system, pc)
    _emit(report.to_json(case=args.case, **bounds) + "\n", args.out)
    return EXIT_OK


def run_table(table_id: int, l: int, cfg: SolveConfig, seed: int = 0) -> list[dict]:
    """Long-form rows (nu, case, omega, iterations, status) for one table.

    A published omega is tried at {0.9, 1.0, 1.1} x omega and the best
    converged run kept; a published dash is confirmed when no omega of
    DASH_GRID converges.
    """
    rows = []
    for nu in (0.1, 0.001):
        system = build_oseen(l, nu, seed=seed)
        for case in CASES:
            solver = resolve_solver(case, TABLE_SOLVER[table_id])
            omega = PUBLISHED_OMEGA[table_id].get((case, nu, l))
            if omega is None:
                reports = sweep_case(system, case, DASH_GRID, solver, cfg)
                confirmed = not any(r.converged for r in reports)
                rows.append({"nu": nu, "case": case, "omega": "-",
                             "iterations": "-",
                             "status": "nonconvergent" if confirmed else "CONVERGED?"})
                continue
            best = best_report(sweep_case(system, case, [0.9 * omega, omega, 1.1 * omega],
                                          solver, cfg))
            if best is None:
                rows.append({"nu": nu, "case": case, "omega": f"{omega:g}",
                             "iterations": "-", "status": "nonconvergent"})
            else:
                rows.append({"nu": nu, "case": case, "omega": f"{best.omega:g}",
                             "iterations": best.iterations, "status": best.status})
    return rows


def cmd_table(args) -> int:
    if args.l not in (16, 32):
        raise UsageError("published omegas are tabulated for l in {16, 32}")
    cfg = _solve_config(args)
    rows = run_table(args.table_id, args.l, cfg, seed=args.seed)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["nu", "case", "omega", "iterations", "status"])
    for row in rows:
        w.writerow([row["nu"], row["case"], row["omega"], row["iterations"],
                    row["status"]])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


_COMMANDS = {"gen": cmd_gen, "solve": cmd_solve, "sweep": cmd_sweep,
             "analyze": cmd_analyze, "table": cmd_table}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.command, args.out)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"saddlekit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
