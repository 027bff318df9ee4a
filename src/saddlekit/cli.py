"""Command-line front end: generate problems, solve, sweep, analyze, tabulate.

The cases and the tables themselves live in ``tables``; this module parses,
validates, dispatches and prints.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import check_lemma4, omega_bound_symmetric, omega_bound_triangular
from .linalg import LinAlgFailure, NotPositiveDefinite
from .precond import BLOCK_TRI, PChoice, build, pd_bound
from .problems import build_oseen, export
from .solvers import _SOLVERS, MAX_ITERS, SolveConfig, best_report, omega_sweep, solve_with
from .tables import (CASE_MAP, CASES, COLUMNS, PUBLISHED_OMEGA, check_tabulated, resolve_solver,
                     run_table)

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3
EXIT_USAGE = 64

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
    """The case's preconditioner.  An omega past the PD gate (with
    ``enforce_pd``) or one that a sweep would record as infeasible (a P that
    overflows, a singular factor) is a usage error that names omega."""
    family, kind = CASE_MAP[case]
    p_choice = _checked(PChoice, kind=kind, omega=omega)
    try:
        return _premised(system, build, system, family, p_choice, enforce_pd=enforce_pd)
    except (ValueError, LinAlgFailure) as exc:
        raise UsageError(f"--omega {omega:g}: {exc}") from exc


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
    "solver": (("--solver",), dict(choices=tuple(_SOLVERS))),
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
    _add_flags(a, "l", "nu", "case", "out", "omega")

    t = sub.add_parser("table", help="reproduce a benchmark table")
    t.add_argument("table_id", type=int, choices=tuple(PUBLISHED_OMEGA))
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


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    """Strict JSON: a NaN or an infinity raises instead of printing."""
    return json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n"


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
        return _json_text(_report_payload(report))
    return _csv_text(["case", "omega", "iterations", "final_res", "status"],
                     [[report.case_label, f"{report.omega:g}", report.iterations,
                       f"{report.final_res:.6e}", report.status]])


def cmd_gen(args) -> int:
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    meta = export(system, args.out)
    print(json.dumps(meta, allow_nan=False))
    return EXIT_OK


def cmd_solve(args) -> int:
    solver = _checked(resolve_solver, args.case, args.solver)
    cfg = _solve_config(args)
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    pc = build_case(system, args.case, args.omega)
    report = solve_with(solver, system, pc, cfg, case_label=args.case)
    _emit(_report_text(report, args.format), args.out)
    if report.converged:
        return EXIT_OK
    return EXIT_MAX_ITERS if report.status == MAX_ITERS else EXIT_DIVERGED


def cmd_sweep(args) -> int:
    solver = _checked(resolve_solver, args.case, args.solver)
    grid = parse_omega_grid(args.omega_grid)
    cfg = _solve_config(args)
    system = _checked(build_oseen, args.l, args.nu, seed=args.seed)
    reports = _premised(system, omega_sweep, system, *CASE_MAP[args.case], grid, solver=solver,
                        cfg=cfg, case_label=args.case)
    best = best_report(reports)
    if args.format == "json":
        payload = {"case": args.case, "best_omega": best.omega if best else None,
                   "runs": [_report_payload(r) for r in reports]}
        _emit(_json_text(payload), args.out)
        return EXIT_OK
    rows = [[f"{r.omega:g}", r.iterations if r.converged else "-",
             "-" if not np.isfinite(r.final_res) else f"{r.final_res:.6e}", r.status]
            for r in reports]
    tail = (f"# best_omega={best.omega:g} iterations={best.iterations}\n"
            if best is not None else "# best_omega=-\n")
    _emit(_csv_text(["omega", "iterations", "final_res", "status"], rows) + tail, args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.l > 16:
        raise UsageError("analyze is limited to l <= 16 (dense spectral cost)")
    family, kind = CASE_MAP[args.case]
    system = _checked(build_oseen, args.l, args.nu)
    pc = build_case(system, args.case, args.omega, enforce_pd=True)
    bounds = {
        "omega_bound_symmetric": _premised(system, omega_bound_symmetric, system.W),
        "omega_bound_triangular": _premised(system, omega_bound_triangular, system.W),
        "pd_bound": pd_bound(system.W),
    }
    if family == BLOCK_TRI:
        payload = {"case": args.case, "omega": args.omega, "note":
                   "nonsingular block-triangular family: the singular-iteration "
                   "convergence diagnostics target cases I-IV", **bounds}
    else:
        payload = {**asdict(check_lemma4(system, pc)), "case": args.case, **bounds}
    _emit(_json_text(payload), args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    _checked(check_tabulated, args.table_id, args.l)
    cfg = _solve_config(args)
    rows = run_table(args.table_id, args.l, cfg, seed=args.seed)
    _emit(_csv_text(COLUMNS, [[row[k] for k in COLUMNS] for row in rows]), args.out)
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
