"""Stationary and Krylov solvers with true-residual stopping.

All methods terminate on RES = ||b - A x_k||_2 / ||b||_2 < tol, recomputed
from the original (unpreconditioned) system at every step.  Krylov methods
are preconditioned from the left with M^+ (exact M_t^{-1} for the
nonsingular block-triangular family), matching the fixed-point operator of
the stationary scheme.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .linalg import Array, LinAlgFailure
from .precond import (
    PChoice,
    Preconditioner,
    apply_pseudo_inverse,
    apply_pseudo_inverse_transpose,
    build,
)
from .problems import SaddleSystem

DIVERGENCE_CAP = 1e12

CONVERGED = "converged"
MAX_ITERS = "max_iters"
DIVERGED = "diverged"
BREAKDOWN = "breakdown"
STAGNATED = "stagnated"
INFEASIBLE = "infeasible"


@dataclass
class SolveConfig:
    tol: float = 1e-6
    max_iters: int = 5000
    restart: int = 10
    x0: Array | None = None

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1 or self.restart < 1:
            raise ValueError("invalid solve configuration")


@dataclass
class IterationReport:
    converged: bool
    iterations: int
    residual_history: list[float]
    final_res: float
    omega: float
    case_label: str = ""
    status: str = ""
    x: Array | None = field(default=None, repr=False)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "res"])
            for k, res in enumerate(self.residual_history):
                w.writerow([k, repr(res)])


class DivergenceError(RuntimeError):
    """Iterate blew up (RES above cap or non-finite)."""

    def __init__(self, report: IterationReport):
        super().__init__(f"divergence at iteration {report.iterations}, "
                         f"last finite RES = {report.final_res:.3e}")
        self.report = report


class BreakdownError(RuntimeError):
    """Krylov recurrence broke down without convergence."""

    def __init__(self, message: str, iteration: int, report: IterationReport | None = None):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration
        self.report = report


def _setup(system: SaddleSystem, cfg: SolveConfig | None):
    cfg = cfg or SolveConfig()
    A = system.matrix()
    b = system.rhs()
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        b_norm = 1.0
    x0 = np.zeros_like(b) if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
    return cfg, A, b, b_norm, x0


def _residual(A, b, b_norm, x) -> tuple[Array, float]:
    """The residual b - A x and RES = ||b - A x|| / ||b||."""
    # A residual too large to square reads as inf, which callers flag as divergence
    with np.errstate(over="ignore"):
        r = b - A @ x
        return r, float(np.linalg.norm(r) / b_norm)


def _res(A, b, b_norm, x) -> float:
    return _residual(A, b, b_norm, x)[1]


def gcp_iterate(system: SaddleSystem, pc: Preconditioner,
                cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Fixed-point iteration x <- x + M^+ (b - A x).

    The residual taken for the stopping test is the next step's r, so each
    step makes one product with A.
    """
    cfg, A, b, b_norm, x = _setup(system, cfg)
    r, res = _residual(A, b, b_norm, x)
    history = [res]
    omega = pc.p_choice.omega
    for k in range(1, cfg.max_iters + 1):
        x = x + apply_pseudo_inverse(pc, r)
        r, res = _residual(A, b, b_norm, x)
        if not np.isfinite(res) or res > DIVERGENCE_CAP:
            last_finite = history[-1]
            report = IterationReport(False, k, history, last_finite, omega,
                                     case_label, DIVERGED)
            raise DivergenceError(report)
        history.append(res)
        if res < cfg.tol:
            return IterationReport(True, k, history, res, omega, case_label,
                                   CONVERGED, x=x)
    return IterationReport(False, cfg.max_iters, history, history[-1], omega,
                           case_label, MAX_ITERS, x=x)


def _precondition(pc: Preconditioner | None):
    if pc is None:
        return (lambda v: v), (lambda v: v), 1.0
    return (lambda v: apply_pseudo_inverse(pc, v),
            lambda v: apply_pseudo_inverse_transpose(pc, v),
            pc.p_choice.omega)


def gmres_restarted(system: SaddleSystem, pc: Preconditioner | None,
                    cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Left-preconditioned GMRES(restart); iteration count = total inner steps."""
    cfg, A, b, b_norm, x = _setup(system, cfg)
    m_apply, _, omega = _precondition(pc)
    history = [_res(A, b, b_norm, x)]
    if history[0] < cfg.tol:
        return IterationReport(True, 0, history, history[0], omega, case_label,
                               CONVERGED, x=x)
    total = 0
    dim = b.size
    tiny = 1e-14
    while total < cfg.max_iters:
        r_p = m_apply(b - A @ x)
        with np.errstate(over="ignore"):
            beta = float(np.linalg.norm(r_p))
        if not np.isfinite(beta):
            report = IterationReport(False, total, history, history[-1], omega,
                                     case_label, DIVERGED)
            raise DivergenceError(report)
        if beta <= tiny * b_norm:
            # preconditioned residual vanished without true convergence
            report = IterationReport(False, total, history, history[-1], omega,
                                     case_label, STAGNATED, x=x)
            raise BreakdownError("GMRES stagnation: zero preconditioned residual",
                                 total, report)
        steps = min(cfg.restart, cfg.max_iters - total)
        V = np.zeros((dim, steps + 1))
        Hm = np.zeros((steps + 1, steps))
        V[:, 0] = r_p / beta
        happy = False
        k = 0
        for k in range(steps):
            w = m_apply(A @ V[:, k])
            for i in range(k + 1):  # modified Gram-Schmidt
                Hm[i, k] = V[:, i] @ w
                w = w - Hm[i, k] * V[:, i]
            Hm[k + 1, k] = np.linalg.norm(w)
            total += 1
            if Hm[k + 1, k] > tiny * beta:
                V[:, k + 1] = w / Hm[k + 1, k]
            else:
                happy = True
            e1 = np.zeros(k + 2)
            e1[0] = beta
            y, *_ = np.linalg.lstsq(Hm[: k + 2, : k + 1], e1, rcond=None)
            xk = x + V[:, : k + 1] @ y
            res = _res(A, b, b_norm, xk)
            if not np.isfinite(res) or res > DIVERGENCE_CAP:
                report = IterationReport(False, total, history, history[-1],
                                         omega, case_label, DIVERGED)
                raise DivergenceError(report)
            history.append(res)
            if res < cfg.tol:
                return IterationReport(True, total, history, res, omega,
                                       case_label, CONVERGED, x=xk)
            if happy:
                break
        x = xk
        if happy and history[-1] >= cfg.tol:
            report = IterationReport(False, total, history, history[-1], omega,
                                     case_label, STAGNATED, x=x)
            raise BreakdownError("GMRES stagnation: happy breakdown without convergence",
                                 total, report)
    return IterationReport(False, total, history, history[-1], omega,
                           case_label, MAX_ITERS, x=x)


def qmr(system: SaddleSystem, pc: Preconditioner | None,
        cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Coupled two-term QMR without look-ahead on the left-preconditioned operator.

    Shadow vector initialized to the initial preconditioned residual;
    Lanczos breakdowns are reported, not repaired.
    """
    cfg, A, b, b_norm, x = _setup(system, cfg)
    m_apply, m_apply_t, omega = _precondition(pc)

    def op(v):
        return m_apply(A @ v)

    def op_t(v):
        return A.T @ m_apply_t(v)

    history = [_res(A, b, b_norm, x)]
    if history[0] < cfg.tol:
        return IterationReport(True, 0, history, history[0], omega, case_label,
                               CONVERGED, x=x)
    r = m_apply(b - A @ x)
    scale = float(np.linalg.norm(r))
    tiny = 1e-14 * max(scale, 1.0)

    v_t = r.copy()
    rho = float(np.linalg.norm(v_t))
    w_t = r.copy()
    xi = float(np.linalg.norm(w_t))
    gamma_prev = 1.0
    eta_prev = -1.0
    theta_prev = 0.0
    epsilon = 1.0
    p = q = d = None

    for k in range(1, cfg.max_iters + 1):
        if abs(rho) <= tiny or abs(xi) <= tiny:
            raise BreakdownError("QMR Lanczos breakdown (rho or xi vanished)", k,
                                 _partial_qmr_report(history, k, omega, case_label, x))
        v = v_t / rho
        w = w_t / xi
        delta = float(w @ v)
        if abs(delta) <= tiny:
            raise BreakdownError("QMR Lanczos breakdown (biorthogonality lost)", k,
                                 _partial_qmr_report(history, k, omega, case_label, x))
        if p is None:
            p = v.copy()
            q = w.copy()
        else:
            p = v - (xi * delta / epsilon) * p
            q = w - (rho * delta / epsilon) * q
        p_t = op(p)
        epsilon = float(q @ p_t)
        if abs(epsilon) <= tiny:
            raise BreakdownError("QMR breakdown (epsilon vanished)", k,
                                 _partial_qmr_report(history, k, omega, case_label, x))
        beta = epsilon / delta
        v_t = p_t - beta * v
        rho_next = float(np.linalg.norm(v_t))
        w_t = op_t(q) - beta * w
        xi = float(np.linalg.norm(w_t))
        theta = rho_next / (gamma_prev * abs(beta))
        gamma = 1.0 / np.sqrt(1.0 + theta**2)
        if gamma == 0.0:
            raise BreakdownError("QMR breakdown (gamma vanished)", k,
                                 _partial_qmr_report(history, k, omega, case_label, x))
        eta = -eta_prev * rho * gamma**2 / (beta * gamma_prev**2)
        if d is None:
            d = eta * p
        else:
            d = eta * p + (theta_prev * gamma) ** 2 * d
        x = x + d
        res = _res(A, b, b_norm, x)
        if not np.isfinite(res) or res > DIVERGENCE_CAP:
            report = IterationReport(False, k, history, history[-1], omega,
                                     case_label, DIVERGED)
            raise DivergenceError(report)
        history.append(res)
        if res < cfg.tol:
            return IterationReport(True, k, history, res, omega, case_label,
                                   CONVERGED, x=x)
        rho = rho_next
        gamma_prev, eta_prev, theta_prev = gamma, eta, theta
    return IterationReport(False, cfg.max_iters, history, history[-1], omega,
                           case_label, MAX_ITERS, x=x)


def _partial_qmr_report(history, k, omega, case_label, x):
    return IterationReport(False, k - 1, history, history[-1], omega,
                           case_label, BREAKDOWN, x=x)


_SOLVERS = {"gcp": gcp_iterate, "stationary": gcp_iterate,
            "gmres": gmres_restarted, "qmr": qmr}


def solve_with(solver: str, system: SaddleSystem, pc, cfg=None, case_label: str = "") -> IterationReport:
    """Run one solver by name, mapping failures into a flagged report."""
    fn = _SOLVERS[solver]
    try:
        return fn(system, pc, cfg, case_label)
    except DivergenceError as exc:
        return exc.report
    except BreakdownError as exc:
        if exc.report is not None:
            return exc.report
        raise


def omega_sweep(system: SaddleSystem, family: str, p_kind: str,
                omega_grid, solver: str = "gcp",
                cfg: SolveConfig | None = None, case_label: str = "",
                **build_kwargs) -> list[IterationReport]:
    """One report per omega, in grid order; failures are flagged, not raised.

    Parallelism is set by the SADDLEKIT_THREADS environment variable, an
    integer from 1 to the CPU count (default 1, serial); any other value
    raises ValueError before any work starts.  Results are deterministic in
    grid order either way.
    """
    omegas = list(omega_grid)
    if not omegas:
        raise ValueError("omega grid must be nonempty")
    workers = sweep_threads()

    def run(omega: float) -> IterationReport:
        try:
            pc = build(system, family, PChoice(kind=p_kind, omega=omega), **build_kwargs)
        except (ValueError, LinAlgFailure):
            return IterationReport(False, 0, [], float("nan"), omega,
                                   case_label, INFEASIBLE)
        return solve_with(solver, system, pc, cfg, case_label)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, omegas))
    return [run(omega) for omega in omegas]


def sweep_threads() -> int:
    """Worker count from SADDLEKIT_THREADS: an integer in [1, os.cpu_count()]."""
    text = os.environ.get("SADDLEKIT_THREADS", "1")
    limit = os.cpu_count() or 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if not 1 <= workers <= limit:
        raise ValueError(f"SADDLEKIT_THREADS must be an integer from 1 to {limit}, "
                         f"got {text!r}")
    return workers


def best_report(reports) -> IterationReport | None:
    """The converged report with the fewest iterations (first on a tie), if any."""
    winners = [r for r in reports if r.converged]
    return min(winners, key=lambda r: r.iterations) if winners else None
