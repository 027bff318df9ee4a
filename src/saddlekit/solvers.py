"""Stationary and Krylov solvers with true-residual stopping.

All methods terminate on RES = ||b - A x_k||_2 / ||b||_2 < tol, recomputed
from the original (unpreconditioned) system at every step.  Krylov methods
are preconditioned from the left with M^+ (exact M_t^{-1} for the
nonsingular block-triangular family), matching the fixed-point operator of
the stationary scheme.  Every solver returns its IterationReport, whatever
the outcome: divergence, breakdown and stagnation are statuses, not errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import Array, LinAlgFailure, NotPositiveDefinite
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

    def __post_init__(self):
        if not 0 < self.tol < np.inf or self.max_iters < 1 or self.restart < 1:
            raise ValueError("invalid solve configuration")


@dataclass
class IterationReport:
    iterations: int
    residual_history: list[float]
    omega: float
    case_label: str = ""
    status: str = ""
    x: Array | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def final_res(self) -> float:
        """The last recorded RES; NaN when none was taken."""
        return self.residual_history[-1] if self.residual_history else float("nan")


class _Run:
    """The stopping rule every solver shares.

    It owns A, b and ||b||, takes every true residual (recording RES and
    applying the divergence cap) and writes the report for each way a run
    ends, so a solver's loop only makes its next iterate from x = 0 until
    ``done``.  A is one dense copy of ``system.matrix()`` per run: its
    products A @ x are the bits every pinned iterate was computed from.
    """

    def __init__(self, system: SaddleSystem, pc: Preconditioner | None,
                 cfg: SolveConfig | None, case_label: str):
        self.cfg = cfg = cfg or SolveConfig()
        self.A = system.matrix().toarray()
        self.b = system.rhs()
        self.b_norm = float(np.linalg.norm(self.b)) or 1.0
        self.omega = 1.0 if pc is None else pc.p_choice.omega
        self.case_label = case_label
        self.history: list[float] = []
        self.diverged = False

    def residual(self, x: Array, k: int) -> Array:
        """r = b - A x at step k; records RES = ||r|| / ||b||.

        From step 1 on, a RES that is not finite or exceeds DIVERGENCE_CAP
        is not recorded but marks the run diverged; RES of the initial guess
        is recorded as is.
        """
        # A residual too large to square reads as inf, which flags divergence
        with np.errstate(over="ignore"):
            r = self.b - self.A @ x
            res = float(np.linalg.norm(r) / self.b_norm)
        if k > 0 and (not np.isfinite(res) or res > DIVERGENCE_CAP):
            self.diverged = True
        else:
            self.history.append(res)
        return r

    @property
    def converged(self) -> bool:
        return self.history[-1] < self.cfg.tol

    @property
    def done(self) -> bool:
        return self.diverged or self.converged

    def end(self, k: int, x: Array | None = None, status: str | None = None) -> IterationReport:
        """The report of a run ending after k steps: converged or max_iters by default.

        A diverged run always ends ``diverged`` and carries no x.
        """
        if self.diverged:
            status, x = DIVERGED, None
        elif status is None:
            status = CONVERGED if self.converged else MAX_ITERS
        return IterationReport(k, self.history, self.omega, self.case_label, status, x)


def gcp_iterate(system: SaddleSystem, pc: Preconditioner,
                cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Fixed-point iteration x <- x + M^+ (b - A x).

    The residual taken for the stopping test is the next step's r, so each
    step makes one product with A.
    """
    run = _Run(system, pc, cfg, case_label)
    x = np.zeros_like(run.b)
    r = run.residual(x, 0)
    k = 0
    while not run.done and k < run.cfg.max_iters:
        k += 1
        x = x + apply_pseudo_inverse(pc, r)
        r = run.residual(x, k)
    return run.end(k, x)


def _precondition(pc: Preconditioner | None):
    if pc is None:
        return (lambda v: v), (lambda v: v)
    return (lambda v: apply_pseudo_inverse(pc, v),
            lambda v: apply_pseudo_inverse_transpose(pc, v))


def gmres_restarted(system: SaddleSystem, pc: Preconditioner | None,
                    cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Left-preconditioned GMRES(restart); iteration count = total inner steps.

    Each cycle starts from the residual the stopping test took at its last
    iterate.
    """
    run = _Run(system, pc, cfg, case_label)
    cfg = run.cfg
    m_apply, _ = _precondition(pc)
    x = np.zeros_like(run.b)
    r = run.residual(x, 0)
    total = 0
    tiny = 1e-14
    while not run.done and total < cfg.max_iters:
        r_p = m_apply(r)
        with np.errstate(over="ignore"):
            beta = float(np.linalg.norm(r_p))
        if not np.isfinite(beta):
            return run.end(total, status=DIVERGED)
        if beta <= tiny * run.b_norm:
            # preconditioned residual vanished without true convergence
            return run.end(total, x, STAGNATED)
        steps = min(cfg.restart, cfg.max_iters - total)
        V = np.zeros((x.size, steps + 1))
        Hm = np.zeros((steps + 1, steps))
        V[:, 0] = r_p / beta
        happy = False
        for k in range(steps):
            w = m_apply(run.A @ V[:, k])
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
            r = run.residual(xk, total)
            if run.done or happy:
                break
        x = xk
        if happy and not run.done:
            return run.end(total, x, STAGNATED)
    return run.end(total, x)


def qmr(system: SaddleSystem, pc: Preconditioner | None,
        cfg: SolveConfig | None = None, case_label: str = "") -> IterationReport:
    """Coupled two-term QMR without look-ahead on the left-preconditioned operator.

    Shadow vector initialized to the initial preconditioned residual;
    Lanczos breakdowns are reported, not repaired.
    """
    run = _Run(system, pc, cfg, case_label)
    A = run.A
    m_apply, m_apply_t = _precondition(pc)

    def op(v):
        return m_apply(A @ v)

    def op_t(v):
        return A.T @ m_apply_t(v)

    x = np.zeros_like(run.b)
    r = run.residual(x, 0)
    if run.converged:
        return run.end(0, x)
    # no vector below is updated in place, so v_t and w_t can share one array
    v_t = w_t = m_apply(r)
    rho = xi = float(np.linalg.norm(v_t))
    tiny = 1e-14 * max(rho, 1.0)
    gamma_prev = 1.0
    eta_prev = -1.0
    theta_prev = 0.0
    epsilon = 1.0
    p = q = d = None

    for k in range(1, run.cfg.max_iters + 1):
        if abs(rho) <= tiny or abs(xi) <= tiny:  # Lanczos breakdown
            return run.end(k - 1, x, BREAKDOWN)
        v = v_t / rho
        w = w_t / xi
        delta = float(w @ v)
        if abs(delta) <= tiny:  # biorthogonality lost
            return run.end(k - 1, x, BREAKDOWN)
        if p is None:
            p, q = v, w
        else:
            p = v - (xi * delta / epsilon) * p
            q = w - (rho * delta / epsilon) * q
        p_t = op(p)
        epsilon = float(q @ p_t)
        if abs(epsilon) <= tiny:
            return run.end(k - 1, x, BREAKDOWN)
        beta = epsilon / delta
        v_t = p_t - beta * v
        rho_next = float(np.linalg.norm(v_t))
        w_t = op_t(q) - beta * w
        xi = float(np.linalg.norm(w_t))
        theta = rho_next / (gamma_prev * abs(beta))
        gamma = 1.0 / np.sqrt(1.0 + theta**2)
        if gamma == 0.0:
            return run.end(k - 1, x, BREAKDOWN)
        eta = -eta_prev * rho * gamma**2 / (beta * gamma_prev**2)
        if d is None:
            d = eta * p
        else:
            d = eta * p + (theta_prev * gamma) ** 2 * d
        x = x + d
        run.residual(x, k)
        if run.done:
            break
        rho = rho_next
        gamma_prev, eta_prev, theta_prev = gamma, eta, theta
    return run.end(k, x)


_SOLVERS = {"gcp": gcp_iterate, "stationary": gcp_iterate,
            "gmres": gmres_restarted, "qmr": qmr}


def solve_with(solver: str, system: SaddleSystem, pc, cfg=None, case_label: str = "") -> IterationReport:
    """Run one solver by name."""
    return _SOLVERS[solver](system, pc, cfg, case_label)


def omega_sweep(system: SaddleSystem, family: str, p_kind: str,
                omega_grid, solver: str = "gcp",
                cfg: SolveConfig | None = None, case_label: str = "",
                enforce_pd: bool = True) -> list[IterationReport]:
    """One report per omega, in grid order; failures are flagged, not raised.

    An omega whose preconditioner cannot be built (``build`` raises
    ValueError or LinAlgFailure) gets an ``infeasible`` report.  An
    indefinite sym(W) fails P = omega H at every omega, so its
    NotPositiveDefinite is raised.
    """
    omegas = list(omega_grid)
    if not omegas:
        raise ValueError("omega grid must be nonempty")

    def run(omega: float) -> IterationReport:
        try:
            pc = build(system, family, PChoice(kind=p_kind, omega=omega),
                       enforce_pd=enforce_pd)
        except NotPositiveDefinite:
            raise
        except (ValueError, LinAlgFailure):
            return IterationReport(0, [], omega, case_label, INFEASIBLE)
        return solve_with(solver, system, pc, cfg, case_label)

    return [run(omega) for omega in omegas]


def best_report(reports) -> IterationReport | None:
    """The converged report with the fewest iterations (first on a tie), if any."""
    winners = [r for r in reports if r.converged]
    return min(winners, key=lambda r: r.iterations) if winners else None
