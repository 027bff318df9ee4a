"""Constraint, block-diagonal and block-triangular preconditioners.

Three families share the same (1,1) block P:

* ``constraint``:  M = [[P, B^T], [-B, 0]], singular when B is rank
  deficient; applied through the explicit block formula for its
  Moore-Penrose inverse built on E = B P^{-1} B^T.
* ``block_diag``:  M_b = diag(P, E), also singular; the pseudoinverse is
  diag(P^{-1}, E^+).
* ``block_tri``:   M_t = [[P, B^T], [0, (1/nu) h^2 I]], nonsingular; its
  application is an exact back-substitution solve.

P is either omega * H (requires H SPD) or the triangular product
(1/omega) (I + omega L_s)(I + omega U_s), positive definite exactly when
omega < 1 / ||L_s||_2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import (
    Array,
    DEFAULT_RANK_TOL,
    cholesky,
    pinv,
    spectral_norm,
)
from .problems import SaddleSystem, split

CONSTRAINT = "constraint"
BLOCK_DIAG = "block_diag"
BLOCK_TRI = "block_tri"
FAMILIES = (CONSTRAINT, BLOCK_DIAG, BLOCK_TRI)

SYMMETRIC_SCALED = "symmetric_scaled"
TRIANGULAR_SPLIT = "triangular_split"
CUSTOM = "custom"


@dataclass(frozen=True)
class PChoice:
    """Parameterization of the (1,1) block P."""

    kind: str = SYMMETRIC_SCALED
    omega: float = 1.0
    custom_p: Array | None = None

    def __post_init__(self):
        if self.kind not in (SYMMETRIC_SCALED, TRIANGULAR_SPLIT, CUSTOM):
            raise ValueError(f"unknown P kind {self.kind!r}")
        if self.kind != CUSTOM and self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.kind == CUSTOM and self.custom_p is None:
            raise ValueError("custom P kind needs an explicit matrix")


class Preconditioner:
    """Factorized preconditioner; immutable after :func:`build`."""

    def __init__(self, family, p_choice, P, p_solve, p_solve_t, B,
                 E=None, E_pinv=None, h_sq_over_nu=None):
        self.family = family
        self.p_choice = p_choice
        self.P = P
        self._p_solve = p_solve
        self._p_solve_t = p_solve_t
        self.B = B
        self.E = E
        self.E_pinv = E_pinv
        self.h_sq_over_nu = h_sq_over_nu
        self.n = P.shape[0]
        self.m = B.shape[0]

    def p_solve(self, x: Array) -> Array:
        """Apply P^{-1} to a vector or a column block."""
        return self._p_solve(x)

    def p_solve_t(self, x: Array) -> Array:
        """Apply P^{-T}."""
        return self._p_solve_t(x)


def _p_factorization(system: SaddleSystem, p_choice: PChoice, enforce_pd: bool = True):
    W = system.W
    if p_choice.kind == SYMMETRIC_SCALED:
        sp = split(W)
        P = p_choice.omega * sp.H
        L = cholesky(P)  # doubles as the SPD check on H
        p_solve = lambda x: sla.cho_solve((L, True), x)
        return P, p_solve, p_solve
    if p_choice.kind == TRIANGULAR_SPLIT:
        sp = split(W)
        omega = p_choice.omega
        norm_ls = spectral_norm(sp.L_s)
        if enforce_pd and norm_ls > 0 and omega >= 1.0 / norm_ls:
            raise ValueError(
                f"triangular-split P is not positive definite: omega={omega:g} "
                f">= 1/||L_s||_2 = {1.0 / norm_ls:g}")
        n = W.shape[0]
        Fl = np.eye(n) + omega * sp.L_s
        Fu = np.eye(n) + omega * sp.U_s
        P = (1.0 / omega) * (Fl @ Fu)

        def p_solve(x, Fl=Fl, Fu=Fu, omega=omega):
            y = sla.solve_triangular(Fl, x, lower=True)
            return omega * sla.solve_triangular(Fu, y, lower=False)

        def p_solve_t(x, Fl=Fl, Fu=Fu, omega=omega):
            y = sla.solve_triangular(Fu.T, x, lower=True)
            return omega * sla.solve_triangular(Fl.T, y, lower=False)

        return P, p_solve, p_solve_t
    P = np.asarray(p_choice.custom_p, dtype=float)
    lu = sla.lu_factor(P)
    return (P,
            lambda x: sla.lu_solve(lu, x),
            lambda x: sla.lu_solve(lu, x, trans=1))


def build(system: SaddleSystem, family: str, p_choice: PChoice,
          rank_tol: float = DEFAULT_RANK_TOL, h_sq_over_nu: float | None = None,
          enforce_pd: bool = True) -> Preconditioner:
    """Factorize P, assemble E = B P^{-1} B^T and cache its pseudoinverse.

    ``h_sq_over_nu`` overrides the (2,2) scalar of the block-triangular
    family; by default it is taken from the system metadata.

    ``enforce_pd=False`` skips the positive-definiteness gate on the
    triangular-split P.  The convergence theory assumes the gate, but the
    iteration itself is well defined (and sometimes convergent) beyond it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown preconditioner family {family!r}")
    P, p_solve, p_solve_t = _p_factorization(system, p_choice, enforce_pd)
    B = system.B
    if family == BLOCK_TRI:
        if h_sq_over_nu is None:
            if system.h is not None and system.nu is not None:
                h_sq_over_nu = system.h**2 / system.nu
            else:
                h_sq_over_nu = 1.0
        return Preconditioner(family, p_choice, P, p_solve, p_solve_t, B,
                              h_sq_over_nu=h_sq_over_nu)
    E = B @ p_solve(B.T)
    E_pinv = pinv(E, rank_tol=rank_tol)
    return Preconditioner(family, p_choice, P, p_solve, p_solve_t, B,
                          E=E, E_pinv=E_pinv)


def apply_pseudo_inverse(pc: Preconditioner, r: Array) -> Array:
    """Apply M^+ (or the exact M_t^{-1}) to a residual vector or block."""
    r = np.asarray(r, dtype=float)
    n, m = pc.n, pc.m
    if r.shape[0] != n + m:
        raise ValueError(f"expected length {n + m}, got {r.shape[0]}")
    r1, r2 = r[:n], r[n:]
    if pc.family == CONSTRAINT:
        t = pc.p_solve(r1)
        y2 = pc.E_pinv @ (pc.B @ t + r2)
        y1 = t - pc.p_solve(pc.B.T @ y2)
        return np.concatenate([y1, y2])
    if pc.family == BLOCK_DIAG:
        return np.concatenate([pc.p_solve(r1), pc.E_pinv @ r2])
    # block_tri: exact solve by back-substitution
    y2 = r2 / pc.h_sq_over_nu
    y1 = pc.p_solve(r1 - pc.B.T @ y2)
    return np.concatenate([y1, y2])


def apply_pseudo_inverse_transpose(pc: Preconditioner, r: Array) -> Array:
    """Apply (M^+)^T = (M^T)^+, needed by the two-sided Lanczos process."""
    r = np.asarray(r, dtype=float)
    n, m = pc.n, pc.m
    if r.shape[0] != n + m:
        raise ValueError(f"expected length {n + m}, got {r.shape[0]}")
    r1, r2 = r[:n], r[n:]
    if pc.family == CONSTRAINT:
        # M^+T has blocks [X^T, P^-T B^T E^+T; -E^+T B P^-T, E^+T]
        t = pc.p_solve_t(r1)
        y2 = pc.E_pinv.T @ (r2 - pc.B @ t)
        y1 = t + pc.p_solve_t(pc.B.T @ y2)
        return np.concatenate([y1, y2])
    if pc.family == BLOCK_DIAG:
        return np.concatenate([pc.p_solve_t(r1), pc.E_pinv.T @ r2])
    y1 = pc.p_solve_t(r1)
    y2 = (r2 - pc.B @ y1) / pc.h_sq_over_nu
    return np.concatenate([y1, y2])


def assemble(pc: Preconditioner) -> Array:
    """Explicit dense (n+m) x (n+m) preconditioner matrix."""
    n, m = pc.n, pc.m
    M = np.zeros((n + m, n + m))
    M[:n, :n] = pc.P
    if pc.family == CONSTRAINT:
        M[:n, n:] = pc.B.T
        M[n:, :n] = -pc.B
    elif pc.family == BLOCK_DIAG:
        M[n:, n:] = pc.E
    else:
        M[:n, n:] = pc.B.T
        M[n:, n:] = pc.h_sq_over_nu * np.eye(m)
    return M
