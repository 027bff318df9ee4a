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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrs, dtrtrs

from .linalg import Array, LinAlgFailure, cholesky, pinv, spectral_norm
from .problems import SaddleSystem, lower_skew_part, skew_part, symmetric_part

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
    """Factorized preconditioner; immutable after :func:`build`.

    It keeps what its applies read: the factor of P, E^+ for the singular
    families, and the system's shared read-only dense B.  E, the (2,2)
    block of M_b, is kept by the block-diagonal family only.  P itself is
    formed anew on each read (by :func:`assemble`, the analysis and tests).
    """

    def __init__(self, family, p_choice, make_p, p_solve, p_solve_t, B,
                 E=None, E_pinv=None, h_sq_over_nu=None):
        self.family = family
        self.p_choice = p_choice
        self._make_p = make_p
        self._p_solve = p_solve
        self._p_solve_t = p_solve_t
        self.B = B
        self.E = E
        self.E_pinv = E_pinv
        self.h_sq_over_nu = h_sq_over_nu
        self.m, self.n = B.shape

    @property
    def P(self) -> Array:
        """The dense (1,1) block, formed on each read and never kept."""
        return self._make_p()

    def p_solve(self, x: Array) -> Array:
        """Apply P^{-1} to a vector or a column block."""
        return self._p_solve(x)

    def p_solve_t(self, x: Array) -> Array:
        """Apply P^{-T}."""
        return self._p_solve_t(x)


def _finite(x: Array) -> Array:
    # Factors are checked once, at build; each solve checks only its right-hand
    # side before LAPACK sees it.
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return x


def _lapack(routine, *args, **kwargs) -> Array:
    """One LAPACK solve; the right-hand side is copied, never overwritten."""
    x, info = routine(*args, **kwargs)
    if info != 0:
        raise LinAlgFailure(f"LAPACK solve failed with info={info}")
    return x


def pd_bound(W) -> float:
    """Positive-definiteness threshold 1/||L_s||_2 for the triangular-split P."""
    c = spectral_norm(lower_skew_part(W))
    return math.inf if c == 0.0 else 1.0 / c


def _p_factorization(system: SaddleSystem, p_choice: PChoice, enforce_pd: bool = True):
    """(make_p, p_solve, p_solve_t) for the (1,1) block P."""
    W = system.W
    omega = p_choice.omega
    if p_choice.kind == SYMMETRIC_SCALED:
        P = omega * symmetric_part(W)
        # doubles as the SPD check on H; Fortran order, so dpotrs copies nothing
        L = np.asfortranarray(cholesky(P))

        def p_solve(x):
            return _lapack(dpotrs, L, _finite(x), lower=1)

        return P.toarray, p_solve, p_solve
    if p_choice.kind == TRIANGULAR_SPLIT:
        if enforce_pd:
            bound = pd_bound(W)
            if omega >= bound:
                raise ValueError(f"triangular-split P is not positive definite: "
                                 f"omega={omega:g} >= 1/||L_s||_2 = {bound:g}")
        # one array F = I + omega S holds both factors: its lower triangle is
        # Fl = I + omega L_s and its upper triangle Fu = I + omega U_s
        F = skew_part(W).toarray()
        F *= omega
        np.fill_diagonal(F, 1.0)
        _finite(F)
        # dtrtrs reads Fortran order, so it gets F.T (a view, no copy): Fl y = x
        # is solved as (Fl.T)^T y = x on the upper triangle of F.T with trans=1,
        # Fu on its lower triangle; the P^{-T} solves use trans=0
        Ft = F.T

        def tri(x, lower, trans):
            return _lapack(dtrtrs, Ft, _finite(x), lower=lower, trans=trans)

        def p_solve(x):
            return omega * tri(tri(x, 0, 1), 1, 1)

        def p_solve_t(x):
            return omega * tri(tri(x, 1, 0), 0, 0)

        def make_p():
            P = np.tril(F) @ np.triu(F)
            P *= 1.0 / omega
            return P

        return make_p, p_solve, p_solve_t
    P = np.asarray(p_choice.custom_p, dtype=float)
    lu = sla.lu_factor(P)
    return ((lambda: P),
            lambda x: sla.lu_solve(lu, _finite(x), check_finite=False),
            lambda x: sla.lu_solve(lu, _finite(x), trans=1, check_finite=False))


def build(system: SaddleSystem, family: str, p_choice: PChoice,
          enforce_pd: bool = True) -> Preconditioner:
    """Factorize P, assemble E = B P^{-1} B^T and keep its pseudoinverse.

    The (2,2) block of the block-triangular family is h^2/nu times I, from
    the system's grid metadata, or I for a system without it.

    ``enforce_pd=False`` skips the positive-definiteness gate on the
    triangular-split P, and with it the SVD for ||L_s||_2.  The convergence
    theory assumes the gate, but the iteration itself is well defined (and
    sometimes convergent) beyond it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown preconditioner family {family!r}")
    make_p, p_solve, p_solve_t = _p_factorization(system, p_choice, enforce_pd)
    B = system.dense_B()
    if family == BLOCK_TRI:
        if system.h is not None and system.nu is not None:
            h_sq_over_nu = system.h**2 / system.nu
        else:
            h_sq_over_nu = 1.0
        return Preconditioner(family, p_choice, make_p, p_solve, p_solve_t, B,
                              h_sq_over_nu=h_sq_over_nu)
    E = B @ p_solve(B.T)
    E_pinv = pinv(E)
    return Preconditioner(family, p_choice, make_p, p_solve, p_solve_t, B,
                          E=E if family == BLOCK_DIAG else None, E_pinv=E_pinv)


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
