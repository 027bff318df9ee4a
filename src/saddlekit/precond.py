"""Constraint, block-diagonal and block-triangular preconditioners.

Three families share the same (1,1) block P:

* ``constraint``:  M = [[P, B^T], [-B, 0]], singular when B is rank
  deficient; its Moore-Penrose inverse is applied through one sparse LU of
  M with one pressure unknown per null vector of B^T pinned.
* ``block_diag``:  M_b = diag(P, E), E = B P^{-1} B^T, also singular; the
  pseudoinverse is diag(P^{-1}, E^+), P^{-1} from one sparse LU of P and
  E^+ from one dense LU of E + N N^T.
* ``block_tri``:   M_t = [[P, B^T], [0, (1/nu) h^2 I]], nonsingular; its
  application is an exact back-substitution solve through dense factors
  of P, the only dense factors kept.

P is either omega * H (requires H SPD) or the triangular product
(1/omega) (I + omega L_s)(I + omega U_s), positive definite exactly when
omega < 1 / ||L_s||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrs, dtrtrs
from scipy.sparse.linalg import splu

from .linalg import Array, LinAlgFailure, NotPositiveDefinite, cholesky, spectral_norm
from .problems import (SaddleSystem, lower_skew_part, null_basis_BT, skew_part,
                       symmetric_part)

CONSTRAINT = "constraint"
BLOCK_DIAG = "block_diag"
BLOCK_TRI = "block_tri"
FAMILIES = (CONSTRAINT, BLOCK_DIAG, BLOCK_TRI)

SYMMETRIC_SCALED = "symmetric_scaled"
TRIANGULAR_SPLIT = "triangular_split"
CUSTOM = "custom"

# columns of B^T per P-solve while forming E: one n x m solve would double
# the build's peak at l=32 (47 against 24 MB by tracemalloc)
_E_BLOCK = 64


@dataclass(frozen=True)
class PChoice:
    """Parameterization of the (1,1) block P."""

    kind: str = SYMMETRIC_SCALED
    omega: float = 1.0
    custom_p: Array | None = None

    def __post_init__(self):
        if self.kind not in (SYMMETRIC_SCALED, TRIANGULAR_SPLIT, CUSTOM):
            raise ValueError(f"unknown P kind {self.kind!r}")
        if self.kind != CUSTOM and not 0 < self.omega < np.inf:
            raise ValueError("omega must be positive and finite")
        if self.kind == CUSTOM and self.custom_p is None:
            raise ValueError("custom P kind needs an explicit matrix")


def _no_p_factor(x: Array) -> Array:
    raise ValueError("a constraint preconditioner keeps no factor of P")


class Preconditioner:
    """Factorized preconditioner; immutable after :func:`build`.

    It keeps what its applies read:

    * constraint: one sparse LU of the pinned M (see :func:`build`) with the
      basis N of null(B^T) and the pinned rows; no factor of P, no E, no
      dense B;
    * block-diagonal: one sparse LU of P (its P-solves), E (its (2,2)
      block) and a dense LU of E + N N^T; no dense B and no n x n array;
    * block-triangular: dense P-solves (a Cholesky factor of omega H, the
      array I + omega S or an LU of the custom P) and its own dense copy
      of B (``dense_B``), taken at build.

    ``B`` is the system's own CSR B, read by :func:`assemble`.  P is formed
    sparse on each read (``P`` densifies it) and never kept.
    """

    def __init__(self, family, p_choice, make_p, B, p_solves=(_no_p_factor, _no_p_factor),
                 dense_B=None, E=None, E_lu=None, N=None, M_lu=None, pinned=None,
                 h_sq_over_nu=None):
        self.family = family
        self.p_choice = p_choice
        self._make_p = make_p
        self._p_solve, self._p_solve_t = p_solves
        self.B = B
        self.dense_B = dense_B
        self.E = E
        self.E_lu = E_lu
        self.N = N
        self.M_lu = M_lu
        self.pinned = pinned
        self.h_sq_over_nu = h_sq_over_nu
        self.m, self.n = B.shape

    @property
    def P(self) -> Array:
        """The dense (1,1) block, formed on each read and never kept."""
        return self._make_p().toarray()

    def p_solve(self, x: Array) -> Array:
        """Apply P^{-1} to a vector or a column block (block families only)."""
        return self._p_solve(x)

    def p_solve_t(self, x: Array) -> Array:
        """Apply P^{-T} (block families only)."""
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


def _p_matrix(W, p_choice: PChoice) -> sps.csr_array:
    """The (1,1) block P as CSR: omega H, the expanded triangular split
    S + I/omega + omega L_s U_s, or the custom P."""
    omega = p_choice.omega
    if p_choice.kind == SYMMETRIC_SCALED:
        return omega * symmetric_part(W)
    if p_choice.kind == TRIANGULAR_SPLIT:
        S = skew_part(W)
        L_s, U_s = sps.tril(S, -1, format="csr"), sps.triu(S, 1, format="csr")
        return S + sps.eye_array(S.shape[0], format="csr") / omega + omega * (L_s @ U_s)
    return sps.csr_array(np.asarray(p_choice.custom_p, dtype=float))


def _p_solves(W, p_choice: PChoice):
    """(P^{-1}, P^{-T}) dense solves for the block-triangular family."""
    omega = p_choice.omega
    if p_choice.kind == SYMMETRIC_SCALED:
        # doubles as the SPD check on H; Fortran order, so dpotrs copies nothing
        L = np.asfortranarray(cholesky(omega * symmetric_part(W)))

        def p_solve(x):
            return _lapack(dpotrs, L, _finite(x), lower=1)

        return p_solve, p_solve
    if p_choice.kind == TRIANGULAR_SPLIT:
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

        # F is finite for every finite omega, but the solves overflow once
        # omega S is huge (from omega = 80 at l=32): one probe solve refuses
        # such an omega at build
        with np.errstate(over="ignore"):
            _finite(p_solve(np.ones(F.shape[0])))
        return p_solve, p_solve_t
    P = np.asarray(p_choice.custom_p, dtype=float)
    lu = sla.lu_factor(P)
    return (lambda x: sla.lu_solve(lu, _finite(x), check_finite=False),
            lambda x: sla.lu_solve(lu, _finite(x), trans=1, check_finite=False))


def _p_lu_solves(P: sps.csr_array):
    """(P^{-1}, P^{-T}) solves from one SuperLU factor of the sparse P."""
    P = P.tocsc()
    _finite(P.data)
    try:
        lu = splu(P)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise LinAlgFailure(f"P is singular: {exc}") from exc
    return (lambda x: lu.solve(_finite(x)), lambda x: lu.solve(_finite(x), trans="T"))


def _schur_complement(B: sps.csr_array, p_solve) -> Array:
    """E = B P^{-1} B^T, solved on column blocks of B^T so that no dense B
    or n x m block is formed."""
    m = B.shape[0]
    E = np.empty((m, m))
    for j in range(0, m, _E_BLOCK):
        E[:, j:j + _E_BLOCK] = B @ p_solve(B[j:j + _E_BLOCK].toarray().T)
    return _finite(E)  # P^{-1} overflows for a finite but huge P


def check_h_spd(W) -> None:
    """Raise NotPositiveDefinite unless H = sym(W) is SPD, as P = omega H needs.

    One sparse LU of H in symmetric mode.  With a zero pivot threshold
    SuperLU leaves the diagonal only at an exactly zero pivot, which the
    symmetric elimination of an SPD matrix never meets.  So H is SPD iff the
    factor exists, every pivot was diagonal (perm_r == perm_c, so U = D L^T)
    and every pivot is positive.
    """
    H = symmetric_part(W).tocsc()
    if not np.isfinite(H.data).all():
        raise ValueError("matrix has non-finite entries")
    try:
        lu = splu(H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise NotPositiveDefinite("matrix not positive definite") from exc
    if not (np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all()):
        raise NotPositiveDefinite("matrix not positive definite")


def _pinned_rows(N: Array) -> Array:
    """The d pressure rows to pin: those a pivoted QR of N^T picks, so that
    N restricted to them is nonsingular."""
    return sla.qr(N.T, mode="r", pivoting=True)[1][: N.shape[1]]


def _pinned_lu(M, pin: Array):
    """splu of M with each row and column in ``pin`` replaced by a unit vector."""
    M = M.tocoo()
    keep = ~(np.isin(M.row, pin) | np.isin(M.col, pin))
    M_pin = sps.csc_array((np.concatenate([M.data[keep], np.ones(pin.size)]),
                           (np.concatenate([M.row[keep], pin]),
                            np.concatenate([M.col[keep], pin]))), shape=M.shape)
    _finite(M_pin.data)
    try:
        return splu(M_pin)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise LinAlgFailure(f"pinned constraint matrix is singular: {exc}") from exc


def _constraint_matrix(P, B) -> sps.coo_array:
    return sps.block_array([[P, B.T], [-B, None]], format="coo")


def build(system: SaddleSystem, family: str, p_choice: PChoice,
          enforce_pd: bool = True) -> Preconditioner:
    """Factorize the preconditioner of one family.

    Let N be an orthonormal basis of null(B^T) and V = (0; N).  With
    sym(P) > 0, M = [[P, B^T], [-B, 0]] and M^T both have the null space
    span(V), so M^+ r is the minimum-norm solution y of M y = Pi r,
    Pi = I - V V^T.  With one pressure unknown per column of N pinned (its
    row and column of M replaced by a unit vector) M is nonsingular, and
    the pinned solve of Pi r with the pinned entries set to 0 satisfies M
    in every row: the pinned rows follow from V^T M = 0 and V^T Pi r = 0.
    Pi then removes the null component.  The constraint family keeps that
    one sparse LU.  The block-diagonal family keeps one sparse LU of P, forms
    E = B P^{-1} B^T from it on column blocks of B^T, and takes
    E^+ = (E + N N^T)^{-1} - N N^T from one dense LU.  The (2,2) block of
    the block-triangular family is h^2/nu times I, from the system's grid
    metadata, or I for a system without it.

    A factor that is exactly singular raises LinAlgFailure; a P, an E or a
    block-triangular split P-solve with non-finite entries raises
    ValueError.  P = omega H needs H SPD: both singular families run
    :func:`check_h_spd`, and the block-triangular family's Cholesky of
    omega H doubles as the check; either raises NotPositiveDefinite.
    ``enforce_pd=False`` skips the positive-definiteness
    gate on the triangular-split P, and with it the SVD for ||L_s||_2.  The
    convergence theory assumes the gate, but the iteration itself is well
    defined (and sometimes convergent) beyond it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown preconditioner family {family!r}")
    W, omega = system.W, p_choice.omega
    if p_choice.kind == TRIANGULAR_SPLIT and enforce_pd:
        bound = pd_bound(W)
        if omega >= bound:
            raise ValueError(f"triangular-split P is not positive definite: "
                             f"omega={omega:g} >= 1/||L_s||_2 = {bound:g}")
    make_p = partial(_p_matrix, W, p_choice)
    if family == BLOCK_TRI:
        if system.h is not None and system.nu is not None:
            h_sq_over_nu = system.h**2 / system.nu
        else:
            h_sq_over_nu = 1.0
        return Preconditioner(family, p_choice, make_p, system.B, _p_solves(W, p_choice),
                              dense_B=system.B.toarray(), h_sq_over_nu=h_sq_over_nu)
    if p_choice.kind == SYMMETRIC_SCALED:
        check_h_spd(W)
    N = null_basis_BT(system)
    if family == CONSTRAINT:
        pinned = _pinned_rows(N)
        M_lu = _pinned_lu(_constraint_matrix(make_p(), system.B), system.n + pinned)
        return Preconditioner(family, p_choice, make_p, system.B, N=N, M_lu=M_lu,
                              pinned=pinned)
    p_solves = _p_lu_solves(make_p())
    E = _schur_complement(system.B, p_solves[0])
    lu, piv, info = dgetrf(E + N @ N.T, overwrite_a=1)
    if info != 0:
        raise LinAlgFailure(f"E + N N^T is singular (LAPACK dgetrf info={info})")
    return Preconditioner(family, p_choice, make_p, system.B, p_solves, E=E,
                          E_lu=(lu, piv), N=N)


def _remove_null(x: Array, N: Array) -> None:
    """x <- x - N N^T x, in place; x is a vector or a column block (a view)."""
    x -= N @ (N.T @ x)


def _constraint_solve(pc: Preconditioner, r: Array, trans: str) -> Array:
    """M^+ r (trans="N") or (M^+)^T r (trans="T") from the pinned LU."""
    n = pc.n
    c = _finite(r).copy()
    _remove_null(c[n:], pc.N)
    c[n + pc.pinned] = 0.0
    y = pc.M_lu.solve(c, trans=trans)
    _remove_null(y[n:], pc.N)
    return y


def _e_pinv(pc: Preconditioner, r2: Array, trans: int) -> Array:
    """E^+ r2 (trans=0) or (E^+)^T r2 (trans=1), as (E + N N^T)^{-1} r2 - N N^T r2."""
    y = _lapack(dgetrs, *pc.E_lu, _finite(r2), trans=trans)
    y -= pc.N @ (pc.N.T @ r2)
    return y


def _checked_length(pc: Preconditioner, r: Array) -> Array:
    r = np.asarray(r, dtype=float)
    if r.shape[0] != pc.n + pc.m:
        raise ValueError(f"expected length {pc.n + pc.m}, got {r.shape[0]}")
    return r


def apply_pseudo_inverse(pc: Preconditioner, r: Array) -> Array:
    """Apply M^+ (or the exact M_t^{-1}) to a residual vector or block."""
    r = _checked_length(pc, r)
    n = pc.n
    if pc.family == CONSTRAINT:
        return _constraint_solve(pc, r, "N")
    r1, r2 = r[:n], r[n:]
    if pc.family == BLOCK_DIAG:
        return np.concatenate([pc.p_solve(r1), _e_pinv(pc, r2, 0)])
    # block_tri: exact solve by back-substitution
    y2 = r2 / pc.h_sq_over_nu
    y1 = pc.p_solve(r1 - pc.dense_B.T @ y2)
    return np.concatenate([y1, y2])


def apply_pseudo_inverse_transpose(pc: Preconditioner, r: Array) -> Array:
    """Apply (M^+)^T = (M^T)^+, needed by the two-sided Lanczos process."""
    r = _checked_length(pc, r)
    n = pc.n
    if pc.family == CONSTRAINT:
        return _constraint_solve(pc, r, "T")
    r1, r2 = r[:n], r[n:]
    if pc.family == BLOCK_DIAG:
        return np.concatenate([pc.p_solve_t(r1), _e_pinv(pc, r2, 1)])
    y1 = pc.p_solve_t(r1)
    y2 = (r2 - pc.dense_B @ y1) / pc.h_sq_over_nu
    return np.concatenate([y1, y2])


def assemble(pc: Preconditioner) -> Array:
    """Explicit dense (n+m) x (n+m) preconditioner matrix, scattered from its sparse blocks."""
    n, m = pc.n, pc.m
    M = np.zeros((n + m, n + m))
    if pc.family == CONSTRAINT:
        blocks = _constraint_matrix(pc._make_p(), pc.B)
    elif pc.family == BLOCK_DIAG:
        blocks = pc._make_p().tocoo()
        M[n:, n:] = pc.E
    else:
        blocks = sps.block_array([[pc._make_p(), pc.B.T],
                                  [None, sps.eye_array(m) * pc.h_sq_over_nu]], format="coo")
    M[blocks.row, blocks.col] = blocks.data
    return M
