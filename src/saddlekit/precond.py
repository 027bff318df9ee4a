"""Constraint, block-diagonal and block-triangular preconditioners.

Three families share the same (1,1) block P:

* ``constraint``:  M = [[P, B^T], [-B, 0]], singular when B is rank
  deficient; its Moore-Penrose inverse is applied through one sparse LU of
  M with one pressure unknown per null vector of B^T pinned.
* ``block_diag``:  M_b = diag(P, E), E = B P^{-1} B^T, also singular; the
  pseudoinverse is diag(P^{-1}, E^+), P^{-1} from one sparse LU of P and
  E^+ r2 the pressure part of M^+ (0; r2), from the constraint family's
  pinned LU of M; E itself is formed only by :func:`assemble`.
* ``block_tri``:   M_t = [[P, B^T], [0, (1/nu) h^2 I]], nonsingular; its
  application is an exact back-substitution solve through one sparse LU
  of P, the system's CSR B and a CSR B^T formed once at build (a product
  with the view ``B.T`` builds a new CSC array on every call).

No family keeps a dense factor or a dense B.

P is either omega * H (requires H SPD) or the triangular product
(1/omega) (I + omega L_s)(I + omega U_s), positive definite exactly when
omega < 1 / ||L_s||_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.sparse.linalg import SuperLU, splu

from .linalg import Array, LinAlgFailure, NotPositiveDefinite, spectral_norm
from .problems import SaddleSystem, lower_skew_part, skew_part, symmetric_part

CONSTRAINT = "constraint"
BLOCK_DIAG = "block_diag"
BLOCK_TRI = "block_tri"
FAMILIES = (CONSTRAINT, BLOCK_DIAG, BLOCK_TRI)

SYMMETRIC_SCALED = "symmetric_scaled"
TRIANGULAR_SPLIT = "triangular_split"
CUSTOM = "custom"

# columns of B^T per P-solve while assemble forms E: one n x m solve would
# double the peak at l=32 (47 against 24 MB by tracemalloc)
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


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """Factorized preconditioner, frozen: immutable after :func:`build`.

    It reads W, B and the basis N = ``null_BT`` of null(B^T) from its
    ``system``, and keeps what :func:`build` computes:

    * constraint: ``M_lu``, one sparse LU of the pinned M (see :func:`build`),
      and the pinned rows; no factor of P (``P_lu`` is None);
    * block-diagonal: ``P_lu``, one sparse LU of P (its P-solves), and the
      constraint family's ``M_lu`` and pinned rows (its E^+);
    * block-triangular: ``P_lu``, h^2/nu and ``BT``, the CSR B^T formed
      once at build for the back-substitution.

    None keeps E, a dense factor or a dense B; the one n x n array it can
    carry is the dense P of a ``custom`` ``p_choice``.  Any other P is formed
    sparse from W on each read (``P`` densifies it) and never kept.
    """

    family: str
    p_choice: PChoice
    system: SaddleSystem
    P_lu: SuperLU | None = None
    M_lu: SuperLU | None = None
    pinned: Array | None = None
    h_sq_over_nu: float | None = None
    BT: sps.csr_array | None = None

    @property
    def m(self) -> int:
        return self.system.m

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def P(self) -> Array:
        """The dense (1,1) block, formed on each read and never kept."""
        return _p_matrix(self.system.W, self.p_choice).toarray()

    def p_solve(self, x: Array, trans: str = "N") -> Array:
        """Apply P^{-1} (trans="N") or P^{-T} (trans="T") to a vector or a
        column block (block families only)."""
        if self.P_lu is None:
            raise ValueError("a constraint preconditioner keeps no factor of P")
        return self.P_lu.solve(_finite(x), trans=trans)


def _finite(x: Array) -> Array:
    # Factors are checked once, at build; each solve checks only its right-hand
    # side before SuperLU sees it.
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
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


def _splu(A: sps.csc_array, what: str):
    """splu of the CSC A; an exactly singular factor raises LinAlgFailure."""
    _finite(A.data)
    try:
        return splu(A)
    except RuntimeError as exc:  # SuperLU: the factor is exactly singular
        raise LinAlgFailure(f"{what} is singular: {exc}") from exc


def _p_lu(P: sps.csr_array):
    """One SuperLU factor of the sparse P, for P^{-1} and P^{-T}."""
    lu = _splu(P.tocsc(), "P")
    # P^{-1} overflows for a finite but huge P (the triangular split at
    # omega = 1e300): one probe solve refuses such an omega at build
    _finite(lu.solve(np.ones(P.shape[0])))
    return lu


def _schur_complement(B: sps.csr_array, p_solve) -> Array:
    """E = B P^{-1} B^T, solved on column blocks of B^T so that no dense B
    or n x m block is formed; only :func:`assemble` forms it."""
    m = B.shape[0]
    E = np.empty((m, m))
    for j in range(0, m, _E_BLOCK):
        E[:, j:j + _E_BLOCK] = B @ p_solve(B[j:j + _E_BLOCK].toarray().T)
    return E


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
    return _splu(M_pin, "pinned constraint matrix")


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
    one sparse LU.  The block-diagonal family keeps it too (P is formed once
    for both) and one sparse LU of P for P^{-1}.  Its E^+ needs no E: for
    r = (0; r2), M y = Pi r gives u = -P^{-1} B^T p and E p = (I - N N^T) r2
    with E = B P^{-1} B^T, and the minimum-norm y has p orthogonal to N, so
    p = E^+ r2 (the "T" solve gives (E^+)^T r2).  The block-triangular
    family keeps one sparse LU of P for P^{-1} and P^{-T} too, and one CSR
    B^T for its back-substitution; its (2,2) block is h^2/nu times I, from
    the system's grid metadata, or I for a system without it.

    A factor that is exactly singular raises LinAlgFailure; a P with
    non-finite entries, or a P^{-1} that overflows on a probe solve, raises
    ValueError.  P = omega H needs H SPD: every family runs
    :func:`check_h_spd`, which raises NotPositiveDefinite.
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
    if p_choice.kind == SYMMETRIC_SCALED:
        check_h_spd(W)
    P = _p_matrix(W, p_choice)
    P_lu = None if family == CONSTRAINT else _p_lu(P)
    if family == BLOCK_TRI:
        if system.h is not None and system.nu is not None:
            h_sq_over_nu = system.h**2 / system.nu
        else:
            h_sq_over_nu = 1.0
        # CSR B^T gives the same bits as the CSC view B.T: both add each
        # output entry's terms in ascending column order
        return Preconditioner(family, p_choice, system, P_lu,
                              h_sq_over_nu=h_sq_over_nu, BT=system.B.T.tocsr())
    pinned = _pinned_rows(system.null_BT)
    M_lu = _pinned_lu(_constraint_matrix(P, system.B), system.n + pinned)
    return Preconditioner(family, p_choice, system, P_lu, M_lu=M_lu, pinned=pinned)


def _remove_null(x: Array, N: Array) -> None:
    """x <- x - N N^T x, in place; x is a vector or a column block (a view)."""
    x -= N @ (N.T @ x)


def _constraint_solve(pc: Preconditioner, c: Array, trans: str) -> Array:
    """M^+ c (trans="N") or (M^+)^T c (trans="T") from the pinned LU; c is a
    fresh vector or column block, overwritten."""
    n, N = pc.n, pc.system.null_BT
    _remove_null(_finite(c)[n:], N)
    c[n + pc.pinned] = 0.0
    y = pc.M_lu.solve(c, trans=trans)
    _remove_null(y[n:], N)
    return y


def _apply(pc: Preconditioner, r: Array, trans: str) -> Array:
    """M^+ r (trans="N") or (M^+)^T r (trans="T"), for a vector or a block."""
    r = np.asarray(r, dtype=float)
    n = pc.n
    if r.shape[0] != n + pc.m:
        raise ValueError(f"expected length {n + pc.m}, got {r.shape[0]}")
    if pc.family == CONSTRAINT:
        return _constraint_solve(pc, r.copy(), trans)
    r1, r2 = r[:n], r[n:]
    if pc.family == BLOCK_DIAG:
        # E^+ r2 is the pressure part of M^+ (0; r2), (E^+)^T r2 that of (M^+)^T (0; r2)
        c = np.zeros((n + pc.m, *r.shape[1:]))
        c[n:] = r2
        return np.concatenate([pc.p_solve(r1, trans), _constraint_solve(pc, c, trans)[n:]])
    if trans == "N":  # block_tri: back-substitution
        y2 = r2 / pc.h_sq_over_nu
        y1 = pc.p_solve(r1 - pc.BT @ y2)
    else:  # forward substitution, in which r2 meets no P-solve that checks it
        y1 = pc.p_solve(r1, "T")
        y2 = (_finite(r2) - pc.system.B @ y1) / pc.h_sq_over_nu
    return np.concatenate([y1, y2])


def apply_pseudo_inverse(pc: Preconditioner, r: Array) -> Array:
    """Apply M^+ (or the exact M_t^{-1}) to a residual vector or block."""
    return _apply(pc, r, "N")


def apply_pseudo_inverse_transpose(pc: Preconditioner, r: Array) -> Array:
    """Apply (M^+)^T = (M^T)^+, needed by the two-sided Lanczos process."""
    return _apply(pc, r, "T")


def assemble(pc: Preconditioner) -> sps.csr_array:
    """The explicit (n+m) x (n+m) preconditioner matrix as CSR, a test oracle.

    Constraint: [[P, B^T], [-B, 0]]; block-triangular: [[P, B^T], [0, h^2/nu I]];
    block-diagonal: P's rows, then E = B P^{-1} B^T as m full rows.  No dense
    (n+m) x (n+m) array is formed; E is the one dense block.
    """
    n, m, B = pc.n, pc.m, pc.system.B
    P = _p_matrix(pc.system.W, pc.p_choice)
    if pc.family == CONSTRAINT:
        return _constraint_matrix(P, B).tocsr()
    if pc.family == BLOCK_TRI:
        return sps.block_array([[P, pc.BT], [None, sps.eye_array(m) * pc.h_sq_over_nu]],
                               format="csr")
    E = _schur_complement(B, pc.p_solve)
    # E's column indices in P's index dtype: a cast of m^2 indices would be one more copy
    indptr = np.concatenate([P.indptr, P.nnz + m * np.arange(1, m + 1)])
    indices = np.concatenate([P.indices, np.tile(np.arange(n, n + m, dtype=P.indices.dtype), m)])
    return sps.csr_array((np.concatenate([P.data, E.ravel()]), indices, indptr),
                         shape=(n + m, n + m))
