"""Dense linear algebra kernels used across the package.

Everything here computes on plain ``numpy.ndarray`` carriers (real, dense,
row-major); a ``scipy.sparse`` argument is densified first.  Factorizations
are delegated to LAPACK through numpy; the wrappers pin down the
rank-truncation and tolerance conventions the rest of the package relies on.

Every SVD goes through one wrapper, with one finiteness check and one
failure type, and every rank through one cut (:func:`rank_of`).  The
singular-vector results, :func:`null_basis` and :func:`pinv`, read thin
factors; only the null basis of a wide matrix needs the full V.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps

Array = np.ndarray

#: Relative threshold below which singular values are treated as zero.
DEFAULT_RANK_TOL = 1e-12

#: Width of the exclusion band around eigenvalue 1 in the pseudospectral radius.
DEFAULT_ONE_TOL = 1e-8


class LinAlgFailure(RuntimeError):
    """A dense factorization failed to converge or a precondition was violated."""


class NotPositiveDefinite(LinAlgFailure):
    pass


def dense(A) -> Array:
    """A as a float ``ndarray``; a ``scipy.sparse`` matrix is expanded."""
    return A.toarray() if sps.issparse(A) else np.asarray(A, dtype=float)


def _as_matrix(A) -> Array:
    A = dense(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def _lapack_svd(A: Array, **kwargs):
    A = _as_matrix(A)
    try:
        return np.linalg.svd(A, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise LinAlgFailure(f"SVD did not converge for {A.shape[0]}x{A.shape[1]} matrix") from exc


def null_basis(A: Array) -> Array:
    """Orthonormal basis (columns) of null(A), from one SVD of A.

    The thin factors hold all of null(A) unless A has fewer rows than
    columns; only then are the full factors formed.
    """
    A = _as_matrix(A)
    _, s, Vt = _lapack_svd(A, full_matrices=A.shape[0] < A.shape[1])
    return Vt[rank_of(s):].T


def pinv(A: Array, rank_tol: float = DEFAULT_RANK_TOL) -> Array:
    """Moore-Penrose inverse via a thin SVD with relative rank truncation.

    Singular values at or below ``rank_tol * s_max`` are treated as zero.
    """
    if not 0.0 < rank_tol < 1.0:
        raise ValueError("rank_tol must lie in (0, 1)")
    U, s, Vt = _lapack_svd(A, full_matrices=False)
    r = rank_of(s, rank_tol)
    return (Vt[:r].T * (1.0 / s[:r])) @ U[:, :r].T


def eigenvalues(A: Array) -> Array:
    """Full spectrum of a square matrix (real Schur based, conjugate pairs exact)."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise LinAlgFailure(f"eigenvalue iteration failed for {A.shape[0]}x{A.shape[1]} matrix") from exc


def pseudospectral_radius(A: Array) -> float:
    """max |lambda| over eigenvalues of A with |lambda - 1| > DEFAULT_ONE_TOL.

    Singular fixed-point iterations legitimately carry eigenvalue 1 from the
    null space of the system matrix; this is the convergence-governing radius
    that ignores it.  Returns 0 when every eigenvalue sits in the band.
    """
    lam = eigenvalues(A)
    outside = lam[np.abs(lam - 1.0) > DEFAULT_ONE_TOL]
    if outside.size == 0:
        return 0.0
    return float(np.abs(outside).max())


def spectral_norm(A: Array) -> float:
    """Largest singular value."""
    return float(_lapack_svd(A, compute_uv=False)[0]) if min(A.shape) else 0.0


def numerical_rank(A: Array) -> int:
    """Number of singular values above ``DEFAULT_RANK_TOL * s_max``, from no singular vectors."""
    return rank_of(_lapack_svd(A, compute_uv=False))


def rank_of(s: Array, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank from nonincreasing singular values ``s``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def _sym_eig(A: Array) -> tuple[Array, Array]:
    """eigh of an SPD A; raises unless max|A - A^T| <= 1e-12 max|A| and every
    eigenvalue is positive."""
    A = _as_matrix(A)
    scale = np.abs(A).max(initial=0.0)
    if scale > 0 and np.abs(A - A.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    if w.min() <= 0.0:
        raise NotPositiveDefinite("matrix not positive definite")
    return w, V


def sym_sqrt(A: Array) -> Array:
    """Symmetric square root of an SPD matrix."""
    w, V = _sym_eig(A)
    R = (V * np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)


def sym_inv_sqrt(A: Array) -> Array:
    """Symmetric R with ``R @ A @ R = I`` for SPD A."""
    w, V = _sym_eig(A)
    R = (V / np.sqrt(w)) @ V.T
    return 0.5 * (R + R.T)
