"""Convergence diagnostics for the constraint-preconditioned iteration.

Dense spectral tools: the convergence indicator gamma(X(P-W)), the
three-part convergence criterion for singular fixed-point iterations
(null-space match, index one, pseudospectral radius below one), the
projector spectrum of the symmetric-P case, and the omega bounds for both
P parameterizations.  Everything here costs O(n^3) and is meant for
desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array,
    NotPositiveDefinite,
    dense,
    numerical_rank,
    pseudospectral_radius,
    spectral_norm,
    sym_inv_sqrt,
    sym_sqrt,
)
from .precond import (CONSTRAINT, BLOCK_DIAG, SYMMETRIC_SCALED, TRIANGULAR_SPLIT,
                      Preconditioner, apply_pseudo_inverse, check_h_spd)
from .problems import SaddleSystem, lower_skew_part, skew_part, symmetric_part


@dataclass
class SpectralReport:
    gamma_T: float
    gamma_XPW: float | None
    lemma4_null_ok: bool
    lemma4_index_ok: bool
    lemma4_gamma_ok: bool
    projector_eig_ones: int | None
    projector_eig_zeros: int | None
    omega_used: float


def compute_X(pc: Preconditioner) -> Array:
    """The n x n matrix X = P^{-1} - P^{-1} B^T E^+ B P^{-1}, the (1,1) block of M^+."""
    if pc.family != CONSTRAINT:
        raise ValueError("X is defined for the constraint family only")
    return apply_pseudo_inverse(pc, np.eye(pc.n + pc.m, pc.n))[: pc.n]


def gcp_convergence_indicator(system: SaddleSystem, pc: Preconditioner) -> float:
    """gamma(X(P - W)); the stationary scheme converges iff this is < 1.

    For the triangular split beyond ``pd_bound(W)`` the value is set by
    rounding, not by the method: P is then ill conditioned (at l=8, cond(P)
    is 1.4e11 at omega=0.5 and 1e17 or more from omega=1.5 on), and
    algebraically equal products for X give different gamma.  Nothing here
    flags it; ``saddlekit analyze`` refuses such omega.
    """
    X = compute_X(pc)
    return pseudospectral_radius(X @ (pc.P - dense(system.W)))


def check_lemma4(system: SaddleSystem, pc: Preconditioner) -> SpectralReport:
    """Evaluate the three convergence conditions for T = I - M^+ A.

    null(A) is taken as {0} x null(B^T), of dimension d = the number of
    columns of ``system.null_BT``: all of it under the premise sym(W) > 0
    (see :class:`SaddleSystem`), a subset otherwise, so the null-space test
    can only be stricter than one against an SVD of A.  A (0; N) = 0,
    so {0} x null(B^T) lies in null(M^+ A), and the two are equal iff
    rank(M^+ A) = n + m - d; the null-space test compares dimensions only,
    from singular values.  The block-diagonal family applies that rule, and
    the index-one test rank(M^+ A) = rank((M^+ A)^2), to the whole M^+ A.

    The constraint family reads all three conditions from the n x n block
    K = (M^+ A)[:n, :n].  Its premises: M^+ (B^T; 0) = (0; I - N N^T), so
    X B^T = 0 and M^+ A = [[K, 0], [C, I - N N^T]]; (M^+)^T (0; N) = 0, so
    N^T C = 0; and (M^+ M)[:n, :n] = I gives K = I - X(P - W).  Then

    * dim null(M^+ A) = dim null(K) + d, so the null-space test holds iff
      K is nonsingular (rank(K) = n);
    * M^+ A has index at most one iff K does, which a nonsingular K has
      (index 0); otherwise the test is rank(K) = rank(K^2);
    * T = [[I - K, 0], [-C, N N^T]], and the eigenvalues 0 and 1 of N N^T
      add nothing to the pseudospectral radius: gamma_T is gamma(I - K),
      which is gamma(X(P - W)), so one eigenvalue solve gives both.

    ``gamma_XPW`` carries the caveat of :func:`gcp_convergence_indicator`:
    for the triangular split beyond ``pd_bound(W)`` it is set by rounding.
    """
    if pc.family not in (CONSTRAINT, BLOCK_DIAG):
        raise ValueError("convergence conditions apply to the singular families")
    constraint = pc.family == CONSTRAINT
    A = system.matrix().toarray()
    k = pc.n if constraint else A.shape[0]
    K = apply_pseudo_inverse(pc, A[:, :k])[:k]  # K, or all of M^+ A (k = n + m)
    rank = numerical_rank(K)
    null_ok = k - rank == (0 if constraint else system.null_BT.shape[1])
    index_ok = (constraint and null_ok) or rank == numerical_rank(K @ K)
    gamma_T = pseudospectral_radius(np.eye(k) - K)

    ones = zeros = None
    if constraint and pc.p_choice.kind == SYMMETRIC_SCALED:
        ones, zeros, _ = projection_spectrum(system, pc)

    return SpectralReport(
        gamma_T=gamma_T,
        gamma_XPW=gamma_T if constraint else None,
        lemma4_null_ok=null_ok,
        lemma4_index_ok=index_ok,
        lemma4_gamma_ok=bool(gamma_T < 1.0),
        projector_eig_ones=ones,
        projector_eig_zeros=zeros,
        omega_used=pc.p_choice.omega,
    )


def projection_spectrum(system: SaddleSystem, pc: Preconditioner) -> tuple[int, int, float]:
    """Eigenvalues of P^{1/2} X P^{1/2}, clustered onto {0, 1}.

    For symmetric positive definite P this matrix is an orthogonal
    projector with n - rank(B) unit eigenvalues and rank(B) zeros.
    """
    if pc.p_choice.kind != SYMMETRIC_SCALED:
        raise ValueError("projection spectrum requires a symmetric positive definite P")
    X = compute_X(pc)
    R = sym_sqrt(pc.P)
    RXR = R @ X @ R
    w = np.linalg.eigvalsh(0.5 * (RXR + RXR.T))
    dev = np.minimum(np.abs(w), np.abs(w - 1.0))
    ones = int(np.count_nonzero(np.abs(w - 1.0) <= np.abs(w)))
    zeros = w.size - ones
    return ones, zeros, float(dev.max(initial=0.0))


def omega_bound_symmetric(W: Array) -> float:
    """Sufficient omega threshold for P = omega*H: (1 + rho^2) / 2.

    rho is the spectral radius of H^{-1/2} S H^{-1/2}; the scheme converges
    for every omega strictly above the returned value.
    """
    R = sym_inv_sqrt(symmetric_part(W).toarray())
    rho = spectral_norm(R @ skew_part(W).toarray() @ R)  # equals the spectral radius (skew matrix)
    return 0.5 * (1.0 + rho**2)


def omega_bound_triangular(W: Array) -> float:
    """Upper omega threshold for the triangular-split P.

    Returns (-lmax + sqrt(lmax^2 + 16 c^2)) / (4 c^2) with lmax the largest
    eigenvalue of H and c = ||L_s||_2; the analytic limit 2/lmax when the
    skew part vanishes.
    """
    check_h_spd(W)
    H = symmetric_part(W).toarray()
    lmax = float(np.linalg.eigvalsh(H).max())  # = ||H||_2, as H is SPD
    c = spectral_norm(lower_skew_part(W))
    if c < 1e-12 * max(lmax, 1.0):
        return 2.0 / lmax
    return (-lmax + math.sqrt(lmax**2 + 16.0 * c**2)) / (4.0 * c**2)


def norm_certificates(system: SaddleSystem, pc: Preconditioner) -> tuple[float, float]:
    """The two norm bounds certifying convergence of the triangular-split P.

    Returns (x_norm, pw_norm) with x_norm = ||P_H^{1/2} X P_H^{1/2}||_2
    (always <= 1) and pw_norm = ||P_H^{-1/2}(P - W)P_H^{-1/2}||_2 (< 1 for
    omega below the triangular bound).
    """
    if pc.family != CONSTRAINT or pc.p_choice.kind != TRIANGULAR_SPLIT:
        raise ValueError("norm certificates apply to the triangular-split constraint P")
    if pc.p_choice.omega >= omega_bound_triangular(system.W):
        raise ValueError("omega is outside the certified triangular-split range")
    P = pc.P
    P_H = 0.5 * (P + P.T)
    try:
        Rh = sym_sqrt(P_H)
        Rinv = sym_inv_sqrt(P_H)
    except NotPositiveDefinite as exc:
        raise ValueError("symmetric part of P is not positive definite") from exc
    X = compute_X(pc)
    x_norm = spectral_norm(Rh @ X @ Rh)
    pw_norm = spectral_norm(Rinv @ (P - dense(system.W)) @ Rinv)
    return x_norm, pw_norm
