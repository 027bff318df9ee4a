"""Unit tests for the dense kernels.

The eigenvalue routine is cross-checked against an oracle that never calls
LAPACK's nonsymmetric eigensolver: characteristic-polynomial coefficients
from the Faddeev-LeVerrier recurrence, rooted with Durand-Kerner.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlekit.linalg import (
    DEFAULT_ONE_TOL,
    LinAlgFailure,
    NotPositiveDefinite,
    eigenvalues,
    null_basis,
    numerical_rank,
    pinv,
    pseudospectral_radius,
    rank_of,
    spectral_norm,
    sym_inv_sqrt,
    sym_sqrt,
)


def charpoly_coeffs(A):
    """Monic characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def durand_kerner(coeffs, iters=200):
    """All roots of a monic polynomial by simultaneous iteration."""
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(n)
    poly = np.poly1d(coeffs)
    for _ in range(iters):
        new = roots.copy()
        for i in range(n):
            diff = np.prod([new[i] - new[j] for j in range(n) if j != i])
            if diff == 0:
                diff = 1e-30
            new[i] = new[i] - poly(new[i]) / diff
        if np.max(np.abs(new - roots)) < 1e-13:
            roots = new
            break
        roots = new
    return roots


small_square = st.integers(min_value=1, max_value=6)


@st.composite
def matrices(draw, rows=None, cols=None, scale=3.0):
    r = rows if rows is not None else draw(st.integers(1, 8))
    c = cols if cols is not None else draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    g = np.random.default_rng(seed)
    return scale * g.standard_normal((r, c))


class TestSvdPinv:
    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_penrose_equations(self, A):
        Ap = pinv(A)
        scale = max(1.0, spectral_norm(A))
        assert np.allclose(A @ Ap @ A, A, atol=1e-9 * scale)
        assert np.allclose(Ap @ A @ Ap, Ap, atol=1e-9 * max(1.0, spectral_norm(Ap)))
        assert np.allclose((A @ Ap).T, A @ Ap, atol=1e-9)
        assert np.allclose((Ap @ A).T, Ap @ A, atol=1e-9)

    def test_pinv_rank_deficient(self, rng):
        U = rng.standard_normal((6, 2))
        V = rng.standard_normal((2, 5))
        A = U @ V
        assert numerical_rank(A) == 2
        x = pinv(A) @ (A @ rng.standard_normal(5))
        assert np.allclose(A @ x, A @ x, atol=1e-10)

    def test_pinv_zero_matrix(self):
        assert pinv(np.zeros((3, 4))).shape == (4, 3)
        assert np.all(pinv(np.zeros((3, 4))) == 0.0)

    def test_pinv_bad_tol(self):
        with pytest.raises(ValueError):
            pinv(np.eye(2), rank_tol=0.0)


# max|A - A^T| against 1e-12 max|A|: the relative gaps just inside and just outside
@pytest.mark.parametrize("gap, symmetric", [(0.5e-12, True), (2e-12, False)])
@pytest.mark.parametrize("kernel", [sym_sqrt, sym_inv_sqrt], ids=["sym_sqrt", "sym_inv_sqrt"])
def test_one_symmetry_rule(kernel, gap, symmetric):
    A = np.array([[4.0, 1.0], [1.0 + 4.0 * gap, 3.0]])
    if symmetric:
        kernel(A)
    else:
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            kernel(A)


class TestEigenvalues:
    @given(st.integers(0, 2**31 - 1), small_square)
    @settings(max_examples=40, deadline=None)
    def test_against_charpoly_oracle(self, seed, n):
        g = np.random.default_rng(seed)
        A = g.standard_normal((n, n))
        lam = eigenvalues(A)
        oracle = durand_kerner(charpoly_coeffs(A))
        scale = max(1.0, np.abs(oracle).max())
        # optimal pairing, robust to tie-breaking in complex sorts
        from scipy.optimize import linear_sum_assignment
        dist = np.abs(lam[:, None] - oracle[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-6 * scale

    def test_known_spectrum(self):
        A = np.diag([1.0, 2.0, -3.0])
        assert np.allclose(np.sort(eigenvalues(A).real), [-3.0, 1.0, 2.0])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))


class TestPseudospectralRadius:
    def test_excludes_eigenvalue_one(self):
        A = np.diag([1.0, 0.5, -0.25])
        assert pseudospectral_radius(A) == pytest.approx(0.5)

    def test_all_ones(self):
        assert pseudospectral_radius(np.eye(4)) == 0.0

    def test_band_width(self):
        A = np.diag([1.0 + 5e-9, 0.3])
        assert pseudospectral_radius(A) == pytest.approx(0.3)
        outside = 1.0 + 2 * DEFAULT_ONE_TOL
        assert pseudospectral_radius(np.diag([outside, 0.3])) == outside

    def test_projector_spectrum(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        P = Q @ Q.T
        assert pseudospectral_radius(P) == pytest.approx(0.0, abs=1e-10)


class TestSymmetricRoots:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sqrt_squares_back(self, seed):
        g = np.random.default_rng(seed)
        G = g.standard_normal((5, 5))
        A = G @ G.T + 4 * np.eye(5)
        R = sym_sqrt(A)
        assert np.allclose(R @ R, A, atol=1e-8 * np.abs(A).max())
        Ri = sym_inv_sqrt(A)
        assert np.allclose(Ri @ A @ Ri, np.eye(5), atol=1e-8)

    # one SPD rule for both roots: a zero eigenvalue is refused like a negative one
    @pytest.mark.parametrize("kernel", [sym_sqrt, sym_inv_sqrt], ids=["sym_sqrt", "sym_inv_sqrt"])
    @pytest.mark.parametrize("w", [-2.0, 0.0])
    def test_rejects_indefinite(self, kernel, w):
        with pytest.raises(NotPositiveDefinite, match="matrix not positive definite"):
            kernel(np.diag([1.0, w]))


def test_spectral_norm_matches_svd(rng):
    A = rng.standard_normal((7, 4))
    assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2))


def test_numerical_rank_exact():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(3)) == 3


@pytest.mark.parametrize("shape", [(9, 9), (12, 7), (6, 10)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numerical_rank_matches_full_svd_rank(shape, seed):
    # the package's rank against numpy's own singular values
    g = np.random.default_rng(seed)
    for r in range(min(shape) + 1):
        A = g.standard_normal((shape[0], r)) @ g.standard_normal((r, shape[1]))
        assert numerical_rank(A) == rank_of(np.linalg.svd(A, compute_uv=False)) == r


# tall, square and wide, rank 0 being the zero matrix: only a wide A needs
# more than the thin factors
@pytest.mark.parametrize("shape", [(9, 5), (7, 7), (4, 6), (3, 10)])
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_null_basis_spans_the_null_space(shape, rank, rng):
    A = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    N = null_basis(A)
    assert N.shape == (shape[1], shape[1] - rank)
    assert np.allclose(N.T @ N, np.eye(shape[1] - rank), atol=1e-12)
    assert np.linalg.norm(A @ N, 2) <= 1e-12 * np.linalg.norm(A, 2)
