import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlekit import (
    BLOCK_DIAG,
    BLOCK_TRI,
    CONSTRAINT,
    PChoice,
    SaddleSystem,
    apply_pseudo_inverse,
    apply_pseudo_inverse_transpose,
    build,
    build_oseen,
    build_random_singular,
    check_lemma4,
    compute_X,
    gcp_convergence_indicator,
    norm_certificates,
    omega_bound_symmetric,
    omega_bound_triangular,
    pd_bound,
    projection_spectrum,
    pseudospectral_radius,
)
from saddlekit.linalg import numerical_rank, pinv, sym_inv_sqrt
from saddlekit.solvers import SolveConfig, solve_with


def saddle(seed, **kw):
    return build_random_singular(n=kw.pop("n", 8), m=kw.pop("m", 4),
                                 rank_b=kw.pop("rank_b", 3), seed=seed)


def constraint_pc(system, kind="symmetric_scaled", omega=1.0, **kw):
    return build(system, CONSTRAINT, PChoice(kind=kind, omega=omega), **kw)


class TestComputeX:
    def test_square_nonsingular_b_gives_zero(self, rng):
        n = 5
        B = rng.standard_normal((n, n)) + 4 * np.eye(n)
        W = np.eye(n)
        s = SaddleSystem(W=W, B=B, f=np.zeros(n), g=np.zeros(n))
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=np.eye(n)))
        assert np.allclose(compute_X(pc), 0.0, atol=1e-9)

    def test_zero_b_gives_p_inverse(self, rng):
        n = 4
        W = np.eye(n)
        s = SaddleSystem(W=W, B=np.zeros((2, n)), f=np.zeros(n), g=np.zeros(2))
        P = np.diag([1.0, 2.0, 4.0, 8.0])
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=P))
        assert np.allclose(compute_X(pc), np.linalg.inv(P), atol=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_matches_term_by_term_oracle(self, seed):
        from saddlekit.linalg import pinv
        s = saddle(seed)
        # the triangular split gives a nonsymmetric P, where P^{-1} B^T != (B P^{-1})^T
        for pc in (constraint_pc(s),
                   constraint_pc(s, kind="triangular_split", omega=0.5 * pd_bound(s.W))):
            Pinv = np.linalg.inv(pc.P)
            E = s.B @ Pinv @ s.B.T
            X_oracle = Pinv - Pinv @ s.B.T @ pinv(E) @ s.B @ Pinv
            assert np.allclose(compute_X(pc), X_oracle, atol=1e-8)

    def test_family_gate(self):
        s = saddle(0)
        pc = build(s, BLOCK_DIAG, PChoice())
        with pytest.raises(ValueError):
            compute_X(pc)


class TestIndicator:
    def test_symmetric_w_equal_p(self, rng):
        # P = W symmetric makes X(P - W) vanish identically
        G = rng.standard_normal((6, 6))
        W = G @ G.T + 6 * np.eye(6)
        B = rng.standard_normal((3, 6))
        s = SaddleSystem(W=W, B=B, f=np.zeros(6), g=np.zeros(3))
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=W))
        assert gcp_convergence_indicator(s, pc) == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_without_constraints(self, rng):
        # B = 0: eigenvalues of X(P-W) with P = omega*W are 1 - 1/omega
        G = rng.standard_normal((5, 5))
        W = G @ G.T + 5 * np.eye(5)
        s = SaddleSystem(W=W, B=np.zeros((1, 5)), f=np.zeros(5), g=np.zeros(1))
        for omega in (0.01, 0.4, 2.0):
            pc = constraint_pc(s, omega=omega)
            expect = abs(1.0 - 1.0 / omega)
            assert gcp_convergence_indicator(s, pc) == pytest.approx(expect, rel=1e-8)

    def test_oseen_case1_consistent_with_solve(self):
        s = build_oseen(8, 0.1)
        pc = constraint_pc(s)
        gamma = gcp_convergence_indicator(s, pc)
        assert gamma < 1.0
        assert solve_with("gcp", s, pc).converged


class TestLemma4:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_constraint_conditions_always_hold(self, seed):
        s = saddle(seed)
        report = check_lemma4(s, constraint_pc(s))
        assert report.lemma4_null_ok and report.lemma4_index_ok
        assert report.gamma_XPW is not None
        assert (report.gamma_T < 1.0) == report.lemma4_gamma_ok

    def test_gamma_xpw_matches_gamma_t_nonsymmetric_p(self):
        # gamma(X(P - W)) is the pseudospectral radius of T = I - M^+ A also
        # when P is the nonsymmetric triangular split
        s = build_oseen(16, 0.001)
        report = check_lemma4(s, constraint_pc(s, kind="triangular_split", omega=0.06))
        assert report.gamma_XPW == pytest.approx(report.gamma_T, rel=1e-6)

    def test_m_equals_a_projector(self, rng):
        # using W itself as P on a symmetric system: T is a projector
        G = rng.standard_normal((6, 6))
        W = G @ G.T + 6 * np.eye(6)
        B = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 6))
        s = SaddleSystem(W=W, B=B, f=np.zeros(6), g=np.zeros(4))
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=W))
        report = check_lemma4(s, pc)
        assert report.gamma_T == pytest.approx(0.0, abs=1e-8)

    def test_family_gate(self):
        s = saddle(1)
        pc = build(s, BLOCK_TRI, PChoice())
        with pytest.raises(ValueError):
            check_lemma4(s, pc)


class TestProjectionSpectrum:
    @pytest.mark.parametrize("l", [4, 8])
    def test_oseen_counts(self, l):
        s = build_oseen(l, 0.1)
        ones, zeros, dev = projection_spectrum(s, constraint_pc(s))
        rank_b = l * l - 1
        assert ones == s.n - rank_b
        assert zeros == rank_b
        assert dev <= 1e-8

    def test_zero_b_all_ones(self, rng):
        G = rng.standard_normal((5, 5))
        W = G @ G.T + 5 * np.eye(5)
        s = SaddleSystem(W=W, B=np.zeros((1, 5)), f=np.zeros(5), g=np.zeros(1))
        ones, zeros, dev = projection_spectrum(s, constraint_pc(s))
        assert (ones, zeros) == (5, 0) and dev <= 1e-10

    def test_requires_symmetric_kind(self):
        s = saddle(3)
        pc = constraint_pc(s, kind="triangular_split", omega=0.01)
        with pytest.raises(ValueError):
            projection_spectrum(s, pc)

    def test_projector_idempotent(self):
        s = build_oseen(4, 0.1)
        pc = constraint_pc(s)
        P, B = pc.P, s.B.toarray()
        Ri = sym_inv_sqrt(P)
        Q = Ri @ B.T @ pinv(B @ np.linalg.solve(P, B.T)) @ B @ Ri
        assert np.abs(Q @ Q - Q).max() <= 1e-9


class TestOmegaBounds:
    def test_symmetric_no_skew(self, rng):
        G = rng.standard_normal((4, 4))
        W = G @ G.T + 4 * np.eye(4)
        assert omega_bound_symmetric(W) == pytest.approx(0.5)

    def test_symmetric_known_rho(self):
        W = np.eye(2) + np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert omega_bound_symmetric(W) == pytest.approx(2.5)

    def test_triangular_closed_form(self):
        # lambda_max(H) = 1, ||L_s||_2 = 1
        W = np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]])
        expect = (-1.0 + math.sqrt(17.0)) / 4.0
        assert omega_bound_triangular(W) == pytest.approx(expect)

    def test_triangular_limit_no_skew(self):
        W = np.diag([2.0, 0.5])
        assert omega_bound_triangular(W) == pytest.approx(1.0)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_triangular_below_pd_bound(self, seed):
        W = saddle(seed).W
        assert omega_bound_triangular(W) <= pd_bound(W) + 1e-12

    def test_pd_bound_values(self):
        W = np.eye(2) + np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert pd_bound(W) == pytest.approx(0.5)
        assert pd_bound(np.eye(3)) == math.inf

    def test_pd_bound_two_by_two_witness(self):
        c = 2.0
        S = np.array([[0.0, -c], [c, 0.0]])
        W = np.eye(2) + S
        bound = pd_bound(W)
        for omega, ok in ((0.95 * bound, True), (1.05 * bound, False)):
            Fl = np.eye(2) + omega * np.tril(S, -1)
            Fu = np.eye(2) + omega * np.triu(S, 1)
            P = (Fl @ Fu) / omega
            P_H = 0.5 * (P + P.T)
            if ok:
                np.linalg.cholesky(P_H)
            else:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(P_H)

    def test_bounds_certify_convergence_oseen(self):
        s = build_oseen(8, 0.1)
        omega = 1.1 * omega_bound_symmetric(s.W)
        pc = constraint_pc(s, omega=omega)
        assert gcp_convergence_indicator(s, pc) < 1.0
        assert solve_with("gcp", s, pc, SolveConfig(max_iters=3000)).converged


class TestNormCertificates:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_certificates_inside_bound(self, seed):
        s = saddle(seed)
        omega = 0.9 * omega_bound_triangular(s.W)
        pc = constraint_pc(s, kind="triangular_split", omega=omega)
        x_norm, pw_norm = norm_certificates(s, pc)
        assert x_norm <= 1.0 + 1e-8
        assert pw_norm < 1.0
        gamma = gcp_convergence_indicator(s, pc)
        assert x_norm * pw_norm >= gamma - 1e-8

    def test_rejects_omega_outside_bound(self):
        s = saddle(4)
        omega = 1.5 * omega_bound_triangular(s.W)
        pc = constraint_pc(s, kind="triangular_split", omega=omega,
                           enforce_pd=False)
        with pytest.raises(ValueError):
            norm_certificates(s, pc)

    def test_rejects_symmetric_kind(self):
        s = saddle(5)
        with pytest.raises(ValueError):
            norm_certificates(s, constraint_pc(s))


def test_eigenvalue_real_parts_symmetric_p():
    # nonzero eigenvalues of X(P-W) with P = omega*H have real part 1 - 1/omega
    s = build_oseen(4, 0.1)
    omega = 1.3
    pc = constraint_pc(s, omega=omega)
    X = compute_X(pc)
    lam = np.linalg.eigvals(X @ (pc.P - s.W))
    nonzero = lam[np.abs(lam) > 1e-8]
    assert np.allclose(nonzero.real, 1.0 - 1.0 / omega, atol=1e-6)


def _lemma4_oracle(system, pc):
    """check_lemma4 with the null space of A and the rank of (M^+ A)^2 from full SVDs."""
    import scipy.linalg as sla
    from saddlekit import apply_pseudo_inverse, pseudospectral_radius

    def rank_and_null(M):
        _, sv, Vt = np.linalg.svd(M)
        keep = sv > 1e-12 * sv[0]
        return int(keep.sum()), Vt.T[:, ~keep]

    A = system.matrix().toarray()
    MdagA = apply_pseudo_inverse(pc, A)
    (_, NA), (rank, NMA) = rank_and_null(A), rank_and_null(MdagA)
    if NA.shape[1] != NMA.shape[1]:
        null_ok = False
    else:
        null_ok = NA.shape[1] == 0 or bool(sla.subspace_angles(NA, NMA).max() <= 1e-8)
    gamma_T = pseudospectral_radius(np.eye(A.shape[0]) - MdagA)
    constraint = pc.family == CONSTRAINT
    symmetric = constraint and pc.p_choice.kind == "symmetric_scaled"
    ones, zeros, _ = projection_spectrum(system, pc) if symmetric else (None, None, None)
    return {"gamma_T": gamma_T,
            "gamma_XPW": gcp_convergence_indicator(system, pc) if constraint else None,
            "lemma4_null_ok": null_ok,
            "lemma4_index_ok": rank == rank_and_null(MdagA @ MdagA)[0],
            "lemma4_gamma_ok": bool(gamma_T < 1.0),
            "projector_eig_ones": ones, "projector_eig_zeros": zeros,
            "omega_used": pc.p_choice.omega}


@pytest.mark.parametrize("nu", [0.1, 0.001])
@pytest.mark.parametrize("family,kind,omegas", [
    (CONSTRAINT, "symmetric_scaled", (0.5, 1.2)),
    (CONSTRAINT, "triangular_split", (0.005, 0.06)),
    (BLOCK_DIAG, "symmetric_scaled", (0.04, 1.0)),
    (BLOCK_DIAG, "triangular_split", (0.005, 0.06)),
], ids=["I", "II", "III", "IV"])
def test_check_lemma4_matches_full_svd_oracle(nu, family, kind, omegas):
    # gamma_T and gamma_XPW of the constraint family come from T's leading
    # n x n block, which re-rounds them; every other field is bit-equal
    s = build_oseen(8, nu)
    for omega in omegas:
        pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
        got, want = check_lemma4(s, pc).__dict__, _lemma4_oracle(s, pc)
        assert got.pop("gamma_T") == pytest.approx(want.pop("gamma_T"), rel=1e-12)
        if family == CONSTRAINT:
            assert got.pop("gamma_XPW") == pytest.approx(want.pop("gamma_XPW"), rel=1e-12)
        assert got == want


def test_check_lemma4_takes_no_svd_of_a(monkeypatch):
    s = build_oseen(8, 0.1)
    pc = constraint_pc(s)
    A = s.matrix().toarray()
    seen = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    check_lemma4(s, pc)
    assert seen  # the SVDs check_lemma4 does take go through the spy
    assert not any(a.shape == A.shape and np.array_equal(a, A) for a in seen)


def _full_matrix_rule(system, pc):
    """(null_ok, index_ok) from ranks of the whole M^+ A and (M^+ A)^2."""
    MdagA = apply_pseudo_inverse(pc, system.matrix().toarray())
    rank = numerical_rank(MdagA)
    d = system.null_BT.shape[1]
    return MdagA.shape[0] - rank == d, rank == numerical_rank(MdagA @ MdagA)


# constraint-family points at l=8, both nu, also beyond pd_bound
CONSTRAINT_GRID = [("symmetric_scaled", 1e-6), ("symmetric_scaled", 0.5),
                   ("symmetric_scaled", 1e6), ("triangular_split", 0.005),
                   ("triangular_split", 0.5), ("triangular_split", 1.5),
                   ("triangular_split", 26.4)]


@pytest.mark.parametrize("nu", [0.1, 0.001])
@pytest.mark.parametrize("kind,omega", CONSTRAINT_GRID)
def test_constraint_t_is_block_lower_triangular(nu, kind, omega):
    # the premises of gamma_T from T[:n, :n], also beyond pd_bound: X B^T = 0
    # and T[n:, n:] has only the eigenvalues 0 and 1
    s = build_oseen(8, nu)
    n = s.n
    pc = constraint_pc(s, kind=kind, omega=omega, enforce_pd=False)
    MdagA = apply_pseudo_inverse(pc, s.matrix().toarray())
    assert np.abs(MdagA[:n, n:]).max() <= 1e-13 * np.abs(MdagA).max()
    T = np.eye(n + s.m) - MdagA
    lam = np.linalg.eigvals(T[n:, n:])
    assert np.minimum(np.abs(lam), np.abs(lam - 1.0)).max() <= 1e-10
    gamma_full = pseudospectral_radius(T)
    assert pseudospectral_radius(T[:n, :n]) == pytest.approx(gamma_full, rel=1e-12)
    assert check_lemma4(s, pc).gamma_T == pytest.approx(gamma_full, rel=1e-12)


@pytest.mark.parametrize("nu,kind,omega", [
    (nu, kind, omega) for nu in (0.1, 0.001) for kind, omega in CONSTRAINT_GRID
    # the full-matrix rule counts sigma_r(M^+ A) / sigma_1 = 1.7e-13 as zero here
    if (nu, kind, omega) != (0.1, "symmetric_scaled", 1e6)
])
def test_constraint_null_space_from_the_n_by_n_block(nu, kind, omega):
    # dim null(M^+ A) = dim null(K) + d with K = (M^+ A)[:n, :n]
    s = build_oseen(8, nu)
    n, d = s.n, s.null_BT.shape[1]
    pc = constraint_pc(s, kind=kind, omega=omega, enforce_pd=False)
    MdagA = apply_pseudo_inverse(pc, s.matrix().toarray())
    assert n - numerical_rank(MdagA[:n, :n]) == n + s.m - numerical_rank(MdagA) - d


@pytest.mark.parametrize("nu,omega,full_rule,ratio", [
    (0.1, 1e-6, (True, False), 6.34e-7), (0.1, 1e6, (False, True), 8.70e-7),
    (0.001, 1e-6, (True, False), 2.13e-10), (0.001, 1e6, (True, False), 8.33e-7),
])
def test_check_lemma4_case1_verdicts_the_full_matrix_rule_misreads(nu, omega, full_rule, ratio):
    # K = (M^+ A)[:n, :n] has sigma_min / sigma_max = ratio, above the 1e-12
    # rank cut: K is nonsingular and both tests hold.  The full-matrix rule
    # misreads each point: at three, (M^+ A)^2 squares those singular values
    # below the cut (index_ok False); at nu=0.1, omega=1e6 it counts
    # sigma_r(M^+ A) / sigma_1 = 1.7e-13 as zero (null_ok False)
    s = build_oseen(8, nu)
    pc = constraint_pc(s, omega=omega)
    report = check_lemma4(s, pc)
    assert report.lemma4_null_ok and report.lemma4_index_ok
    assert _full_matrix_rule(s, pc) == full_rule
    K = apply_pseudo_inverse(pc, s.matrix().toarray())[:s.n, :s.n]
    sv = np.linalg.svd(K, compute_uv=False)
    assert sv[-1] / sv[0] == pytest.approx(ratio, rel=1e-2)
    assert numerical_rank(K) == s.n > numerical_rank(K @ K)


@pytest.mark.parametrize("nu,kind,omega", [
    (0.1, "symmetric_scaled", 1.50), (0.1, "triangular_split", 0.06),
    (0.001, "symmetric_scaled", 26.40), (0.001, "triangular_split", 0.06),
], ids=["0.1-I", "0.1-II", "0.001-I", "0.001-II"])
def test_check_lemma4_constraint_points_of_the_l16_analysis(nu, kind, omega):
    # the constraint-family points of the analyze16 benchmark workload
    s = build_oseen(16, nu)
    pc = constraint_pc(s, kind=kind, omega=omega, enforce_pd=False)
    report = check_lemma4(s, pc)
    assert report.gamma_XPW == pytest.approx(gcp_convergence_indicator(s, pc), rel=1e-12)
    assert (report.lemma4_null_ok, report.lemma4_index_ok) == _full_matrix_rule(s, pc)


@pytest.mark.parametrize("nu", [0.1, 0.001])
@pytest.mark.parametrize("family,kind,omega", [
    (CONSTRAINT, "symmetric_scaled", 0.5), (CONSTRAINT, "triangular_split", 0.005),
    (BLOCK_DIAG, "symmetric_scaled", 0.5), (BLOCK_DIAG, "triangular_split", 0.005),
], ids=["I", "II", "III", "IV"])
def test_null_vectors_are_left_null_vectors_of_mplus(nu, family, kind, omega):
    # (M^+)^T (0; N) = 0 and A (0; N) = 0 make (0; N) a left and a right null
    # vector of M^+ A, so rank(M^+ A) = n + m - d already implies index one
    s = build_oseen(8, nu)
    V = np.vstack([np.zeros((s.n, s.null_BT.shape[1])), s.null_BT])
    pc = build(s, family, PChoice(kind=kind, omega=omega))
    assert not apply_pseudo_inverse_transpose(pc, V).any()
    assert not (s.matrix() @ V).any()


@pytest.mark.parametrize("family,kind,omega", [
    (CONSTRAINT, "symmetric_scaled", 1.0), (CONSTRAINT, "triangular_split", 0.005),
    (BLOCK_DIAG, "symmetric_scaled", 1.0), (BLOCK_DIAG, "triangular_split", 0.005),
], ids=["I", "II", "III", "IV"])
def test_check_lemma4_kernel_sizes(monkeypatch, family, kind, omega):
    s = build_oseen(8, 0.1)
    pc = build(s, family, PChoice(kind=kind, omega=omega))
    svd_uv, svd_shapes, eig_shapes = [], [], []
    real_svd, real_eigvals = np.linalg.svd, np.linalg.eigvals

    def svd_spy(a, *args, **kwargs):
        svd_uv.append(kwargs.get("compute_uv", True))
        svd_shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    def eigvals_spy(a):
        eig_shapes.append(np.shape(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals_spy)
    check_lemma4(s, pc)
    assert svd_uv and not any(svd_uv)
    n, size = s.n, s.n + s.m
    # the constraint family's one n x n eig gives gamma_T and gamma(X(P - W))
    assert eig_shapes == ([(n, n)] if family == CONSTRAINT else [(size, size)])
    if family == CONSTRAINT:
        assert set(svd_shapes) == {(n, n)}


def test_check_lemma4_null_test_survives_a_tiny_last_singular_value():
    # Case III at omega=1e6: sigma_r / sigma_1 = 3.1e-11, so an SVD null vector
    # drifts past 1e-8 from (0; N), but ||M^+ A (0; N)|| / sigma_r = 2.2e-14
    # bounds the true angle: the null spaces match
    s = build_oseen(8, 0.001)
    pc = build(s, BLOCK_DIAG, PChoice(omega=1e6))
    assert check_lemma4(s, pc).lemma4_null_ok


def test_check_lemma4_null_test_fails_on_a_velocity_null_vector():
    # W e_4 = 0 and B e_4 = 0: (e_4; 0) is a null vector of A and of M^+ A
    # outside {0} x null(B^T), so the null-space test reads False; the
    # index test on K = (M^+ A)[:n, :n] agrees with the one on M^+ A
    W = np.diag([2.0, 1.0, 3.0, 0.0])
    W[0, 1], W[1, 0] = 0.5, -0.5
    B = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0]])
    s = SaddleSystem(W=W, B=B, f=np.zeros(4), g=np.zeros(3))
    pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=np.eye(4)))
    report = check_lemma4(s, pc)
    assert not report.lemma4_null_ok
    assert report.lemma4_index_ok == _full_matrix_rule(s, pc)[1]
