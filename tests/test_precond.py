"""The block pseudoinverse formulas against SVD oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dtrtrs

from saddlekit import (
    BLOCK_DIAG,
    BLOCK_TRI,
    CONSTRAINT,
    NotPositiveDefinite,
    PChoice,
    SaddleSystem,
    apply_pseudo_inverse,
    apply_pseudo_inverse_transpose,
    assemble,
    build,
    build_oseen,
    build_random_singular,
)
from saddlekit import LinAlgFailure, omega_sweep, precond
from saddlekit.analysis import pd_bound
from saddlekit.linalg import cholesky, pinv
from saddlekit.precond import FAMILIES, SYMMETRIC_SCALED, TRIANGULAR_SPLIT
from saddlekit.solvers import INFEASIBLE
from saddlekit.problems import skew_part, symmetric_part


def saddle(seed, **kw):
    return build_random_singular(n=kw.pop("n", 8), m=kw.pop("m", 4),
                                 rank_b=kw.pop("rank_b", 3), seed=seed)


def valid_choice(system, kind, seed):
    g = np.random.default_rng(seed)
    if kind == "symmetric_scaled":
        return PChoice(kind=kind, omega=float(g.uniform(0.5, 2.0)))
    return PChoice(kind=kind, omega=float(g.uniform(0.2, 0.8) * pd_bound(system.W)))


class TestPChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            PChoice(kind="nope")
        with pytest.raises(ValueError):
            PChoice(kind="symmetric_scaled", omega=0.0)
        with pytest.raises(ValueError):
            PChoice(kind="custom")
        PChoice(kind="custom", custom_p=np.eye(2))  # ok


class TestBuild:
    def test_unknown_family(self):
        s = saddle(0)
        with pytest.raises(ValueError):
            build(s, "diagonal", PChoice())

    def test_pd_gate_triangular(self):
        s = saddle(1)
        bad = 1.5 * pd_bound(s.W)
        with pytest.raises(ValueError):
            build(s, CONSTRAINT, PChoice(kind="triangular_split", omega=bad))
        # the gate can be waived explicitly
        build(s, CONSTRAINT, PChoice(kind="triangular_split", omega=bad),
              enforce_pd=False)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_no_norm_without_pd_gate(self, family, monkeypatch):
        def refuse(_):
            raise AssertionError("spectral_norm called with enforce_pd=False")

        s = saddle(4)
        omega = 1.5 * pd_bound(s.W)  # before the patch: pd_bound itself takes the norm
        monkeypatch.setattr(precond, "spectral_norm", refuse)
        build(s, family, PChoice(kind="triangular_split", omega=omega), enforce_pd=False)

    def test_pd_gate_message(self):
        s = saddle(1)
        bound = pd_bound(s.W)
        with pytest.raises(ValueError) as exc:
            build(s, CONSTRAINT, PChoice(kind="triangular_split", omega=1.5 * bound))
        assert str(exc.value) == (
            "triangular-split P is not positive definite: "
            f"omega={1.5 * bound:g} >= 1/||L_s||_2 = {bound:g}")

    @pytest.mark.parametrize("system", ["oseen", "random"])
    def test_pd_gate_is_pd_bound(self, system, oseen_8):
        # the gate and pd_bound are one rule: it refuses omega = pd_bound and
        # accepts the largest float below it
        s = oseen_8 if system == "oseen" else saddle(7)
        bound = pd_bound(s.W)
        with pytest.raises(ValueError, match="not positive definite"):
            build(s, CONSTRAINT, PChoice(kind="triangular_split", omega=bound))
        build(s, CONSTRAINT, PChoice(kind="triangular_split",
                                     omega=float(np.nextafter(bound, 0.0))))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lazy_p_is_bit_exact(self, family):
        s = saddle(5)
        H, S = symmetric_part(s.W), skew_part(s.W)
        omega = 0.5 * pd_bound(s.W)
        pc = build(s, family, PChoice(kind="symmetric_scaled", omega=omega))
        assert "P" not in vars(pc)  # formed on first use only
        assert np.array_equal(pc.P, (omega * H).toarray())
        pc = build(s, family, PChoice(kind="triangular_split", omega=omega))
        # (1/omega)(I + omega L_s)(I + omega U_s), expanded and formed sparse
        L_s, U_s = sps.tril(S, -1, format="csr"), sps.triu(S, 1, format="csr")
        sparse = S + sps.eye_array(s.n, format="csr") / omega + omega * (L_s @ U_s)
        assert pc.P.tobytes() == sparse.toarray().tobytes()
        # the dense product it replaces, to a few ulps
        I, Sd = np.eye(s.n), S.toarray()
        product = (1.0 / omega) * ((I + omega * np.tril(Sd, -1)) @ (I + omega * np.triu(Sd, 1)))
        assert np.abs(pc.P - product).max() <= 4 * np.finfo(float).eps * np.abs(product).max()

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", ["symmetric_scaled", "triangular_split", "custom"])
    def test_apply_rejects_non_finite(self, family, kind):
        s = saddle(6)
        pc = build(s, family, PChoice(kind=kind, omega=0.5 * pd_bound(s.W),
                                      custom_p=np.diag(np.arange(1.0, s.n + 1))))
        r = np.ones(s.n + s.m)
        r[1] = np.nan
        with pytest.raises(ValueError):
            apply_pseudo_inverse(pc, r)
        with pytest.raises(ValueError):
            apply_pseudo_inverse_transpose(pc, r)

    def test_triangular_p_product(self):
        s = saddle(2)
        pc = build(s, BLOCK_DIAG, valid_choice(s, "triangular_split", 2))
        v = np.random.default_rng(3).standard_normal(s.n)
        assert np.allclose(pc.P @ pc.p_solve(v), v, atol=1e-9)
        assert np.allclose(pc.P.T @ pc.p_solve_t(v), v, atol=1e-9)

    def test_custom_p(self):
        s = saddle(3)
        P = np.diag(np.arange(1.0, s.n + 1))
        pc = build(s, BLOCK_TRI, PChoice(kind="custom", custom_p=P))
        v = np.ones(s.n)
        assert np.allclose(pc.p_solve(v), v / np.diag(P))
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=P))
        assert np.array_equal(pc.P, P)
        with pytest.raises(ValueError, match="keeps no factor of P"):
            pc.p_solve(v)


@pytest.mark.parametrize("family", [CONSTRAINT, BLOCK_DIAG])
@pytest.mark.parametrize("kind", ["symmetric_scaled", "triangular_split"])
@given(seed=st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_block_apply_matches_svd_pinv(family, kind, seed):
    s = saddle(seed)
    pc = build(s, family, valid_choice(s, kind, seed))
    M = assemble(pc)
    M_dag = pinv(M, rank_tol=1e-11)
    R = np.random.default_rng(seed + 1).standard_normal((s.n + s.m, 3))
    assert np.allclose(apply_pseudo_inverse(pc, R), M_dag @ R,
                       atol=1e-7 * max(1.0, np.abs(M_dag).max()))
    assert np.allclose(apply_pseudo_inverse_transpose(pc, R), M_dag.T @ R,
                       atol=1e-7 * max(1.0, np.abs(M_dag).max()))


@given(seed=st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_block_tri_is_exact_inverse(seed):
    # the (2,2) scalar is 1 without grid metadata and h^2/nu = 0.125 for the Oseen system
    for s in (saddle(seed), build_oseen(4, 0.5)):
        pc = build(s, BLOCK_TRI, valid_choice(s, "symmetric_scaled", seed))
        M = assemble(pc)
        r = np.random.default_rng(seed).standard_normal(s.n + s.m)
        y = apply_pseudo_inverse(pc, r)
        assert np.allclose(M @ y, r, atol=1e-8 * max(1.0, np.abs(M).max()))
        yt = apply_pseudo_inverse_transpose(pc, r)
        assert np.allclose(M.T @ yt, r, atol=1e-8 * max(1.0, np.abs(M).max()))


def test_block_tri_scalar_from_metadata():
    s = build_oseen(4, 0.5)
    pc = build(s, BLOCK_TRI, PChoice())
    assert pc.h_sq_over_nu == pytest.approx(s.h**2 / s.nu)


def test_constraint_singularity_matches_b():
    s = saddle(11)
    pc = build(s, CONSTRAINT, PChoice())
    M = assemble(pc)
    from saddlekit.linalg import numerical_rank
    # with P nonsingular, rank(M) = n + rank(B); deficiency matches B's
    assert numerical_rank(M) == s.n + numerical_rank(s.B)


def test_apply_rejects_wrong_length():
    s = saddle(12)
    pc = build(s, CONSTRAINT, PChoice())
    with pytest.raises(ValueError):
        apply_pseudo_inverse(pc, np.zeros(s.n))


@pytest.mark.parametrize("kind,omega", [("symmetric_scaled", 0.7), ("triangular_split", 0.05),
                                        ("triangular_split", 0.5), ("custom", None)])
def test_p_solves_bit_identical_to_scipy_wrappers(oseen_8, kind, omega):
    # the direct LAPACK calls against the scipy.linalg calls they replace
    import scipy.linalg as sla

    s = oseen_8
    W = s.W.toarray()
    H, S = symmetric_part(W).toarray(), skew_part(W).toarray()
    if kind == "symmetric_scaled":
        L = np.asfortranarray(cholesky(omega * H))
        solve = solve_t = lambda x: sla.cho_solve((L, True), x)
        choice = PChoice(kind=kind, omega=omega)
    elif kind == "triangular_split":
        Fl, Fu = np.eye(s.n) + omega * np.tril(S, -1), np.eye(s.n) + omega * np.triu(S, 1)

        def solve(x):
            return omega * sla.solve_triangular(Fu, sla.solve_triangular(Fl, x, lower=True))

        def solve_t(x):
            return omega * sla.solve_triangular(Fl.T, sla.solve_triangular(Fu.T, x, lower=True))

        choice = PChoice(kind=kind, omega=omega)
    else:
        P = W + np.eye(s.n)
        lu = sla.lu_factor(P)
        solve = lambda x: sla.lu_solve(lu, x)
        solve_t = lambda x: sla.lu_solve(lu, x, trans=1)
        choice = PChoice(kind=kind, custom_p=P)
    pc = build(s, BLOCK_TRI, choice, enforce_pd=False)
    g = np.random.default_rng(5)
    for x in (g.standard_normal(s.n), g.standard_normal((s.n, 3))):
        for got, want in ((pc.p_solve(x), solve(x)), (pc.p_solve_t(x), solve_t(x))):
            assert got.shape == x.shape
            assert got.tobytes() == want.tobytes()


def _two_array_solves(system, omega):
    """P^{-1} and P^{-T} through separately formed Fl and Fu (the reference)."""
    S = skew_part(system.W).toarray()
    I = np.eye(system.n)
    Fl, Fu = I + omega * np.tril(S, -1), I + omega * np.triu(S, 1)

    def tri(F, x, lower, trans):
        y, info = dtrtrs(F, x, lower=lower, trans=trans)
        assert info == 0
        return y

    def solve(x):
        return omega * tri(Fu.T, tri(Fl.T, x, 0, 1), 1, 1)

    def solve_t(x):
        return omega * tri(Fl.T, tri(Fu.T, x, 1, 0), 0, 0)

    return solve, solve_t


@pytest.mark.parametrize("system", [
    *[pytest.param((l, nu, omega), id=f"oseen{l}-{nu}-{omega}")
      for l in (8, 16) for nu in (0.1, 0.001) for omega in (0.05, 0.5)],
    pytest.param(("random", 0.3), id="random"),
])
def test_one_factor_array_matches_two(system):
    # F = I + omega S holds Fl and Fu in its two triangles; the solves must not move a bit
    if system[0] == "random":
        s, omega = build_random_singular(n=30, m=12, rank_b=10, seed=4), system[1]
    else:
        l, nu, omega = system
        s = build_oseen(l, nu)
    pc = build(s, BLOCK_TRI, PChoice(kind="triangular_split", omega=omega), enforce_pd=False)
    solve, solve_t = _two_array_solves(s, omega)
    g = np.random.default_rng(9)
    for x in (g.standard_normal(s.n), g.standard_normal((s.n, 3))):
        assert pc.p_solve(x).tobytes() == solve(x).tobytes()
        assert pc.p_solve_t(x).tobytes() == solve_t(x).tobytes()


def test_triangular_build_keeps_one_square_array():
    s = build_oseen(16, 0.001)
    square = 8 * s.n * s.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc = build(s, BLOCK_TRI, PChoice(kind="triangular_split", omega=0.05))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = pc.dense_B.nbytes
    # one n x n array (F) beyond B, with room for small objects
    assert kept - base - own <= square + 64 * 1024
    # the highest point is the PD gate's SVD of L_s, before F exists
    assert peak - base - own <= 2.5 * square


@pytest.mark.parametrize("kind,omega", [(SYMMETRIC_SCALED, 0.5), (TRIANGULAR_SPLIT, 0.05)])
def test_constraint_build_holds_no_square_array(kind, omega):
    s = build_oseen(16, 0.001)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc = build(s, CONSTRAINT, PChoice(kind=kind, omega=omega), enforce_pd=False)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(pc).values() if isinstance(v, np.ndarray)]
    assert all(a.size <= s.m for a in arrays)  # N and the pinned rows only
    assert pc.dense_B is None and pc.E is None and pc.E_lu is None
    # the sparse LU of the pinned M is a small fraction of one dense n x n array
    assert kept - base <= 0.25 * 8 * s.n * s.n


@pytest.mark.parametrize("kind", ["symmetric_scaled", "triangular_split"])
@pytest.mark.parametrize("enforce_pd", [True, False])
def test_non_finite_w_rejected(kind, enforce_pd):
    s = saddle(7)
    W = s.W.toarray()
    W[0, 1] = np.nan
    bad = SaddleSystem(W=W, B=s.B, f=s.f, g=s.g)
    with pytest.raises(ValueError):
        build(bad, CONSTRAINT, PChoice(kind=kind, omega=0.1), enforce_pd=enforce_pd)


def test_indefinite_h_rejected():
    s = saddle(8)
    W = s.W.toarray()
    W[0, 0] = -np.abs(W).sum()  # a negative diagonal entry of H
    bad = SaddleSystem(W=W, B=s.B, f=s.f, g=s.g)
    for family in FAMILIES:
        with pytest.raises(NotPositiveDefinite):
            build(bad, family, PChoice(kind="symmetric_scaled"))


def _six_builds(s):
    # cases I-VI: the three families x both P kinds, at omegas inside each P's range
    return [build(s, family, PChoice(kind=kind, omega=0.5 if kind == SYMMETRIC_SCALED else 0.05),
                  enforce_pd=False)
            for family in FAMILIES for kind in (SYMMETRIC_SCALED, TRIANGULAR_SPLIT)]


def test_block_tri_keeps_its_own_dense_b():
    # the block-triangular applies read a dense B; the other families keep none
    s = build_oseen(16, 0.001)
    pcs = _six_builds(s)
    want = s.B.toarray().tobytes()
    kept = [pc.dense_B for pc in pcs if pc.family == BLOCK_TRI]
    assert len(kept) == 2 and all(B.tobytes() == want for B in kept)
    assert all(pc.dense_B is None for pc in pcs if pc.family != BLOCK_TRI)
    assert all(pc.B is s.B for pc in pcs)  # the system's own CSR B, for assemble


@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
@pytest.mark.parametrize("family", FAMILIES)
def test_e_kept_by_block_diag_only(family, kind):
    s = build_oseen(8, 0.001)
    pc = build(s, family, PChoice(kind=kind, omega=0.05), enforce_pd=False)
    if family != BLOCK_DIAG:
        assert pc.E is None
        return
    B = s.B.toarray()
    assert pc.E.tobytes() == (B @ pc.p_solve(B.T)).tobytes()


@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
def test_p_formed_on_each_read(kind):
    s = build_oseen(8, 0.1)
    pc = build(s, CONSTRAINT, PChoice(kind=kind, omega=0.05))
    first, second = pc.P, pc.P
    assert first is not second
    assert first.tobytes() == second.tobytes()
    assert "P" not in vars(pc)


@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
@pytest.mark.parametrize("family", FAMILIES)
def test_assemble_matches_inline_blocks(family, kind):
    s = build_oseen(8, 0.001)
    pc = build(s, family, PChoice(kind=kind, omega=0.05), enforce_pd=False)
    n, m = s.n, s.m
    B = s.B.toarray()
    M = np.zeros((n + m, n + m))
    M[:n, :n] = pc.P
    if family == CONSTRAINT:
        M[:n, n:] = B.T
        M[n:, :n] = (-s.B).toarray()  # scattered from the sparse -B: zeros are +0.0
    elif family == BLOCK_DIAG:
        M[n:, n:] = B @ pc.p_solve(B.T)
    else:
        M[:n, n:] = B.T
        M[n:, n:] = (s.h**2 / s.nu) * np.eye(m)
    assert assemble(pc).tobytes() == M.tobytes()


def test_six_builds_keep_two_dense_b():
    s = build_oseen(16, 0.001)
    size = 8 * s.m * s.n
    tracemalloc.start()
    try:
        pcs = _six_builds(s)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # an m x n buffer alive after the builds can only be a block-triangular
    # pc's B: the other families make no dense B
    alive = [t for t in snapshot.traces if t.size == size]
    assert len(alive) == 2
    assert pcs[-2].dense_B is not pcs[-1].dense_B


@pytest.mark.parametrize("system", [
    *[pytest.param(("random", d), id=f"random-null{d}") for d in (1, 2, 3)],
    *[pytest.param(("oseen", nu), id=f"oseen8-{nu}") for nu in (0.1, 0.001)],
])
@pytest.mark.parametrize("family,kind", [(CONSTRAINT, SYMMETRIC_SCALED),
                                         (CONSTRAINT, TRIANGULAR_SPLIT),
                                         (BLOCK_DIAG, SYMMETRIC_SCALED),
                                         (BLOCK_DIAG, TRIANGULAR_SPLIT)],
                         ids=["I", "II", "III", "IV"])
def test_lu_pseudo_inverse_matches_pinv(system, family, kind):
    if system[0] == "random":
        s = build_random_singular(n=12, m=6, rank_b=6 - system[1], seed=system[1])
        tri_omega = 0.5 * pd_bound(s.W)
    else:
        s, tri_omega = build_oseen(8, system[1]), 0.05
    omega = 1.0 if kind == SYMMETRIC_SCALED else tri_omega
    pc = build(s, family, PChoice(kind=kind, omega=omega))
    M_dag = np.linalg.pinv(assemble(pc))
    R = np.random.default_rng(4).standard_normal((s.n + s.m, 3))
    for got, want in ((apply_pseudo_inverse(pc, R), M_dag @ R),
                      (apply_pseudo_inverse_transpose(pc, R), M_dag.T @ R),
                      (apply_pseudo_inverse(pc, R[:, 0]), M_dag @ R[:, 0])):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_case_ii_at_l32_is_exact():
    # l=32, nu=0.001, omega=0.05 (triangular split beyond its PD bound): the
    # explicit block formula on E^+ left a residual of 6.8e-2 here
    s = build_oseen(32, 0.001)
    pc = build(s, CONSTRAINT, PChoice(kind=TRIANGULAR_SPLIT, omega=0.05), enforce_pd=False)
    M = assemble(pc)
    V = np.zeros(s.n + s.m)
    V[s.n:] = 1.0 / np.sqrt(s.m)
    R = np.random.default_rng(2).standard_normal((s.n + s.m, 2))
    target = R - np.outer(V, V @ R)
    norms = np.linalg.norm(R, axis=0)
    assert (np.linalg.norm(M @ apply_pseudo_inverse(pc, R) - target, axis=0) / norms).max() <= 1e-8
    assert (np.linalg.norm(M.T @ apply_pseudo_inverse_transpose(pc, R) - target, axis=0)
            / norms).max() <= 1e-8


def test_constraint_build_takes_no_dense_cholesky(monkeypatch):
    s = build_oseen(8, 0.1)
    calls = []
    real = precond.cholesky
    monkeypatch.setattr(precond, "cholesky", lambda A: calls.append(A.shape) or real(A))
    for omega in (0.5, 1.0, 2.0):
        build(s, CONSTRAINT, PChoice(kind=SYMMETRIC_SCALED, omega=omega))
    assert calls == []  # the SPD check on H is a sparse LU
    # the block-diagonal family factors omega H sparse as well
    build(s, BLOCK_DIAG, PChoice(kind=SYMMETRIC_SCALED, omega=1.0))
    assert calls == []
    # the block-triangular family keeps a dense Cholesky factor of omega H
    build(s, BLOCK_TRI, PChoice(kind=SYMMETRIC_SCALED, omega=1.0))
    assert calls == [(s.n, s.n)]


def _h_spd_verdicts(W) -> tuple[bool, bool]:
    """Whether H = sym(W) passes check_h_spd, and whether it passes the dense
    Cholesky (the oracle)."""
    verdicts = []
    for check, arg in ((precond.check_h_spd, W), (cholesky, symmetric_part(W).toarray())):
        try:
            check(arg)
        except NotPositiveDefinite:
            verdicts.append(False)
        else:
            verdicts.append(True)
    return tuple(verdicts)


@pytest.mark.parametrize("l", [4, 5, 8, 16])
@pytest.mark.parametrize("nu", [0.1, 0.003, 0.001])
def test_h_spd_check_agrees_with_cholesky_on_oseen(l, nu):
    got, want = _h_spd_verdicts(build_oseen(l, nu).W)
    assert got == want


def test_h_spd_check_agrees_with_cholesky_on_shifted_matrices():
    # W = G + shift I with shift a margin above or below -lambda_min(sym G)
    g = np.random.default_rng(21)
    verdicts = []
    for _ in range(50):
        n = int(g.integers(2, 31))
        G = g.standard_normal((n, n)) * (g.random((n, n)) < 0.3)
        lmin = np.linalg.eigvalsh(0.5 * (G + G.T)).min()
        margin = g.choice([-1.0, 1.0]) * g.uniform(0.01, 1.0)
        got, want = _h_spd_verdicts(sps.csr_array(G + (margin - lmin) * np.eye(n)))
        assert got == want == (margin > 0)
        verdicts.append(want)
    assert 10 <= sum(verdicts) <= 40  # both verdicts are exercised


@pytest.mark.parametrize("H", [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["off-diagonal-pivot", "singular-factor"])
def test_h_spd_check_rejects_edge_cases(H):
    with pytest.raises(NotPositiveDefinite, match="matrix not positive definite"):
        precond.check_h_spd(sps.csr_array(np.array(H)))


def test_case_i_build_peaks_below_one_square_array():
    s = build_oseen(16, 0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build(s, CONSTRAINT, PChoice(kind=SYMMETRIC_SCALED, omega=1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * s.n * s.n


def _zero_row_system():
    """B with a zero last row, recorded as having no null vector of B^T:
    the last pressure row of M and of E is then exactly zero."""
    s = build_random_singular(n=8, m=4, rank_b=3, seed=1)
    B = np.vstack([np.random.default_rng(1).standard_normal((3, s.n)), np.zeros((1, s.n))])
    return SaddleSystem(W=s.W, B=B, f=s.f, g=s.g, null_BT=np.zeros((4, 0)))


@pytest.mark.parametrize("family", [CONSTRAINT, BLOCK_DIAG])
def test_singular_factor_raises_linalg_failure(family):
    # SuperLU's RuntimeError for the pinned M, LAPACK's info for E + N N^T
    with pytest.raises(LinAlgFailure, match="singular"):
        build(_zero_row_system(), family, PChoice(kind=SYMMETRIC_SCALED))


@pytest.mark.parametrize("family", [CONSTRAINT, BLOCK_DIAG])
def test_singular_factor_is_an_infeasible_sweep_point(family):
    reports = omega_sweep(_zero_row_system(), family, TRIANGULAR_SPLIT, [0.01, 0.02])
    assert [r.status for r in reports] == [INFEASIBLE, INFEASIBLE]


@pytest.mark.parametrize("kind,omega", [(SYMMETRIC_SCALED, 0.5), (TRIANGULAR_SPLIT, 0.05)])
def test_block_diag_build_holds_no_square_array(kind, omega):
    # tracemalloc does not see SuperLU's own mallocs: the sparse LU of P is
    # outside both figures
    s = build_oseen(16, 0.001)
    square = 8 * s.n * s.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc = build(s, BLOCK_DIAG, PChoice(kind=kind, omega=omega), enforce_pd=False)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(pc).values() if isinstance(v, np.ndarray)]
    arrays += [a for a in pc.E_lu if isinstance(a, np.ndarray)]
    assert max(a.size for a in arrays) <= s.m * s.m
    assert pc.dense_B is None
    # E and the LU of E + N N^T, with room for small objects
    assert kept - base <= pc.E.nbytes + pc.E_lu[0].nbytes + 64 * 1024
    assert peak - base < square


def _block_diag_cases():
    for l in (8, 16):
        for nu in (0.1, 0.001):
            yield pytest.param(("oseen", l, nu), id=f"oseen{l}-{nu}")
    for seed in (0, 1):
        yield pytest.param(("random", seed), id=f"random{seed}")


@pytest.mark.parametrize("system", list(_block_diag_cases()))
@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
def test_block_diag_p_solves_and_e_match_dense(system, kind):
    if system[0] == "random":
        s = build_random_singular(n=30, m=12, rank_b=10, seed=system[1])
    else:
        s = build_oseen(system[1], system[2])
    omega = 0.5 * pd_bound(s.W) if kind == TRIANGULAR_SPLIT else 1.0
    pc = build(s, BLOCK_DIAG, PChoice(kind=kind, omega=omega))
    P, B = pc.P, s.B.toarray()
    X = np.random.default_rng(3).standard_normal((s.n, 3))
    for got, want in ((pc.p_solve(X), np.linalg.solve(P, X)),
                      (pc.p_solve(X[:, 0]), np.linalg.solve(P, X[:, 0])),
                      (pc.p_solve_t(X), np.linalg.solve(P.T, X)),
                      (pc.E, B @ np.linalg.solve(P, B.T))):
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_block_diag_indefinite_h_message():
    with pytest.raises(NotPositiveDefinite) as exc:
        build(build_oseen(4, 0.001), BLOCK_DIAG, PChoice(kind=SYMMETRIC_SCALED))
    assert str(exc.value) == "matrix not positive definite"


@pytest.mark.parametrize("family", [BLOCK_DIAG, BLOCK_TRI])
def test_overflowing_p_solves_rejected(family):
    # P is finite at omega = 1e300, but P^{-1} is not representable
    with pytest.raises(ValueError):
        build(build_oseen(8, 0.001), family, PChoice(kind=TRIANGULAR_SPLIT, omega=1e300),
              enforce_pd=False)


def test_singular_p_is_a_linalg_failure():
    s = saddle(9)
    P = np.eye(s.n)
    P[-1, -1] = 0.0
    with pytest.raises(LinAlgFailure, match="P is singular"):
        build(s, BLOCK_DIAG, PChoice(kind="custom", custom_p=P))
    # omega H at omega = 1e-320 underflows to an exactly singular factor
    reports = omega_sweep(build_oseen(8, 0.1), BLOCK_DIAG, SYMMETRIC_SCALED, [1e-320])
    assert [r.status for r in reports] == [INFEASIBLE]
