"""The block pseudoinverse formulas against SVD oracles."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
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
from saddlekit import LinAlgFailure, omega_sweep, pd_bound, precond
from saddlekit.linalg import pinv
from saddlekit.precond import CUSTOM, FAMILIES, SYMMETRIC_SCALED, TRIANGULAR_SPLIT
from saddlekit.solvers import INFEASIBLE
from saddlekit.tables import CASE_MAP
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
        for i in (1, s.n + 1):  # a NaN in r1, then in r2
            r = np.ones(s.n + s.m)
            r[i] = np.nan
            with pytest.raises(ValueError):
                apply_pseudo_inverse(pc, r)
            with pytest.raises(ValueError):
                apply_pseudo_inverse_transpose(pc, r)

    def test_triangular_p_product(self):
        s = saddle(2)
        pc = build(s, BLOCK_DIAG, valid_choice(s, "triangular_split", 2))
        v = np.random.default_rng(3).standard_normal(s.n)
        assert np.allclose(pc.P @ pc.p_solve(v), v, atol=1e-9)
        assert np.allclose(pc.P.T @ pc.p_solve(v, "T"), v, atol=1e-9)

    def test_custom_p(self):
        s = saddle(3)
        P = np.diag(np.arange(1.0, s.n + 1))
        pc = build(s, BLOCK_TRI, PChoice(kind="custom", custom_p=P))
        v = np.ones(s.n)
        assert np.allclose(pc.p_solve(v), v / np.diag(P))
        pc = build(s, CONSTRAINT, PChoice(kind="custom", custom_p=P))
        assert np.array_equal(pc.P, P)
        for trans in ("N", "T"):
            with pytest.raises(ValueError, match="keeps no factor of P"):
                pc.p_solve(v, trans)


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


@pytest.mark.parametrize("l,nu", [(8, 0.1), (8, 0.001), (16, 0.1), (16, 0.001),
                                  (32, 0.1), (32, 0.001), (None, None)])
@pytest.mark.parametrize("kind,omega", [(SYMMETRIC_SCALED, 0.5), (TRIANGULAR_SPLIT, 0.05)])
def test_block_tri_stored_bt_keeps_every_bit(l, nu, kind, omega):
    # the stored CSR B^T and the CSC view B.T add each output entry's terms
    # in ascending column order from 0, so the back-substitution keeps the
    # bits the view gave
    s = build_oseen(l, nu) if l else saddle(7)
    pc = build(s, BLOCK_TRI, PChoice(kind=kind, omega=omega), enforce_pd=False)
    assert pc.BT.format == "csr" and pc.BT.has_sorted_indices
    assert pc.BT.shape == (s.n, s.m) and pc.BT.nnz == s.B.nnz
    assert np.array_equal(pc.BT.toarray(), s.B.T.toarray())
    g = np.random.default_rng(l or 0)
    for r in (g.standard_normal(s.n + s.m), g.standard_normal((s.n + s.m, 3))):
        r1, y2 = r[:s.n], r[s.n:] / pc.h_sq_over_nu
        expected = np.concatenate([pc.p_solve(r1 - pc.system.B.T @ y2), y2])
        assert np.array_equal(apply_pseudo_inverse(pc, r), expected)


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


def _backward_error(A, y, x):
    """||A y - x|| / (||A||_2 ||y||): small for a stable solve of A y = x,
    however ill-conditioned A is."""
    return np.linalg.norm(A @ y - x) / (np.linalg.norm(A, 2) * np.linalg.norm(y))


@pytest.mark.parametrize("kind,omega", [("symmetric_scaled", 0.7), ("triangular_split", 0.05),
                                        ("triangular_split", 0.5), ("custom", None)])
def test_block_families_share_one_p_solve(oseen_8, kind, omega):
    # both block families apply P^{-1} and P^{-T} through the same sparse LU,
    # a stable solve with P formed densely from its definition
    s = oseen_8
    W = s.W.toarray()
    I = np.eye(s.n)
    if kind == "symmetric_scaled":
        P = omega * symmetric_part(W).toarray()
        choice = PChoice(kind=kind, omega=omega)
    elif kind == "triangular_split":
        S = skew_part(W).toarray()
        P = (I + omega * np.tril(S, -1)) @ (I + omega * np.triu(S, 1)) / omega
        choice = PChoice(kind=kind, omega=omega)
    else:
        P = W + I
        choice = PChoice(kind=kind, custom_p=P)
    tri = build(s, BLOCK_TRI, choice, enforce_pd=False)
    diag = build(s, BLOCK_DIAG, choice, enforce_pd=False)
    g = np.random.default_rng(5)
    for x in (g.standard_normal(s.n), g.standard_normal((s.n, 3))):
        for got, same, A in ((tri.p_solve(x), diag.p_solve(x), P),
                             (tri.p_solve(x, "T"), diag.p_solve(x, "T"), P.T)):
            assert got.shape == x.shape
            assert got.tobytes() == same.tobytes()
            assert _backward_error(A, got, x) <= 1e-14


def _two_factor_solves(system, omega):
    """P = Fl Fu / omega with Fl = I + omega L_s, Fu = I + omega U_s, and
    P^{-1}, P^{-T} through two triangular solves (the reference)."""
    S = skew_part(system.W).toarray()
    I = np.eye(system.n)
    Fl, Fu = I + omega * np.tril(S, -1), I + omega * np.triu(S, 1)

    def tri(F, x, lower, trans):
        y, info = dtrtrs(F, x, lower=lower, trans=trans)
        assert info == 0
        return y

    def solve(x):
        return omega * tri(Fu, tri(Fl, x, 1, 0), 0, 0)

    def solve_t(x):
        return omega * tri(Fl, tri(Fu, x, 0, 1), 1, 1)

    return Fl @ Fu / omega, solve, solve_t


@pytest.mark.parametrize("system", [
    *[pytest.param((l, nu, omega), id=f"oseen{l}-{nu}-{omega}")
      for l in (8, 16) for nu in (0.1, 0.001) for omega in (0.05, 0.5)],
    pytest.param(("random", 0.3), id="random"),
])
def test_expanded_p_matches_two_triangular_factors(system):
    # the sparse P = S + I/omega + omega L_s U_s is the paper's product of two
    # triangular factors, and its one LU solves like the two factors
    if system[0] == "random":
        s, omega = build_random_singular(n=30, m=12, rank_b=10, seed=4), system[1]
    else:
        l, nu, omega = system
        s = build_oseen(l, nu)
    pc = build(s, BLOCK_TRI, PChoice(kind="triangular_split", omega=omega), enforce_pd=False)
    P, solve, solve_t = _two_factor_solves(s, omega)
    assert np.linalg.norm(pc.P - P) <= 1e-15 * np.linalg.norm(P)
    g = np.random.default_rng(9)
    for x in (g.standard_normal(s.n), g.standard_normal((s.n, 3))):
        for got, want, A in ((pc.p_solve(x), solve(x), P),
                             (pc.p_solve(x, "T"), solve_t(x), P.T)):
            assert _backward_error(A, got, x) <= 1e-14
            # inside the PD bound P is well conditioned: the solves agree too;
            # beyond it (cond(P) reaches 1e17 at l=16) only the backward error holds
            if omega < pd_bound(s.W):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_no_build_takes_a_dense_factor(monkeypatch):
    # every family factors P, H and the pinned M sparse, and applies through them
    def refuse(*args, **kwargs):
        raise AssertionError("a dense factorization on the build or apply path")

    for module, name in ((np.linalg, "cholesky"), (sla, "cholesky"), (sla, "cho_factor"),
                         (sla, "lu_factor"), (sla, "lu")):
        monkeypatch.setattr(module, name, refuse)
    s = build_oseen(8, 0.1)
    r = np.random.default_rng(2).standard_normal(s.n + s.m)
    choices = [PChoice(kind=SYMMETRIC_SCALED, omega=0.5), PChoice(kind=TRIANGULAR_SPLIT, omega=0.05),
               PChoice(kind="custom", custom_p=s.W.toarray() + np.eye(s.n))]
    for family in FAMILIES:
        for choice in choices:
            pc = build(s, family, choice)
            apply_pseudo_inverse(pc, r)
            apply_pseudo_inverse_transpose(pc, r)


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
    assert all(a.size <= s.m for a in arrays)  # the pinned rows only
    # the sparse LU of the pinned M is a small fraction of one dense n x n array
    assert kept - base <= 0.25 * 8 * s.n * s.n


@pytest.mark.parametrize("kind", ["symmetric_scaled", "triangular_split"])
@pytest.mark.parametrize("enforce_pd", [True, False])
def test_non_finite_w_rejected(kind, enforce_pd):
    # construction refuses a NaN in W, and the stored W refuses one written
    # into it; build refuses a NaN in a custom P (here this kind's P)
    s = saddle(7)
    W = s.W.toarray()
    W[0, 1] = np.nan
    with pytest.raises(ValueError, match="^W has non-finite entries"):
        SaddleSystem(W=W, B=s.B, f=s.f, g=s.g)
    with pytest.raises(ValueError, match="read-only"):
        s.W[0, 1] = np.nan
    P = build(s, CONSTRAINT, PChoice(kind=kind, omega=0.1), enforce_pd=False).P
    P[0, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        build(s, CONSTRAINT, PChoice(kind=CUSTOM, custom_p=P), enforce_pd=enforce_pd)


def test_indefinite_h_rejected():
    s = saddle(8)
    W = s.W.toarray()
    W[0, 0] = -np.abs(W).sum()  # a negative diagonal entry of H
    bad = SaddleSystem(W=W, B=s.B, f=s.f, g=s.g)
    for family in FAMILIES:
        with pytest.raises(NotPositiveDefinite):
            build(bad, family, PChoice(kind="symmetric_scaled"))


@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
@pytest.mark.parametrize("family", FAMILIES)
def test_no_family_keeps_e(family, kind):
    # E is formed only by assemble (test_assemble_matches_inline_blocks)
    s = build_oseen(8, 0.001)
    pc = build(s, family, PChoice(kind=kind, omega=0.05), enforce_pd=False)
    arrays = [v for v in vars(pc).values() if isinstance(v, np.ndarray)]
    assert all(a.shape != (s.m, s.m) for a in arrays)
    # both singular families keep the pinned LU of M, the block-diagonal one for E^+
    assert (pc.M_lu is not None) == (family != BLOCK_TRI)
    assert (pc.P_lu is not None) == (family != CONSTRAINT)  # the block families' P-solves
    assert pc.system is s  # its own W, B and null(B^T), for the applies and assemble
    assert (pc.BT is not None) == (family == BLOCK_TRI)  # its back-substitution's B^T


def test_build_reads_the_recorded_basis(monkeypatch):
    # null(B^T) is recorded when the system is constructed: no build takes an SVD
    s = build_random_singular(8, 4, 3, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD on the build path")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for family in FAMILIES:
        pc = build(s, family, PChoice(kind=SYMMETRIC_SCALED))
        assert pc.system is s


def test_preconditioner_is_frozen():
    s = build_oseen(4, 0.1)
    pc = build(s, BLOCK_DIAG, PChoice())
    for name, value in (("M_lu", None), ("family", BLOCK_TRI), ("N", np.zeros((s.m, 1)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pc, name, value)
    assert pc.M_lu is not None and pc.family == BLOCK_DIAG
    assert (pc.m, pc.n) == s.B.shape == (s.m, s.n)


# sha256 of assemble's (2,2) block E = B P^{-1} B^T on build_oseen(8, nu) with
# omega 0.5 (P = omega H) or 0.05 (triangular split, no PD gate), pinned to
# the bit so that any change in how E is formed shows
E_DIGESTS = [
    (0.1, SYMMETRIC_SCALED, "4329f00f803441babaacb6b43f10300a7f86e5359ef567b7a0fbeae41ccb1a75"),
    (0.001, SYMMETRIC_SCALED, "8aa5c082465bd0390413a0be33c5667f3ef6a836fe61af241d63b983dc34cd10"),
    (0.1, TRIANGULAR_SPLIT, "5d2d77f60bb497d32e04027eda1908d3e4a4d4c129fc6d7033ec0c294979aa84"),
    (0.001, TRIANGULAR_SPLIT, "5d2d77f60bb497d32e04027eda1908d3e4a4d4c129fc6d7033ec0c294979aa84"),
]


@pytest.mark.parametrize("nu,kind,digest", E_DIGESTS)
def test_assembled_e_pinned(nu, kind, digest):
    s = build_oseen(8, nu)
    omega = 0.5 if kind == SYMMETRIC_SCALED else 0.05
    pc = build(s, BLOCK_DIAG, PChoice(kind=kind, omega=omega), enforce_pd=False)
    assert hashlib.sha256(assemble(pc).toarray()[s.n:, s.n:].tobytes()).hexdigest() == digest


# sha256 of assemble(pc).toarray() on build_oseen(16, nu), omega as for
# E_DIGESTS: the whole M of every family, pinned to the bit
M_DIGESTS = [
    (0.1, CONSTRAINT, SYMMETRIC_SCALED,
     "e74a6197534e183d0716449df64cf6138e477239c1f707633d80f39fd3bd8a79"),
    (0.1, CONSTRAINT, TRIANGULAR_SPLIT,
     "984b5c5f2ab6b2471a9aaa57e41d18c5a6c74cb58b883b3dfe8fc28f9ae33d6b"),
    (0.1, BLOCK_DIAG, SYMMETRIC_SCALED,
     "b901c32002a56f3b04097024d0dbc0d64d4680d3641e4c2f389150cb44537c1c"),
    (0.1, BLOCK_DIAG, TRIANGULAR_SPLIT,
     "31f7c2355b67b8938557169879c50124efefcea977d7a167c528b4196db35805"),
    (0.1, BLOCK_TRI, SYMMETRIC_SCALED,
     "598112056d5f2b45356f8fca26fda593cada3ada49a8a514ef06d8f2cb4c39c5"),
    (0.1, BLOCK_TRI, TRIANGULAR_SPLIT,
     "514910da5fc79864dcd069762ecec62f11e2fa86ee74e4fbf68ab724ecbbc92b"),
    (0.001, CONSTRAINT, SYMMETRIC_SCALED,
     "c45e64c5d62b9da04340ddef988ba2b593f5124f3d62595e59957e609dc494a9"),
    (0.001, CONSTRAINT, TRIANGULAR_SPLIT,
     "984b5c5f2ab6b2471a9aaa57e41d18c5a6c74cb58b883b3dfe8fc28f9ae33d6b"),
    (0.001, BLOCK_DIAG, SYMMETRIC_SCALED,
     "2af05e7911a05411746f4dc8fc23273bff8a3afc9e0fbf11b6e56da2723fa7cb"),
    (0.001, BLOCK_DIAG, TRIANGULAR_SPLIT,
     "31f7c2355b67b8938557169879c50124efefcea977d7a167c528b4196db35805"),
    (0.001, BLOCK_TRI, SYMMETRIC_SCALED,
     "2eec7ba211c1e611a8e1a2d07e9bf7d91dc8ff431d7a42a94f60aa166a6f96ac"),
    (0.001, BLOCK_TRI, TRIANGULAR_SPLIT,
     "3fa0c8c65dab79bfffef1adfdb8558f20ac6b21daa826c8ba3fee9df318db28b"),
]


@pytest.mark.parametrize("nu,family,kind,digest", M_DIGESTS)
def test_assembled_m_pinned(nu, family, kind, digest):
    s = build_oseen(16, nu)
    omega = 0.5 if kind == SYMMETRIC_SCALED else 0.05
    M = assemble(build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False))
    assert isinstance(M, sps.csr_array)
    assert hashlib.sha256(M.toarray().tobytes()).hexdigest() == digest


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
    assert assemble(pc).toarray().tobytes() == M.tobytes()


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
    M_dag = np.linalg.pinv(assemble(pc).toarray())
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


# setup32's omega for Cases I, III, V and VI at l=32, nu=0.001, checked as
# above through the CSR M (Pi = I for the nonsingular block-triangular M);
# Case IV (omega 0.11, cond(P) = 6.8e16) is the known inexact one, left out
@pytest.mark.parametrize("case,omega", [("I", 21.60), ("III", 0.02), ("V", 25.67),
                                        ("VI", 0.04)])
def test_mplus_at_l32_is_exact(case, omega):
    s = build_oseen(32, 0.001)
    family, kind = CASE_MAP[case]
    pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
    M = assemble(pc)
    V = np.zeros(s.n + s.m)
    if family != BLOCK_TRI:
        V[s.n:] = 1.0 / np.sqrt(s.m)
    R = np.random.default_rng(2).standard_normal((s.n + s.m, 2))
    target = R - np.outer(V, V @ R)
    norms = np.linalg.norm(R, axis=0)
    assert (np.linalg.norm(M @ apply_pseudo_inverse(pc, R) - target, axis=0) / norms).max() <= 1e-8
    assert (np.linalg.norm(M.T @ apply_pseudo_inverse_transpose(pc, R) - target, axis=0)
            / norms).max() <= 1e-8


@pytest.mark.parametrize("family", FAMILIES)
def test_assemble_forms_no_dense_m(family):
    # at l=32 a dense M is (n+m)^2 doubles, 72 MB; the sparse blocks of the
    # constraint and block-triangular M need a small fraction of that, and the
    # block-diagonal M is held by its dense m x m E (8 MB) and E's indices
    s = build_oseen(32, 0.001)
    pc = build(s, family, PChoice(kind=TRIANGULAR_SPLIT, omega=0.05), enforce_pd=False)
    dense_bytes = 8 * (s.n + s.m) ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        M = assemble(pc)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    share = 0.5 if family == BLOCK_DIAG else 1 / 16
    assert kept - base <= share * dense_bytes and peak - base <= share * dense_bytes
    assert isinstance(M, sps.csr_array) and M.shape == (s.n + s.m, s.n + s.m)


def _h_spd_verdicts(W) -> tuple[bool, bool]:
    """Whether H = sym(W) passes check_h_spd, and whether it passes the dense
    Cholesky (the oracle)."""
    verdicts = []
    for check, arg, error in ((precond.check_h_spd, W, NotPositiveDefinite),
                              (np.linalg.cholesky, symmetric_part(W).toarray(),
                               np.linalg.LinAlgError)):
        try:
            check(arg)
        except error:
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
    # SuperLU's RuntimeError for the pinned M, which both singular families factor
    with pytest.raises(LinAlgFailure, match="singular"):
        build(_zero_row_system(), family, PChoice(kind=SYMMETRIC_SCALED))


@pytest.mark.parametrize("family", [CONSTRAINT, BLOCK_DIAG])
def test_singular_factor_is_an_infeasible_sweep_point(family):
    reports = omega_sweep(_zero_row_system(), family, TRIANGULAR_SPLIT, [0.01, 0.02])
    assert [r.status for r in reports] == [INFEASIBLE, INFEASIBLE]


@pytest.mark.parametrize("kind,omega", [(SYMMETRIC_SCALED, 0.5), (TRIANGULAR_SPLIT, 0.05)])
@pytest.mark.parametrize("family", [BLOCK_DIAG, BLOCK_TRI])
def test_block_diag_build_holds_no_square_array(family, kind, omega):
    # tracemalloc does not see SuperLU's own mallocs: the sparse LUs of P and
    # of the pinned M are outside both figures
    s = build_oseen(16, 0.001)
    square = 8 * s.n * s.n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pc = build(s, family, PChoice(kind=kind, omega=omega), enforce_pd=False)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [v for v in vars(pc).values() if isinstance(v, np.ndarray)]
    assert all(a.size <= s.m for a in arrays)  # the pinned rows only
    # the pinned rows, with room for small objects: no dense B (m x n) is
    # kept, not even inside the P-solves
    assert kept - base <= sum(a.nbytes for a in arrays) + 64 * 1024
    assert peak - base < square


def _block_diag_cases():
    for l in (8, 16):
        for nu in (0.1, 0.001):
            yield pytest.param(("oseen", l, nu), id=f"oseen{l}-{nu}")
    for seed in (0, 1):
        yield pytest.param(("random", seed), id=f"random{seed}")


@pytest.mark.parametrize("system", list(_block_diag_cases()))
@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
@pytest.mark.parametrize("family", [BLOCK_DIAG, BLOCK_TRI])
def test_block_diag_p_solves_and_e_match_dense(system, kind, family):
    if system[0] == "random":
        s = build_random_singular(n=30, m=12, rank_b=10, seed=system[1])
    else:
        s = build_oseen(system[1], system[2])
    omega = 0.5 * pd_bound(s.W) if kind == TRIANGULAR_SPLIT else 1.0
    pc = build(s, family, PChoice(kind=kind, omega=omega))
    P, B = pc.P, s.B.toarray()
    X = np.random.default_rng(3).standard_normal((s.n, 3))
    pairs = [(pc.p_solve(X), np.linalg.solve(P, X)),
             (pc.p_solve(X[:, 0]), np.linalg.solve(P, X[:, 0])),
             (pc.p_solve(X, "T"), np.linalg.solve(P.T, X))]
    if family == BLOCK_DIAG:
        pairs.append((assemble(pc)[s.n:, s.n:], B @ np.linalg.solve(P, B.T)))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _e_pinv_cases():
    for l in (8, 16):
        for nu in (0.1, 0.001):
            yield pytest.param(("oseen", l, nu), id=f"oseen{l}-{nu}")
    for null_dim in (2, 3):
        yield pytest.param(("random", null_dim), id=f"random-null{null_dim}")


@pytest.mark.parametrize("system", list(_e_pinv_cases()))
@pytest.mark.parametrize("kind", [SYMMETRIC_SCALED, TRIANGULAR_SPLIT])
def test_block_diag_e_pinv_matches_pinv(system, kind):
    # E^+ r2 is the pressure part of M^+ (0; r2), several pressures pinned
    # when null(B^T) has dimension 2 or 3
    if system[0] == "random":
        s = build_random_singular(n=30, m=12, rank_b=12 - system[1], seed=system[1])
    else:
        s = build_oseen(system[1], system[2])
    omega = 0.5 * pd_bound(s.W) if kind == TRIANGULAR_SPLIT else 1.0
    pc = build(s, BLOCK_DIAG, PChoice(kind=kind, omega=omega))
    B = s.B.toarray()
    E_dag = np.linalg.pinv(B @ np.linalg.solve(pc.P, B.T))
    R = np.zeros((s.n + s.m, 3))
    R[s.n:] = np.random.default_rng(5).standard_normal((s.m, 3))
    for got, want in ((apply_pseudo_inverse(pc, R)[s.n:], E_dag @ R[s.n:]),
                      (apply_pseudo_inverse_transpose(pc, R)[s.n:], E_dag.T @ R[s.n:]),
                      (apply_pseudo_inverse(pc, R[:, 0])[s.n:], E_dag @ R[s.n:, 0])):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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
