import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
import scipy.io as sio
import scipy.linalg as sla
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st

from saddlekit import (
    SaddleSystem,
    build_oseen,
    build_random_singular,
    make_consistent_rhs,
)
from saddlekit.linalg import null_basis, numerical_rank
from saddlekit.problems import (_assemble_oseen, export, lower_skew_part, skew_part,
                                symmetric_part, wind_x, wind_y)


class TestWind:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_vanishes_on_boundary(self, x, y):
        for t in (0.0, 1.0):
            assert wind_x(t, y) == 0.0
            assert wind_y(x, t) == 0.0

    def test_interior_values(self):
        assert wind_x(0.5, 0.25) == pytest.approx(8 * 0.5 * (-0.5) * 0.5)
        assert wind_y(0.25, 0.5) == pytest.approx(8 * 0.5 * (-0.5) * (-0.5))


class TestSplit:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_decomposition(self, seed, n):
        W = np.random.default_rng(seed).standard_normal((n, n))
        H, S = symmetric_part(W).toarray(), skew_part(W).toarray()
        L_s, U_s = lower_skew_part(W).toarray(), np.triu(S, 1)
        assert np.allclose(H + S, W)
        assert np.allclose(H, H.T)
        assert np.allclose(S, -S.T)
        assert np.allclose(L_s + U_s, S)
        assert np.all(np.diag(L_s) == 0) and np.all(np.diag(U_s) == 0)
        assert np.allclose(U_s, -L_s.T)


class TestOseen:
    @pytest.mark.parametrize("l", [4, 8])
    def test_dimensions(self, l):
        s = build_oseen(l, 0.1)
        assert s.n == 2 * l * (l - 1)
        assert s.m == l * l
        assert s.h == pytest.approx(1.0 / l)

    @pytest.mark.parametrize("l", [4, 8])
    def test_rank_deficiency_is_one(self, l):
        s = build_oseen(l, 0.1)
        assert numerical_rank(s.B) == l * l - 1
        # constant pressure spans the null space of B^T
        ones = np.ones(s.m)
        assert np.linalg.norm(s.B.T @ ones) <= 1e-12 * np.linalg.norm(s.B.toarray())

    @pytest.mark.parametrize("nu", [1.0, 0.1, 0.001])
    def test_symmetric_part_spd(self, nu):
        s = build_oseen(8, nu)
        w = np.linalg.eigvalsh(symmetric_part(s.W).toarray())
        assert w.min() > 0.0

    def test_rhs_consistent(self):
        s = build_oseen(8, 0.1)
        A = s.matrix().toarray()
        b = s.rhs()
        # component along the left null space must vanish
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_manufactured_seed_determinism(self):
        a = build_oseen(4, 0.1, seed=7).rhs()
        b = build_oseen(4, 0.1, seed=7).rhs()
        c = build_oseen(4, 0.1, seed=8).rhs()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            build_oseen(3, 0.1)
        with pytest.raises(ValueError):
            build_oseen(8, -1.0)

    def test_velocity_blocks_decoupled(self):
        s = build_oseen(4, 0.1)
        n_u = s.n // 2
        assert np.all(s.W.toarray()[:n_u, n_u:] == 0.0)
        assert np.all(s.W.toarray()[n_u:, :n_u] == 0.0)

    @pytest.mark.parametrize("l, nu, digest", [
        (4, 0.1, "365544ff27249a595da42d45d4833394a5719b1fddea74d3f8d20b9cf5997098"),
        (4, 0.001, "f01dbc1d478d6569983be8d06f58d921fc891c0b9fa6322f1608ec6880a1affd"),
        (8, 0.1, "99ec32233140c4a85b17355f002d98b596feb7e134613f92f7f717923086eb8f"),
        (8, 0.001, "f165591433243976779df8775cdc1dce0693431f87f234595688e4beaa1e6bef"),
        (16, 0.1, "88451622d5069a08a47c96e17567649b208cfe9744b78287d8dd6c2884cf1727"),
        (16, 0.001, "268d02f975cf41458076cc53bb9faa0d954d0d100de16311d6056be4dbd8804f"),
        # h = 1/7 is inexact, so this grid also pins the accumulation order
        (7, 0.1, "a1f5a5b75c11367b60ad3bb844b03ccc6148cad563d7079d331591ac781de043"),
        (7, 0.001, "aaa0678cfaef16dd35eb439ba40efde5ff097915ec797efe020da09be0f70efa"),
    ])
    def test_discretization_fingerprint(self, l, nu, digest):
        # pins the stencil to the bit: sha256 of W, B, rhs() as float64 C-order
        s = build_oseen(l, nu)
        h = hashlib.sha256()
        for a in (s.W.toarray(), s.B.toarray(), s.rhs()):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest


class TestRandomSingular:
    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_rank_and_consistency(self, seed):
        s = build_random_singular(n=8, m=4, rank_b=3, seed=seed)
        assert numerical_rank(s.B) == 3
        A, b = s.matrix().toarray(), s.rhs()
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(A @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_random_singular(n=4, m=4, rank_b=4, seed=0)


def test_make_consistent_rhs_modes():
    s = build_random_singular(n=6, m=3, rank_b=2, seed=1)
    b1 = make_consistent_rhs(s, seed=5)
    x_star = np.random.default_rng(5).standard_normal(s.n + s.m)
    assert np.array_equal(b1, s.matrix() @ x_star)


def test_export_roundtrip(tmp_path):
    s = build_oseen(4, 0.5)
    meta = export(s, tmp_path)
    assert meta == {"l": 4, "nu": 0.5, "n": 24, "m": 16}
    assert json.loads((tmp_path / "meta.json").read_text()) == meta
    assert np.array_equal(sio.mmread(tmp_path / "W.mtx").toarray(), s.W.toarray())
    assert np.array_equal(sio.mmread(tmp_path / "B.mtx").toarray(), s.B.toarray())
    assert np.array_equal(sio.mmread(tmp_path / "f.mtx").toarray().ravel(), s.f)


# the Matrix Market files written by export, read back with scipy.io

def _system(W, B, f=None, g=None):
    n, m = W.shape[0], B.shape[0]
    return SaddleSystem(W=W, B=B, f=np.zeros(n) if f is None else f,
                        g=np.zeros(m) if g is None else g)


def _read(path):
    return sio.mmread(path).toarray()


def test_roundtrip_dense(tmp_path):
    A = np.array([[1.5, 0.0], [0.0, -2.25], [3.0, 0.125]])
    export(_system(np.eye(2), A), tmp_path)
    assert np.array_equal(_read(tmp_path / "B.mtx"), A)


def test_header_line(tmp_path):
    export(_system(np.eye(2), np.ones((1, 2))), tmp_path)
    for name in ("W", "B", "f", "g"):
        first = (tmp_path / f"{name}.mtx").read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate real general"


def test_vector_roundtrip(tmp_path):
    v = np.array([0.0, 1.0, -2.5])
    export(_system(np.eye(3), np.ones((1, 3)), f=v), tmp_path)
    assert np.array_equal(_read(tmp_path / "f.mtx").ravel(), v)


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6),
       st.floats(0.0, 0.9))
@settings(max_examples=40, deadline=None)
def test_roundtrip_exact_bits(tmp_path_factory, seed, r, c, density):
    g = np.random.default_rng(seed)
    W, B = g.standard_normal((c, c)), g.standard_normal((r, c))
    f, gv = g.standard_normal(c), g.standard_normal(r)
    for M in (W, B, f, gv):
        M[g.random(M.shape) > density] = 0.0
    out = tmp_path_factory.mktemp("mm")
    export(_system(W, B, f, gv), out)
    # repr-based serialization must be bit-exact
    assert np.array_equal(_read(out / "W.mtx"), W)
    assert np.array_equal(_read(out / "B.mtx"), B)
    assert np.array_equal(_read(out / "f.mtx").ravel(), f)
    assert np.array_equal(_read(out / "g.mtx").ravel(), gv)


def _svd_null_spaces(A):
    """Right and left null spaces of A from its full SVD (the oracle)."""
    U, s, Vt = np.linalg.svd(A)
    mask = s <= 1e-12 * s[0]
    return Vt.T[:, mask], U[:, mask]


@pytest.mark.parametrize("system", [
    *[pytest.param(("random", drop, seed), id=f"random-rank-m-{drop}-{seed}")
      for drop in (1, 2, 3) for seed in (0, 1)],
    # m > n: null(B^T) has m - rank(B) >= m - n dimensions, more than the
    # thin SVD factors of the wide B^T span
    *[pytest.param(("wide", rank_b), id=f"wide-m-gt-n-rank-{rank_b}") for rank_b in (3, 5)],
    pytest.param(("oseen", 0.1), id="oseen8-0.1"),
    pytest.param(("oseen", 0.001), id="oseen8-0.001"),
])
def test_saddle_null_basis_matches_svd_of_a(system):
    if system[0] == "random":
        _, drop, seed = system
        s = build_random_singular(n=12, m=6, rank_b=6 - drop, seed=seed)
    elif system[0] == "wide":
        g = np.random.default_rng(system[1])
        B = g.standard_normal((9, system[1])) @ g.standard_normal((system[1], 5))
        s = SaddleSystem(W=np.eye(5), B=B, f=np.zeros(5), g=np.zeros(9))
    else:
        s = build_oseen(8, system[1])
    N = np.vstack([np.zeros((s.n, s.null_BT.shape[1])), s.null_BT])  # {0} x null(B^T)
    for oracle in _svd_null_spaces(s.matrix().toarray()):
        assert N.shape[1] == oracle.shape[1] >= 1
        assert sla.subspace_angles(N, oracle).max() <= 1e-10


def test_assembly_forms_no_dense_block():
    l = 32
    n_u = l * (l - 1)
    for nu in (0.1, 0.001):
        tracemalloc.start()
        try:
            W, B = _assemble_oseen(l, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(W, sps.csr_array) and isinstance(B, sps.csr_array)
        # not even one n_u x n_u velocity block, a quarter of W
        assert peak < 8 * n_u * n_u


@pytest.mark.parametrize("convert", [sps.coo_array, sps.csc_array, sps.csr_matrix],
                         ids=["coo_array", "csc_array", "csr_matrix"])
def test_sparse_blocks_not_densified(convert, monkeypatch):
    ref = build_oseen(4, 0.1)
    W, B = ref.W.toarray(), ref.B.toarray()
    expected = SaddleSystem(W=W, B=B, f=ref.f, g=ref.g)

    def refuse(self, *args, **kwargs):
        raise AssertionError("sparse input expanded to a dense array")

    monkeypatch.setattr(convert, "toarray", refuse)
    # the given basis spares construction its SVD, which densifies B^T
    s = SaddleSystem(W=convert(W), B=convert(B), f=ref.f, g=ref.g, null_BT=ref.null_BT)
    monkeypatch.undo()
    for got, want in ((s.W, expected.W), (s.B, expected.B)):
        assert isinstance(got, sps.csr_array)
        assert got.toarray().tobytes() == want.toarray().tobytes()


@pytest.mark.parametrize("l", [4, 8, 16])
def test_recorded_null_basis_spans_svd_null_space(l):
    for nu in (0.1, 0.001):
        s = build_oseen(l, nu)
        assert np.array_equal(s.null_BT, np.full((s.m, 1), 1.0 / l))
        assert np.array_equal(s.B.T @ s.null_BT, np.zeros((s.n, 1)))  # exactly
        _, sv, Vt = np.linalg.svd(s.B.T.toarray())
        oracle = Vt.T[:, sv <= 1e-12 * sv[0]]
        assert oracle.shape == (s.m, 1)
        assert sla.subspace_angles(s.null_BT, oracle).max() <= 1e-10
        assert np.array_equal(s.with_rhs(s.rhs()).null_BT, s.null_BT)


def test_null_basis_bt_fallback_forms_no_n_by_n_array():
    # without a given basis, construction's one thin SVD of the n x m B^T
    # stays below n(n+m) floats; a full SVD's n x n U on top of the dense
    # B^T and V does not
    ref = build_oseen(16, 0.1)
    tracemalloc.start()
    try:
        s = dataclasses.replace(ref, null_BT=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.null_BT.shape == (s.m, 1)
    assert peak < 8 * s.n * (s.n + s.m)


def test_every_system_records_null_bt():
    # without a given basis, construction records null_basis(B^T) of the
    # stored CSR B, and with_rhs hands the same array on
    s = build_random_singular(8, 4, 3, 0)
    assert np.array_equal(s.null_BT, null_basis(s.B.T))
    assert s.null_BT.shape == (4, 1)
    assert s.with_rhs(s.rhs()).null_BT is s.null_BT


@pytest.mark.parametrize("given_basis", [True, False], ids=["given", "computed"])
def test_stored_arrays_refuse_writes(given_basis):
    # a write into a stored array would skip the construction checks and move
    # W or B under a built preconditioner; the caller's arrays stay writeable
    ref = build_random_singular(8, 4, 3, 0)
    W, B = ref.W.copy(), ref.B.toarray()
    f, g, N = ref.f.copy(), ref.g.copy(), ref.null_BT.copy()
    s = SaddleSystem(W=W, B=B, f=f, g=g, null_BT=N if given_basis else None)
    stored = [s.W.data, s.W.indices, s.W.indptr, s.B.data, s.B.indices, s.B.indptr,
              s.f, s.g, s.null_BT]
    for a in stored:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        s.W.data *= 2
    assert all(a.flags.writeable for a in (W.data, W.indices, W.indptr, B, f, g, N))
    assert np.array_equal(s.W.toarray(), ref.W.toarray()) and np.array_equal(s.f, ref.f)
    # a read-only float array is kept as is: with_rhs hands every block on
    t = s.with_rhs(s.rhs())
    assert t.W is s.W and t.B is s.B and t.null_BT is s.null_BT
    frozen = s.f.copy()
    frozen.flags.writeable = False
    assert dataclasses.replace(s, f=frozen).f is frozen


def _with_entry(array, value):
    array = np.array(array, dtype=float)
    array.flat[0] = value
    return array


@pytest.mark.parametrize("block", ["W", "B", "f", "g"])
def test_malformed_block_refused_before_the_svd(block, monkeypatch):
    good = dict(W=3.0 * np.eye(4), B=np.ones((2, 4)), f=np.zeros(4), g=np.zeros(2))
    bad = {"W": np.eye(4, 3), "B": np.ones((2, 3)), "f": np.zeros(3), "g": np.zeros(3)}
    SaddleSystem(**good)

    def refuse(*args, **kwargs):
        raise AssertionError("SVD taken before the block checks")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    with pytest.raises(ValueError, match=f"^{block} must have shape"):
        SaddleSystem(**{**good, block: bad[block]})
    # a NaN or an infinity is refused there too, with the block's name
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{block} has non-finite entries"):
            SaddleSystem(**{**good, block: _with_entry(good[block], value)})


def test_null_bt_shape_checked():
    s = build_oseen(4, 0.1)
    for bad in (np.ones(s.m), np.ones((s.m + 1, 1))):
        with pytest.raises(ValueError, match="null_BT"):
            SaddleSystem(W=s.W, B=s.B, f=s.f, g=s.g, null_BT=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_null_bt_refused(value):
    s = build_oseen(4, 0.1)
    with pytest.raises(ValueError, match="^null_BT must be a finite"):
        SaddleSystem(W=s.W, B=s.B, f=s.f, g=s.g, null_BT=_with_entry(s.null_BT, value))


def _blockwise(s):
    """A filled block by block, with the (2,1) block negated densely (zeros -0.0)."""
    n, m = s.n, s.m
    A = np.zeros((n + m, n + m))
    A[:n, :n] = s.W.toarray()
    A[:n, n:] = s.B.T.toarray()
    A[n:, :n] = -s.B.toarray()
    return A


@pytest.mark.parametrize("nu", [0.1, 0.001])
def test_matrix_bytes_match_blockwise_fill(nu):
    # the CSR matrix() holds the blockwise fill; its (2,1) zeros are +0.0
    for s in (build_oseen(8, nu), build_random_singular(n=10, m=5, rank_b=4, seed=3)):
        A = s.matrix()
        assert isinstance(A, sps.csr_array)
        dense, ref = A.toarray(), _blockwise(s)
        assert np.array_equal(dense, ref)
        n = s.n
        ref[n:, :n] += 0.0  # -0.0 + 0.0 = +0.0
        assert dense.tobytes() == ref.tobytes()


# sha256 of rhs(), the manufactured b = A x* from the CSR A
RHS_DIGESTS = [
    (4, 0.1, "3c83bc1ef6b4f8ecf73c146c3d0361a70c7e1645695200a839bafff1fa5c4789"),
    (4, 0.001, "ea1efdc3660a145c09b072ac6ca1ee7814ef030424d33f3ae124f400cfa8fe64"),
    (5, 0.1, "63237b5da55ac42b7b76c369013c046c8a5eb72466fba3602479c2852c0c12e2"),
    (5, 0.001, "71ac1fdf38ca43c15fb692d73185fffee61f9a26377b43bdc76cdc3a0831682f"),
    (8, 0.1, "76b8d4a19624567436c27e1566f0bfb13b91508a46827209b067d0878d657957"),
    (8, 0.001, "ca65e23320c4883e27a039fd5ffc026e145ba01566e9887c530e602fcfd77566"),
    (16, 0.1, "5ab90ff228b4abc0146824e2a5a98257d034c347378ecd1347602500dc0fa4cf"),
    (16, 0.001, "9b90f0fc65a959cca86f9b23100c4772a74ffd7bdf98449cfa90c9d74a34a33d"),
    (32, 0.1, "89b66b6ec50d58726d6ddbc2b95d4d2d7e87b6e4d586a4e7713c0a6736402484"),
    (32, 0.001, "849b90de38b0746f2951b4e1de1ee95f2612d4a4bcafdf66648f1bbef5e1487e"),
]


@pytest.mark.parametrize("l,nu,digest", RHS_DIGESTS)
def test_manufactured_rhs_pinned(l, nu, digest):
    assert hashlib.sha256(build_oseen(l, nu).rhs().tobytes()).hexdigest() == digest


def test_manufactured_rhs_forms_no_dense_a():
    s = build_oseen(32, 0.001)
    N = s.n + s.m
    tracemalloc.start()
    try:
        make_consistent_rhs(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * N * N  # the CSR A, not the 72 MB dense A
