import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saddlekit import (
    SaddleSystem,
    build_oseen,
    build_random_singular,
    make_consistent_rhs,
    split,
)
from saddlekit.linalg import numerical_rank
from saddlekit.problems import export, wind_x, wind_y
from saddlekit import mmio


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
        sp = split(W)
        assert np.allclose(sp.H + sp.S, W)
        assert np.allclose(sp.H, sp.H.T)
        assert np.allclose(sp.S, -sp.S.T)
        assert np.allclose(sp.L_s + sp.U_s, sp.S)
        assert np.all(np.diag(sp.L_s) == 0) and np.all(np.diag(sp.U_s) == 0)
        assert np.allclose(sp.U_s, -sp.L_s.T)


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
        assert np.linalg.norm(s.B.T @ ones) <= 1e-12 * np.linalg.norm(s.B)

    @pytest.mark.parametrize("nu", [1.0, 0.1, 0.001])
    def test_symmetric_part_spd(self, nu):
        s = build_oseen(8, nu)
        w = np.linalg.eigvalsh(split(s.W).H)
        assert w.min() > 0.0

    def test_rhs_consistent(self):
        s = build_oseen(8, 0.1)
        A = s.matrix()
        b = s.rhs()
        # component along the left null space must vanish
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_projected_rhs_consistent(self):
        s = build_oseen(8, 0.1, rhs_mode="projected")
        A, b = s.matrix(), s.rhs()
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
        assert np.all(s.W[:n_u, n_u:] == 0.0)
        assert np.all(s.W[n_u:, :n_u] == 0.0)

    @pytest.mark.parametrize("l, nu, digest", [
        (4, 0.1, "3b0b3ae0023825faeb13c8a74b7a8c46acc023426330de2a64dd36ccee2b2254"),
        (4, 0.001, "c2cfc347abe03cf71982b63d8f0f15ab402720a306ac2b97ad81311f259262f3"),
        (8, 0.1, "c090f8316a2ac3b52b53b70c9f53247c4c5b548c0002db27747b2003d7482382"),
        (8, 0.001, "02ccc70f33aa265f777165a8b76e498cdc4ee9ba3f4f1836393f5669f07fb542"),
        (16, 0.1, "717f9c7e8f1f6a87b2f020498dc4c078d8fae5d83b256950b209bf592b2c6b9b"),
        (16, 0.001, "3af22623c3f2f268887e1285f03e76e803e9d9e10c3e59bca61b2f60a19f9e99"),
        # h = 1/7 is inexact, so this grid also pins the accumulation order
        (7, 0.1, "c62a39bbaf66406c1e130fca7fcd88ea803586ce69bed762fc429cbb511415a3"),
        (7, 0.001, "017341d9ace63007a9d416caec1982b498b632a609ed2b10dcaaa727c8ec3510"),
    ])
    def test_discretization_fingerprint(self, l, nu, digest):
        # pins the stencil to the bit: sha256 of W, B, raw_rhs as float64 C-order
        s = build_oseen(l, nu)
        h = hashlib.sha256()
        for a in (s.W, s.B, s.raw_rhs):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest


class TestRandomSingular:
    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_rank_and_consistency(self, seed):
        s = build_random_singular(n=8, m=4, rank_b=3, seed=seed)
        assert numerical_rank(s.B) == 3
        A, b = s.matrix(), s.rhs()
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(A @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            build_random_singular(n=4, m=4, rank_b=4, seed=0)


def test_make_consistent_rhs_modes():
    s = build_random_singular(n=6, m=3, rank_b=2, seed=1)
    b1 = make_consistent_rhs(s, mode="manufactured", seed=5)
    x_star = np.ones(s.n + s.m)
    b2 = make_consistent_rhs(s, mode="manufactured", x_star=x_star)
    assert np.allclose(b2, s.matrix() @ x_star)
    assert b1.shape == b2.shape
    with pytest.raises(ValueError):
        make_consistent_rhs(s, mode="bogus")
    with pytest.raises(ValueError):
        make_consistent_rhs(s, mode="projected")  # no raw load stored


def test_export_roundtrip(tmp_path):
    s = build_oseen(4, 0.5)
    meta = export(s, tmp_path)
    assert meta == {"l": 4, "nu": 0.5, "n": 24, "m": 16}
    assert json.loads((tmp_path / "meta.json").read_text()) == meta
    assert np.array_equal(mmio.read_coordinate(tmp_path / "W.mtx"), s.W)
    assert np.array_equal(mmio.read_coordinate(tmp_path / "B.mtx"), s.B)
    assert np.array_equal(mmio.read_vector(tmp_path / "f.mtx"), s.f)
