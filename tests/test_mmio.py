"""The Matrix Market files written by ``problems.export``, read back with scipy.io."""

import numpy as np
import scipy.io as sio
from hypothesis import given, settings, strategies as st

from saddlekit import SaddleSystem
from saddlekit.problems import export


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
