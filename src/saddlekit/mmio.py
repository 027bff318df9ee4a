"""Matrix Market coordinate files (real, general, 1-based) through scipy.io."""

from __future__ import annotations

import numpy as np
import scipy.io
from scipy.sparse import coo_array, issparse


def write_coordinate(path, A) -> None:
    """Write a dense or sparse matrix as a coordinate file (explicit nonzeros only)."""
    A = coo_array(A if issparse(A) else np.atleast_2d(np.asarray(A, dtype=float)))
    # through a handle: given a path, mmwrite appends ".mtx" when it is missing
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, A, symmetry="general")


def write_vector(path, v) -> None:
    """Write a vector as an n-by-1 coordinate file."""
    v = np.asarray(v, dtype=float)
    write_coordinate(path, v.reshape(-1, 1))


def read_coordinate(path) -> np.ndarray:
    """Read a real coordinate file as a dense array."""
    info = scipy.io.mminfo(path)
    if info[3:5] != ("coordinate", "real"):
        raise ValueError(f"not a real coordinate matrix: {info[3]} {info[4]}")
    return scipy.io.mmread(path).toarray()


def read_vector(path) -> np.ndarray:
    return read_coordinate(path).ravel()
