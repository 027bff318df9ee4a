"""Singular saddle-point benchmark problems.

The main generator discretizes the Oseen equations on the unit square with
a marker-and-cell (MAC) staggered grid: x-velocities live on interior
vertical edges, y-velocities on interior horizontal edges, pressures at
cell centers.  The test setup is the leaky-lid driven cavity: no-slip on
the three fixed walls, tangential velocity (1, 0) on the lid y = 1, and a
recirculating wind field that vanishes on the whole boundary.

With an l x l grid this yields n = 2*l*(l-1) velocity unknowns and
m = l**2 pressures; the divergence block B has the constant-pressure
vector in its null space, so rank(B) = l**2 - 1 and the full saddle-point
matrix is singular.

The only right-hand side formed is the manufactured b = A x*, which lies in
range(A) by construction.  W and B do not depend on the lid data: it would
enter only the load vector, which the package does not form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sps

from .linalg import Array, dense, null_basis


def wind_x(x, y):
    return 8.0 * x * (x - 1.0) * (1.0 - 2.0 * y)


def wind_y(x, y):
    return 8.0 * y * (2.0 * x - 1.0) * (y - 1.0)


def symmetric_part(W) -> sps.csr_array:
    """H = (W + W^T) / 2, as CSR."""
    W = sps.csr_array(W)
    return 0.5 * (W + W.T)


def skew_part(W) -> sps.csr_array:
    """S = (W - W^T) / 2, as CSR."""
    W = sps.csr_array(W)
    return 0.5 * (W - W.T)


def lower_skew_part(W) -> sps.csr_array:
    """L_s, the strict lower triangle of S, as CSR."""
    return sps.tril(skew_part(W), -1, format="csr")


def _read_only(a: Array) -> Array:
    """a itself when it refuses writes, else a read-only view of it: the
    caller's own array keeps its write flag."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _read_only_csr(M) -> sps.csr_array:
    """M as a float CSR array whose data, indices and indptr refuse writes;
    M itself when it already is one."""
    if not (isinstance(M, sps.csr_array) and M.dtype == np.float64):
        M = sps.csr_array(M, dtype=float) if sps.issparse(M) else sps.csr_array(dense(M))
    arrays = (M.data, M.indices, M.indptr)
    if not any(a.flags.writeable for a in arrays):
        return M
    M = sps.csr_array(arrays, shape=M.shape)  # a new object on M's buffers (or casts of them)
    M.data, M.indices, M.indptr = map(_read_only, (M.data, M.indices, M.indptr))
    return M


@dataclass(frozen=True)
class SaddleSystem:
    """The block system [[W, B^T], [-B, 0]] (u; p) = (f; g).

    W and B are stored as ``scipy.sparse`` CSR arrays, whatever they are
    given as; a caller that needs a dense block forms its own.  Every system
    records ``null_BT``, an orthonormal basis (m x d) of null(B^T): the one
    given, else one from a thin SVD of B^T at construction.  A malformed
    block (W not n x n, B without n columns, f or g of the wrong length) and
    a NaN or an infinity in W, B, f, g or a given ``null_BT`` are refused
    before that SVD, with a ValueError that names the block.

    Every stored array refuses writes: f, g and ``null_BT`` are read-only
    views (an array that already is one is kept as is), and so are W's and
    B's ``data``, ``indices`` and ``indptr``.  An in-place edit can then
    neither skip these checks nor move a block under a built
    preconditioner's factors.  The caller's own arrays keep their write flag.

    {0} x null(B^T) lies in the null space of A and of A^T.  When sym(W) is
    positive definite it is all of both: A (u; p) = 0 gives
    u^T W u = -(B u)^T p = 0, so u = 0 and B^T p = 0, and likewise for A^T.
    Without that premise it spans a subspace of both.
    """

    W: sps.csr_array
    B: sps.csr_array
    f: Array
    g: Array
    l: int | None = None
    nu: float | None = None
    null_BT: Array | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("W", "B"):
            object.__setattr__(self, name, _read_only_csr(getattr(self, name)))
        for name in ("f", "g"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name), dtype=float)))
        n, m = self.n, self.m
        for name, want in (("W", (n, n)), ("B", (m, n)), ("f", (n,)), ("g", (m,))):
            value = getattr(self, name)
            if value.shape != want:
                raise ValueError(f"{name} must have shape {want} (n = {n}, m = {m}), "
                                 f"got {value.shape}")
            if not np.isfinite(value.data if sps.issparse(value) else value).all():
                raise ValueError(f"{name} has non-finite entries")
        if self.null_BT is None:
            N = null_basis(self.B.T)
        else:
            N = np.asarray(self.null_BT, dtype=float)
            if N.ndim != 2 or N.shape[0] != m or not np.isfinite(N).all():
                raise ValueError(f"null_BT must be a finite m x d array with m = {m}")
        object.__setattr__(self, "null_BT", _read_only(N))

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def h(self) -> float | None:
        return None if self.l is None else 1.0 / self.l

    def matrix(self) -> sps.csr_array:
        """The (n+m) x (n+m) coefficient matrix [[W, B^T], [-B, 0]] as CSR."""
        return sps.block_array([[self.W, self.B.T], [-self.B, None]], format="csr")

    def rhs(self) -> Array:
        return np.concatenate([self.f, self.g])

    def with_rhs(self, b: Array) -> "SaddleSystem":
        return SaddleSystem(W=self.W, B=self.B, f=b[: self.n], g=b[self.n :],
                            l=self.l, nu=self.nu, null_BT=self.null_BT)


def _velocity_ids(l: int, axis: int) -> Array:
    """Unknown numbers of one velocity component (axis 0: u, 1: v) as a grid.

    Row j, column i holds the node at height index j and width index i
    (u: x = (i+1) h, y = (j+1/2) h; v: x = (i+1/2) h, y = (j+1) h), numbered
    row by row.  The momentum blocks and B share this one ordering.
    """
    shape = (l, l - 1) if axis == 0 else (l - 1, l)
    return np.arange(l * (l - 1)).reshape(shape)


def _momentum(l: int, nu: float, axis: int):
    """Momentum block (CSR) of one velocity component (axis 0: u, 1: v).

    A 5-point viscous stencil plus the averaged-coefficient centred
    convective stencil.  A neighbour beyond a wall normal to the component's
    axis is a wall node: its value is 0 and the entry is dropped.  One beyond
    a wall parallel to it is the ghost reflection 2g - u; its -u folds into
    the diagonal, and its 2g (the lid data) would enter only a load, which
    this package does not form.  The diagonal accumulates in a fixed
    order (viscous W, E, S, N, then convective E, W, N, S); each neighbour
    entry is the viscous -nu/h^2 plus its convective coefficient.
    """
    h = 1.0 / l
    visc = nu / h**2
    nodes = np.arange(1, l) * h        # along the component's own axis
    centres = (np.arange(l) + 0.5) * h  # across it
    x, y = np.meshgrid(nodes, centres) if axis == 0 else np.meshgrid(centres, nodes)
    k = _velocity_ids(l, axis)
    ids = np.pad(k, 1, constant_values=-1)
    # direction -> (neighbour ids, -1 outside; True if it crosses a normal wall)
    nbrs = {"W": (ids[1:-1, :-2], axis == 0), "E": (ids[1:-1, 2:], axis == 0),
            "S": (ids[:-2, 1:-1], axis == 1), "N": (ids[2:, 1:-1], axis == 1)}
    # signed convective coefficient of each neighbour value
    a0, b0 = wind_x(x, y), wind_y(x, y)
    conv = {"E": (a0 + wind_x(x + h, y)) / (4.0 * h),
            "W": -((a0 + wind_x(x - h, y)) / (4.0 * h)),
            "N": (b0 + wind_y(x, y + h)) / (4.0 * h),
            "S": -((b0 + wind_y(x, y - h)) / (4.0 * h))}
    diag = np.full(k.size, 4.0 * visc)

    def fold(d, coef):
        # the -u of a ghost 2g - u folds into the diagonal
        nb, normal_wall = nbrs[d]
        if not normal_wall:
            diag[k[nb < 0]] -= coef[nb < 0]

    for d in "WESN":
        fold(d, np.full(x.shape, -visc))
    for d in "EWNS":
        fold(d, conv[d])
    rows, cols, vals = [k.ravel()], [k.ravel()], [diag]
    for d, (nb, _) in nbrs.items():
        inside = nb >= 0
        rows.append(k[inside])
        cols.append(nb[inside])
        vals.append(-visc + conv[d][inside])
    return sps.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(k.size, k.size))


def _assemble_oseen(l: int, nu: float):
    """W and B as CSR."""
    h = 1.0 / l
    n_u = l * (l - 1)
    # discrete divergence scaled so that B^T is the pressure gradient: a face
    # gets +1/h from the cell on its high side and -1/h from the one below
    cells = np.arange(l * l).reshape(l, l)
    ku, kv = _velocity_ids(l, 0), n_u + _velocity_ids(l, 1)
    rows = [cells[:, 1:], cells[:, :-1], cells[1:, :], cells[:-1, :]]
    cols = [ku, ku, kv, kv]
    vals = [np.full(r.size, sign / h) for r, sign in zip(rows, (1.0, -1.0, 1.0, -1.0))]
    B = sps.csr_array((np.concatenate(vals),
                       (np.concatenate([r.ravel() for r in rows]),
                        np.concatenate([c.ravel() for c in cols]))),
                      shape=(l * l, 2 * n_u))

    W = sps.block_diag((_momentum(l, nu, 0), _momentum(l, nu, 1)), format="csr")
    W.eliminate_zeros()  # as a dense block converted to CSR would store it
    return W, B


def build_oseen(l: int, nu: float, seed: int = 0) -> SaddleSystem:
    """Leaky-lid cavity Oseen system on an l x l MAC grid.

    (f, g) is the manufactured b of :func:`make_consistent_rhs`.  null(B^T)
    is recorded as the constant pressure e / sqrt(m).
    """
    if l < 4:
        raise ValueError("grid too coarse: need l >= 4")
    if not 0 < nu < np.inf:
        raise ValueError("viscosity nu must be positive and finite")
    W, B = _assemble_oseen(l, nu)
    # every column of B holds +1/h and -1/h, so B^T e = 0 exactly
    m = l * l
    system = SaddleSystem(W=W, B=B, f=np.zeros(W.shape[0]), g=np.zeros(m), l=l, nu=nu,
                          null_BT=np.full((m, 1), 1.0 / np.sqrt(m)))
    return system.with_rhs(make_consistent_rhs(system, seed=seed))


def make_consistent_rhs(system: SaddleSystem, seed: int = 0) -> Array:
    """The manufactured b = A x* for a seeded pseudo-random x*, hence in range(A)."""
    x_star = np.random.default_rng(seed).standard_normal(system.n + system.m)
    return system.matrix() @ x_star


def build_random_singular(n: int, m: int, rank_b: int, seed: int) -> SaddleSystem:
    """Small synthetic singular saddle system for property tests.

    W is a diagonally dominant SPD part plus 0.3 times a skew part; B is an
    explicit rank-``rank_b`` product, so the system is singular whenever
    rank_b < m.  The right-hand side is manufactured, hence consistent.
    """
    if not (rank_b < m <= n):
        raise ValueError("need rank_b < m <= n")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    Hs = 0.5 * (G + G.T)
    H = Hs + np.diag(np.abs(Hs).sum(axis=1) + 1.0)
    S = 0.3 * 0.5 * (G - G.T)
    W = H + S
    B = rng.standard_normal((m, rank_b)) @ rng.standard_normal((rank_b, n))
    system = SaddleSystem(W=W, B=B, f=np.zeros(n), g=np.zeros(m))
    return system.with_rhs(make_consistent_rhs(system, seed=seed + 1))


def export(system: SaddleSystem, out_dir) -> dict:
    """Write W, B, f, g as Matrix Market coordinate files (real, general,
    explicit nonzeros only) plus a JSON metadata sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in (("W", system.W), ("B", system.B),
                    ("f", system.f.reshape(-1, 1)), ("g", system.g.reshape(-1, 1))):
        # through a handle: given a path, mmwrite appends ".mtx" when it is missing
        with open(out / f"{name}.mtx", "wb") as fh:
            scipy.io.mmwrite(fh, sps.coo_array(M), symmetry="general")
    meta = {"l": system.l, "nu": system.nu, "n": system.n, "m": system.m}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta
