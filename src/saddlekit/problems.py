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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mmio
from .linalg import Array, svd

DEFAULT_RANGE_TOL = 1e-10


def wind_x(x, y):
    return 8.0 * x * (x - 1.0) * (1.0 - 2.0 * y)


def wind_y(x, y):
    return 8.0 * y * (2.0 * x - 1.0) * (y - 1.0)


@dataclass(frozen=True)
class Splitting:
    """Symmetric/skew decomposition of the velocity block W."""

    H: Array
    S: Array
    L_s: Array
    U_s: Array


def split(W: Array) -> Splitting:
    """W = H + S with H symmetric, S skew; L_s/U_s the strict triangles of S."""
    W = np.asarray(W, dtype=float)
    H = 0.5 * (W + W.T)
    S = 0.5 * (W - W.T)
    L_s = np.tril(S, -1)
    U_s = np.triu(S, 1)
    return Splitting(H=H, S=S, L_s=L_s, U_s=U_s)


@dataclass(frozen=True)
class SaddleSystem:
    """The block system [[W, B^T], [-B, 0]] (u; p) = (f; g)."""

    W: Array
    B: Array
    f: Array
    g: Array
    l: int | None = None
    nu: float | None = None
    raw_rhs: Array | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def h(self) -> float | None:
        return None if self.l is None else 1.0 / self.l

    def matrix(self) -> Array:
        """Assemble the dense (n+m) x (n+m) coefficient matrix."""
        n, m = self.n, self.m
        A = np.zeros((n + m, n + m))
        A[:n, :n] = self.W
        A[:n, n:] = self.B.T
        A[n:, :n] = -self.B
        return A

    def rhs(self) -> Array:
        return np.concatenate([self.f, self.g])

    def with_rhs(self, b: Array) -> "SaddleSystem":
        return SaddleSystem(W=self.W, B=self.B, f=b[: self.n], g=b[self.n :],
                            l=self.l, nu=self.nu, raw_rhs=self.raw_rhs)


def _velocity_ids(l: int, axis: int) -> Array:
    """Unknown numbers of one velocity component (axis 0: u, 1: v) as a grid.

    Row j, column i holds the node at height index j and width index i
    (u: x = (i+1) h, y = (j+1/2) h; v: x = (i+1/2) h, y = (j+1) h), numbered
    row by row.  The momentum blocks and B share this one ordering.
    """
    shape = (l, l - 1) if axis == 0 else (l - 1, l)
    return np.arange(l * (l - 1)).reshape(shape)


def _momentum(l: int, nu: float, axis: int):
    """Momentum block and load of one velocity component (axis 0: u, 1: v).

    A 5-point viscous stencil plus the averaged-coefficient centred
    convective stencil.  A neighbour beyond a wall normal to the component's
    axis is a wall node: its value is 0 and the entry is dropped.  One beyond
    a wall parallel to it is the ghost reflection 2g - u, with lid data g = 1
    for u on y = 1 and g = 0 elsewhere.  Entries accumulate in a fixed order
    (viscous W, E, S, N, then convective E, W, N, S).
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
    F = np.zeros((k.size, k.size))
    f = np.zeros(k.size)
    F[k, k] = 4.0 * visc

    def couple(d, coef):
        nb, normal_wall = nbrs[d]
        inside = nb >= 0
        F[k[inside], nb[inside]] += coef[inside]
        if not normal_wall:  # the ghost 2g - u folds into the diagonal and the load
            ghost, c = k[~inside], coef[~inside]
            F[ghost, ghost] -= c
            if axis == 0 and d == "N":  # lid data g = 1
                f[ghost] -= 2.0 * c

    for d in "WESN":
        couple(d, np.full(x.shape, -visc))
    for d in "EWNS":
        couple(d, conv[d])
    return F, f


def _assemble_oseen(l: int, nu: float):
    h = 1.0 / l
    n_u = l * (l - 1)
    # discrete divergence scaled so that B^T is the pressure gradient: a face
    # gets +1/h from the cell on its high side and -1/h from the one below
    cells = np.arange(l * l).reshape(l, l)
    ku, kv = _velocity_ids(l, 0), n_u + _velocity_ids(l, 1)
    B = np.zeros((l * l, 2 * n_u))
    B[cells[:, 1:], ku] = 1.0 / h
    B[cells[:, :-1], ku] = -1.0 / h
    B[cells[1:, :], kv] = 1.0 / h
    B[cells[:-1, :], kv] = -1.0 / h

    F1, f1 = _momentum(l, nu, 0)
    F2, f2 = _momentum(l, nu, 1)
    W = np.zeros((2 * n_u, 2 * n_u))
    W[:n_u, :n_u] = F1
    W[n_u:, n_u:] = F2
    return W, B, np.concatenate([f1, f2]), np.zeros(l * l)


def build_oseen(l: int, nu: float, rhs_mode: str = "manufactured", seed: int = 0) -> SaddleSystem:
    """Leaky-lid cavity Oseen system on an l x l MAC grid.

    The raw load vector (boundary folding of the lid data, zero body force)
    is kept on the system for the ``projected`` right-hand-side mode; the
    stored (f, g) come from :func:`make_consistent_rhs`.
    """
    if l < 4:
        raise ValueError("grid too coarse: need l >= 4")
    if nu <= 0:
        raise ValueError("viscosity nu must be positive")
    W, B, f_raw, g_raw = _assemble_oseen(l, nu)
    system = SaddleSystem(W=W, B=B, f=f_raw, g=g_raw, l=l, nu=nu,
                          raw_rhs=np.concatenate([f_raw, g_raw]))
    b = make_consistent_rhs(system, mode=rhs_mode, seed=seed)
    return system.with_rhs(b)


def make_consistent_rhs(system: SaddleSystem, mode: str = "manufactured",
                        seed: int = 0, x_star: Array | None = None) -> Array:
    """Right-hand side guaranteed (or projected) to lie in range(A).

    ``manufactured``: b = A x* for a seeded pseudo-random x*.
    ``projected``: orthogonal projection of the raw assembled load onto
    range(A), removing the left-null-space component found by SVD.
    """
    A = system.matrix()
    if mode == "manufactured":
        if x_star is None:
            rng = np.random.default_rng(seed)
            x_star = rng.standard_normal(system.n + system.m)
        return A @ np.asarray(x_star, dtype=float)
    if mode == "projected":
        if system.raw_rhs is None:
            raise ValueError("system carries no raw load vector to project")
        fac = svd(A)
        s = fac.singular_values
        null_left = fac.U[:, s <= DEFAULT_RANGE_TOL * s[0]]
        b = system.raw_rhs
        return b - null_left @ (null_left.T @ b)
    raise ValueError(f"unknown rhs mode {mode!r}")


def build_random_singular(n: int, m: int, rank_b: int, seed: int,
                          skew_scale: float = 0.3) -> SaddleSystem:
    """Small synthetic singular saddle system for property tests.

    W is a diagonally dominant SPD part plus a scaled skew part; B is an
    explicit rank-``rank_b`` product, so the system is singular whenever
    rank_b < m.  The right-hand side is manufactured, hence consistent.
    """
    if not (rank_b < m <= n):
        raise ValueError("need rank_b < m <= n")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    Hs = 0.5 * (G + G.T)
    H = Hs + np.diag(np.abs(Hs).sum(axis=1) + 1.0)
    S = skew_scale * 0.5 * (G - G.T)
    W = H + S
    B = rng.standard_normal((m, rank_b)) @ rng.standard_normal((rank_b, n))
    system = SaddleSystem(W=W, B=B, f=np.zeros(n), g=np.zeros(m))
    b = make_consistent_rhs(system, mode="manufactured", seed=seed + 1)
    return system.with_rhs(b)


def export(system: SaddleSystem, out_dir) -> dict:
    """Write W, B, f, g in coordinate format plus a JSON metadata sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mmio.write_coordinate(out / "W.mtx", system.W)
    mmio.write_coordinate(out / "B.mtx", system.B)
    mmio.write_vector(out / "f.mtx", system.f)
    mmio.write_vector(out / "g.mtx", system.g)
    meta = {"l": system.l, "nu": system.nu, "n": system.n, "m": system.m}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return meta
