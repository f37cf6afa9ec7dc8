"""Structured grids, hole rasterization and the sparse correction operators.

A field on the grid is stored as an array U whose first axis is x; the
vectorized form stacks columns (Fortran ravel).  On a Dirichlet-Dirichlet axis
of length L with m unknowns the spacing is dr = L/(m+1); each Neumann end
keeps its boundary node as an unknown and enlarges the axis count by one.

Holes ("Theta") are rasterized from geometric primitives into a boolean node
mask.  With M the boundary-condition-modified Kronecker-sum Laplacian, the
correction operators

    N1 = chi_Theta * M * chi_Omega      (Theta rows, Omega columns)
    N2 = M * chi_Theta                  (Theta columns)

yield the masked Laplacian M - N1 - N2 whose Theta rows and columns vanish,
decoupling the holes from the physical region.  N1 is nilpotent of order two
because its rows live on Theta and its columns on Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import DIRICHLET, NEUMANN, laplacian_1d, spectral_factorize

__all__ = [
    "GridSpec",
    "Grid",
    "build_grid",
    "Circle",
    "CylinderSegment",
    "RoughEdgeProfile",
    "DomainMask",
    "rasterize_mask",
    "CorrectionOperators",
    "build_correction_matrices",
]


@dataclass(frozen=True)
class GridSpec:
    """Extents [m], per-axis unknown counts, and per-axis (low, high) bc kinds."""

    extents: tuple
    counts: tuple
    bc: tuple  # per axis: (bc_low, bc_high), entries 'dirichlet' | 'neumann'

    def __post_init__(self):
        if not len(self.extents) == len(self.counts) == len(self.bc) in (2, 3):
            raise ValueError("expected two or three consistent axes")
        for L, m, (lo, hi) in zip(self.extents, self.counts, self.bc):
            if L <= 0.0:
                raise ValueError("extents must be positive")
            if m < 2:
                raise ValueError("need at least two unknowns per axis")
            for end in (lo, hi):
                if end not in (DIRICHLET, NEUMANN):
                    raise ValueError(f"unknown boundary kind {end!r}")


@dataclass(frozen=True)
class Grid:
    spec: GridSpec
    spacings: tuple
    axes: tuple  # per-axis coordinates of the unknown nodes
    laplacians: tuple

    @property
    def counts(self):
        return self.spec.counts

    @property
    def ndim(self):
        return len(self.spec.counts)

    @property
    def n_nodes(self):
        return int(np.prod(self.spec.counts))

    @cached_property
    def factorizations(self) -> tuple:
        """Spectral factorization of each 1D Laplacian, computed once per grid.

        Every shifted solver on the grid differs only in its (a, b) shift, so
        all of them share these.
        """
        return tuple(spectral_factorize(M) for M in self.laplacians)


def spacing_for_axis(extent: float, count: int, bc_pair) -> float:
    """dr such that count nodes tile the axis under the given end conditions."""
    neumann_ends = sum(1 for end in bc_pair if end == NEUMANN)
    intervals = count + 1 - neumann_ends
    return extent / intervals


def axis_counts_for_spacing(extent: float, dr: float, bc_pair) -> int:
    """Inverse of `spacing_for_axis` for axes whose extent is a multiple of dr."""
    intervals = round(extent / dr)
    if abs(intervals * dr - extent) > 1e-9 * extent:
        raise ValueError("axis extent is not a multiple of the requested spacing")
    neumann_ends = sum(1 for end in bc_pair if end == NEUMANN)
    return intervals - 1 + neumann_ends


def build_grid(spec: GridSpec) -> Grid:
    """Materialize coordinates, spacings and per-axis Laplacians."""
    spacings = []
    axes = []
    laps = []
    for L, m, bc_pair in zip(spec.extents, spec.counts, spec.bc):
        dr = spacing_for_axis(L, m, bc_pair)
        start = 0.0 if bc_pair[0] == NEUMANN else dr
        axes.append(start + dr * np.arange(m))
        spacings.append(dr)
        laps.append(laplacian_1d(bc_pair, m, dr))
    return Grid(spec, tuple(spacings), tuple(axes), tuple(laps))


@dataclass(frozen=True)
class Circle:
    """Closed disk in the (x, y) plane; 3D grids are rejected."""

    center: tuple
    radius: float

    def contains(self, grid: Grid) -> np.ndarray:
        if grid.ndim != 2:
            raise ValueError("circle primitives apply to 2D grids")
        x, y = grid.axes
        cx, cy = self.center
        return (x[:, None] - cx) ** 2 + (y[None, :] - cy) ** 2 <= self.radius**2 * (1.0 + 1e-12)

    def snapped(self, grid: Grid) -> "Circle":
        cx = _nearest(grid.axes[0], self.center[0])
        cy = _nearest(grid.axes[1], self.center[1])
        return Circle((cx, cy), self.radius)


@dataclass(frozen=True)
class CylinderSegment:
    """Closed cylinder (optionally clipped) with axis along a grid direction.

    `axis` is the direction of the cylinder axis; `center` gives the two
    coordinates in the perpendicular plane, ordered by increasing axis index.
    `span` = (lo, hi) optionally clips the extent along the cylinder axis, and
    `half_plane` = (perp_axis, limit) keeps only nodes with that perpendicular
    coordinate <= limit (for semi-cylindrical cavities).  Like the radius,
    both clip the closed set with a 1e-12 relative margin, so that a bound
    on a node keeps it whatever the round-off in the coordinates.
    """

    axis: int
    center: tuple
    radius: float
    span: tuple | None = None
    half_plane: tuple | None = None

    def contains(self, grid: Grid) -> np.ndarray:
        if grid.ndim != 3:
            raise ValueError("cylinder primitives apply to 3D grids")
        coords = np.ix_(*grid.axes)  # each axis along its own dimension
        perp = [i for i in range(3) if i != self.axis]
        r2 = (coords[perp[0]] - self.center[0]) ** 2 + (
            coords[perp[1]] - self.center[1]
        ) ** 2
        inside = np.broadcast_to(r2 <= self.radius**2 * (1.0 + 1e-12), grid.counts).copy()
        if self.span is not None:
            lo, hi = self.span
            along = coords[self.axis]
            inside &= (along >= lo - 1e-12 * abs(lo)) & (along <= hi + 1e-12 * abs(hi))
        if self.half_plane is not None:
            ax, limit = self.half_plane
            inside &= coords[ax] <= limit * (1.0 + 1e-12)
        return inside

    def snapped(self, grid: Grid) -> "CylinderSegment":
        perp = [i for i in range(3) if i != self.axis]
        center = tuple(
            _nearest(grid.axes[p], c) for p, c in zip(perp, self.center)
        )
        return CylinderSegment(self.axis, center, self.radius, self.span, self.half_plane)


@dataclass(frozen=True)
class RoughEdgeProfile:
    """Seedable piecewise-linear rough profile carving the high-y edge (2D).

    Knots are spaced `wavelength` apart along x; each knot height is drawn
    uniformly from [base_height - amplitude, base_height] with a deterministic
    generator.  A node belongs to the carved region iff y >= profile(x).
    """

    amplitude: float
    wavelength: float
    base_height: float
    seed: int = 0

    def heights(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n_knots = int(np.floor(x.max() / self.wavelength)) + 2
        rng = np.random.default_rng(self.seed)
        knots_y = self.base_height - self.amplitude * rng.random(n_knots)
        knots_x = self.wavelength * np.arange(n_knots)
        return np.interp(x, knots_x, knots_y)

    def contains(self, grid: Grid) -> np.ndarray:
        if grid.ndim != 2:
            raise ValueError("rough-edge primitives apply to 2D grids")
        prof = self.heights(grid.axes[0])
        return grid.axes[1][None, :] >= prof[:, None] * (1.0 - 1e-12)

    def snapped(self, grid: Grid) -> "RoughEdgeProfile":
        return self


@dataclass
class DomainMask:
    """Node indicator of the holes.

    `theta_index` and `omega_index` are the C-order flat indices of Theta
    and of the physical region, computed on first use; `theta` is not
    written after that.
    """

    theta: np.ndarray  # boolean, grid-shaped

    @cached_property
    def theta_index(self) -> np.ndarray:
        return np.flatnonzero(self.theta)

    @cached_property
    def omega_index(self) -> np.ndarray:
        return np.flatnonzero(~self.theta)


def rasterize_mask(grid: Grid, shapes) -> DomainMask:
    """Union of closed shapes; every shape must cover at least one node."""
    theta = np.zeros(grid.counts, dtype=bool)
    for shape in shapes:
        inside = shape.contains(grid)
        if not inside.any():
            raise ValueError(
                f"shape {shape!r} covers no grid node; geometry thinner than the grid"
            )
        theta |= inside
    return DomainMask(theta)


@dataclass(frozen=True)
class CorrectionOperators:
    """Sparse stencil corrections decoupling Theta from the physical region."""

    N1: sp.csr_matrix
    N2: sp.csr_matrix

    @cached_property
    def N12(self) -> sp.csr_matrix:
        """N1 + N2, summed once per correction."""
        return (self.N1 + self.N2).tocsr()


def build_correction_matrices(grid: Grid, mask: DomainMask) -> CorrectionOperators:
    """N1 and N2 from the Laplacian's stencil around the Theta nodes.

    Only the entries of M in Theta rows or columns are formed: the diagonal
    of each Theta node and its +-stride neighbours along every axis.  The
    diagonal is summed over the axes in axis order, as in `kronecker_sum`.
    """
    if mask.theta.shape != tuple(grid.counts):
        raise ValueError("mask shape does not match the grid")
    theta = mask.theta.ravel(order="F")
    nodes = np.flatnonzero(theta)
    coords = np.unravel_index(nodes, grid.counts, order="F")
    diag = sum(M.main[i] for M, i in zip(grid.laplacians, coords))
    n2 = [(nodes, nodes, diag)]  # (rows, columns, values) with Theta columns
    n1 = []  # Theta rows, Omega columns
    stride = 1
    for M, i in zip(grid.laplacians, coords):
        # Up: M[t, t + stride] = upper[i] and M[t + stride, t] = lower[i];
        # down: M[t, t - stride] = lower[i - 1] and M[t - stride, t] = upper[i - 1].
        for has, offset, j, into_t, out_of_t in (
            (i < M.m - 1, stride, i, M.lower, M.upper),
            (i > 0, -stride, i - 1, M.upper, M.lower),
        ):
            t, j = nodes[has], j[has]
            n = t + offset
            n2.append((n, t, into_t[j]))
            omega = ~theta[n]
            n1.append((t[omega], n[omega], out_of_t[j[omega]]))
        stride *= M.m
    # N2's rows list their columns in descending order, the order that sparse
    # products with `kronecker_sum` give, so that mat-vecs sum in that order.
    return CorrectionOperators(_csr(n1, grid.n_nodes),
                               _csr(n2, grid.n_nodes, descending=True))


def _csr(triplets, n: int, descending: bool = False) -> sp.csr_matrix:
    """The n x n CSR matrix of (rows, columns, values) pieces without zero
    values, its columns in ascending (or descending) order within a row."""
    rows, cols, vals = (np.concatenate(part) for part in zip(*triplets))
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.argsort(rows * n + (n - 1 - cols if descending else cols))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, n))


def _nearest(axis_coords: np.ndarray, value: float) -> float:
    return float(axis_coords[np.argmin(np.abs(axis_coords - value))])
