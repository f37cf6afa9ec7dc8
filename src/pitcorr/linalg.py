"""1D discrete Laplacians, spectral factorizations and shifted Sylvester solves.

A centered second-difference Laplacian on a uniform 1D grid with Dirichlet
conditions at both ends is (1/dr^2) * tridiag(1, -2, 1).  A Neumann end keeps
the boundary node as an unknown and eliminates the ghost value, which turns
the off-diagonal entry of that end row into 2/dr^2.  Every axis is thus the
uniform stencil s*(1, -2, 1), s = 1/dr^2, plus a ghost term s at a Neumann
end, and `apply_laplacian` applies it to the C-ordered field flattened to
1D: one contiguous shifted pass per axis, with the few entries at the ends
of each axis line fixed up afterwards.

The 2D Laplacian is the Kronecker sum I_my (x) Mx + My (x) I_mx acting on
column-stacked fields, so the shifted linear systems of the IMEX schemes are
Sylvester equations

    (a*I + b*Mx) X + b * X * My^T = Y,

solved by diagonalizing Mx and My once:

    X = Gx * (Upsilon o (Gx^{-1} Y Gy^{-T})) * Gy^T,
    Upsilon_ij = 1 / (a + b*lx_i + b*ly_j),

with o the Hadamard product.  In 3D the right-hand side is additionally
transformed along the third axis, each slice j carrying the scalar shift
a + b*lz_j; this is implemented as one dense reciprocal table over all
eigenvalue triplets.  This is the tensor-product method of Lynch, Rice &
Thomas (Numer. Math. 6, 1964).

Every transform is a mode product (`_mode_product`): one matrix applied
along one axis of a C-ordered field, one GEMM on the first or the last axis
and one GEMM per leading index on the middle axis of three.  A 2D solve thus
issues the products of Gx^{-1} Y Gy^{-T} and Gx (..) Gy^T.  The layout
contract: a solve returns a C-contiguous array whatever the layout of Y,
with bits that do not depend on that layout, so every field of a step is
C-ordered.

A sparse correction N of the Laplacian, (a*I + b*(M - N)) X = Y, is solved
exactly by the capacitance-matrix method (Buzbee, Dorr, George & Golub,
SIAM J. Numer. Anal. 8, 1971; Proskurowski & Widlund, Math. Comp. 30,
1976).  With A = a*I + b*M, alpha = -b and S the s columns that N touches,
Sherman-Morrison-Woodbury gives

    y = A^{-1} Y,   (I + alpha*K) x_S = y_S,   X = A^{-1} (Y - alpha*N_S x_S),

with the capacitance K = (A^{-1} N_S)_S, an s x s matrix.  K is formed in
the eigenbasis with no solve.  The unit vector at each of the R nonzero
rows r of N_S has a rank-one spectral image, the outer product over the
axes of the Gamma^{-1} columns at r's coordinates, and a value at a point
k of S is read with one row of each Gamma.  Splitting the axes into the
head (all but the last) and the last axis z, as the Fourier-analysis step
of FACR does (Hockney, J. ACM 12, 1965),

    (A^{-1})[k, r] = sum_h P[k, h] I[h, r] G_h(z_k, z_r),
    G_h(z, z') = sum_q Gz[z, q] Upsilon[h, q] Gz^{-1}[q, z'],

with P and I the head products of the Gamma rows at S and of the Gamma^{-1}
columns at the rows, and G_h the inverse of the tridiagonal last-axis
system of head mode h.  G is needed only on the W levels that S and the
rows span, and there only on its diagonal and first off-diagonals: one
GEMM of their "lift" Gz[z, q] Gz^{-1}[q, z'] with Upsilon.  G_h is
semiseparable, so those entries give all others as products of ratios, and
each triangle of (A^{-1})[S, rows] becomes one GEMM over the H = nodes / m_z
head modes.  K thus costs 2 * s * R * nodes / m_z products plus the lift
GEMM, (3W - 2) * nodes.  `support_inverse` forms P, I and the lift from the
operator's factorizations at set-up, in chunks of head modes whose work
arrays stay under a fixed byte bound; `support_images` holds only what the
correction of every step reads, shared by phi, c and every shift.
The `corrected` copy of a `SylvesterOperator` holds the `Capacitance` of N,
and its `solve` applies all three formulas inside the one forward and one
backward transform of a plain solve: y_S is read off the transformed
right-hand side, and alpha*N_S x_S is subtracted as its spectral image.
Both are grouped by coordinate along one axis g: y_S is one mode-g product
with the Gamma_g rows at the n_D distinct coordinates of S, then one slice
of it per point, n_D * nodes + s * nodes / m_g products instead of
s * nodes; the image sums the weights per distinct row coordinate first,
then takes one mode-g product with the Gamma_g^{-1} columns there.  What
those groups index is built once per grid, with the images.  I + alpha*K
is LU-factored once per operator; a correction solves it with LAPACK's
dgetrs on those factors and multiplies by N's rows with the CSR kernel
itself (`csr_product`), so that a call adds little to its arithmetic.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrs

try:  # the kernel of a CSR matrix-vector product in scipy.sparse
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # a scipy that keeps it elsewhere: `csr_product` uses `@`
    _csr_matvec = None

__all__ = [
    "Laplacian1D",
    "SpectralFactorization",
    "SylvesterOperator",
    "SupportImages",
    "Capacitance",
    "support_images",
    "support_inverse",
    "laplacian_1d",
    "spectral_factorize",
    "build_operator",
    "apply_laplacian",
    "csr_product",
    "kronecker_sum",
    "factorization_count",
]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Counts every spectral factorization performed; step loops must not add to it.
_FACTORIZATION_COUNT = 0


def factorization_count() -> int:
    return _FACTORIZATION_COUNT


@dataclass(frozen=True)
class Laplacian1D:
    """Tridiagonal 1D Laplacian with per-end boundary kinds.

    `main`, `lower`, `upper` hold the diagonals already scaled by 1/dr^2.
    """

    bc_low: str
    bc_high: str
    m: int
    dr: float
    main: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def sparse(self) -> sp.csr_matrix:
        return sp.diags(
            [self.lower, self.main, self.upper], [-1, 0, 1], format="csr"
        )


def laplacian_1d(kind, m: int, dr: float) -> Laplacian1D:
    """Build the 1D Laplacian for `kind` = (bc_low, bc_high) or 'dirichlet'/'neumann'.

    A string kind applies the same condition at both ends.
    """
    if isinstance(kind, str):
        bc_low = bc_high = kind
    else:
        bc_low, bc_high = kind
    for bc in (bc_low, bc_high):
        if bc not in (DIRICHLET, NEUMANN):
            raise ValueError(f"unknown boundary kind {bc!r}")
    if m < 2:
        raise ValueError("need at least two unknowns per axis")
    if dr <= 0.0:
        raise ValueError("grid spacing must be positive")

    s = 1.0 / (dr * dr)
    main = np.full(m, -2.0 * s)
    lower = np.full(m - 1, s)
    upper = np.full(m - 1, s)
    # Ghost elimination at a Neumann end doubles the inner off-diagonal entry.
    if bc_low == NEUMANN:
        upper[0] = 2.0 * s
    if bc_high == NEUMANN:
        lower[-1] = 2.0 * s
    return Laplacian1D(bc_low, bc_high, m, dr, main, lower, upper)


@dataclass(frozen=True)
class SpectralFactorization:
    """Eigendecomposition M = Gamma diag(lam) Gamma^{-1}, lam ascending."""

    Gamma: np.ndarray
    GammaInv: np.ndarray
    lam: np.ndarray


def spectral_factorize(M: Laplacian1D) -> SpectralFactorization:
    """Diagonalize a 1D Laplacian.

    Dirichlet-Dirichlet matrices use the analytic sine eigenpairs

        lam_k = -(4/dr^2) sin^2(k pi / (2(m+1))),
        v_k(i) = sqrt(2/(m+1)) sin(i k pi / (m+1)),

    with orthonormal Gamma.  Matrices with a Neumann end are nonsymmetric but
    similar to a symmetric tridiagonal via a diagonal scaling, so the
    eigenproblem is solved on the symmetrized matrix and mapped back.
    """
    global _FACTORIZATION_COUNT
    _FACTORIZATION_COUNT += 1

    m, dr = M.m, M.dr
    if M.bc_low == DIRICHLET and M.bc_high == DIRICHLET:
        k = np.arange(1, m + 1)
        lam = -(4.0 / dr**2) * np.sin(k * np.pi / (2.0 * (m + 1))) ** 2
        i = np.arange(1, m + 1)[:, None]
        Gamma = np.sqrt(2.0 / (m + 1)) * np.sin(i * k[None, :] * np.pi / (m + 1))
        order = np.argsort(lam)
        lam = lam[order]
        Gamma = Gamma[:, order]
        fact = SpectralFactorization(Gamma, Gamma.T.copy(), lam)
    else:
        # Symmetrize: with d_1 = 1, d_{i+1} = d_i * sqrt(lower_i / upper_i),
        # D^{-1} M D is symmetric with off-diagonal sqrt(lower * upper).
        off = np.sqrt(M.lower * M.upper)
        lam, V = spla.eigh_tridiagonal(M.main, off)
        ratios = np.concatenate(([1.0], np.sqrt(M.lower / M.upper)))
        d = np.cumprod(ratios)
        Gamma = d[:, None] * V
        GammaInv = V.T / d[None, :]
        fact = SpectralFactorization(Gamma, GammaInv, lam)

    # The inf-norms of Gamma diag(lam) Gamma^{-1} - M and of M, from M's
    # three diagonals.
    R = np.multiply(fact.Gamma, fact.lam, order="C") @ fact.GammaInv
    flat = R.ravel()
    flat[:: m + 1] -= M.main
    flat[m :: m + 1] -= M.lower
    flat[1 :: m + 1] -= M.upper
    resid = np.abs(R, out=R).sum(axis=1).max()
    rows = np.abs(M.main)
    rows[1:] += np.abs(M.lower)
    rows[:-1] += np.abs(M.upper)
    scale = rows.max()
    if resid > 1e-10 * scale:
        raise ArithmeticError(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance"
        )
    return fact


class SylvesterOperator:
    """Precomputed solver for (a*I + b*KroneckerSum) with 2 or 3 axes.

    Immutable after construction; `solve` may be called concurrently with
    distinct right-hand sides.
    """

    def __init__(self, a: float, b: float, facts):
        self.a = float(a)
        self.b = float(b)
        self.facts = tuple(facts)
        if len(self.facts) not in (2, 3):
            raise ValueError("expected two or three factorized axes")
        # a + b*(lx_i + ly_j [+ lz_k]), summed in axis order.
        denom = self.facts[0].lam
        for f in self.facts[1:]:
            denom = np.add.outer(denom, f.lam)
        denom *= self.b
        denom += self.a
        if not np.all(denom):
            raise ArithmeticError("singular shift: zero denominator in Upsilon")
        self.Upsilon = np.reciprocal(denom, out=denom)
        self.shape = denom.shape
        self.capacitance = None

    def corrected(self, images: SupportImages) -> "SylvesterOperator":
        """The solver of (a*I + b*(M - N)) for the N of `images`: a copy on the
        same `facts` and `Upsilon` that holds the `Capacitance` of N."""
        out = copy.copy(self)
        out.capacitance = Capacitance(self, images)
        return out

    def solve(self, Y: np.ndarray) -> np.ndarray:
        """X with (a*I + b*M) X = Y, or (a*I + b*(M - N)) X = Y for a
        `corrected` operator.

        X is C-contiguous whatever the layout of Y, and its bits do not
        depend on that layout: Y is read as a C-ordered copy if it is not
        one, and each transform is one `_mode_product` per axis."""
        if Y.shape != self.shape:
            raise ValueError(f"right-hand side shape {Y.shape} != {self.shape}")
        W = np.ascontiguousarray(Y)
        for axis, f in enumerate(self.facts):
            W = _mode_product(f.GammaInv, W, axis)
        if self.capacitance is not None:
            W = self.capacitance.corrected(W)
        W *= self.Upsilon
        for axis, f in enumerate(self.facts):
            W = _mode_product(f.Gamma, W, axis)
        return W


def _mode_product(A: np.ndarray, V: np.ndarray, axis: int) -> np.ndarray:
    """A applied along `axis` of V, a C-ordered result with that axis
    resized to len(A): out[..., i, ...] = sum_p A[i, p] V[..., p, ...].

    One GEMM for the first and the last axis, one per leading index for the
    middle axis of three.  V is read in place when the merged axes are a
    view of it (always for a C-ordered V), else reshape copies it.  In 2D
    the product is A @ V or V @ A^T, with no reshape."""
    if V.ndim == 2:
        return A @ V if axis == 0 else V @ A.T
    shape = V.shape[:axis] + (A.shape[0],) + V.shape[axis + 1:]
    # The widths are explicit: reshape cannot infer them for an empty axis.
    if axis == 0:
        return (A @ V.reshape(V.shape[0], math.prod(V.shape[1:]))).reshape(shape)
    if axis == V.ndim - 1:
        return (V.reshape(math.prod(V.shape[:-1]), V.shape[-1]) @ A.T).reshape(shape)
    return np.matmul(A, V)  # the middle axis of three


@dataclass(frozen=True)
class SupportImages:
    """A sparse correction N seen from the eigenbasis of its factorizations,
    as `Capacitance.corrected` reads it, once per grid.

    `support` holds the flat (column-stacked) indices S of N's nonzero
    columns and `rows` those of the nonzero rows of N_S; `block` is
    N[rows, S], sparse.  A value at a point of S is read with the Gamma rows
    at its coordinates, and the spectral image of the unit vector at a row is
    the outer product of the Gamma^{-1} columns at its coordinates.

    S and the rows are each grouped by their coordinate along one axis g,
    `support_axis` and `rows_axis`.  `support_distinct` holds the rows of
    Gamma_g at the n_D distinct coordinates of S (n_D x m_g) and
    `support_group` each point's index among them; `rows_distinct` holds the
    columns of Gamma_g^{-1} at the n_E distinct coordinates of the rows
    (m_g x n_E).  See `_grouping` for the choice of g.  The factors along the
    other axes are kept as the grouped reads and image use them: in 2D
    `support_other`, the Gamma rows at S along the axis that is not g,
    `rows_other_t`, the transposed Gamma^{-1} columns at the rows along it,
    and `rows_onehot`, the flat indices of (e, r) in the n_E x R one-hot
    matrix of the groups, e the group of row r; in 3D `support_blocks` and
    `rows_blocks`, per distinct coordinate the indices of its points or rows
    and their factors along the two other axes (None in 2D, as the 2D fields
    are in 3D).  `support_inverse` forms what it needs from S, the rows and
    the operator's factorizations, so nothing here is read only at set-up.
    """

    support: np.ndarray
    rows: np.ndarray
    block: sp.csr_matrix
    support_axis: int
    support_distinct: np.ndarray
    support_group: np.ndarray
    rows_axis: int
    rows_distinct: np.ndarray
    support_other: np.ndarray | None
    support_blocks: tuple | None
    rows_other_t: np.ndarray | None
    rows_onehot: np.ndarray | None
    rows_blocks: tuple | None


def support_images(facts, N: sp.spmatrix) -> SupportImages:
    """The `SupportImages` of N, without its explicitly stored zeros."""
    facts = tuple(facts)
    shape = tuple(f.lam.size for f in facts)
    N = sp.csr_matrix(N)
    if not N.data.all():
        N = N.copy()
        N.eliminate_zeros()
    rows = np.flatnonzero(np.diff(N.indptr))
    support, col_index = np.unique(N.indices, return_inverse=True)
    at_support = np.unravel_index(support, shape, order="F")
    at_rows = np.unravel_index(rows, shape, order="F")
    support_axis, support_coords, support_group = _grouping(at_support, shape)
    rows_axis, rows_coords, rows_group = _grouping(at_rows, shape)
    # The factors along the axes that are not grouped, as the grouped reads
    # and image index them (`_grouped_reads`, `_grouped_image`).
    reads = [f.Gamma[i] for axis, (f, i) in enumerate(zip(facts, at_support))
             if axis != support_axis]
    factors = [f.GammaInv.T[i].T for axis, (f, i) in enumerate(zip(facts, at_rows))
               if axis != rows_axis]
    if len(shape) == 2:
        support_blocks = rows_blocks = None
        rows_onehot = rows_group * rows.size + np.arange(rows.size)
    else:
        support_blocks = tuple((ks, reads[0][ks], reads[1][ks])
                               for ks in _members(support_group, support_coords.size))
        rows_blocks = tuple((rs, factors[0][:, rs], factors[1][:, rs].T)
                            for rs in _members(rows_group, rows_coords.size))
        rows_onehot = None
    return SupportImages(
        support=support,
        rows=rows,
        block=sp.csr_matrix((N.data, col_index, np.append(0, N.indptr[rows + 1])),
                            shape=(rows.size, support.size)),
        support_axis=support_axis,
        support_distinct=facts[support_axis].Gamma[support_coords],
        support_group=support_group,
        rows_axis=rows_axis,
        rows_distinct=facts[rows_axis].GammaInv[:, rows_coords],
        support_other=reads[0] if support_blocks is None else None,
        support_blocks=support_blocks,
        rows_other_t=factors[0].T if rows_blocks is None else None,
        rows_onehot=rows_onehot,
        rows_blocks=rows_blocks,
    )


def _grouping(coords, shape):
    """(g, the distinct coordinates along g, each point's index among them)
    for the points with the per-axis `coords`, grouped along the axis g with
    the fewest estimated products per correction: n_D * nodes for the mode-g
    product with the n_D distinct coordinates, plus s * nodes / m_g for the
    s points' slices of it.  Ties go to the first axis.  On `electropolish`
    this is y (15 distinct of 207 points), on `semicylinder3d` z (3 of 182)."""
    nodes = math.prod(shape)
    best = None
    for axis, c in enumerate(coords):
        distinct, group = np.unique(c, return_inverse=True)
        cost = distinct.size * nodes + c.size * nodes / shape[axis]
        if best is None or cost < best[0]:
            best = cost, axis, distinct, group
    return best[1:]


def _head_product(factors) -> np.ndarray:
    """Row-wise outer products over the axes, flattened in C order:
    out[n, (i, j, ...)] = factors[0][n, i] * factors[1][n, j] * ..."""
    out = np.ascontiguousarray(factors[0])
    for f in factors[1:]:
        # The width is explicit: reshape cannot infer it for an empty support.
        out = (out[:, :, None] * f[:, None, :]).reshape(len(out), out.shape[1] * f.shape[1])
    return out


# log2 of the largest factor by which the decay products may grow within a
# chunk of S levels, far from float64 overflow.
_CHUNK_RANGE_BITS = 500.0

# The bytes that the head products and work arrays of `support_inverse` may
# take, 16 * (s + R) per head mode, unless the modes of one index of the
# first axis take more: every builtin fits in one chunk (semicylinder3d's N1
# in 26 MB).
_CHUNK_BYTES = 32 * 2**20


def support_inverse(op: SylvesterOperator, images: SupportImages) -> np.ndarray:
    """The capacitance K = (A^{-1} N_S)_S of `op` = A, with no solve.

    K = (A^{-1})[S, rows] N[rows, S], and (A^{-1})[k, r] sums, over the head
    modes h, P[k, h] I[h, r] G_h(z_k, z_r), with G_h the inverse of the
    tridiagonal last-axis system of mode h.  That inverse is semiseparable:
    along a column, G_h(z, z') falls from its diagonal by the same ratio per
    level whatever z' is, one ratio set above the diagonal and one below.
    So, with D the products of those ratios from an origin level,

        G_h(z, z') = G_h(z', z') D_h(z') / D_h(z),

    and each triangle (z_r >= z_k, z_r < z_k) of (A^{-1})[S, rows] is one
    GEMM over the head modes.  The ratios come from one GEMM of the "lift"
    Gz[z, q] Gz^{-1}[q, z'] of the W levels that S and the rows span, for
    the pairs (z, z), (z, z + 1) and (z + 1, z), with Upsilon.  S is sorted
    by level (flat order); it is cut into chunks of consecutive points where
    D would leave 2**500 within one, so that no factor overflows, which takes
    levels far apart under a strong decay.  The head modes are cut into
    ranges of the first axis whose P, I and work arrays stay under
    `_CHUNK_BYTES`, and the GEMMs of later ranges are added to the first's.
    Raises ArithmeticError when K is not finite.
    """
    support, rows = images.support, images.rows
    if support.size == 0:
        return np.zeros((0, 0))
    facts = op.facts
    at_support = np.unravel_index(support, op.shape, order="F")
    at_rows = np.unravel_index(rows, op.shape, order="F")
    low = min(at_support[-1].min(), at_rows[-1].min())
    levels = np.arange(low, max(at_support[-1].max(), at_rows[-1].max()) + 1)
    pairs = (np.concatenate((levels, levels[:-1], levels[1:])),
             np.concatenate((levels, levels[1:], levels[:-1])))
    lift = facts[-1].Gamma[pairs[0]] * facts[-1].GammaInv[:, pairs[1]].T
    G = lift @ op.Upsilon.reshape(-1, op.shape[-1]).T
    W = levels.size
    diagonal = G[:W]
    rise = G[W:2 * W - 1] / diagonal[1:]  # G(z, z+1) / G(z+1, z+1)
    fall = G[2 * W - 1:] / diagonal[:-1]  # G(z+1, z) / G(z, z)
    zs, zr = at_support[-1] - low, at_rows[-1] - low
    # The Gamma rows at S and the Gamma^{-1} columns at the rows, per head axis.
    gamma_rows = [f.Gamma[i] for f, i in zip(facts[:-1], at_support)]
    inverse_cols = [f.GammaInv.T[i] for f, i in zip(facts[:-1], at_rows)]
    per_index = math.prod(op.shape[1:-1])  # head modes per first-axis index
    step = max(1, _CHUNK_BYTES // (16 * (support.size + rows.size) * per_index))
    inverse_t, lower = np.empty((rows.size, support.size)), np.empty((rows.size, support.size))
    chunks = _chunks(zs, rise, fall)
    for i in range(0, op.shape[0], step):
        modes = slice(i * per_index, (i + step) * per_index)
        head_rows = _head_product([inverse_cols[0][:, i:i + step]] + inverse_cols[1:])
        right = np.empty(head_rows.shape)
        for a, b in chunks:
            head_support = _head_product([gamma_rows[0][a:b, i:i + step]]
                                         + [f[a:b] for f in gamma_rows[1:]])
            left = np.empty(head_support.shape)
            for D, out in ((_decay(rise[:, modes], zs[a], upward=True), inverse_t[:, a:b]),
                           (_decay(fall[:, modes], zs[b - 1], upward=False), lower[:, a:b])):
                np.take(D * diagonal[:, modes], zr, axis=0, out=right)
                right *= head_rows
                np.take(D, zs[a:b], axis=0, out=left)
                np.divide(head_support, left, out=left)
                if i:
                    out += right @ left.T
                else:
                    np.matmul(right, left.T, out=out)
    np.copyto(inverse_t, lower, where=zr[:, None] < zs[None, :])
    K = (images.block.T @ inverse_t).T
    if not np.isfinite(K).all():
        raise ArithmeticError("capacitance is not finite for this shift")
    return K


def _chunks(levels, rise, fall):
    """[a, b) ranges of the points with the sorted `levels`, cut where the
    decay products, up or down, would leave 2**_CHUNK_RANGE_BITS within a
    range for some mode; one range unless the levels are far apart."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = np.maximum((-np.log2(np.abs(rise))).max(axis=1, initial=0.0),
                          (-np.log2(np.abs(fall))).max(axis=1, initial=0.0))
    reach = np.concatenate(([0.0], np.cumsum(bits)))[levels]
    cuts = [0]
    if not reach[-1] - reach[0] <= _CHUNK_RANGE_BITS:
        for k in range(1, levels.size):
            if not reach[k] - reach[cuts[-1]] <= _CHUNK_RANGE_BITS:
                cuts.append(k)
    return list(zip(cuts, cuts[1:] + [levels.size]))


def _decay(ratios, origin, upward):
    """The product of `ratios` between `origin` and each of the len(ratios) + 1
    levels, 1 at the origin and 0 on the side a triangle does not use."""
    out = np.zeros((ratios.shape[0] + 1, ratios.shape[1]))
    out[origin] = 1.0
    if upward:  # levels above the origin
        np.cumprod(ratios[origin:], axis=0, out=out[origin + 1:])
    elif origin > 0:  # levels below it, by the ratios read downward
        np.cumprod(ratios[origin - 1::-1], axis=0, out=out[origin - 1::-1])
    return out


class Capacitance:
    """The exact solve of (a*I + b*(M - N)) X = Y for one `SylvesterOperator`.

    Holds N's `SupportImages`, the operator's Upsilon and the LU factors of
    I + alpha*K, with alpha = -b and K = `support_inverse(op, images)`.  A
    numerically singular I + alpha*K (condition number 1e12 or more) raises
    ArithmeticError here, as a singular shift does in `SylvesterOperator`.
    The condition number needs no SVD when the norm bound
    b = min(|alpha*K|_F, sqrt(|alpha*K|_1 |alpha*K|_inf)) >= |alpha*K|_2
    certifies it: cond_2(I + alpha*K) <= (1 + b) / (1 - b) for b < 1.

    `corrected` applies the correction to a transformed right-hand side,
    reading y_S and forming the image by the coordinate groups of `images`
    (`SupportImages`): on `electropolish` 15 distinct y instead of 207
    points, on `semicylinder3d` 3 distinct z instead of 182.

    Immutable after construction.
    """

    def __init__(self, op: SylvesterOperator, images: SupportImages):
        self.images = images
        self.Upsilon = op.Upsilon
        self.alpha = -op.b
        C = support_inverse(op, images)
        C *= self.alpha
        magnitude = np.abs(C)
        b = min(np.linalg.norm(C),  # Frobenius
                np.sqrt(magnitude.sum(axis=0).max(initial=0.0)
                        * magnitude.sum(axis=1).max(initial=0.0)))
        certified = b < 1.0 and (1.0 + b) / (1.0 - b) < 1e12
        C.flat[:: C.shape[0] + 1] += 1.0  # I + alpha*K
        if not certified and not np.linalg.cond(C) < 1e12:
            raise ArithmeticError("singular capacitance: I + alpha*K is not invertible")
        self.lu = spla.lu_factor(C, overwrite_a=True, check_finite=False)

    def corrected(self, W: np.ndarray) -> np.ndarray:
        """The transformed right-hand side W of the operator this was built
        for, minus the spectral image of alpha*N_S x_S."""
        images = self.images
        y_S = _grouped_reads(images, self.Upsilon * W)
        weights = -self.alpha * csr_product(images.block, self._solve(y_S))
        image = _grouped_image(images, weights, W.shape)
        image += W
        return image

    def _solve(self, y: np.ndarray) -> np.ndarray:
        """x with (I + alpha*K) x = y, from a y that it may overwrite.

        Calls LAPACK's dgetrs on the stored factors, the routine that
        `scipy.linalg.lu_solve` wraps, without its checks: a non-finite
        right-hand side reaches the step's finiteness check as it does
        without a capacitance."""
        if not y.size:  # dgetrs rejects an empty system
            return y
        x, info = dgetrs(*self.lu, y, overwrite_b=True)
        if info:
            raise ValueError(f"dgetrs: illegal value in argument {-info}")
        return x


def _members(group: np.ndarray, count: int):
    """The indices of the points in each of the `count` groups."""
    order = np.argsort(group, kind="stable")
    return np.split(order, np.cumsum(np.bincount(group, minlength=count)))[:count]


def _grouped_reads(images: SupportImages, V: np.ndarray) -> np.ndarray:
    """The values at S of the field with spectral coefficients V.

    The mode-g product with the Gamma_g rows at the n_D distinct coordinates
    of S gives T, whose slice d(k) is contracted with point k's Gamma rows
    along the other axes: in 2D one gathered row each, in 3D one GEMM per
    group of points.  T is formed with g first, from a view of V that moves
    g there.  The product reads that view in place for the first and the
    last axis, and copies it for the middle axis of three.  For y in 2D it
    is Gamma_y-rows @ V^T, which is not bit-equal to (V @ Gamma_y-rows^T)^T;
    2D results keep their bits through this order."""
    # np.rollaxis(V, g) is np.moveaxis(V, g, 0) at about a quarter of its Python cost.
    T = _mode_product(images.support_distinct, np.rollaxis(V, images.support_axis), 0)
    if images.support_blocks is None:
        return np.einsum("kp,kp->k", T[images.support_group], images.support_other)
    y = np.empty(images.support_group.size)
    for d, (ks, left, right) in enumerate(images.support_blocks):
        y[ks] = np.einsum("kp,kp->k", left @ T[d], right)
    return y


def _grouped_image(images: SupportImages, weights: np.ndarray, shape) -> np.ndarray:
    """sum_r weights_r * (x)_axis Gamma_axis^{-1}[:, r's coordinate], the
    spectral image on a field of `shape` of the rows of N_S weighted by
    `weights`.

    The weights are first summed per distinct row coordinate e along g,
    H_e = sum_{r in e} weights_r (x)_{axis != g} Gamma_axis^{-1}[:, r's
    coordinate]: in 2D by one GEMM with the weighted one-hot matrix of the
    groups, in 3D by one GEMM per group.  One mode-g product with the
    Gamma_g^{-1} columns at the distinct coordinates, on a view of H that
    moves its group axis to g, then forms the image, C-ordered; no axis of H
    is copied."""
    g, Q = images.rows_axis, images.rows_distinct
    if images.rows_blocks is None:
        onehot = np.zeros((Q.shape[1], weights.size))
        onehot.reshape(-1)[images.rows_onehot] = weights
        H = onehot @ images.rows_other_t
    else:
        H = np.empty((Q.shape[1],) + shape[:g] + shape[g + 1:])
        for e, (rs, left, right) in enumerate(images.rows_blocks):
            np.matmul(left * weights[rs], right, out=H[e])
    return _mode_product(Q, np.rollaxis(H, 0, g + 1), g)  # np.moveaxis(H, 0, g)


def csr_product(A: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a CSR matrix A and a vector x, with its bits.

    For float64 operands it calls the kernel that `A @ x` calls, on a zeroed
    result, without the dispatch around it, which costs more than the
    product of a sparse correction's rows.  The kernel reads x without
    checking its length, so this does."""
    if x.shape != (A.shape[1],):
        raise ValueError(f"vector of shape {x.shape} for a matrix of shape {A.shape}")
    if _csr_matvec is None or A.dtype != np.float64 or x.dtype != np.float64:
        return A @ x
    out = np.zeros(A.shape[0])
    _csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)
    return out


def build_operator(a: float, b: float, laplacians) -> SylvesterOperator:
    """Factorize each 1D Laplacian and assemble the shifted solver."""
    return SylvesterOperator(a, b, [spectral_factorize(M) for M in laplacians])


def apply_laplacian(laplacians, U: np.ndarray) -> np.ndarray:
    """Kronecker-sum Laplacian action, Mx @ U + U @ My^T in 2D (plus the z
    mode product in 3D), as a new C-contiguous array; U is not written.

    Each axis a of a `laplacian_1d` is the uniform stencil s_a * (1, -2, 1),
    s_a = -main[0] / 2, with the ghost entry s_a added at a Neumann end.  So
    the sum is computed on the C-ordered field u flattened to 1D, by
    contiguous passes: (sum_a main_a[0]) * u, then per axis, with the flat
    stride st of a, s_a * (u[i - st] + u[i + st]) wherever both exist.  On
    the (P, m, Q) view of the axis this adds, at k_a = 0 and k_a = m - 1,
    the neighbour of the adjacent line, which is subtracted again, and the
    ghost term (upper[0] - s_a) * U[1] or (lower[-1] - s_a) * U[m - 2] is
    added, s_a at a Neumann end and 0 at a Dirichlet end.  Agrees with the
    row-by-row product to round-off, not bit for bit.
    """
    shape = tuple(M.m for M in laplacians)
    if U.shape != shape:
        raise ValueError(f"field shape {U.shape} != {shape}")
    u = np.ascontiguousarray(U, dtype=float).reshape(-1)
    n = u.size
    total = np.multiply(sum(M.main[0] for M in laplacians), u)
    work = np.empty(n)
    st = n
    for axis, M in enumerate(laplacians):
        st //= M.m  # the flat stride of the axis
        s = -0.5 * M.main[0]
        inner = np.add(u[:n - 2 * st], u[2 * st:], out=work[:n - 2 * st])
        inner *= s
        total[st:n - st] += inner
        ends = work[:st]
        total[:st] += np.multiply(s, u[st:2 * st], out=ends)
        total[n - st:] += np.multiply(s, u[n - 2 * st:n - st], out=ends)
        T, V = total.reshape(-1, M.m, st), u.reshape(-1, M.m, st)
        if axis:  # the first axis has one line, so no neighbouring line
            T[1:, 0] -= s * V[:-1, -1]
            T[:-1, -1] -= s * V[1:, 0]
        for k, near, ghost in ((0, 1, M.upper[0] - s), (-1, -2, M.lower[-1] - s)):
            if ghost:
                T[:, k] += ghost * V[:, near]
    return total.reshape(shape)


def kronecker_sum(laplacians) -> sp.csr_matrix:
    """Sparse vectorized Laplacian matching column-stacking of the field.

    For U with axes (x, y[, z]) flattened in Fortran order, the 2D matrix is
    I_my (x) Mx + My (x) I_mx, and the 3D one adds the z term outermost.
    """
    mats = [M.sparse() for M in laplacians]
    eyes = [sp.identity(M.m, format="csr") for M in laplacians]
    total = None
    for i, Mi in enumerate(mats):
        factors = [eyes[j] if j != i else Mi for j in range(len(mats))]
        term = factors[-1]
        for f in reversed(factors[:-1]):
            term = sp.kron(term, f, format="csr")
        total = term if total is None else total + term
    return total.tocsr()
