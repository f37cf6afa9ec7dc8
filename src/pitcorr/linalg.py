"""1D discrete Laplacians, spectral factorizations and shifted Sylvester solves.

A centered second-difference Laplacian on a uniform 1D grid with Dirichlet
conditions at both ends is (1/dr^2) * tridiag(1, -2, 1).  A Neumann end keeps
the boundary node as an unknown and eliminates the ghost value, which turns
the off-diagonal entry of that end row into 2/dr^2.

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
eigenvalue triplets.

A sparse correction N of the Laplacian, (a*I + b*(M - N)) X = Y, is solved
exactly by the capacitance-matrix method (Buzbee, Dorr, George & Golub,
SIAM J. Numer. Anal. 8, 1971; Proskurowski & Widlund, Math. Comp. 30,
1976).  With A = a*I + b*M, alpha = -b and S the s columns that N touches,
Sherman-Morrison-Woodbury gives

    y = A^{-1} Y,   (I + alpha*K) x_S = y_S,   X = A^{-1} (Y - alpha*N_S x_S),

with the capacitance K = (A^{-1} N_S)_S, an s x s matrix.  K is formed in
the eigenbasis: the unit vector at each nonzero row r of N_S has a rank-one
spectral image, the outer product over the axes of the Gamma^{-1} columns
at r's coordinates, and a value at a point of S is read with one row of
each Gamma.  K thus costs s * (rows of N_S) * nodes products and no solve
(`support_images`, `support_inverse`); phi and c share the images.  `SylvesterOperator.solve`
with a `Capacitance` applies all three formulas inside the one forward and
one backward transform of a plain solve: y_S is read off the transformed
right-hand side, and alpha*N_S x_S is subtracted as its spectral image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp

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

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.main)
            + np.diag(self.lower, -1)
            + np.diag(self.upper, 1)
        )

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

    resid = np.linalg.norm(
        fact.Gamma @ np.diag(fact.lam) @ fact.GammaInv - M.dense(), np.inf
    )
    scale = np.linalg.norm(M.dense(), np.inf)
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
        grids = np.meshgrid(*[f.lam for f in self.facts], indexing="ij")
        denom = self.a + self.b * sum(grids)
        if np.any(np.abs(denom) <= 0.0):
            raise ArithmeticError("singular shift: zero denominator in Upsilon")
        self.Upsilon = 1.0 / denom
        self.solve_count = 0

    @property
    def shape(self):
        return tuple(f.lam.size for f in self.facts)

    def solve(self, Y: np.ndarray, capacitance=None) -> np.ndarray:
        """X with (a*I + b*M) X = Y, or (a*I + b*(M - N)) X = Y given the
        `Capacitance` of N built for this operator."""
        if Y.shape != self.shape:
            raise ValueError(f"right-hand side shape {Y.shape} != {self.shape}")
        self.solve_count += 1
        if len(self.facts) == 2:
            fx, fy = self.facts
            W = fx.GammaInv @ Y @ fy.GammaInv.T
            if capacitance is not None:
                W = capacitance.corrected(W, self)
            return fx.Gamma @ (self.Upsilon * W) @ fy.Gamma.T
        fx, fy, fz = self.facts
        W = _mode_products(fx.GammaInv, fy.GammaInv, fz.GammaInv, Y)
        if capacitance is not None:
            W = capacitance.corrected(W, self)
        W *= self.Upsilon
        return _mode_products(fx.Gamma, fy.Gamma, fz.Gamma, W)


def _mode_products(Ax, Ay, Az, Y: np.ndarray) -> np.ndarray:
    """Apply one matrix per tensor mode: out_ijk = Ax_ip Ay_jq Az_kr Y_pqr."""
    W = np.tensordot(Ax, Y, axes=(1, 0))
    W = np.tensordot(Ay, W, axes=(1, 1)).transpose(1, 0, 2)
    return np.tensordot(Az, W, axes=(1, 2)).transpose(1, 2, 0)


@dataclass(frozen=True)
class SupportImages:
    """A sparse correction N seen from the eigenbasis of its factorizations.

    `support` holds the flat (column-stacked) indices S of N's nonzero
    columns and `rows` those of the nonzero rows of N_S; `block` is the dense
    N[rows, S].  Per axis, `at_support` holds the rows of Gamma at the
    coordinates of S (s x m) and `images` the columns of Gamma^{-1} at the
    coordinates of `rows` (m x R): the spectral image of the unit vector at
    rows[r] is the outer product of the images' r-th columns.
    """

    support: np.ndarray
    rows: np.ndarray
    block: np.ndarray
    at_support: tuple
    images: tuple


def support_images(facts, N: sp.spmatrix) -> SupportImages:
    """The `SupportImages` of N, without its explicitly stored zeros."""
    facts = tuple(facts)
    shape = tuple(f.lam.size for f in facts)
    N = sp.csc_matrix(N, copy=True)
    N.eliminate_zeros()
    support = np.flatnonzero(np.diff(N.indptr) > 0)
    N_S = N[:, support]
    rows = np.unique(N_S.indices)
    at_support = np.unravel_index(support, shape, order="F")
    at_rows = np.unravel_index(rows, shape, order="F")
    return SupportImages(
        support=support,
        rows=rows,
        block=N_S[rows].toarray(),
        at_support=tuple(f.Gamma[i] for f, i in zip(facts, at_support)),
        images=tuple(f.GammaInv[:, i] for f, i in zip(facts, at_rows)),
    )


def support_inverse(op: SylvesterOperator, images: SupportImages) -> np.ndarray:
    """The capacitance K = (A^{-1} N_S)_S of `op` = A, with no solve.

    K = sum_r (A^{-1} e_rows[r])_S N[rows[r], S], and each (A^{-1} e_r)_S
    contracts Upsilon with the images of e_r and the Gamma rows at S.
    """
    s, R = images.support.size, images.rows.size
    # Per axis, (s*R, m): the Gamma row at S times the image of each row.
    pairs = [
        (P[:, None, :] * I.T[None, :, :]).reshape(s * R, -1)
        for P, I in zip(images.at_support, images.images)
    ]
    T = np.tensordot(op.Upsilon, pairs[-1], axes=(-1, 1))
    for U in reversed(pairs[:-1]):
        T = np.einsum("...pk,kp->...k", T, U)
    return T.reshape(s, R) @ images.block


class Capacitance:
    """The exact solve of (a*I + b*(M - N)) X = Y for one `SylvesterOperator`.

    Holds N's `SupportImages` and the LU factors of I + alpha*K, with
    alpha = -b and K = `support_inverse(op, images)`.  A numerically
    singular I + alpha*K (condition number 1e12 or more) raises
    ArithmeticError here, as a singular shift does in `SylvesterOperator`.
    Immutable after construction.
    """

    def __init__(self, op: SylvesterOperator, images: SupportImages):
        self.images = images
        self.alpha = -op.b
        C = np.eye(images.support.size) + self.alpha * support_inverse(op, images)
        if not np.linalg.cond(C) < 1e12:
            raise ArithmeticError("singular capacitance: I + alpha*K is not invertible")
        self.lu = spla.lu_factor(C)

    def corrected(self, W: np.ndarray, op: SylvesterOperator) -> np.ndarray:
        """The transformed right-hand side W of `op`, the operator this was
        built for, minus the spectral image of alpha*N_S x_S."""
        images = self.images
        y_S = _at_points(images.at_support, op.Upsilon * W)
        # Unchecked, so that a non-finite right-hand side reaches the step's
        # finiteness check as it does without a capacitance.
        x_S = spla.lu_solve(self.lu, y_S, check_finite=False)
        weights = -self.alpha * (images.block @ x_S)
        return W + _outer_sum(images.images, weights)


def _at_points(rows, V: np.ndarray) -> np.ndarray:
    """Values at s points of the field with spectral coefficients V, given the
    per-axis Gamma rows (s x m) at the points' coordinates."""
    T = (rows[0] @ V.reshape(V.shape[0], -1)).reshape(-1, *V.shape[1:])
    for P in rows[1:]:
        T = np.einsum("kp...,kp->k...", T, P)
    return T


def _outer_sum(factors, weights: np.ndarray) -> np.ndarray:
    """sum_r weights_r * (x)_axis factors[axis][:, r]."""
    head = factors[0] * weights
    for f in factors[1:-1]:
        head = head[..., None, :] * f
    return head @ factors[-1].T


def build_operator(a: float, b: float, laplacians) -> SylvesterOperator:
    """Factorize each 1D Laplacian and assemble the shifted solver."""
    return SylvesterOperator(a, b, [spectral_factorize(M) for M in laplacians])


def apply_laplacian(laplacians, U: np.ndarray) -> np.ndarray:
    """Kronecker-sum Laplacian action: each axis applies its tridiagonal stencil.

    Equivalent to Mx @ U + U @ My^T in 2D (plus the z mode product in 3D), but
    computed bandwise in O(nodes) per axis.
    """
    total = None
    for axis, M in enumerate(laplacians):
        Um = np.moveaxis(U, axis, 0)
        tail = (1,) * (U.ndim - 1)
        out = M.main.reshape(-1, *tail) * Um
        out[1:] += M.lower.reshape(-1, *tail) * Um[:-1]
        out[:-1] += M.upper.reshape(-1, *tail) * Um[1:]
        out = np.moveaxis(out, 0, axis)
        total = out if total is None else total + out
    return total


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
