"""Convergence analysis of the inner iterations, plus run diagnostics.

The inner fixed-point iteration of the masked-domain steppers has iteration
matrix Sigma = -alpha * (beta*I - alpha*M)^{-1} * N, where (alpha, beta) are
the scheme shifts, M the Kronecker-sum Laplacian and N the lagged sparse
correction.  This module provides

* closed-form upper bounds on rho(Sigma) for every combination of variant
  (implicit N1+N2 vs explicit N1), outer boundary kind and equation,
* the sufficient step-size conditions guaranteeing contraction,
* the exact spectral radius, computed on the structural column support of N
  (the nonzero spectrum of Sigma equals that of -alpha*K, with K the
  capacitance (A^{-1} N_S)_S that the exact cavity solve factorizes),
* front-position probing and relative error norms for the benchmark runs.

The shifts are those of the solvers, from `rect.iteration_shifts`: with
(s, gamma) = (1, 1) for Euler and (2, 3/2) for 2SBDF, alpha = s*dt*D and
beta = s*(gamma + w*dt) for phi or s*gamma for c.  The bounds below depend
only on dt, D, gamma, w and the grid sums S = sum(1/dr^2); where a Neumann
bound's precondition fails, `bound_spectral_radius` returns None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .holes import IMEX_E, IMEX_I
from .linalg import SylvesterOperator, sparse_rows, support_inverse
from .model import CorrosionParameters
from .rect import COEFFICIENTS, iteration_shifts

__all__ = [
    "BoundQuery",
    "bound_spectral_radius",
    "sufficient_step_conditions",
    "actual_spectral_radius",
    "front_position",
    "error_norms",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class BoundQuery:
    variant: str  # 'imex-i' | 'imex-e'
    order: str  # 'euler' | '2sbdf'
    bc_outer: str  # 'dirichlet' | 'neumann'
    equation: str  # 'phi' | 'c'
    dx: float
    dy: float
    dt: float
    w: float
    params: CorrosionParameters
    geometry: str = "generic"  # 'generic' | 'circle'

    def __post_init__(self):
        if self.variant not in (IMEX_I, IMEX_E):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.order not in COEFFICIENTS:
            raise ValueError(f"unknown order {self.order!r}")
        if self.bc_outer not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown outer boundary {self.bc_outer!r}")
        if self.equation not in ("phi", "c"):
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.geometry not in ("generic", "circle"):
            raise ValueError(f"unknown geometry class {self.geometry!r}")
        if min(self.dx, self.dy, self.dt) <= 0.0:
            raise ValueError("steps must be positive")


def _stencil_sum(q: BoundQuery) -> float:
    return 1.0 / q.dx**2 + 1.0 / q.dy**2


def _denominator_terms(q: BoundQuery):
    """(D, beta/s): the diffusivity and the s-normalized shift of the equation."""
    D = q.params.D_phi if q.equation == "phi" else q.params.D_c
    _, beta = iteration_shifts(q.order, q.equation, q.dt, q.w, q.params)
    return D, beta / COEFFICIENTS[q.order].s


def _norm_factor(q: BoundQuery) -> float:
    """sqrt(||N||_1 ||N||_inf) from circle constants or the worst case."""
    h2 = min(q.dx, q.dy) ** 2
    if q.geometry == "circle":
        return math.sqrt(6.0) / h2
    return 4.0 * _stencil_sum(q)


def bound_spectral_radius(q: BoundQuery):
    """Closed-form upper bound for rho(Sigma), or None where it is inadmissible.

    Neumann bounds require dt*D*S < shift (S the stencil sum); when that
    precondition fails there is no bound.
    """
    S = _stencil_sum(q)
    D, shift = _denominator_terms(q)

    if q.variant == IMEX_I:
        if q.bc_outer == "dirichlet":
            return 4.0 * D * q.dt * S / shift
        margin = shift - D * q.dt * S
        if margin <= 0.0:
            return None
        return 4.0 * D * q.dt * S / margin

    nfac = _norm_factor(q)
    rho_m = 4.0 * _stencil_sum(q)
    resolvent = rho_m / (shift + q.dt * D * rho_m)
    if q.bc_outer == "dirichlet":
        return D**2 * q.dt**2 * nfac * resolvent / shift
    margin = shift - D * q.dt * S
    if margin <= 0.0:
        return None
    return D**2 * q.dt**2 * nfac / shift * (resolvent + S / margin)


def sufficient_step_conditions(variant: str, order: str, bc_outer: str,
                               params: CorrosionParameters, w: float, h: float):
    """Step-size conditions guaranteeing contraction of the inner iteration.

    Returns {'unconditional_phi', 'dt_max_phi', 'dt_max_c'}; dt_max_phi is
    +inf when the h^2-vs-D_phi/w branch makes the phi iteration contract for
    every dt.
    """
    if h <= 0.0 or w <= 0.0:
        raise ValueError("h and w must be positive")
    gamma = COEFFICIENTS[order].gamma
    h2 = h * h

    if variant == IMEX_I:
        cphi = 8.0 if bc_outer == "dirichlet" else 10.0
        unconditional = h2 > cphi * params.D_phi / w
        dt_phi = math.inf if unconditional else gamma * h2 / (cphi * params.D_phi - w * h2)
        dt_c = (
            gamma * h2 / (8.0 * params.D_c)
            if bc_outer == "dirichlet"
            else gamma * h2 / (10.0 * params.D_c)
        )
    elif bc_outer == "dirichlet":
        cphi = 4.0 * math.sqrt(2.0)
        unconditional = h2 > cphi * params.D_phi / w
        dt_phi = math.inf if unconditional else gamma * h2 / (cphi * params.D_phi - w * h2)
        dt_c = gamma * (1.0 + math.sqrt(3.0)) * h2 / (8.0 * params.D_c)
    else:
        root = math.sqrt(41.0)
        unconditional = h2 > (1.0 + root) * params.D_phi / w
        dt_phi = (
            math.inf
            if unconditional
            else gamma * (root - 1.0) * h2 / (40.0 * params.D_phi + 2.0 * w * h2)
        )
        dt_c = gamma * (root - 1.0) * h2 / (40.0 * params.D_c)

    return {
        "unconditional_phi": unconditional,
        "dt_max_phi": dt_phi,
        "dt_max_c": dt_c,
    }


def actual_spectral_radius(alpha: float, beta: float, grid,
                           N: sp.spmatrix) -> float:
    """Exact rho(-alpha * (beta*I - alpha*M)^{-1} * N) on `grid`.

    Sigma acts through the columns of N only, so its nonzero spectrum equals
    that of the small matrix T = Sigma[S, S] = -alpha*K over the structural
    column support S, with K = `linalg.support_inverse`, the capacitance of
    the exact cavity solve, built on the grid's factorizations.
    """
    N = sparse_rows(N, grid.counts)
    if N.cols.size == 0:
        return 0.0
    K = support_inverse(SylvesterOperator(beta, -alpha, grid.factorizations), N)
    return float(np.max(np.abs(np.linalg.eigvals(-alpha * K))))


def front_position(state, grid, axis: int) -> float:
    """Depth of the first crossing of c = 0.5 along the center line.

    Scans from the low end of `axis` through the mid-line of the other axes
    and interpolates linearly between the bracketing nodes.
    """
    idx = [n // 2 for n in grid.counts]
    idx[axis] = slice(None)
    line = state.C[tuple(idx)]
    coords = grid.axes[axis]
    diff = line - 0.5
    # The first node that lies on the crossing or before a sign change.
    hits = np.flatnonzero((diff[:-1] == 0.0) | (diff[:-1] * diff[1:] < 0.0))
    if hits.size:
        i = hits[0]
        if diff[i] == 0.0:
            return float(coords[i])
        frac = diff[i] / (diff[i] - diff[i + 1])
        return float(coords[i] + frac * (coords[i + 1] - coords[i]))
    if diff[-1] == 0.0:
        return float(coords[-1])
    raise ValueError("no c = 0.5 crossing found along the probed line")


def error_norms(state, reference):
    """Euclidean relative norms (Err_phi, Err_c) against a reference state."""
    ref_phi = np.linalg.norm(reference.Phi)
    ref_c = np.linalg.norm(reference.C)
    if ref_phi == 0.0 or ref_c == 0.0:
        raise ValueError("reference norms must be nonzero")
    return (
        float(np.linalg.norm(state.Phi - reference.Phi) / ref_phi),
        float(np.linalg.norm(state.C - reference.C) / ref_c),
    )


def fit_loglog_slope(xs, ys):
    """(slope, r_squared) of the least-squares line through (log x, log y)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2
