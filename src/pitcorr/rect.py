"""IMEX Euler and 2SBDF in Sylvester form: one step for every domain.

Diffusion is implicit and the reaction explicit, with the stiff phi reaction
relaxed by a shift w (phi equation only).  Both schemes are one step driven
by a row of a coefficient table, as in Ascher, Ruuth & Wetton (SIAM J.
Numer. Anal. 32, 1995):

    order   history h   extrapolation e   s   gamma
    euler   (1)         (1)               1   1
    2sbdf   (4, -1)     (2, -1)           2   3/2

From the levels u^n, u^(n-1), ... (newest first) to t = t_n + dt, with
S_h(u) = sum_i h_i u^(n-i) and S_e likewise, the step solves

    (s*(gamma + w*dt) I - s*dt*D_phi M) Phi
        = S_h(Phi) + s*dt*(S_e(F1(Phi, C) + w*Phi) + D_phi*Psi_phi),
    (s*gamma I - s*dt*D_c M) C
        = S_h(C) + s*dt*D_c*(M F2(Phi_new) + Psi_c + Psi_F2),

the c equation consuming the new Phi.  M is the Kronecker-sum Laplacian, so
each system is one shifted Sylvester (2D) or tensor (3D) solve, and all of
them share one spectral factorization per axis.  Psi terms collect the known
Dirichlet boundary values scaled by 1/dr^2 on the adjacent interior layer;
Neumann edges contribute nothing.  The boundary values are constant, so the
loads are built once with the operators (`RectOperators.load_phi`,
`load_c`) and a step reads only its time levels and the operators.

A rectangle is the case without correction: one direct solve per field.  A
cavity domain (`pitcorr.holes`) adds sparse corrections and an inner loop
per solve.  One run loop and one 2SBDF start serve both domains: ceil(4/dt)
fine IMEX Euler substeps up to t = dt, with the run's operators `retimed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import DIRICHLET, SylvesterOperator, apply_laplacian
from .model import CorrosionParameters, reaction_f1, reaction_f2

__all__ = [
    "FieldPair",
    "SchemeConfig",
    "BoundaryData",
    "boundary_contribution",
    "IMEXCoefficients",
    "COEFFICIENTS",
    "RectOperators",
    "build_rect_operators",
    "imex_step",
    "step_imex_euler_rect",
    "step_imex_2sbdf_rect",
    "bootstrap_2sbdf",
    "run_loop",
    "run_rect",
    "InstabilityError",
]

EULER = "euler"
TWO_SBDF = "2sbdf"


@dataclass(frozen=True)
class IMEXCoefficients:
    """One row of the IMEX table: the weights of a step and its shift scales."""

    history: tuple  # weights of u^n, u^(n-1), ... in the discrete time derivative
    extrap: tuple  # extrapolation weights of the explicit terms
    s: float
    gamma: float

    def shifts(self, dt: float, w: float, D: float):
        """(alpha, beta) of the shifted system (beta*I - alpha*M) u = rhs."""
        return self.s * dt * D, self.s * (self.gamma + w * dt)


COEFFICIENTS = {
    EULER: IMEXCoefficients((1.0,), (1.0,), 1.0, 1.0),
    TWO_SBDF: IMEXCoefficients((4.0, -1.0), (2.0, -1.0), 2.0, 1.5),
}


class InstabilityError(RuntimeError):
    """The solution left the representable range (NaN/Inf): dt too large or w too small."""


@dataclass(frozen=True)
class FieldPair:
    """The (Phi, C) grid state at one time level."""

    Phi: np.ndarray
    C: np.ndarray
    t: float = 0.0
    step_index: int = 0

    def validate(self):
        if self.Phi.shape != self.C.shape:
            raise ValueError("Phi and C must share dimensions")
        if not (np.isfinite(self.Phi).all() and np.isfinite(self.C).all()):
            raise InstabilityError(
                f"non-finite field values at t={self.t:.6g}s (step {self.step_index})"
            )


@dataclass(frozen=True)
class SchemeConfig:
    order: str  # 'euler' | '2sbdf'
    dt: float
    w: float

    def __post_init__(self):
        if self.order not in (EULER, TWO_SBDF):
            raise ValueError(f"unknown scheme order {self.order!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.w < 0.0:
            raise ValueError("w must be nonnegative")


@dataclass(frozen=True)
class BoundaryData:
    """Per-axis (low, high) constant Dirichlet values for phi and c.

    Entries on Neumann ends are ignored.  Defaults to homogeneous data on
    every Dirichlet edge.
    """

    phi: tuple = ()
    c: tuple = ()

    @staticmethod
    def homogeneous(ndim: int) -> "BoundaryData":
        zeros = tuple((0.0, 0.0) for _ in range(ndim))
        return BoundaryData(zeros, zeros)


def boundary_contribution(grid, bdata: BoundaryData, which: str,
                          params: CorrosionParameters | None = None) -> np.ndarray | float:
    """Stencil load of the known Dirichlet boundary values; 0.0 if it is zero.

    which='phi'/'c' inserts the boundary values themselves; which='F2' maps
    the phi boundary values through the nonlinear flux F2 (hence `params`).
    """
    if which not in ("phi", "c", "F2"):
        raise ValueError(f"unknown boundary contribution kind {which!r}")
    values = bdata.c if which == "c" else bdata.phi
    psi = 0.0
    for ax, (lap, (low_raw, high_raw)) in enumerate(zip(grid.laplacians, values)):
        inv2 = 1.0 / grid.spacings[ax] ** 2
        for end, raw in (("low", low_raw), ("high", high_raw)):
            bc_kind = lap.bc_low if end == "low" else lap.bc_high
            if bc_kind != DIRICHLET:
                continue
            v = float(raw)
            if which == "F2":
                v = float(reaction_f2(v, params))
            if v == 0.0:
                continue
            if not isinstance(psi, np.ndarray):
                psi = np.zeros(grid.counts)
            idx = [slice(None)] * grid.ndim
            idx[ax] = 0 if end == "low" else grid.counts[ax] - 1
            psi[tuple(idx)] += v * inv2
    return psi


@dataclass(frozen=True)
class RectOperators:
    """What every step of a run shares: the two shifted Sylvester solvers and
    the constant Dirichlet loads Psi_phi and Psi_c + Psi_F2.

    A load that is zero everywhere is the scalar 0.0, not an array.
    """

    phi: SylvesterOperator
    c: SylvesterOperator
    grid: object
    params: CorrosionParameters
    cfg: SchemeConfig
    load_phi: np.ndarray | float
    load_c: np.ndarray | float

    def retimed(self, order: str, dt: float) -> "RectOperators":
        """These operators for scheme `order` and step `dt`: new solvers, same loads."""
        cfg = replace(self.cfg, order=order, dt=dt)
        phi, c = _shifted_solvers(self.grid, cfg, self.params)
        return replace(self, phi=phi, c=c, cfg=cfg)


def _shifted_solvers(grid, cfg: SchemeConfig, params: CorrosionParameters):
    """The phi and c solvers of one scheme, shifted from the grid's factorizations."""
    coef = COEFFICIENTS[cfg.order]

    def operator(D, w):
        alpha, beta = coef.shifts(cfg.dt, w, D)
        return SylvesterOperator(beta, -alpha, grid.factorizations)

    return operator(params.D_phi, cfg.w), operator(params.D_c, 0.0)


def build_rect_operators(grid, cfg: SchemeConfig, params: CorrosionParameters,
                         bdata: BoundaryData = BoundaryData()) -> RectOperators:
    """The solvers of one scheme and the Dirichlet loads of `bdata`."""
    return RectOperators(
        *_shifted_solvers(grid, cfg, params), grid, params, cfg,
        load_phi=boundary_contribution(grid, bdata, "phi"),
        load_c=boundary_contribution(grid, bdata, "c")
        + boundary_contribution(grid, bdata, "F2", params),
    )


def _combine(terms):
    """sum(weight * u) over (weight, u) pairs, with no products by +-1."""
    total = None
    for weight, u in terms:
        if total is None:
            total = u if weight == 1.0 else weight * u
        elif weight == 1.0:
            total = total + u
        elif weight == -1.0:
            total = total - u
        else:
            total = total + weight * u
    return total


def matvec(A, U: np.ndarray) -> np.ndarray:
    """A sparse matrix applied to the column-stacked (Fortran-order) field U."""
    return (A @ U.ravel(order="F")).reshape(U.shape, order="F")


def imex_step(levels, ops: RectOperators, hole=None):
    """One step of `ops.cfg.order` from `levels`, newest first.

    Returns (state, loops), with loops the (iterations, last residual) of the
    phi and the c solve.  Without `hole` each field takes one direct solve.
    A `holes.HoleOperators` as `hole` confines the explicit terms to the
    physical region (`chi`), subtracts the known-level correction `G` on the
    extrapolated levels and `N12` from the Laplacian of F2, and solves each
    field by its inner loop; the loop reads its Theta budget from `hole` and
    the step's target time.
    """
    cfg, p, grid = ops.cfg, ops.params, ops.grid
    coef = COEFFICIENTS[cfg.order]
    if len(levels) != len(coef.history):
        raise ValueError(f"{cfg.order} steps from {len(coef.history)} time levels")
    for newer, older in zip(levels, levels[1:]):
        if abs((older.t + cfg.dt) - newer.t) > 1e-9 * max(cfg.dt, abs(newer.t)):
            raise ValueError("2SBDF needs two states one dt apart")
    curr = levels[0]
    t = curr.t + cfg.dt
    sdt = coef.s * cfg.dt

    def combine(weights, name):
        return _combine(zip(weights, [getattr(u, name) for u in levels]))

    def known(load, name):
        if hole is None or hole.G is None:
            return load
        return load - matvec(hole.G, combine(coef.extrap, name))

    def solve(op, base, D, field, warm):
        if hole is None:
            return op.solve(base), (1, 0.0)
        return hole.iterate(field, op.solve, base, sdt * D, warm, t)

    def explicit_terms():
        for e, u in zip(coef.extrap, levels):
            yield e, reaction_f1(u.Phi, u.C, p)
            yield e * cfg.w, u.Phi

    explicit = _combine(explicit_terms())
    if hole is not None:
        # The relaxation shift, like the reaction, only acts on the physical
        # region: on the holes it would exactly cancel the implicit shift and
        # preserve any injected round-off forever, while the masked form damps
        # hole values by the implicit shift every step.
        explicit = hole.chi * explicit
    base_phi = combine(coef.history, "Phi") + sdt * (
        explicit + p.D_phi * known(ops.load_phi, "Phi")
    )
    phi, phi_loop = solve(ops.phi, base_phi, p.D_phi, "phi", curr.Phi)

    f2 = reaction_f2(phi, p)
    lap_f2 = apply_laplacian(grid.laplacians, f2)
    if hole is not None:
        lap_f2 = lap_f2 - matvec(hole.N12, f2)
    base_c = combine(coef.history, "C") + sdt * p.D_c * known(lap_f2 + ops.load_c, "C")
    c, c_loop = solve(ops.c, base_c, p.D_c, "c", curr.C)

    out = FieldPair(phi, c, t, curr.step_index + 1)
    out.validate()
    return out, (phi_loop, c_loop)


def step_imex_euler_rect(state: FieldPair, ops: RectOperators) -> FieldPair:
    return imex_step((state,), ops)[0]


def step_imex_2sbdf_rect(prev: FieldPair, curr: FieldPair, ops: RectOperators) -> FieldPair:
    return imex_step((curr, prev), ops)[0]


def bootstrap_substeps(dt: float):
    """(count, substep): ceil(4/dt) fine Euler steps summing exactly to dt."""
    count = max(1, math.ceil(4.0 / dt))
    return count, dt / count


def bootstrap_2sbdf(state0: FieldPair, ops, substep) -> FieldPair:
    """The second 2SBDF level, at t0 + dt, from ceil(4/dt) fine IMEX Euler substeps.

    `ops` are a 2SBDF run's `RectOperators` or `holes.HoleOperators`, and
    `substep(state, ops.retimed("euler", dt / count))` advances one substep.
    """
    count, sub_dt = bootstrap_substeps(ops.cfg.dt)
    sub_ops = ops.retimed(EULER, sub_dt)
    state = state0
    for _ in range(count):
        state = substep(state, sub_ops)
    return replace(state, t=state0.t + ops.cfg.dt, step_index=state0.step_index + 1)


def run_loop(state0: FieldPair, ops, horizon: float, hooks, euler, two_step,
             substep=None):
    """Advance `state0` by `horizon`, a multiple of dt, on any domain.

    `euler(state, ops)` and `two_step(prev, curr, ops)` return the next level
    under the run's operators `ops`.  A 2SBDF run takes its second level from
    `bootstrap_2sbdf` with `substep` (default `euler`).  `hooks` are called
    with each completed level, the initial one included.
    """
    cfg = ops.cfg
    n_steps = round(horizon / cfg.dt)
    if abs(n_steps * cfg.dt - horizon) > 1e-12 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    state0.validate()
    for hook in hooks:
        hook(state0)

    prev, curr = None, state0
    for _ in range(n_steps):
        if cfg.order == EULER:
            nxt = euler(curr, ops)
        elif prev is None:
            nxt = bootstrap_2sbdf(curr, ops, substep or euler)
        else:
            nxt = two_step(prev, curr, ops)
        prev, curr = curr, nxt
        for hook in hooks:
            hook(curr)
    return curr


def run_rect(state0: FieldPair, cfg: SchemeConfig, params: CorrosionParameters,
             grid, bdata: BoundaryData, horizon: float, hooks=()):
    """Advance a rectangle to `horizon` (a step multiple); see `run_loop`."""
    # The steppers are looked up by name on each call, so that a rebound
    # module attribute (as the benchmark installs) is the one called.
    return run_loop(
        state0, build_rect_operators(grid, cfg, params, bdata), horizon, hooks,
        euler=lambda state, ops: step_imex_euler_rect(state, ops),
        two_step=lambda prev, curr, ops: step_imex_2sbdf_rect(prev, curr, ops),
    )
