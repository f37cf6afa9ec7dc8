"""Cavity domains: the IMEX step of `pitcorr.rect` with sparse corrections.

The holes Theta are kept inside the rectangular grid; the masked Laplacian
M - N1 - N2 decouples them, but is not a Kronecker sum.  A cavity run
therefore keeps the rectangle's operators and step (`rect.RectOperators`,
`rect.imex_step`), with the same coefficient table, and adds to them a
`HoleOperators` as `RectOperators.hole`.  The mask is the run's only
geometry input: `build_hole_operators` builds N1 and N2 from it
(`grid.build_correction_matrices`), keeps their nonzero rows as
`linalg.SparseRows`, and lags them:

    variant 'imex-i':  N = N1 + N2 applied to the previous iterate, no G,
    variant 'imex-e':  N = N1 applied to the previous iterate, G = N2
                       applied to the extrapolated known time levels.

Each field's system (A + alpha*N) u = base is solved in one of two stop
modes.  The full mode is the paper's reference method, an inner fixed-point
loop per solve: the phi loop runs first and the c loop consumes the converged
phi.  Iterations stop when the change over the physical region drops below
eps1 and the values on Theta are either below the time-proportional budget
eps2 * t/T (T is `HoleOperators.t_end`) or have stagnated below eps3.

The exact mode, which every cavity builtin runs, solves the loop's limit
directly: `build_hole_operators` replaces every solver of the run, the 2SBDF
start's included, by its `corrected` copy, which holds the capacitance of N
(`linalg.Capacitance`) built on the hole's own `SparseRows` of N, and each
field takes one solve per step.  It needs no tolerances and leaves Theta at
round-off, but its set-up grows with the support of N.  With an empty Theta
there is no hole: the step is the rectangle step, and a run starts 2SBDF as a
rectangle does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .grid import build_correction_matrices
from .linalg import SparseRows, sparse_rows, support_images
from .model import CorrosionParameters
from .rect import (
    BoundaryData,
    FieldPair,
    InstabilityError,
    RectOperators,
    SchemeConfig,
    build_rect_operators,
    imex_step,
    run_loop,
)

__all__ = [
    "IMEX_I",
    "IMEX_E",
    "IterSchemeConfig",
    "IterationReport",
    "HoleOperators",
    "build_hole_operators",
    "step_iter_euler",
    "step_iter_2sbdf",
    "check_stop_criteria",
    "run_holes",
    "ConvergenceError",
]

IMEX_I = "imex-i"
IMEX_E = "imex-e"
FULL = "full"
EXACT = "exact"


class ConvergenceError(RuntimeError):
    """An inner loop of `field` ran out of iterations in the step to time `t`."""

    def __init__(self, message, last_residual=None, field=None, t=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.field = field
        self.t = t


@dataclass(frozen=True)
class IterSchemeConfig:
    variant: str  # 'imex-i' | 'imex-e'
    order: str  # 'euler' | '2sbdf'
    dt: float
    w: float
    eps1: float = 1e-4
    eps2: float = 1e-3
    eps3: float = 1e-8
    stop_mode: str = FULL  # 'full' | 'exact'
    max_iters: int = 500

    def __post_init__(self):
        SchemeConfig(self.order, self.dt, self.w)  # reuse validation
        if self.variant not in (IMEX_I, IMEX_E):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.stop_mode not in (FULL, EXACT):
            raise ValueError(f"unknown stop mode {self.stop_mode!r}")
        if not all(0.0 < eps < np.inf for eps in (self.eps1, self.eps2, self.eps3)):
            raise ValueError("tolerances must be positive and finite")
        if type(self.max_iters) is not int or self.max_iters < 1:
            raise ValueError(f"max_iters must be a whole number >= 1, not {self.max_iters!r}")

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(self.order, self.dt, self.w)


@dataclass
class IterationReport:
    step_index: int
    t: float
    k_phi: int
    k_c: int
    resid_phi: float
    resid_c: float
    max_phi_theta: float
    max_c_theta: float
    wall_ms: float = 0.0


@dataclass(frozen=True)
class HoleOperators:
    """A cavity's part of its run's operators (`RectOperators.hole`): the
    mask, the sparse corrections and the inner loop's stop rule.

    The main and the start operators share it: `cfg` sets the stop rule,
    and the step's scheme is the operators' own.  `t_end` is the time T of
    the Theta budget eps2 * t/T; with None (the default) the budget is eps2
    on every step.
    """

    cfg: IterSchemeConfig
    mask: object
    N: SparseRows  # lagged on the running iterate
    G: SparseRows | None  # lagged on known time levels; None for imex-i
    N12: SparseRows  # N1 + N2, for the masked Laplacian action
    t_end: float | None = None

    def iterate(self, field, op, base, warm, t):
        """Solve u = op.solve(base - alpha * N u), alpha = -op.b the solver's
        own shift, from `warm` by fixed-point iteration in the step to time
        `t`; returns (solution, (iterations, last residual)).

        In the exact stop mode `op` is the field's corrected solver, and one
        solve returns the limit itself, reported as (1, 0.0).

        The time-proportional Theta-level budget applies to the c loop only.
        The phi iteration contracts fast enough to always run to Theta
        stagnation; accepting a phi iterate on the level budget instead would
        freeze a hole-region residual of the budget's size permanently,
        because the converged step map preserves whatever phi values the
        holes carry.  An iterate whose residual on Omega is NaN raises
        `InstabilityError` for `field` at `t`, whatever the Theta tests say.
        """
        cfg = self.cfg
        if cfg.stop_mode == EXACT:
            return op.solve(base), (1, 0.0)
        frac = 1.0 if self.t_end is None else t / self.t_end
        eps2_budget = cfg.eps2 * frac if field == "c" else 0.0
        alpha = -op.b
        u = warm
        for k in range(1, cfg.max_iters + 1):
            u_next = op.solve(self.N.subtract(base, u, alpha))
            stop, resid = check_stop_criteria(
                u, u_next, self.mask, cfg.eps1, eps2_budget, cfg.eps3
            )
            if math.isnan(resid):  # the Theta tests must not accept it
                raise InstabilityError(
                    f"non-finite {field} iterate on Omega (iteration {k}) in the step "
                    f"to t={t:.6g}s", field, t)
            if stop:
                return u_next, (k, resid)
            u = u_next
        raise ConvergenceError(
            f"{field} iteration exceeded max_iters={cfg.max_iters} in the step "
            f"to t={t:.6g} s (last residual {resid:.3e})",
            last_residual=resid,
            field=field,
            t=t,
        )


def build_hole_operators(grid, cfg: IterSchemeConfig, params: CorrosionParameters,
                         mask, bdata=BoundaryData(),
                         t_end: float | None = None) -> RectOperators:
    """The operators of a cavity run: the rectangle's, with the `hole` of
    `mask` (None on an empty Theta) and its Theta budget `t_end`.

    The corrections N1 and N2 follow from the mask alone
    (`build_correction_matrices`); the hole keeps their nonzero rows, and
    their set-up matrices go with the set-up.  The exact stop mode also
    corrects every solver of the run for N here, the 2SBDF start's
    included, so that no step pays for it.
    """
    ops = build_rect_operators(grid, cfg.scheme(), params, bdata)
    if not mask.theta.any():
        return ops
    correction = build_correction_matrices(grid, mask)
    N12 = sparse_rows(correction.N12, grid.counts)
    if cfg.variant == IMEX_I:
        N, G = N12, None
    else:
        N, G = (sparse_rows(A, grid.counts) for A in (correction.N1, correction.N2))
    hole = HoleOperators(cfg=cfg, mask=mask, N=N, G=G, N12=N12, t_end=t_end)
    images = support_images(grid.factorizations, N) if cfg.stop_mode == EXACT else None

    def with_hole(ops):
        # Without a support the plain solve is exact.
        if images is None or not N.cols.size:
            return replace(ops, hole=hole)
        return replace(ops, phi=ops.phi.corrected(images),
                       c=ops.c.corrected(images), hole=hole)

    return replace(with_hole(ops), start=ops.start and with_hole(ops.start))


def _masked_max(u: np.ndarray, index: np.ndarray) -> float:
    """max |u| over the C-order flat indices `index`; 0.0 over none."""
    if not index.size:
        return 0.0
    return float(np.abs(u.reshape(-1)[index]).max())


def check_stop_criteria(u_prev: np.ndarray, u_next: np.ndarray, mask,
                        eps1: float, eps2_budget: float, eps3: float):
    """Full stopping rule; returns (stop, residual_on_omega)."""
    delta = u_next - u_prev
    resid = _masked_max(delta, mask.omega_index)
    if resid >= eps1:
        return False, resid
    theta_level = _masked_max(u_next, mask.theta_index)
    theta_delta = _masked_max(delta, mask.theta_index)
    return (theta_level < eps2_budget or theta_delta < eps3), resid


def _theta_max(u: np.ndarray, hole) -> float:
    return 0.0 if hole is None else _masked_max(u, hole.mask.theta_index)


def _step(levels, ops: RectOperators):
    tic = time.perf_counter()
    out, ((k_phi, r_phi), (k_c, r_c)) = imex_step(levels, ops)
    report = IterationReport(
        step_index=out.step_index,
        t=out.t,
        k_phi=k_phi,
        k_c=k_c,
        resid_phi=r_phi,
        resid_c=r_c,
        max_phi_theta=_theta_max(out.Phi, ops.hole),
        max_c_theta=_theta_max(out.C, ops.hole),
        wall_ms=(time.perf_counter() - tic) * 1e3,
    )
    return out, report


def step_iter_euler(state: FieldPair, ops: RectOperators):
    """One iterative IMEX Euler step; returns (state, IterationReport)."""
    return _step((state,), ops)


def step_iter_2sbdf(prev: FieldPair, curr: FieldPair, ops: RectOperators):
    """One iterative IMEX 2SBDF step; returns (state, IterationReport)."""
    return _step((curr, prev), ops)


def run_holes(state0: FieldPair, cfg: IterSchemeConfig,
              params: CorrosionParameters, grid, mask,
              bdata: BoundaryData, horizon: float, hooks=()):
    """Advance a masked-domain run; returns (final state, iteration reports).

    Reports cover the main-loop steps, not the 2SBDF start substeps.  The
    hole's `t_end` is t0 + horizon: the Theta budget grows as
    eps2 * t / (t0 + horizon), and the final step is held to eps2 exactly.
    """
    reports = []

    def record(out):
        reports.append(out[1])
        return out[0]

    # The steppers are looked up by name on each call, as in `rect.run_rect`.
    # No name here holds the operators, so that `run_loop` can drop the start.
    final = run_loop(
        state0,
        build_hole_operators(grid, cfg, params, mask, bdata, t_end=state0.t + horizon),
        horizon, hooks,
        euler=lambda state, ops: record(step_iter_euler(state, ops)),
        two_step=lambda prev, curr, ops: record(step_iter_2sbdf(prev, curr, ops)),
        substep=lambda state, ops: step_iter_euler(state, ops)[0],
    )
    return final, reports
