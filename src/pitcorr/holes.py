"""Cavity domains: the IMEX step of `pitcorr.rect` with sparse corrections.

The holes Theta are kept inside the rectangular grid; the masked Laplacian
M - N1 - N2 decouples them, but is not a Kronecker sum.  The step therefore
keeps the Kronecker-sum solve of `rect.imex_step`, with the same coefficient
table, and lags the sparse corrections:

    variant 'imex-i':  N = N1 + N2 applied to the previous iterate, no G,
    variant 'imex-e':  N = N1 applied to the previous iterate, G = N2
                       applied to the extrapolated known time levels.

Each solve becomes an inner fixed-point loop.  The phi loop runs first; the
c loop consumes the converged phi.  Iterations stop when the change over the
physical region drops below eps1 and the values on Theta are either below
the time-proportional budget eps2 * t/T (T is `HoleOperators.t_end`) or
have stagnated below eps3.  The reduced mode performs a single phi iteration
and stops the c loop on the global change only.  With an empty Theta the
step is the rectangle step, and a run starts 2SBDF as a rectangle does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .model import CorrosionParameters
from .rect import (
    BoundaryData,
    FieldPair,
    SchemeConfig,
    build_rect_operators,
    imex_step,
    matvec,
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
REDUCED = "reduced"


class ConvergenceError(RuntimeError):
    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class IterSchemeConfig:
    variant: str  # 'imex-i' | 'imex-e'
    order: str  # 'euler' | '2sbdf'
    dt: float
    w: float
    eps1: float = 1e-4
    eps2: float = 1e-3
    eps3: float = 1e-8
    stop_mode: str = FULL  # 'full' | 'reduced'
    max_iters: int = 500

    def __post_init__(self):
        SchemeConfig(self.order, self.dt, self.w)  # reuse validation
        if self.variant not in (IMEX_I, IMEX_E):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.stop_mode not in (FULL, REDUCED):
            raise ValueError(f"unknown stop mode {self.stop_mode!r}")
        if min(self.eps1, self.eps2, self.eps3) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

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
    """Shared per-run machinery: Sylvester solvers, mask and sparse corrections.

    `t_end` is the time T of the Theta budget eps2 * t/T; with None (the
    default) the budget is eps2 on every step.
    """

    rect: object
    cfg: IterSchemeConfig
    mask: object
    N: object  # lagged on the running iterate
    G: object  # lagged on known time levels; None for imex-i
    N12: object  # N1 + N2, for the masked Laplacian action
    chi: np.ndarray  # indicator of the physical region
    t_end: float | None = None

    @property
    def trivial(self) -> bool:
        return self.N.nnz == 0 and (self.G is None or self.G.nnz == 0)

    def retimed(self, order: str, dt: float) -> "HoleOperators":
        """These operators for scheme `order` and step `dt`; see `RectOperators.retimed`."""
        return replace(self, rect=self.rect.retimed(order, dt),
                       cfg=replace(self.cfg, order=order, dt=dt))

    def iterate(self, field, solve, base, scale, warm, t):
        """Solve u = solve(base - scale * N u) from `warm` by fixed-point iteration
        in the step to time `t`; returns (solution, (iterations, last residual)).

        The time-proportional Theta-level budget applies to the c loop only.
        The phi iteration contracts fast enough to always run to Theta
        stagnation; accepting a phi iterate on the level budget instead would
        freeze a hole-region residual of the budget's size permanently,
        because the converged step map preserves whatever phi values the
        holes carry.
        """
        cfg = self.cfg
        frac = 1.0 if self.t_end is None else t / self.t_end
        eps2_budget = cfg.eps2 * frac if field == "c" else 0.0
        u = warm
        for k in range(1, cfg.max_iters + 1):
            u_next = solve(base - scale * matvec(self.N, u))
            if cfg.stop_mode == REDUCED:
                resid = float(np.abs(u_next - u).max())
                if field == "phi" or resid < cfg.eps1:
                    return u_next, (k, resid)
            else:
                stop, resid = check_stop_criteria(
                    u, u_next, self.mask, cfg.eps1, eps2_budget, cfg.eps3
                )
                if stop:
                    return u_next, (k, resid)
            u = u_next
        raise ConvergenceError(
            f"{field} iteration exceeded max_iters={cfg.max_iters} "
            f"(last residual {resid:.3e})",
            last_residual=resid,
        )


def build_hole_operators(grid, cfg: IterSchemeConfig, params: CorrosionParameters,
                         mask, correction, bdata=BoundaryData()) -> HoleOperators:
    N12 = correction.N12
    if cfg.variant == IMEX_I:
        N, G = N12, None
    else:
        N, G = correction.N1, correction.N2
    return HoleOperators(
        rect=build_rect_operators(grid, cfg.scheme(), params, bdata),
        cfg=cfg,
        mask=mask,
        N=N,
        G=G,
        N12=N12,
        chi=(~mask.theta).astype(float),
    )


def _masked_max(delta: np.ndarray, region: np.ndarray) -> float:
    if not region.any():
        return 0.0
    return float(np.abs(delta[region]).max())


def check_stop_criteria(u_prev: np.ndarray, u_next: np.ndarray, mask,
                        eps1: float, eps2_budget: float, eps3: float):
    """Full stopping rule; returns (stop, residual_on_omega)."""
    delta = u_next - u_prev
    resid = _masked_max(delta, mask.omega)
    if resid >= eps1:
        return False, resid
    theta_level = _masked_max(u_next, mask.theta)
    theta_delta = _masked_max(delta, mask.theta)
    return (theta_level < eps2_budget or theta_delta < eps3), resid


def _step(levels, ops: HoleOperators):
    tic = time.perf_counter()
    hole = None if ops.trivial else ops
    out, ((k_phi, r_phi), (k_c, r_c)) = imex_step(levels, ops.rect, hole)
    report = IterationReport(
        step_index=out.step_index,
        t=out.t,
        k_phi=k_phi,
        k_c=k_c,
        resid_phi=r_phi,
        resid_c=r_c,
        max_phi_theta=_masked_max(out.Phi, ops.mask.theta),
        max_c_theta=_masked_max(out.C, ops.mask.theta),
        wall_ms=(time.perf_counter() - tic) * 1e3,
    )
    return out, report


def step_iter_euler(state: FieldPair, ops: HoleOperators):
    """One iterative IMEX Euler step; returns (state, IterationReport)."""
    return _step((state,), ops)


def step_iter_2sbdf(prev: FieldPair, curr: FieldPair, ops: HoleOperators):
    """One iterative IMEX 2SBDF step; returns (state, IterationReport)."""
    return _step((curr, prev), ops)


def run_holes(state0: FieldPair, cfg: IterSchemeConfig,
              params: CorrosionParameters, grid, mask, correction,
              bdata: BoundaryData, horizon: float, hooks=()):
    """Advance a masked-domain run; returns (final state, iteration reports).

    Reports cover the main-loop steps, not the 2SBDF start substeps.  The
    operators' `t_end` is t0 + horizon: the Theta budget grows as
    eps2 * t / (t0 + horizon), and the final step is held to eps2 exactly.
    """
    ops = replace(build_hole_operators(grid, cfg, params, mask, correction, bdata),
                  t_end=state0.t + horizon)
    reports = []

    def record(out):
        reports.append(out[1])
        return out[0]

    # The steppers are looked up by name on each call, as in `rect.run_rect`.
    final = run_loop(
        state0, ops, horizon, hooks,
        euler=lambda state, ops: record(step_iter_euler(state, ops)),
        two_step=lambda prev, curr, ops: record(step_iter_2sbdf(prev, curr, ops)),
        substep=lambda state, ops: step_iter_euler(state, ops)[0],
    )
    return final, reports
