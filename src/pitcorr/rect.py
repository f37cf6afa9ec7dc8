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

h(phi) and F1 are evaluated once per time level.  The step that makes a
level forms h(Phi_new) in `reaction_f2` and leaves it on the level
(`FieldPair`); the next step reads it in that level's F1.  A 2SBDF step
also carries F1(u^n) on the level u^n to the next step, where u^n is the
older level.  A step takes what it reads, so no level keeps either longer;
`bootstrap_2sbdf` hands its last substep's h to the level it returns, and
`run_loop` drops what the last levels carry.  Each step builds its
right-hand sides in place, in arrays of its own, with the operations and
association of the formulas above, and makes no pass that adds or
computes nothing: a zero load (0.0) is not added.

A rectangle is the case without correction: one direct solve per field.  A
cavity domain (`pitcorr.holes`) is the same `RectOperators` with a `hole`,
which owns the sparse corrections and an inner loop per solve, or in its
exact stop mode one capacitance-corrected solve.  The step applies the
corrections only on their rows (`holes.SparseRows`): chi is a zero factor
on Theta's flat indices, N12 and G subtract in place, and with a zero load
the phi-side G term is added on G's rows alone.  The 2SBDF extrapolation
that G reads is formed only at G's columns.

One run loop and one 2SBDF start serve both domains: ceil(4/dt) fine IMEX
Euler substeps up to t = dt, under the operators' `start`, which set-up
builds with the run's own, so that no step builds a solver.

A step allocates its fields anew, and on the builtin grids each is larger
than glibc's default mmap threshold of 128 KiB.  So that freed fields stay in the process for the next
step, instead of going back to the kernel and faulting in again page by page,
`build_rect_operators` first calls `_keep_heap`: once per process, it raises
glibc's mmap threshold to 32 MiB and its trim threshold to 1 GiB through
`mallopt`.  Fields of up to 32 MiB then come from the heap and go back to
it, and the heap top is kept.  The memory a run freed stays with the process
until it exits.  The helper changes no arithmetic, and it does nothing where
the C library has no `mallopt` or where the user set one of glibc's own
MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or MALLOC_TOP_PAD_.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, field, replace

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
    "iteration_shifts",
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


COEFFICIENTS = {
    EULER: IMEXCoefficients((1.0,), (1.0,), 1.0, 1.0),
    TWO_SBDF: IMEXCoefficients((4.0, -1.0), (2.0, -1.0), 2.0, 1.5),
}


class InstabilityError(RuntimeError):
    """`field` left the representable range (NaN/Inf) at time `t`, step
    `step_index`: dt too large or w too small."""

    def __init__(self, message, field=None, t=None, step_index=None):
        super().__init__(message)
        self.field, self.t, self.step_index = field, t, step_index


@dataclass(frozen=True)
class FieldPair:
    """The (Phi, C) grid state at one time level.

    A level carries what a step formed for the next one (`imex_step`):
    `_h` is h(Phi) from the step that made the level, and `_f1` is
    (params, F1(Phi, C)) from the 2SBDF step that read it as its newest.
    The next step that reads the level takes both.  They are the only
    mutable part of a level, left out of `replace`, equality and the repr.
    """

    Phi: np.ndarray
    C: np.ndarray
    t: float = 0.0
    step_index: int = 0
    _f1: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _h: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def validate(self):
        if self.Phi.shape != self.C.shape:
            raise ValueError("Phi and C must share dimensions")
        for field, u in (("phi", self.Phi), ("c", self.C)):
            if not np.isfinite(u).all():
                raise InstabilityError(f"non-finite {field} values at t={self.t:.6g}s "
                                       f"(step {self.step_index})", field, self.t, self.step_index)


@dataclass(frozen=True)
class SchemeConfig:
    order: str  # 'euler' | '2sbdf'
    dt: float
    w: float

    def __post_init__(self):
        if self.order not in (EULER, TWO_SBDF):
            raise ValueError(f"unknown scheme order {self.order!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 <= self.w < math.inf:
            raise ValueError("w must be nonnegative and finite")


@dataclass(frozen=True)
class BoundaryData:
    """Per-axis (low, high) constant Dirichlet values for phi and c.

    Entries on Neumann ends are ignored.  Defaults to homogeneous data on
    every Dirichlet edge.
    """

    phi: tuple = ()
    c: tuple = ()


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

    A load that is zero everywhere is the scalar 0.0, not an array.  `start`
    holds a 2SBDF run's start: the Euler solvers at dt / ceil(4/dt), same loads.
    `hole` holds a cavity's corrections and stop rule (`holes.HoleOperators`),
    shared with `start`; None on a rectangle or an empty Theta.
    """

    phi: SylvesterOperator
    c: SylvesterOperator
    grid: object
    params: CorrosionParameters
    cfg: SchemeConfig
    load_phi: np.ndarray | float
    load_c: np.ndarray | float
    start: "RectOperators | None" = None
    hole: object = None


def iteration_shifts(order: str, equation: str, dt: float, w: float,
                     params: CorrosionParameters):
    """(alpha, beta) of the shifted system (beta*I - alpha*M) u = rhs that
    `equation` ('phi' or 'c') solves under `order`: alpha = s*dt*D and
    beta = s*(gamma + w*dt) for phi, s*gamma for c, which takes no shift w."""
    coef = COEFFICIENTS[order]
    D, w = (params.D_phi, w) if equation == "phi" else (params.D_c, 0.0)
    return coef.s * dt * D, coef.s * (coef.gamma + w * dt)


def _shifted_solvers(grid, cfg: SchemeConfig, params: CorrosionParameters):
    """The phi and c solvers of one scheme, shifted from the grid's factorizations."""

    def operator(equation):
        alpha, beta = iteration_shifts(cfg.order, equation, cfg.dt, cfg.w, params)
        return SylvesterOperator(beta, -alpha, grid.factorizations)

    return dict(phi=operator("phi"), c=operator("c"))


# glibc's mallopt parameters (malloc.h), and the variables by which a user
# sets the heap policy that `_keep_heap` would otherwise set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")


def _mallopt():
    """The C library's `mallopt`, or None where it has none (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


@functools.cache
def _keep_heap():
    """Keeps freed field memory in the process: allocations of up to 32 MiB
    come from the heap, and its top is trimmed only past 1 GiB free.  Once
    per process; see the module docstring."""
    if any(name in os.environ for name in _MALLOC_VARIABLES):
        return
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def build_rect_operators(grid, cfg: SchemeConfig, params: CorrosionParameters,
                         bdata: BoundaryData = BoundaryData()) -> RectOperators:
    """The solvers of one scheme, with a 2SBDF run's `start`, and the loads of `bdata`."""
    _keep_heap()
    ops = RectOperators(
        grid=grid, params=params, cfg=cfg, **_shifted_solvers(grid, cfg, params),
        load_phi=boundary_contribution(grid, bdata, "phi"),
        load_c=boundary_contribution(grid, bdata, "c")
        + boundary_contribution(grid, bdata, "F2", params),
    )
    if cfg.order == EULER:
        return ops
    sub = replace(cfg, order=EULER, dt=bootstrap_substeps(cfg.dt)[1])
    return replace(ops, start=replace(ops, cfg=sub, **_shifted_solvers(grid, sub, params)))


def _combine(terms):
    """sum(weight * u) over (weight, u) pairs, left to right and with no
    products by +-1.  A single term of weight 1 is u itself; any other sum is
    one new array, built in place with at most one work array.  No u is
    written."""
    total = work = None
    for weight, u in terms:
        if total is None:
            total, own = (u, False) if weight == 1.0 else (np.multiply(weight, u), True)
            continue
        if weight not in (1.0, -1.0):
            u = work = np.multiply(weight, u, out=work)
        op = np.subtract if weight == -1.0 else np.add
        total, own = op(total, u, out=total if own else None), True
    return total


def imex_step(levels, ops: RectOperators):
    """One step of `ops.cfg.order` from `levels`, newest first.

    Returns (state, loops), with loops the (iterations, last residual) of the
    phi and the c solve.  Without `ops.hole` each field takes one direct
    solve.  With it the step confines the explicit terms to the physical
    region (`chi`, a zero factor on Theta), subtracts the known-level
    correction `G` on the extrapolated levels and `N12` from the Laplacian
    of F2, each on its own rows, and solves each field by the hole's inner
    loop, which reads its Theta budget from the hole and the step's target
    time.
    """
    cfg, p, grid, hole = ops.cfg, ops.params, ops.grid, ops.hole
    coef = COEFFICIENTS[cfg.order]
    if len(levels) != len(coef.history):
        raise ValueError(f"{cfg.order} steps from {len(coef.history)} time levels")
    for newer, older in zip(levels, levels[1:]):
        if abs((older.t + cfg.dt) - newer.t) > 1e-9 * max(cfg.dt, abs(newer.t)):
            raise ValueError("2SBDF needs two states one dt apart")
    curr = levels[0]
    t = curr.t + cfg.dt
    sdt = coef.s * cfg.dt
    G = None if hole is None else hole.G

    def combine(weights, name):
        return _combine(zip(weights, [getattr(u, name) for u in levels]))

    def known_rows(name):
        # G S_e(u) on G's rows, with S_e(u) formed only at G's columns.
        return G.product(_combine((e, G.take(getattr(u, name)))
                                  for e, u in zip(coef.extrap, levels)))

    def add_load(rhs, load, scale):
        # rhs + scale * load, in place; a zero load (0.0) adds nothing.
        if isinstance(load, np.ndarray):
            np.add(rhs, scale * load, out=rhs)

    def solve(op, base, field, warm):
        if hole is None:
            return op.solve(base), (1, 0.0)
        return hole.iterate(field, op, base, warm, t)

    # F1 once per time level (module docstring): take the F1 or the h that
    # the levels carry, evaluate the rest, and carry the newest level's F1.
    f1 = [_level_f1(u, p) for u in levels]
    if len(levels) > 1:
        object.__setattr__(curr, "_f1", (p, f1[0]))

    def explicit_terms():
        for e, u, f in zip(coef.extrap, levels, f1):
            yield e, f
            yield e * cfg.w, u.Phi

    rhs = _combine(explicit_terms())  # a new array: two terms or more
    if hole is not None:
        # The relaxation shift, like the reaction, only acts on the physical
        # region: on the holes it would exactly cancel the implicit shift and
        # preserve any injected round-off forever, while the masked form damps
        # hole values by the implicit shift every step.
        flat = rhs.reshape(-1)  # a view: rhs's first term, an F1, is C-ordered
        theta = hole.mask.theta_index
        flat[theta] = np.multiply(0.0, flat[theta])
    if G is None:
        add_load(rhs, ops.load_phi, p.D_phi)
    elif isinstance(ops.load_phi, np.ndarray):
        known = ops.load_phi.copy()
        _subtract_rows(known, G.rows, known_rows("Phi"))
        np.add(rhs, p.D_phi * known, out=rhs)
    else:
        flat[G.rows] += p.D_phi * (0.0 - known_rows("Phi"))
    np.multiply(sdt, rhs, out=rhs)
    base_phi = np.add(combine(coef.history, "Phi"), rhs, out=rhs)
    phi, phi_loop = solve(ops.phi, base_phi, "phi", curr.Phi)

    f2, h = reaction_f2(phi, p, with_h=True)
    rhs = apply_laplacian(grid.laplacians, f2)  # a new array
    if hole is not None:
        _subtract_rows(rhs, hole.N12.rows, hole.N12.product(hole.N12.take(f2)))
    add_load(rhs, ops.load_c, 1.0)
    if G is not None:
        _subtract_rows(rhs, G.rows, known_rows("C"))
    np.multiply(sdt * p.D_c, rhs, out=rhs)
    base_c = np.add(combine(coef.history, "C"), rhs, out=rhs)
    c, c_loop = solve(ops.c, base_c, "c", curr.C)

    out = FieldPair(phi, c, t, curr.step_index + 1)
    out.validate()
    object.__setattr__(out, "_h", h)
    return out, (phi_loop, c_loop)


def _subtract_rows(target, rows, values):
    """target[rows] -= values, on the C-order flat indices `rows` of a
    C-ordered `target`."""
    target.reshape(-1)[rows] -= values


def _level_f1(level: FieldPair, params):
    """F1 of `level` under `params`: the F1 it carries under them, else one
    evaluated with the h it carries, if any.  The level lets both go."""
    carried, h = level._f1, level._h
    _drop_carry(level)
    if carried is not None and carried[0] == params:
        return carried[1]
    return reaction_f1(level.Phi, level.C, params, h=h)


def _drop_carry(level: FieldPair):
    object.__setattr__(level, "_f1", None)
    object.__setattr__(level, "_h", None)


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

    `ops` are a 2SBDF run's operators, and `substep(state, ops.start)`
    advances one substep.
    """
    start, state = ops.start, state0
    for _ in range(bootstrap_substeps(ops.cfg.dt)[0]):
        state = substep(state, start)
    out = replace(state, t=state0.t + ops.cfg.dt, step_index=state0.step_index + 1)
    object.__setattr__(out, "_h", state._h)  # the same Phi, so the same h
    _drop_carry(state)
    return out


def whole_steps(span: float, dt: float) -> int:
    """The number of dt steps in `span`, which must be a whole multiple of dt."""
    n = round(span / dt)
    if abs(n * dt - span) > 1e-12 * max(1.0, span):
        raise ValueError(f"{span!r} s is not a whole multiple of dt = {dt!r} s")
    return n


def run_loop(state0: FieldPair, ops, horizon: float, hooks, euler, two_step,
             substep=None):
    """Advance `state0` by `horizon`, a multiple of dt, on any domain.

    `euler(state, ops)` and `two_step(prev, curr, ops)` return the next level
    under the run's operators `ops`.  A 2SBDF run takes its second level from
    `bootstrap_2sbdf` with `substep` (default `euler`), then drops `ops.start`.
    `hooks` are called with each completed level, the initial one included.
    """
    cfg = ops.cfg
    n_steps = whole_steps(horizon, cfg.dt)
    state0.validate()
    for hook in hooks:
        hook(state0)

    prev, curr = None, state0
    for _ in range(n_steps):
        if cfg.order == EULER:
            nxt = euler(curr, ops)
        elif prev is None:
            nxt = bootstrap_2sbdf(curr, ops, substep or euler)
            ops = replace(ops, start=None)  # frees the start's solvers
        else:
            nxt = two_step(prev, curr, ops)
        prev, curr = curr, nxt
        for hook in hooks:
            hook(curr)
    for level in (prev, curr):
        if level is not None:
            _drop_carry(level)  # the last levels' carry has no next step
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
