"""Property tests, derandomized so that a run is reproducible.

Every solver of a cavity run, on random small grids with mixed
Dirichlet/Neumann ends and random hole masks, solves its system.

Under `stop_mode: exact` each solver of the run (the main pair and the 2SBDF
start's) solves (a I + b (M - N)) X = Y, with M the Kronecker-sum Laplacian
and N the lagged correction of the variant; on an empty Theta there is no
hole and each solves (a I + b M) X = Y.  The reference is `kronecker_sum`
plus a sparse direct solve.

A builtin config with a few numbers or its time step and horizon scaled,
and one value replaced or deleted, parses or raises ConfigError.  A small
config so mutated that parses runs to its result or ends in one of the
errors the CLI maps to an exit code.  A raw-f64 snapshot reads back
the bits it was written with.
"""

import tempfile

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from pitcorr.grid import DomainMask, GridSpec, build_correction_matrices, build_grid
from pitcorr.holes import ConvergenceError, IterSchemeConfig, build_hole_operators
from pitcorr.linalg import DIRICHLET, NEUMANN, kronecker_sum
from pitcorr.model import CorrosionParameters
from pitcorr.rect import FieldPair, InstabilityError, bootstrap_substeps
from pitcorr.scenarios import (
    ConfigError,
    builtin_scenarios,
    export_snapshot,
    parse_config,
    read_snapshot,
    run_scenario,
)

from test_scenarios_cli import tiny_pit_config, tiny_rect_config

END = st.sampled_from((DIRICHLET, NEUMANN))


@st.composite
def cavity_runs(draw):
    """(grid, mask, scheme) of a random 2D or 3D cavity run."""
    ndim = draw(st.sampled_from((2, 3)))
    counts = tuple(draw(st.lists(st.integers(2, 9 if ndim == 2 else 5),
                                 min_size=ndim, max_size=ndim)))
    bc = tuple((draw(END), draw(END)) for _ in range(ndim))
    grid = build_grid(GridSpec(tuple(1e-6 * (m + 1) for m in counts), counts, bc))
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = DomainMask(rng.random(counts) < density)
    cfg = IterSchemeConfig(draw(st.sampled_from(("imex-i", "imex-e"))), "2sbdf",
                           draw(st.sampled_from((1e-3, 6e-3, 0.5))), 4.43e8,
                           stop_mode="exact")
    return grid, mask, cfg


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cavity_runs())
def test_exact_solvers_match_sparse_direct_solve(run):
    grid, mask, cfg = run
    correction = build_correction_matrices(grid, mask)
    ops = build_hole_operators(grid, cfg, CorrosionParameters(), mask)
    if not mask.theta.any():
        assert ops.hole is None
        N = sp.csr_matrix((grid.n_nodes, grid.n_nodes))
    else:
        N = correction.N12 if cfg.variant == "imex-i" else correction.N1
    assert ops.start.hole is ops.hole
    M = kronecker_sum(grid.laplacians)
    I = sp.identity(grid.n_nodes)
    Y = np.random.default_rng(grid.n_nodes).standard_normal(grid.counts)
    for op in (ops.phi, ops.c, ops.start.phi, ops.start.c):
        X = op.solve(Y)
        A = (op.a * I + op.b * (M - N)).tocsc()
        ref = sp.linalg.spsolve(A, Y.ravel(order="F")).reshape(grid.counts, order="F")
        assert np.abs(X - ref).max() <= 1e-10 * np.abs(ref).max()


BAD_VALUES = (None, "x", "", -1, 0, 0.5, 1e300, float("nan"), float("inf"), True,
              [], [None], ["x", "y"], {}, {"x": 1})


def _paths(node, prefix=()):
    """The path of every value below `node`, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _value(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate(draw, raw):
    """`raw` after up to three plausible changes, each a number scaled by 2
    or 0.5, or dt, the horizon and the snapshot times scaled together by 2 or
    0.5 (which keeps them whole multiples of dt); then, in half the draws,
    with the value at one path deleted or replaced by a bad one."""
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.sampled_from((2.0, 0.5)))
        if draw(st.booleans()):
            raw["scheme"]["dt"] *= factor
            raw["horizon"] *= factor
            raw["snapshot_times"] = [t * factor for t in raw["snapshot_times"]]
        else:
            numbers = [path for path in _paths(raw) if _is_number(_value(raw, path))]
            *parents, last = draw(st.sampled_from(numbers))
            _value(raw, parents)[last] *= factor
    if draw(st.booleans()):
        *parents, last = draw(st.sampled_from(list(_paths(raw))))
        target = _value(raw, parents)
        if draw(st.booleans()):
            del target[last]
        else:
            target[last] = draw(st.sampled_from(BAD_VALUES))
    return raw


@st.composite
def mutated_builtins(draw):
    """A builtin config mutated by `_mutate`."""
    name = draw(st.sampled_from(sorted(builtin_scenarios())))
    return _mutate(draw, builtin_scenarios()[name])


# Parsing only: a mutated dt or horizon can ask a run for billions of steps.
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_builtins())
def test_mutated_builtins_parse_or_raise_config_error(raw):
    try:
        parse_config(raw)
    except ConfigError:
        pass


def _small_2sbdf_pit():
    raw = tiny_pit_config(dt=0.02, n_steps=3, order="2sbdf", stop_mode="exact")
    del raw["scheme"]["eps"]
    return raw


def _small_3d(geometry, order, dt):
    scheme = {"order": order, "dt": dt}
    if geometry:
        scheme["stop_mode"] = "exact"
    return {
        "name": "small3d",
        "grid": {
            "extents_um": [8.0, 6.0, 10.0],
            "spacing_um": 1.0,
            "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"],
                   "z": ["neumann", "dirichlet"]},
        },
        "boundary_values": {"z": [None, 0.0]},
        "geometry": geometry,
        "initial": {"phi": 1.0, "c": 1.0},
        "scheme": scheme,
        "horizon": 3 * dt,
        "snapshot_times": [0.0, dt],
        "front_axis": "z",
        "outputs": {"formats": ["csv", "raw-f64"]},
    }


# Small 2D and 3D configs, rectangles and cavities, under Euler and 2SBDF.
SMALL_CONFIGS = (
    tiny_pit_config,
    _small_2sbdf_pit,
    tiny_rect_config,
    lambda: _small_3d([], "2sbdf", 0.02),
    lambda: _small_3d([{"cylinder": {"axis": "y", "center_um": [4.0, 10.0], "radius_um": 1.5,
                                     "half_axis": "z", "half_limit_um": 10.0}}],
                      "euler", 2e-3),
)


@st.composite
def mutated_small_configs(draw):
    """One of SMALL_CONFIGS mutated by `_mutate`."""
    return _mutate(draw, draw(st.sampled_from(SMALL_CONFIGS))())


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(mutated_small_configs())
def test_mutated_small_configs_run_or_raise_a_known_error(raw):
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    dt = cfg.scheme.dt
    steps = round(cfg.horizon / dt)
    if cfg.scheme.order == "2sbdf":
        steps += bootstrap_substeps(dt)[0]
    assume(np.prod(cfg.grid_spec.counts) <= 10_000 and steps <= 500)
    with tempfile.TemporaryDirectory() as root, np.errstate(all="ignore"):
        try:
            run_scenario(cfg, root)
        except (ConfigError, InstabilityError, ConvergenceError):
            pass


SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
           1e-300, -1e-300)


@st.composite
def raw_snapshots(draw):
    """(grid, state) of a random 2D or 3D shape whose fields hold special values."""
    ndim = draw(st.sampled_from((2, 3)))
    counts = tuple(draw(st.lists(st.integers(2, 6), min_size=ndim, max_size=ndim)))
    grid = build_grid(GridSpec((1e-6,) * ndim, counts, ((NEUMANN, NEUMANN),) * ndim))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats())
    n = grid.n_nodes
    phi, c = (np.array(draw(st.lists(values, min_size=n, max_size=n))).reshape(counts)
              for _ in range(2))
    return grid, FieldPair(phi, c, draw(st.floats(allow_nan=False)),
                           draw(st.integers(0, 2**63 - 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw_snapshots())
def test_raw_snapshot_round_trip_is_bit_exact(snapshot):
    grid, state = snapshot
    with tempfile.TemporaryDirectory() as root:
        back, header = read_snapshot(export_snapshot(state, grid, f"{root}/snap", "raw-f64"))
    assert back.Phi.shape == back.C.shape == grid.counts
    assert header["dims"] == list(grid.counts)
    assert np.array_equal(back.Phi.view(np.uint64), state.Phi.view(np.uint64))
    assert np.array_equal(back.C.view(np.uint64), state.C.view(np.uint64))
    assert np.float64(back.t).view(np.uint64) == np.float64(state.t).view(np.uint64)
    assert back.step_index == state.step_index
