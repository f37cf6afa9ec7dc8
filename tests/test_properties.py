"""Property tests: every solver of a cavity run, on random small grids with
mixed Dirichlet/Neumann ends and random hole masks, solves its system.

Under `stop_mode: exact` each solver of the run (the main pair and the 2SBDF
start's) solves (a I + b (M - N)) X = Y, with M the Kronecker-sum Laplacian
and N the lagged correction of the variant; on an empty Theta there is no
hole and each solves (a I + b M) X = Y.  The reference is `kronecker_sum`
plus a sparse direct solve.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pitcorr.grid import DomainMask, GridSpec, build_correction_matrices, build_grid
from pitcorr.holes import IterSchemeConfig, build_hole_operators
from pitcorr.linalg import DIRICHLET, NEUMANN, kronecker_sum
from pitcorr.model import CorrosionParameters

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
    ops = build_hole_operators(grid, cfg, CorrosionParameters(), mask, correction)
    if not mask.theta.any():
        assert ops.hole is None
        N = sp.csr_matrix((grid.n_nodes, grid.n_nodes))
    else:
        assert ops.hole.N is (correction.N12 if cfg.variant == "imex-i" else correction.N1)
        N = ops.hole.N
    assert ops.start.hole is ops.hole
    M = kronecker_sum(grid.laplacians)
    I = sp.identity(grid.n_nodes)
    Y = np.random.default_rng(grid.n_nodes).standard_normal(grid.counts)
    for op in (ops.phi, ops.c, ops.start.phi, ops.start.c):
        X = op.solve(Y)
        A = (op.a * I + op.b * (M - N)).tocsc()
        ref = sp.linalg.spsolve(A, Y.ravel(order="F")).reshape(grid.counts, order="F")
        assert np.abs(X - ref).max() <= 1e-10 * np.abs(ref).max()
