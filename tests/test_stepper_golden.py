"""Golden regression: eight short runs must reproduce stored results to round-off.

`tests/data/stepper_golden.npz` holds the final (Phi, C) and the per-step
inner-iteration counts (k_phi, k_c) of each run in RUNS.  The six loop runs
were written by the separate rectangle and cavity-domain steppers that
preceded the shared IMEX step; the two `pit_exact_*` runs by the capacitance
solve with its capacitances kept beside the solvers, before each corrected
solver became one operator.  A refactor of the stepper must keep the counts
identical and the fields within 1e-12 max-abs.

Regenerate the file only from a version whose results are trusted:

    PYTHONPATH=src python tests/test_stepper_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from pitcorr.grid import Circle, GridSpec, build_grid, rasterize_mask
from pitcorr.holes import IterSchemeConfig, run_holes
from pitcorr.model import DEFAULT_FIXED_W, CorrosionParameters
from pitcorr.rect import BoundaryData, FieldPair, SchemeConfig, run_rect

DATA = Path(__file__).parent / "data" / "stepper_golden.npz"
NN = ("neumann", "neumann")
PARAMS = CorrosionParameters()
TOL = 1e-12


def _solid(grid, theta=None):
    phi = np.ones(grid.counts)
    c = np.ones(grid.counts)
    if theta is not None:
        phi[theta] = 0.0
        c[theta] = 0.0
    return FieldPair(phi, c)


def _rect_euler_2d():
    grid = build_grid(GridSpec((23e-6, 41e-6), (24, 40), (NN, ("dirichlet", "dirichlet"))))
    bdata = BoundaryData(phi=((0.0, 0.0), (0.0, 1.0)), c=((0.0, 0.0), (0.0, 1.0)))
    cfg = SchemeConfig("euler", 1e-3, DEFAULT_FIXED_W)
    return run_rect(_solid(grid), cfg, PARAMS, grid, bdata, 30 * cfg.dt), []


def _rect_2sbdf_3d():
    grid = build_grid(GridSpec((7e-6, 7e-6, 20e-6), (8, 8, 20), (NN, NN, ("neumann", "dirichlet"))))
    bdata = BoundaryData(phi=((0.0, 0.0), (0.0, 0.0), (0.0, 0.1)),
                         c=((0.0, 0.0), (0.0, 0.0), (0.0, 0.05)))
    cfg = SchemeConfig("2sbdf", 0.02, DEFAULT_FIXED_W)
    return run_rect(_solid(grid), cfg, PARAMS, grid, bdata, 6 * cfg.dt), []


def _pit(variant, order, dt, n_steps, stop_mode="full"):
    grid = build_grid(GridSpec((40e-6, 40e-6), (41, 41), (NN, NN)))
    mask = rasterize_mask(grid, (Circle((20e-6, 20e-6), 1.5e-6),))
    cfg = IterSchemeConfig(variant, order, dt, DEFAULT_FIXED_W, stop_mode=stop_mode)
    return run_holes(_solid(grid, mask.theta), cfg, PARAMS, grid, mask, BoundaryData(),
                     n_steps * dt)


RUNS = {
    "rect_euler_2d": _rect_euler_2d,
    "rect_2sbdf_3d": _rect_2sbdf_3d,
    "pit_imex_e_euler": lambda: _pit("imex-e", "euler", 2e-3, 20),
    "pit_imex_e_2sbdf": lambda: _pit("imex-e", "2sbdf", 6e-3, 8),
    "pit_imex_i_euler": lambda: _pit("imex-i", "euler", 2e-3, 20),
    "pit_imex_i_2sbdf": lambda: _pit("imex-i", "2sbdf", 6e-3, 8),
    "pit_exact_euler": lambda: _pit("imex-e", "euler", 2e-3, 20, "exact"),
    "pit_exact_2sbdf": lambda: _pit("imex-e", "2sbdf", 6e-3, 8, "exact"),
}


def _record(name):
    final, reports = RUNS[name]()
    counts = np.array([(r.k_phi, r.k_c) for r in reports], dtype=np.int64).reshape(-1, 2)
    return {f"{name}/Phi": final.Phi, f"{name}/C": final.C, f"{name}/k": counts}


@pytest.fixture(scope="module")
def golden():
    with np.load(DATA) as data:
        return dict(data)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(golden, name):
    got = _record(name)
    np.testing.assert_array_equal(got[f"{name}/k"], golden[f"{name}/k"])
    for field in ("Phi", "C"):
        key = f"{name}/{field}"
        assert got[key].shape == golden[key].shape
        assert np.abs(got[key] - golden[key]).max() <= TOL, key


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    records = {}
    for run in RUNS:
        records.update(_record(run))
    np.savez_compressed(DATA, **records)
    print(f"wrote {DATA}")
