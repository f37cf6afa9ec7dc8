"""The names that benchmarks/ binds in pitcorr must keep existing.

The benchmark wraps functions by module and attribute name and calls a few
entry points directly, so a rename would only show when it runs.
"""

import collections
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import pitcorr.holes
import pitcorr.rect
from pitcorr.grid import Circle, GridSpec, build_correction_matrices, build_grid, rasterize_mask
from pitcorr.holes import IterSchemeConfig
from pitcorr.model import CorrosionParameters
from pitcorr.rect import (
    BoundaryData,
    FieldPair,
    RectOperators,
    SchemeConfig,
    bootstrap_substeps,
    build_rect_operators,
)

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span, module, attr", load_spans().TRACED)
def test_traced_names_resolve_to_functions(span, module, attr):
    assert inspect.isfunction(getattr(importlib.import_module(module), attr, None)), span


@pytest.mark.parametrize("module", ["pitcorr.rect", "pitcorr.holes"])
def test_time_steppers_are_bound(module):
    steppers = [
        attr for attr, fn in vars(importlib.import_module(module)).items()
        if attr.startswith("step_") and inspect.isfunction(fn)
    ]
    assert steppers


def test_scenarios_binds_the_runners():
    scenarios = importlib.import_module("pitcorr.scenarios")
    for attr in ("run_rect", "run_holes"):
        assert inspect.isfunction(getattr(scenarios, attr, None)), attr


def test_rect_operators_build_from_three_arguments():
    nn = ("neumann", "neumann")
    grid = build_grid(GridSpec((4e-6, 5e-6), (5, 6), (nn, nn)))
    ops = build_rect_operators(grid, SchemeConfig("euler", 1e-3, 4.43e8), CorrosionParameters())
    assert isinstance(ops, RectOperators)
    assert ops.load_phi == 0.0 and ops.load_c == 0.0


# (module, Euler stepper, two-step stepper) of each domain's runner.
STEPPERS = {
    "rect": (pitcorr.rect, "step_imex_euler_rect", "step_imex_2sbdf_rect"),
    "holes": (pitcorr.holes, "step_iter_euler", "step_iter_2sbdf"),
}


@pytest.mark.parametrize("order", ["euler", "2sbdf"])
@pytest.mark.parametrize("domain", ["rect", "holes"])
def test_runners_call_rebound_steppers(monkeypatch, domain, order):
    # The benchmark marks and traces steps by rebinding these module
    # attributes, so the runners must look them up by name when they call.
    calls = collections.Counter()

    def count(module, attr):
        original = getattr(module, attr)

        def counting(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    for module, *steppers in STEPPERS.values():
        for attr in steppers:
            count(module, attr)
    count(pitcorr.rect, "bootstrap_2sbdf")

    nn = ("neumann", "neumann")
    grid = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (nn, nn)))
    state = FieldPair(np.ones(grid.counts), np.ones(grid.counts))
    params, bdata = CorrosionParameters(), BoundaryData.homogeneous(2)
    dt, n_steps = 0.5, 3
    if domain == "rect":
        pitcorr.rect.run_rect(state, SchemeConfig(order, dt, 4.43e8), params, grid,
                              bdata, n_steps * dt)
    else:
        mask = rasterize_mask(grid, (Circle((50e-6, 50e-6), 15e-6),))
        state = FieldPair(np.where(mask.theta, 0.0, 1.0), np.where(mask.theta, 0.0, 1.0))
        pitcorr.holes.run_holes(state, IterSchemeConfig("imex-e", order, dt, 4.43e8),
                                params, grid, mask, build_correction_matrices(grid, mask),
                                bdata, n_steps * dt)

    _, euler, two_step = STEPPERS[domain]
    if order == "euler":
        assert calls == {euler: n_steps}
    else:
        assert calls == {
            "bootstrap_2sbdf": 1,
            euler: bootstrap_substeps(dt)[0],
            two_step: n_steps - 1,
        }
