"""The names that benchmarks/ binds in pitcorr must keep existing.

The benchmark wraps functions by module and attribute name and calls a few
entry points directly, so a rename would only show when it runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from pitcorr.grid import GridSpec, build_grid
from pitcorr.model import CorrosionParameters
from pitcorr.rect import RectOperators, SchemeConfig, build_rect_operators

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
