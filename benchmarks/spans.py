"""Span recording for the traced benchmark run.

Every function named in TRACED is wrapped wherever a ``pitcorr`` module binds
it, so a name imported into another module (``pitcorr.rect.apply_laplacian``,
``pitcorr.holes.reaction_f1``) is traced at that call site too.  Spans are
kept in memory as ``[name, start, end, parent]`` lists, one list per
``run_scenario`` call, and turned into per-layer figures by ``layer_metrics``.
Nothing under ``src/`` is modified on disk; the wrappers are undone after use.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute).  The span name's prefix is the layer.
TRACED = (
    ("model.reaction_f1", "pitcorr.model", "reaction_f1"),
    ("model.reaction_f2", "pitcorr.model", "reaction_f2"),
    ("linalg.spectral_factorize", "pitcorr.linalg", "spectral_factorize"),
    ("linalg.build_operator", "pitcorr.linalg", "build_operator"),
    ("linalg.apply_laplacian", "pitcorr.linalg", "apply_laplacian"),
    ("linalg.kronecker_sum", "pitcorr.linalg", "kronecker_sum"),
    ("grid.build_grid", "pitcorr.grid", "build_grid"),
    ("grid.rasterize_mask", "pitcorr.grid", "rasterize_mask"),
    ("grid.build_correction_matrices", "pitcorr.grid", "build_correction_matrices"),
    ("rect.boundary_contribution", "pitcorr.rect", "boundary_contribution"),
    ("rect.build_rect_operators", "pitcorr.rect", "build_rect_operators"),
    ("rect.step_imex_euler_rect", "pitcorr.rect", "step_imex_euler_rect"),
    ("rect.step_imex_2sbdf_rect", "pitcorr.rect", "step_imex_2sbdf_rect"),
    ("rect.bootstrap_2sbdf", "pitcorr.rect", "bootstrap_2sbdf"),
    ("rect.run_rect", "pitcorr.rect", "run_rect"),
    ("holes.build_hole_operators", "pitcorr.holes", "build_hole_operators"),
    ("holes.check_stop_criteria", "pitcorr.holes", "check_stop_criteria"),
    ("holes.step_iter_euler", "pitcorr.holes", "step_iter_euler"),
    ("holes.step_iter_2sbdf", "pitcorr.holes", "step_iter_2sbdf"),
    ("holes.run_holes", "pitcorr.holes", "run_holes"),
    ("analysis.front_position", "pitcorr.analysis", "front_position"),
    ("scenarios.export_snapshot", "pitcorr.scenarios", "export_snapshot"),
    ("scenarios.load_config", "pitcorr.scenarios", "load_config"),
    ("scenarios.run_scenario", "pitcorr.scenarios", "run_scenario"),
)
SOLVE = "linalg.solve"  # SylvesterOperator.solve, a method
LAYERS = ("model", "linalg", "grid", "rect", "holes", "analysis", "scenarios")
EULER_STEPS = ("rect.step_imex_euler_rect", "holes.step_iter_euler")
TWO_STEP_STEPS = ("rect.step_imex_2sbdf_rect", "holes.step_iter_2sbdf")


def rebind(original, replacement) -> list:
    """Point every pitcorr module attribute bound to `original` at `replacement`.

    Returns the undo list for `restore`.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if name != "pitcorr" and not name.startswith("pitcorr."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class SpanRecorder:
    """Records nested spans of the current call; `calls` holds one list per call.

    `clock` gives the span times; the benchmark passes one that stops while
    its reference kernel runs, so that the kernel adds to no span.
    """

    def __init__(self, clock=time.perf_counter):
        self.calls = []
        self._open = []
        self._clock = clock

    def begin_call(self) -> None:
        self.calls.append([])

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, stack, clock = self.calls[-1], self._open, self._clock
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(current))
            current.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap every traced function and `SylvesterOperator.solve`; returns the undo list."""
        import pitcorr.linalg

        undo = []
        for span_name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            undo += rebind(original, self.wrap(span_name, original))
        cls = pitcorr.linalg.SylvesterOperator
        undo.append((cls, "solve", cls.solve))
        cls.solve = self.wrap(SOLVE, cls.solve)
        return undo


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list, two_step: bool, ndim: int) -> dict:
    """Per-layer figures of one traced `run_scenario` call.

    Named-function times (`*_s`) are inclusive: they contain the spans the
    function calls.  `*.self_s` and `*.step_self_s` exclude child spans.
    In a 2SBDF run every Euler step is a substep of the start.
    """
    total, own, count = {}, {}, {}
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
        count[name] = count.get(name, 0) + 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in own.items():
        layer_self[name.split(".", 1)[0]] += s

    main = TWO_STEP_STEPS if two_step else EULER_STEPS
    start_steps = EULER_STEPS if two_step else ()
    # The step span each span runs under (-1 outside any step).
    step_of = []
    for i, (name, _, _, parent) in enumerate(spans):
        if name in main or name in start_steps:
            step_of.append(i)
        else:
            step_of.append(step_of[parent] if parent >= 0 else -1)
    main_solves = start_hole_solves = 0
    for i, (name, *_) in enumerate(spans):
        if name == SOLVE and step_of[i] >= 0:
            step = spans[step_of[i]][0]
            main_solves += step in main
            start_hole_solves += step == "holes.step_iter_euler" and two_step

    def t(*names, table=total):
        return sum(table.get(name, 0.0) for name in names)

    n_solves = count.get(SOLVE, 0)
    main_steps = sum(count.get(name, 0) for name in main)
    solve_ms = 1e3 * t(SOLVE) / n_solves if n_solves else 0.0
    out = {
        "linalg.solve2d_ms": solve_ms if ndim == 2 else 0.0,
        "linalg.solve3d_ms": solve_ms if ndim == 3 else 0.0,
        "linalg.solve_count": n_solves,
        "linalg.solve_s": t(SOLVE),
        "linalg.apply_laplacian_s": t("linalg.apply_laplacian"),
        "linalg.factorize_s": t("linalg.spectral_factorize"),
        "model.reaction_s": t("model.reaction_f1", "model.reaction_f2"),
        "grid.mask_s": t("grid.rasterize_mask"),
        "grid.correction_s": t("grid.build_correction_matrices"),
        "rect.bootstrap_s": t("rect.bootstrap_2sbdf"),
        "rect.bootstrap_substeps": sum(count.get(name, 0) for name in start_steps),
        "rect.boundary_s": t("rect.boundary_contribution"),
        "rect.step_self_s": t("rect.step_imex_euler_rect", "rect.step_imex_2sbdf_rect", table=own),
        "holes.solves_per_step": main_solves / main_steps if main_steps else 0.0,
        "holes.bootstrap_s": t("holes.step_iter_euler") if two_step else 0.0,
        "holes.bootstrap_solves": start_hole_solves,
        "holes.stop_check_s": t("holes.check_stop_criteria"),
        "holes.step_self_s": t("holes.step_iter_euler", "holes.step_iter_2sbdf", table=own),
        "analysis.front_s": t("analysis.front_position"),
        "scenarios.export_s": t("scenarios.export_snapshot"),
    }
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    return out
