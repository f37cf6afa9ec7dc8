"""End-to-end and per-layer benchmark of pitcorr on three builtin scenarios.

Usage (from the repository root):

    python3 benchmarks/run.py --workload pit2d-euler --seed 1 --seconds 35 --trace 0

Each invocation is one closed-loop batch run in a single process with the
BLAS/OpenMP thread pools pinned to one thread.  It runs the workload's
scenario end to end through the public API (`load_config` on a YAML file,
then `run_scenario` with artifacts written), repetition after repetition
until the next one would end after `--seconds`.  Then it checks the outputs
and prints one JSON object as its last line.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced repetitions with
repetitions traced by `spans.py` and reports the per-layer metrics and the
tracing overhead.  Reported times are scaled to a reference host speed,
measured by a fixed kernel timed after every step (`Reference`).  `--seed`
seeds the random right-hand sides of the operator check; the scenarios
themselves are fixed.  See README.md for the workloads and metrics.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402
import yaml  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    scenario: str
    horizon_scale: float
    formats: tuple | None = None  # overrides the scenario's snapshot formats


# Scales keep at least 100 main-loop steps per repetition (see README.md).
WORKLOADS = {
    "pit2d-euler": Workload("circular_pit", 0.01),
    "polish2d-2sbdf": Workload("electropolish", 0.026),
    "wire3d-2sbdf": Workload("pencil3d", 0.01, ("csv", "raw-f64")),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def write_config(work: Workload, scenarios, directory: Path) -> Path:
    raw = scenarios.builtin_scenarios()[work.scenario]
    if work.formats is not None:
        raw["outputs"] = {"formats": list(work.formats)}
    path = directory / f"{work.scenario}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return path


# Median time [s] of one `Reference` call on the reference machine (README.md).
# Reported times are scaled to the host speed at which the kernel takes this long.
REFERENCE_S = 6.0e-4
# Each step is scaled by the median kernel time over this many steps on either side.
REFERENCE_WINDOW = 10
# Set-ups timed per run on their own; one takes 20-40 ms.
SETUP_SAMPLES = 25


class Reference:
    """A fixed kernel, timed after every step, that tracks the host's speed.

    On a shared host the same work runs up to 1.5 times slower from one
    stretch of seconds or minutes to the next (README.md).  The kernel does
    the three kinds of work a time step does, at the sizes of a 2D step: BLAS
    matrix products as in a 201x101 Sylvester solve, numpy ufuncs on the
    201x101 field and a Python loop.  It calls no pitcorr code, so a change
    to the program does not move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.left = rng.standard_normal((201, 201))
        self.right = rng.standard_normal((101, 101))
        self.x = rng.standard_normal((201, 101))

    def __call__(self):
        y = self.left @ self.x @ self.right
        z = np.tanh(np.exp(-self.x * self.x) + 0.5 * self.x) * self.x
        total = 0
        for i in range(1000):
            total += i * i
        return y, z, total


class Probe:
    """Timestamps of one repetition: the first stepper call and every hook call.

    The hook rides on the solver's public `hooks` argument; the stepper marker
    ends the set-up phase.  Both stay installed for traced and untraced
    repetitions.  After each timestamp the hook times a `Reference` call.
    `now()` is a clock that stops while the kernel runs, so the kernel adds to
    no measured time.
    """

    def __init__(self):
        self.reference = Reference()
        self.paused = 0.0  # total time [s] spent in the reference kernel
        self.setup_only = False  # end the run at its first stepper call
        self.first_step = None
        self.hook_times = []
        self.reference_s = []  # one kernel time per hook call
        self.last_states = collections.deque(maxlen=3)

    def reset(self):
        self.first_step = None
        self.hook_times = []
        self.reference_s = []
        self.last_states.clear()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def hook(self, state):
        self.hook_times.append((state.step_index, self.now()))
        self.last_states.append(state)
        # The first call brings the kernel's arrays back into the caches, so
        # that the timed second call does not depend on what the step left there.
        start = time.perf_counter()
        self.reference()
        tic = time.perf_counter()
        self.reference()
        toc = time.perf_counter()
        self.reference_s.append(toc - tic)
        self.paused += toc - start

    def install(self) -> list:
        """Mark every time stepper (`step_*` of rect and holes) wherever it is
        bound, and add the hook to the runners as `pitcorr.scenarios` calls them.
        """
        import pitcorr.holes
        import pitcorr.rect
        import pitcorr.scenarios

        steppers = {
            fn
            for module in (pitcorr.rect, pitcorr.holes)
            for attr, fn in vars(module).items()
            if attr.startswith("step_") and inspect.isfunction(fn)
        }
        undo = []
        for fn in steppers:
            undo += spans.rebind(fn, self._mark_step(fn))
        for module, attr in ((pitcorr.rect, "run_rect"), (pitcorr.holes, "run_holes")):
            undo.append((pitcorr.scenarios, attr, getattr(pitcorr.scenarios, attr)))
            setattr(pitcorr.scenarios, attr, self._add_hook(module, attr))
        return undo

    def _mark_step(self, fn):
        def marked(*args, **kwargs):
            if self.first_step is None:
                self.first_step = self.now()
                if self.setup_only:
                    raise SetUpDone
            return fn(*args, **kwargs)

        return marked

    def _add_hook(self, module, attr):
        # Looked up per call, so that a traced runner is the one called.
        def with_hook(*args, hooks=(), **kwargs):
            run = getattr(module, attr)
            return run(*args, hooks=tuple(hooks) + (self.hook,), **kwargs)

        return with_hook

    def main_loop_steps(self) -> np.ndarray:
        """Durations [s] of the main-loop steps 2..n, each scaled to REFERENCE_S
        by the median kernel time around it.

        Step 1 is excluded: it follows the set-up, and under 2SBDF it is the
        start.
        """
        main = [i for i, (index, _) in enumerate(self.hook_times) if index >= 1]
        times = np.array([self.hook_times[i][1] for i in main])
        kernel = np.pad([self.reference_s[i] for i in main], REFERENCE_WINDOW, mode="edge")
        around = np.median(sliding_window_view(kernel, 2 * REFERENCE_WINDOW + 1), axis=1)
        return np.diff(times) * REFERENCE_S / around[1:]

    def speed(self) -> float:
        """REFERENCE_S over the median kernel time of the repetition."""
        return REFERENCE_S / statistics.median(self.reference_s)


class SetUpDone(Exception):
    """Ends a set-up-only run at its first stepper call."""


def measure_setup(config_path, work, probe) -> list:
    """Scaled times [s] of SETUP_SAMPLES set-ups: `load_config`, then
    `run_scenario` up to its first stepper call.
    """
    from pitcorr import scenarios

    times = []
    probe.setup_only = True
    try:
        for _ in range(SETUP_SAMPLES):
            probe.reset()
            tic = probe.now()
            try:
                cfg = scenarios.load_config(str(config_path))
                scenarios.run_scenario(cfg, None, horizon_scale=work.horizon_scale)
            except SetUpDone:
                pass
            times.append((probe.first_step - tic) * probe.speed())
    finally:
        probe.setup_only = False
    return times


@dataclass
class Repetition:
    # Times are scaled to the reference speed; `raw_wall_s` and `speed` are not.
    wall_s: float
    raw_wall_s: float
    speed: float  # REFERENCE_S over the repetition's median kernel time
    step_s: np.ndarray
    steps_per_s: float
    digest: str  # of the final state, for the determinism check
    layers: dict | None  # per-layer figures when traced
    # Kept for the first and the last repetition only, so that the records of
    # a long run do not add to the peak memory it measures.
    artifacts: object
    last_states: tuple


def run_once(config_path, work, output_root, probe, factorization_count, recorder):
    """One repetition, as `pitcorr run` does it: load the YAML config and run
    the scenario to its end.  With a `recorder`, the repetition is traced.
    """
    from pitcorr import scenarios

    probe.reset()
    undo = []
    if recorder is not None:
        recorder.begin_call()
        undo = recorder.install()
    before = factorization_count()
    tic = probe.now()
    try:
        cfg = scenarios.load_config(str(config_path))
        art = scenarios.run_scenario(cfg, str(output_root), horizon_scale=work.horizon_scale)
        wall = probe.now() - tic
    finally:
        spans.restore(undo)
    steps = probe.main_loop_steps()
    speed = probe.speed()
    final = art.final_state
    layers = None
    if recorder is not None:
        layers = layer_row(recorder.calls[-1], art, factorization_count() - before)
    return Repetition(
        wall_s=wall * speed,
        raw_wall_s=wall,
        speed=speed,
        step_s=steps,
        steps_per_s=len(steps) / steps.sum(),
        digest=hashlib.sha256(final.Phi.tobytes() + final.C.tobytes()).hexdigest(),
        layers=layers,
        artifacts=art,
        last_states=tuple(probe.last_states),
    )


def layer_row(call_spans, art, factorizations) -> dict:
    """Per-layer figures of one traced repetition."""
    cfg = art.config
    row = spans.layer_metrics(call_spans, cfg.scheme.order == "2sbdf", len(cfg.grid_spec.counts))
    row["linalg.factorize_count"] = factorizations
    exported = Path(art.output_dir).glob("snapshot_t*")
    row["scenarios.export_mb"] = sum(p.stat().st_size for p in exported) / 2**20
    k_c = [r.k_c for r in art.reports] if art.reports else [1]  # rectangles: one c solve
    row["holes.k_c_mean"] = statistics.fmean(k_c)
    row["holes.k_c_max"] = max(k_c)
    return row


def end_to_end(records, setups) -> dict:
    # Every repetition runs the same steps: take each step's median time over
    # the repetitions, then percentiles over the steps.
    steps_ms = 1e3 * np.median([r.step_s for r in records], axis=0)
    return {
        "wall_s": statistics.median(r.wall_s for r in records),
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(r.steps_per_s for r in records),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        # ru_maxrss is in KiB on Linux; MB here means 2**20 bytes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records) -> dict:
    """Mean per traced repetition of each layer figure, plus the tracing overhead.

    The first repetition is left out of the overhead: it is the first in the
    process and runs cold.
    """
    traced = [r for r in records if r.layers is not None]
    plain = [r for r in records[1:] if r.layers is None]
    out = {name: statistics.fmean(r.layers[name] for r in traced) for name in traced[0].layers}
    wall_traced = statistics.median(r.wall_s for r in traced)
    wall_plain = statistics.median(r.wall_s for r in plain)
    out["trace.wall_s"] = wall_traced
    out["trace.overhead_s"] = wall_traced - wall_plain
    out["trace.overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain
    return out


LAYER_UNITS = {
    "_ms": "ms",
    "_s": "s",
    "_mb": "MB",
    "_pct": "%",
}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def correctness(name, records, seed) -> list:
    """(check name, ok, detail) for every check of the workload."""
    from pitcorr import grid as grid_mod
    from pitcorr import rect
    from pitcorr.scenarios import read_snapshot

    first, last = records[0].artifacts, records[-1].artifacts
    cfg = first.config
    results = []

    finite = all(
        np.isfinite(s.Phi).all() and np.isfinite(s.C).all()
        for art in (first, last)
        for s in [art.final_state] + [st for _, st in art.snapshots]
    )
    results.append(("finite", finite, "final states and snapshots"))
    identical = len({r.digest for r in records}) == 1
    results.append(("deterministic", identical,
                    f"final states of {len(records)} repetitions bit-identical"))

    grid = grid_mod.build_grid(cfg.grid_spec)
    ops = rect.build_rect_operators(
        grid, cfg.scheme.scheme() if cfg.has_holes else cfg.scheme, cfg.params
    )
    rng = np.random.default_rng(seed)
    for field in ("phi", "c"):
        ok, detail = checks.operator_oracle(getattr(ops, field), cfg, rng)
        results.append((f"operator_oracle_{field}", ok, detail))

    horizon = first.timing["horizon_s"]
    if cfg.has_holes:
        theta = grid_mod.rasterize_mask(grid, tuple(s.snapped(grid) for s in cfg.shapes)).theta
        history = 2 if cfg.scheme.order == "euler" else 3
        ok, detail = checks.last_step_direct(cfg, theta, records[-1].last_states[-history:])
        results.append(("last_step_direct_solve", ok, detail))
    if name == "pit2d-euler":
        ok, detail = checks.theta_control(
            first.reports, theta, first.final_state, cfg.scheme.eps2, horizon
        )
        results.append(("theta_control", ok, detail))
    if name == "polish2d-2sbdf":
        ok, detail = checks.polishing(first.snapshots, grid.axes[1])
        results.append(("edge_smoothing", ok, detail))
    if name == "wire3d-2sbdf":
        ok, detail = checks.front_law(first.front_series)
        results.append(("sqrt_t_front", ok, detail))
        depth = checks.front_probe(first.final_state, cfg)
        recorded = first.front_series[-1][1]
        results.append(("front_probe", abs(depth - recorded) <= 1e-9 * cfg.grid_spec.extents[2],
                        f"final depth {depth * 1e6:.4f} um, recorded {recorded * 1e6:.4f} um"))
        written = [read_snapshot(str(p))[0] for p in Path(last.output_dir).glob("*.f64")]
        on_disk = {s.step_index: s for s in written}
        same = len(on_disk) == len(last.snapshots) and all(
            state.step_index in on_disk
            and on_disk[state.step_index].Phi.tobytes() == state.Phi.tobytes()
            and on_disk[state.step_index].C.tobytes() == state.C.tobytes()
            for _, state in last.snapshots
        )
        results.append(("raw_roundtrip", same,
                        f"{len(written)} raw-f64 snapshots read back bit for bit"))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pitcorr" / "__init__.py").is_file():
        print(f"error: no pitcorr sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from pitcorr import linalg, scenarios

    work = WORKLOADS[args.workload]
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    config_path = write_config(work, scenarios, out_dir)
    output_root = out_dir / "runs"

    probe = Probe()
    # Traced mode alternates untraced and traced repetitions, starting
    # untraced, and needs one of each after the first.
    recorder = spans.SpanRecorder(probe.now) if args.trace else None
    least = 3 if recorder is not None else 2
    undo = probe.install()
    records = []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        setups = [] if recorder is not None else measure_setup(config_path, work, probe)
        loop_start = time.perf_counter()
        while True:
            traced = recorder is not None and attempted % 2 == 1
            attempted += 1
            try:
                records.append(run_once(config_path, work, output_root, probe,
                                        linalg.factorization_count,
                                        recorder if traced else None))
            except Exception as exc:  # a failed repetition counts; the loop goes on
                failed += 1
                print(f"repetition {attempted} failed: {exc!r}", file=sys.stderr)
            if len(records) >= 3:
                records[-2].artifacts, records[-2].last_states = None, ()
            now = time.perf_counter()
            if attempted >= least and now + (now - loop_start) / attempted > start + args.seconds:
                break
    finally:
        spans.restore(undo)
    measured = time.perf_counter() - start
    if not records:
        print("error: every repetition failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(records)
        units = {k: layer_unit(k) for k in metrics}
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "runs": recorder.calls}, fh)
    else:
        metrics = end_to_end(records, setups)
        units = END_TO_END_UNITS

    results = correctness(args.workload, records, args.seed)
    correct = all(ok for _, ok, _ in results)

    print(f"workload {args.workload}: scenario {work.scenario} at horizon scale "
          f"{work.horizon_scale}, {attempted} repetitions in {measured:.1f} s, {failed} failed, "
          f"trace {args.trace}, seed {args.seed}")
    print("  repetition walls, as measured [s]: " + " ".join(
        f"{r.raw_wall_s:.3f}{'*' if r.layers is not None else ''}" for r in records))
    print("  host speed against the reference: " + " ".join(f"{r.speed:.3f}" for r in records))
    for check, ok, detail in results:
        print(f"  check {check}: {'ok' if ok else 'FAILED'} ({detail})")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
