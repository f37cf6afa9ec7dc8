"""Runs under one and under two BLAS threads, and the thread record of a run.

Each run is a CLI subprocess: OpenBLAS reads OPENBLAS_NUM_THREADS once, when
it loads.  A thread count must repeat its results bit for bit, and the two
counts must agree within the golden test's 1e-12 max-abs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pitcorr
from pitcorr.scenarios import THREAD_VARIABLES

SRC = str(Path(pitcorr.__file__).resolve().parents[1])
TOL = 1e-12  # tests/test_stepper_golden.py


def _run(scenario, scale, threads, out):
    """The output directory of `scenario` run at `scale` on `threads` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "pitcorr.cli", "run", scenario,
                    "--horizon-scale", str(scale), "--output", str(out)],
                   env=env, check=True, capture_output=True)
    return out / scenario


def _results(run_dir):
    """The values of each CSV of a run, iterations.csv without its wall times."""
    out = {}
    for path in sorted(run_dir.glob("*.csv")):
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        out[path.name] = values[:, :-1] if path.name == "iterations.csv" else values
    return out


@pytest.mark.slow
@pytest.mark.parametrize("scenario, scale", [("circular_pit", 0.01), ("pencil3d", 0.01)])
def test_thread_counts_repeat_and_agree(scenario, scale, tmp_path):
    results = {}
    for threads in (1, 2):
        first, again = (_results(_run(scenario, scale, threads, tmp_path / f"{threads}-{k}"))
                        for k in range(2))
        assert first.keys() == again.keys() and "snapshot_t0.csv" in first
        for name in first:  # front.csv holds NaN before the front forms
            assert np.array_equal(first[name], again[name], equal_nan=True), (threads, name)
        results[threads] = first
    for name, values in results[1].items():
        np.testing.assert_allclose(results[2][name], values, rtol=0, atol=TOL, err_msg=name)


def test_timing_records_threads(tmp_path):
    run_dir = _run("pencil2d", 0.001, 1, tmp_path)
    threads = json.loads((run_dir / "timing.json").read_text())["threads"]
    assert threads.keys() == {"env", "blas"}
    assert threads["env"].keys() == set(THREAD_VARIABLES)
    assert threads["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(threads["blas"]) <= {"numpy", "scipy"}
    assert all(count == 1 for count in threads["blas"].values())
    # A numpy built on the OpenBLAS that its wheel bundles reports its count.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert "numpy" in threads["blas"] or blas != "scipy-openblas"
