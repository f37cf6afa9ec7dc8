"""Acceptance gate: every release criterion runs here at its stated tolerance.

Each test prints one `[ACCEPTANCE] criterion NN ...: PASS/FAIL` line (bypassing
output capture) and then asserts, so a full run yields a ten-line scoreboard.
Several criteria replay full benchmark horizons; the module takes some minutes.
"""

import json
import sys
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp

from pitcorr.analysis import (
    BoundQuery,
    actual_spectral_radius,
    bound_spectral_radius,
    error_norms,
    fit_loglog_slope,
)
from pitcorr.grid import (
    Circle,
    GridSpec,
    axis_counts_for_spacing,
    build_correction_matrices,
    build_grid,
    rasterize_mask,
)
from pitcorr.holes import IterSchemeConfig, build_hole_operators
from pitcorr.linalg import build_operator, kronecker_sum, laplacian_1d
from pitcorr.model import CorrosionParameters, DEFAULT_FIXED_W
from pitcorr.rect import (
    BoundaryData,
    FieldPair,
    SchemeConfig,
    build_rect_operators,
    iteration_shifts,
    run_rect,
    step_imex_euler_rect,
)
from pitcorr.scenarios import builtin_scenarios, parse_config, run_scenario, scaling_report

from test_rect import dense_2sbdf_step, dense_euler_step

NN = ("neumann", "neumann")
DD = ("dirichlet", "dirichlet")
W = DEFAULT_FIXED_W
PARAMS = CorrosionParameters()


def _report(capfd, num: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] criterion {num:02d} {title}: {status}  {detail}".rstrip()
    with capfd.disabled():
        print(line, file=sys.__stdout__, flush=True)


def _linear_r2(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return slope, 1.0 - ss_res / ss_tot


def _raw(name):
    return json.loads(json.dumps(builtin_scenarios()[name]))


def test_criterion_01_sylvester_oracle(capfd):
    kinds = [DD[0], NN[0], ("dirichlet", "neumann"), ("neumann", "dirichlet")]
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        mx, my = rng.integers(2, 9, size=2)
        laps = [
            laplacian_1d(kinds[rng.integers(len(kinds))], m, 0.1 + 0.4 * rng.random())
            for m in (mx, my)
        ]
        a = 1.0 + 2.0 * rng.random()
        b = -(0.01 + rng.random())
        op = build_operator(a, b, laps)
        Y = rng.standard_normal((mx, my))
        X = op.solve(Y)
        A = a * sp.identity(mx * my) + b * kronecker_sum(laps)
        Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F")).reshape(mx, my, order="F")
        worst = max(worst, np.abs(X - Xd).max() / max(np.abs(Xd).max(), 1e-30))
    # 3D analogue
    laps3 = [
        laplacian_1d(kinds[k], m, 0.2 + 0.1 * k)
        for k, m in zip((0, 1, 2), (3, 4, 5))
    ]
    op3 = build_operator(2.0, -0.3, laps3)
    Y3 = rng.standard_normal((3, 4, 5))
    X3 = op3.solve(Y3)
    A3 = 2.0 * sp.identity(60) - 0.3 * kronecker_sum(laps3)
    X3d = np.linalg.solve(A3.toarray(), Y3.ravel(order="F")).reshape(3, 4, 5, order="F")
    worst3 = np.abs(X3 - X3d).max() / np.abs(X3d).max()

    ok = worst <= 1e-10 and worst3 <= 1e-10
    _report(capfd, 1, "Sylvester solve oracle", ok,
            f"2D worst rel err {worst:.2e}, 3D {worst3:.2e} (tol 1e-10)")
    assert ok


def test_criterion_02_scheme_vs_vector_form(capfd):
    rng = np.random.default_rng(2)
    errs = {}

    g = build_grid(GridSpec((6e-6, 5e-6), (6, 5), (NN, DD)))
    bdata = BoundaryData(((0.0, 0.0), (0.0, 0.2)), ((0.0, 0.0), (0.0, 0.1)))
    state = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts))
    cfg_e = SchemeConfig("euler", 1e-3, W)
    out = step_imex_euler_rect(state, build_rect_operators(g, cfg_e, PARAMS, bdata))
    phi_ref, c_ref = dense_euler_step(state, g, cfg_e, PARAMS, bdata)
    errs["euler"] = max(
        np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max(),
        np.abs(out.C - c_ref).max() / np.abs(c_ref).max(),
    )

    from pitcorr.rect import step_imex_2sbdf_rect

    cfg_2 = SchemeConfig("2sbdf", 2e-3, W)
    prev = state
    curr = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts),
                     t=cfg_2.dt, step_index=1)
    out2 = step_imex_2sbdf_rect(prev, curr, build_rect_operators(g, cfg_2, PARAMS, bdata))
    phi_ref, c_ref = dense_2sbdf_step(prev, curr, g, cfg_2, PARAMS, bdata)
    errs["2sbdf"] = max(
        np.abs(out2.Phi - phi_ref).max() / np.abs(phi_ref).max(),
        np.abs(out2.C - c_ref).max() / np.abs(c_ref).max(),
    )

    # Per-iteration maps of the masked-domain schemes on an 8x8 grid.
    gh = build_grid(GridSpec((7e-6, 7e-6), (8, 8), (NN, NN)))
    mask = rasterize_mask(gh, (Circle((3e-6, 3e-6), 1.5e-6),))
    corr = build_correction_matrices(gh, mask)
    M = kronecker_sum(gh.laplacians)
    n = M.shape[0]
    for variant in ("imex-i", "imex-e"):
        cfg = IterSchemeConfig(variant, "euler", 1e-3, W)
        ops = build_hole_operators(gh, cfg, PARAMS, mask)
        N = corr.N12 if variant == "imex-i" else corr.N1
        base = rng.uniform(0, 1, gh.counts)
        u = rng.uniform(0, 1, gh.counts)
        dt = cfg.dt
        rhs = base - dt * PARAMS.D_phi * (
            (N @ u.ravel(order="F")).reshape(gh.counts, order="F")
        )
        nxt = ops.phi.solve(ops.hole.N.subtract(base, u, dt * PARAMS.D_phi))
        A = (1.0 + W * dt) * sp.identity(n) - dt * PARAMS.D_phi * M
        ref = sp.linalg.spsolve(A.tocsc(), rhs.ravel(order="F")).reshape(
            gh.counts, order="F"
        )
        errs[variant] = np.abs(nxt - ref).max() / np.abs(ref).max()

    worst = max(errs.values())
    ok = worst <= 1e-10
    _report(capfd, 2, "stepping vs assembled vector form", ok,
            f"worst rel err {worst:.2e} across {sorted(errs)} (tol 1e-10)")
    assert ok


def test_criterion_03_temporal_order(capfd):
    g = build_grid(GridSpec((25e-6, 50e-6), (26, 49), (NN, DD)))
    bdata = BoundaryData(((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))
    horizon = 0.5

    def final(order, dt):
        s0 = FieldPair(np.ones(g.counts), np.ones(g.counts))
        return run_rect(s0, SchemeConfig(order, dt, W), PARAMS, g, bdata, horizon)

    slopes = {}
    for order, dts, ref_dt in (
        ("euler", [4e-3, 2e-3, 1e-3], 1.25e-4),
        ("2sbdf", [2e-2, 1e-2, 5e-3], 2.5e-4),
    ):
        ref = final(order, ref_dt)
        errs = [max(error_norms(final(order, dt), ref)) for dt in dts]
        slopes[order], _ = fit_loglog_slope(dts, errs)

    ok = 0.8 <= slopes["euler"] <= 1.2 and 1.7 <= slopes["2sbdf"] <= 2.3
    _report(capfd, 3, "temporal self-convergence order", ok,
            f"first-order slope {slopes['euler']:.2f} (in [0.8,1.2]), "
            f"second-order slope {slopes['2sbdf']:.2f} (in [1.7,2.3])")
    assert ok


@pytest.mark.slow
def test_criterion_04_sqrt_t_front_law(capfd):
    cfg = parse_config(_raw("pencil2d"))
    artifacts = run_scenario(cfg)
    pts = [(t, d) for t, d in artifacts.front_series
           if np.isfinite(d) and 20.0 <= t <= 225.0]
    t = np.array([p[0] for p in pts])
    d = np.array([p[1] for p in pts])
    slope, r2 = _linear_r2(t, d**2)
    ok = r2 >= 0.99 and slope > 0.0 and len(pts) > 50
    _report(capfd, 4, "sqrt(t) corrosion front law", ok,
            f"depth^2 vs t fit over [20,225] s: R^2 = {r2:.5f} (>= 0.99), "
            f"{len(pts)} samples")
    assert ok


@pytest.mark.slow
def test_criterion_05_theta_error_control(capfd):
    # The paper's inner loop; the builtin scenario solves each step exactly.
    raw = _raw("circular_pit")
    raw["scheme"]["stop_mode"] = "full"
    cfg = parse_config(raw)
    artifacts = run_scenario(cfg)
    reports = artifacts.reports
    final = reports[-1]
    horizon = cfg.horizon
    eps2 = cfg.scheme.eps2
    budget_ok = all(r.max_c_theta <= 1.5 * eps2 * r.t / horizon for r in reports)
    ok = final.max_phi_theta <= 1e-10 and final.max_c_theta <= 1e-3 and budget_ok
    _report(capfd, 5, "hole-region error control", ok,
            f"final max|phi| = {final.max_phi_theta:.2e} (<= 1e-10), "
            f"final max|c| = {final.max_c_theta:.2e} (<= 1e-3), "
            f"per-step budget {'held' if budget_ok else 'violated'}")
    assert ok


def test_criterion_06_spectral_radius_validation(capfd):
    # Reference data points on the 200x100 um pit domain at h = 1 um.
    g = build_grid(GridSpec((200e-6, 100e-6), (201, 101), (NN, NN)))
    mask = rasterize_mask(g, (Circle((100e-6, 50e-6), 1.5e-6),))
    corr = build_correction_matrices(g, mask)
    alpha, beta = iteration_shifts("euler", "c", 1e-5, W, PARAMS)

    actual_i = actual_spectral_radius(alpha, beta, g, corr.N12)
    actual_e = actual_spectral_radius(alpha, beta, g, corr.N1)

    def q(variant, dt, h, geometry="generic"):
        return BoundQuery(variant=variant, order="euler", bc_outer="neumann",
                          equation="c", dx=h, dy=h, dt=dt, w=W, params=PARAMS,
                          geometry=geometry)

    bound_i = bound_spectral_radius(q("imex-i", 1e-5, 1e-6))
    bound_e = bound_spectral_radius(q("imex-e", 1e-5, 1e-6, "circle"))

    anchors_ok = (
        abs(actual_i - 5.59e-2) <= 0.05 * 5.59e-2
        and abs(bound_i - 6.92e-2) <= 1e-4
        and abs(actual_e - 1.354e-4) <= 0.05 * 1.354e-4
        and abs(bound_e - 1.686e-3) <= 1e-5
    )

    # Dominance sweep: 6x6 (dt, h) grid, both variants, admissible points only.
    h_values = [1e-6, 0.5e-6, 0.25e-6, 0.2e-6, 0.125e-6, 0.1e-6]
    dts = np.logspace(-6.0, -3.0, 6)
    extent = 50e-6
    dominance_ok = True
    checked = 0
    for h in h_values:
        count = axis_counts_for_spacing(extent, h, NN)
        gs = build_grid(GridSpec((extent, extent), (count, count), (NN, NN)))
        pit = rasterize_mask(gs, (Circle((extent / 2, extent / 2), 1.5 * h),))
        cs = build_correction_matrices(gs, pit)
        for dt in dts:
            for variant, N, geometry in (
                ("imex-i", cs.N12, "generic"),
                ("imex-e", cs.N1, "circle"),
            ):
                bound = bound_spectral_radius(q(variant, float(dt), h, geometry))
                if bound is None:
                    continue
                a, b = iteration_shifts("euler", "c", float(dt), W, PARAMS)
                actual = actual_spectral_radius(a, b, gs, N)
                checked += 1
                if actual > bound + 1e-12:
                    dominance_ok = False

    ok = anchors_ok and dominance_ok and checked >= 30
    _report(capfd, 6, "iteration spectral radii", ok,
            f"actuals {actual_i:.4e}/{actual_e:.4e}, bounds {bound_i:.4e}/"
            f"{bound_e:.4e}; dominance held on {checked} admissible sweep points")
    assert ok


@pytest.mark.slow
def test_criterion_07_iteration_count_behavior(capfd):
    # Long run: second-order explicit-variant c-iterations settle below 15.
    raw = _raw("circular_pit")
    raw["scheme"].update(order="2sbdf", dt=6e-3, variant="imex-e",
                         eps=[1e-4, 1e-3, 3e-8], stop_mode="full")
    raw["horizon"] = 16666 * 6e-3
    raw["snapshot_times"] = [0.0]
    artifacts = run_scenario(parse_config(raw))
    late = [r.k_c for r in artifacts.reports if r.t > 10.0]
    late_ok = len(late) > 0 and max(late) < 15

    # Variant comparison at identical steps on a shared shortened horizon.
    means = {}
    for variant in ("imex-e", "imex-i"):
        raw = _raw("circular_pit")
        raw["scheme"].update(order="2sbdf", dt=6e-3, variant=variant,
                             eps=[1e-4, 1e-3, 3e-8], stop_mode="full")
        raw["horizon"] = 3.0
        raw["snapshot_times"] = [0.0]
        art = run_scenario(parse_config(raw))
        means[variant] = float(np.mean([r.k_c for r in art.reports]))
    compare_ok = means["imex-e"] <= means["imex-i"]

    ok = late_ok and compare_ok
    _report(capfd, 7, "inner iteration counts", ok,
            f"max c-iterations for t > 10 s: {max(late) if late else 'n/a'} (< 15); "
            f"mean c-iterations explicit {means['imex-e']:.2f} <= "
            f"implicit {means['imex-i']:.2f}")
    assert ok


@pytest.mark.slow
def test_criterion_08_cost_scaling(capfd):
    cfg = parse_config(_raw("pencil2d"))
    # Each dt point is the median wall time of three interleaved sweeps, so
    # that one slow stretch of a shared host does not move a point alone.
    sweeps = [scaling_report(cfg, "dt", [0.5, 1.0, 2.0], horizon_scale=0.02)
              for _ in range(3)]
    dts = [dt for dt, _ in sweeps[0]["points"]]
    walls = np.median([[wall for _, wall in s["points"]] for s in sweeps], axis=0)
    dt_slope, _ = fit_loglog_slope(dts, walls)
    rep_h = scaling_report(cfg, "h", [2.0, 4.0, 8.0], horizon_scale=0.002)
    ok = -1.2 <= dt_slope <= -0.8 and -3.5 <= rep_h["slope"] <= -2.5
    _report(capfd, 8, "cost scaling slopes", ok,
            f"wall time vs dt slope {dt_slope:.2f} (in [-1.2,-0.8]), "
            f"vs h slope {rep_h['slope']:.2f} (in [-3.5,-2.5])")
    assert ok


def test_criterion_09_equilibrium_and_determinism(capfd):
    g = build_grid(GridSpec((8e-6, 8e-6), (9, 9), (NN, NN)))
    cfg = SchemeConfig("euler", 1e-3, W)
    ops = build_rect_operators(g, cfg, PARAMS, BoundaryData())
    state = FieldPair(np.ones(g.counts), np.ones(g.counts))
    drift = 0.0
    for _ in range(1000):
        nxt = step_imex_euler_rect(state, ops)
        drift = max(drift, np.abs(nxt.Phi - state.Phi).max(),
                    np.abs(nxt.C - state.C).max())
        state = nxt
    drift_ok = drift <= 1e-13

    raw = _raw("circular_pit")
    raw["outputs"] = {"formats": ["raw-f64"]}
    cfg_pit = parse_config(raw)
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as root:
            art = run_scenario(cfg_pit, root, horizon_scale=0.001)
            path = art.output_dir + "/snapshot_t0_1.f64"
            with open(path, "rb") as fh:
                blobs.append(fh.read())
    identical = blobs[0] == blobs[1]

    ok = drift_ok and identical
    _report(capfd, 9, "equilibrium drift and determinism", ok,
            f"max per-step drift over 1000 steps {drift:.2e} (<= 1e-13); "
            f"repeat runs bit-identical: {identical}")
    assert ok


def test_criterion_10_3d_smoke(capfd):
    cfg = parse_config(_raw("pencil3d"))
    artifacts = run_scenario(cfg, horizon_scale=0.05)
    pts = [(t, d) for t, d in artifacts.front_series
           if np.isfinite(d) and t >= 1.0]
    t = np.array([p[0] for p in pts])
    d = np.array([p[1] for p in pts])
    slope, r2 = _linear_r2(t, d**2)
    ok = r2 >= 0.95 and slope > 0.0 and artifacts.final_state.t > 0.0
    _report(capfd, 10, "3D smoke run", ok,
            f"completed {artifacts.timing['n_steps']} steps; "
            f"depth^2 vs t R^2 = {r2:.4f} (>= 0.95)")
    assert ok
