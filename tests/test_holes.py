import collections
import gc
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from pitcorr import rect as rect_module
from pitcorr import scenarios as scenarios_module
from pitcorr.grid import (
    Circle,
    CylinderSegment,
    DomainMask,
    GridSpec,
    build_correction_matrices,
    build_grid,
    rasterize_mask,
)
from pitcorr.holes import (
    ConvergenceError,
    IterSchemeConfig,
    build_hole_operators,
    check_stop_criteria,
    run_holes,
    step_iter_2sbdf,
    step_iter_euler,
)
from pitcorr.linalg import (
    Capacitance,
    SylvesterOperator,
    factorization_count,
    kronecker_sum,
    sparse_rows,
)
from pitcorr.model import CorrosionParameters, reaction_f1, reaction_f2
from pitcorr.rect import (
    BoundaryData,
    FieldPair,
    InstabilityError,
    SchemeConfig,
    bootstrap_2sbdf,
    bootstrap_substeps,
    boundary_contribution,
    build_rect_operators,
    run_rect,
    step_imex_euler_rect,
)
from pitcorr.scenarios import builtin_scenarios, load_config, parse_config, run_scenario

NN = ("neumann", "neumann")
W = 4.43e8


@pytest.fixture
def params():
    return CorrosionParameters()


@pytest.fixture
def pit_setup(params):
    g = build_grid(GridSpec((20e-6, 20e-6), (21, 21), (NN, NN)))
    mask = rasterize_mask(g, (Circle((10e-6, 10e-6), 1.5e-6),))
    corr = build_correction_matrices(g, mask)
    return g, mask, corr


def pit_state(g, mask, rng=None):
    rng = rng or np.random.default_rng(0)
    phi = rng.uniform(0.4, 1.0, g.counts)
    c = rng.uniform(0.2, 1.0, g.counts)
    phi[mask.theta] = 0.0
    c[mask.theta] = 0.0
    return FieldPair(phi, c)


def iter_cfg(variant="imex-i", order="euler", dt=2e-3, **kw):
    defaults = dict(eps1=1e-4, eps2=1e-3, eps3=1e-8)
    defaults.update(kw)
    return IterSchemeConfig(variant, order, dt, W, **defaults)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            iter_cfg(variant="imex-x")
        with pytest.raises(ValueError):
            iter_cfg(eps1=-1.0)
        with pytest.raises(ValueError):
            iter_cfg(stop_mode="lenient")
        with pytest.raises(ValueError):
            iter_cfg(max_iters=0)
        for kw in (dict(eps1=np.nan), dict(eps1=np.inf), dict(eps2=np.nan),
                   dict(eps2=np.inf), dict(eps3=np.nan), dict(eps3=np.inf),
                   dict(max_iters=2.7), dict(max_iters=True), dict(max_iters="5")):
            with pytest.raises(ValueError):
                iter_cfg(**kw)

    def test_accepts_exact(self):
        assert iter_cfg(stop_mode="exact").stop_mode == "exact"


class TestStopCriteria:
    def test_identical_iterates_stop(self):
        mask = DomainMask(np.zeros((4, 4), dtype=bool))
        u = np.ones((4, 4))
        stop, resid = check_stop_criteria(u, u.copy(), mask, 1e-4, 1e-3, 1e-8)
        assert stop and resid == 0.0

    def test_large_omega_change_continues(self):
        theta = np.zeros((4, 4), dtype=bool)
        theta[1, 1] = True
        mask = DomainMask(theta)
        u0 = np.zeros((4, 4))
        u1 = np.full((4, 4), 2e-4)
        stop, resid = check_stop_criteria(u0, u1, mask, 1e-4, 1e-3, 1e-8)
        assert not stop and resid == pytest.approx(2e-4)

    def test_theta_level_over_budget_continues_until_stagnant(self):
        theta = np.zeros((4, 4), dtype=bool)
        theta[1, 1] = True
        mask = DomainMask(theta)
        u0 = np.zeros((4, 4))
        u1 = np.zeros((4, 4))
        u1[1, 1] = 0.5  # large hole value, small omega change
        stop, _ = check_stop_criteria(u0, u1, mask, 1e-4, 1e-3, 1e-8)
        assert not stop  # hole value moved by 0.5 >= eps3
        stop, _ = check_stop_criteria(u1, u1.copy(), mask, 1e-4, 1e-3, 1e-8)
        assert stop  # stagnated on the hole

    @staticmethod
    def boolean_rule(u_prev, u_next, theta, eps1, eps2_budget, eps3):
        """The rule on boolean masks, as it read before the mask's flat indices."""
        def masked_max(delta, region):
            return float(np.abs(delta[region]).max()) if region.any() else 0.0

        delta = u_next - u_prev
        resid = masked_max(delta, ~theta)
        if resid >= eps1:
            return False, resid
        return (masked_max(u_next, theta) < eps2_budget
                or masked_max(delta, theta) < eps3), resid

    @pytest.mark.parametrize("shape", [(7, 6), (4, 5, 3)])
    def test_flat_indices_give_the_boolean_rule(self, shape):
        # Random fields and masks (empty and full Theta included) with NaN
        # on either region, and steps around each tolerance: the same
        # (stop, resid), bit for bit, and nothing written to the mask.
        rng = np.random.default_rng(len(shape))
        outcomes = set()
        for trial in range(300):
            theta = rng.random(shape) < rng.choice([0.0, 0.2, 0.6, 1.0])
            mask = DomainMask(theta.copy())
            u0 = rng.standard_normal(shape)
            u1 = u0 + rng.choice([1e-9, 1e-6, 1e-4, 1e-2]) * rng.standard_normal(shape)
            u1[theta] = rng.choice([0.0, 1e-9, 1e-4]) * rng.standard_normal(theta.sum())
            if trial % 4 == 0:
                u1.flat[rng.integers(u1.size)] = np.nan
            eps = (1e-4, rng.choice([1e-10, 1e-3]), 1e-8)
            got = check_stop_criteria(u0, u1, mask, *eps)
            want = self.boolean_rule(u0, u1, theta, *eps)
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
            assert np.array_equal(mask.theta, theta)
            outcomes.add((got[0], bool(np.isnan(got[1]))))
        assert outcomes >= {(True, False), (False, False), (False, True), (True, True)}

    def test_theta_within_budget_stops(self):
        theta = np.zeros((4, 4), dtype=bool)
        theta[1, 1] = True
        mask = DomainMask(theta)
        u0 = np.zeros((4, 4))
        u1 = np.zeros((4, 4))
        u1[1, 1] = 9e-4  # below eps2 budget, still moving faster than eps3
        stop, _ = check_stop_criteria(u0, u1, mask, 1e-4, 1e-3, 1e-8)
        assert stop


class TestOperators:
    def test_imex_i_has_no_known_level_correction(self, params):
        cfg = load_config("circular_pit")
        g = build_grid(cfg.grid_spec)
        mask = rasterize_mask(g, tuple(s.snapped(g) for s in cfg.shapes))
        corr = build_correction_matrices(g, mask)
        ops = build_hole_operators(g, iter_cfg(variant="imex-i"), params, mask)
        assert ops.hole.G is None
        assert ops.hole.N.block.nnz == corr.N12.nnz

    @pytest.mark.parametrize("stop_mode", ["full", "exact"])
    @pytest.mark.parametrize("variant", ["imex-i", "imex-e"])
    def test_hole_rows_are_the_mask_corrections(self, pit_setup, params, variant, stop_mode):
        # The hole builds N1 and N2 from the mask alone: its N, G and N12 are
        # the nonzero rows of the mask's corrections.
        g, mask, _ = pit_setup
        cfg = iter_cfg(variant=variant, order="2sbdf", dt=6e-3, stop_mode=stop_mode)
        hole = build_hole_operators(g, cfg, params, mask).hole
        corr = build_correction_matrices(g, mask)
        if variant == "imex-i":
            expected = dict(N=corr.N12, G=None, N12=corr.N12)
        else:
            expected = dict(N=corr.N1, G=corr.N2, N12=corr.N12)
        for name, A in expected.items():
            got = getattr(hole, name)
            if A is None:
                assert got is None
                continue
            want = sparse_rows(A, g.counts)
            np.testing.assert_array_equal(got.rows, want.rows)
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(got.block, attr),
                                              getattr(want.block, attr))
            assert got.block.shape == want.block.shape
        if variant == "imex-i":
            assert hole.N is hole.N12

    def test_cavity_operators_are_rect_operators_with_a_hole(self, pit_setup, params):
        g, mask, _ = pit_setup
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=6e-3)
        ops = build_hole_operators(g, cfg, params, mask, t_end=0.5)
        assert isinstance(ops, rect_module.RectOperators)
        assert ops.cfg == cfg.scheme() and ops.hole.cfg is cfg
        assert ops.start.hole is ops.hole and ops.start.cfg.order == "euler"
        assert ops.hole.t_end == 0.5
        empty = DomainMask(np.zeros(g.counts, dtype=bool))
        bare = build_hole_operators(g, cfg, params, empty)
        assert bare.hole is None and bare.start.hole is None

        # The budget eps2 * t / t_end stops the c loop (no stagnation stop with
        # eps3 = 1e-30): a larger t_end makes it smaller and the loop longer.
        state = pit_state(g, mask)
        euler = iter_cfg(variant="imex-e", eps3=1e-30)
        k_c = []
        for t_end in (euler.dt, 1e3 * euler.dt):
            ops = build_hole_operators(g, euler, params, mask, t_end=t_end)
            _, rep = step_iter_euler(state, ops)
            assert rep.max_c_theta < euler.eps2 * rep.t / t_end
            k_c.append(rep.k_c)
        assert k_c[0] < k_c[1]

    def test_2sbdf_run_factorizes_each_axis_once(self, pit_setup, params):
        g, mask, _ = pit_setup
        before = factorization_count()
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=6e-3)
        run_holes(pit_state(g, mask), cfg, params, g, mask,
                  BoundaryData(), 3 * cfg.dt)
        assert factorization_count() - before == g.ndim

    def test_exact_builds_capacitances_with_the_operators(self, pit_setup, params):
        g, mask, _ = pit_setup
        loop_cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=6e-3)
        loop = build_hole_operators(g, loop_cfg, params, mask)
        solvers = [loop.phi, loop.c, loop.start.phi, loop.start.c]
        assert all(op.capacitance is None for op in solvers)

        before = factorization_count()
        ops = build_hole_operators(g, replace(loop_cfg, stop_mode="exact"), params, mask)
        assert factorization_count() == before
        solvers = [ops.phi, ops.c, ops.start.phi, ops.start.c]
        caps = [op.capacitance for op in solvers]
        assert all(isinstance(cap, Capacitance) for cap in caps)
        # Each solver holds the capacitance of its own shift, and all four
        # share the images of N.
        for op in solvers:
            assert op.capacitance.alpha == -op.b and op.capacitance.Upsilon is op.Upsilon
        assert len({cap.alpha for cap in caps}) == 4
        assert all(cap.images is caps[0].images for cap in caps)
        # The builds share scratch arrays; the later ones leave the earlier
        # capacitances as a build of their own makes them.
        Y = np.random.default_rng(2).standard_normal(g.counts)
        alone = loop.c.corrected(caps[0].images)
        np.testing.assert_array_equal(ops.c.solve(Y), alone.solve(Y))


class TestTrivialMask:
    def test_empty_theta_delegates_to_rect(self, params):
        g = build_grid(GridSpec((8e-6, 8e-6), (9, 9), (NN, NN)))
        mask = DomainMask(np.zeros(g.counts, dtype=bool))
        bdata = BoundaryData()
        rng = np.random.default_rng(1)
        state = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts))

        cfg = iter_cfg()
        ops = build_hole_operators(g, cfg, params, mask, bdata)
        out, rep = step_iter_euler(state, ops)
        assert ops.hole is None
        ref = step_imex_euler_rect(state, build_rect_operators(g, cfg.scheme(), params, bdata))
        np.testing.assert_array_equal(out.Phi, ref.Phi)
        np.testing.assert_array_equal(out.C, ref.C)
        assert rep.k_phi == 1 and rep.k_c == 1

    def test_empty_theta_run_matches_rect_run(self, params):
        g = build_grid(GridSpec((8e-6, 8e-6), (9, 9), (NN, NN)))
        mask = DomainMask(np.zeros(g.counts, dtype=bool))
        bdata = BoundaryData()
        rng = np.random.default_rng(2)
        state = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts))

        cfg = iter_cfg(order="2sbdf", dt=2.0)
        final, reports = run_holes(
            state, cfg, params, g, mask, bdata, 10.0
        )
        ref = run_rect(state, cfg.scheme(), params, g, bdata, 10.0)
        np.testing.assert_array_equal(final.Phi, ref.Phi)
        np.testing.assert_array_equal(final.C, ref.C)
        assert len(reports) == 4


def converged_dense_euler(state, g, mask, corr, cfg, params, bdata):
    """Reference: one masked-domain IMEX Euler step solved directly."""
    M = kronecker_sum(g.laplacians)
    n = M.shape[0]
    p, dt, w = params, cfg.dt, cfg.w
    chi = (~mask.theta).astype(float)

    if cfg.variant == "imex-i":
        N, G = corr.N12, corr.N12 * 0.0
    else:
        N, G = corr.N1, corr.N2

    def fl(U):
        return U.ravel(order="F")

    def un(v):
        return v.reshape(state.Phi.shape, order="F")

    psi_phi = boundary_contribution(g, bdata, "phi")
    base_phi = state.Phi + dt * (
        chi * (w * state.Phi + reaction_f1(state.Phi, state.C, p))
        + p.D_phi * psi_phi - p.D_phi * un(G @ fl(state.Phi))
    )
    A = (1.0 + w * dt) * sp.identity(n) - dt * p.D_phi * M + dt * p.D_phi * N
    phi1 = un(sp.linalg.spsolve(A.tocsc(), fl(base_phi)))

    psi_c = boundary_contribution(g, bdata, "c")
    psi_f2 = boundary_contribution(g, bdata, "F2", p)
    f2 = reaction_f2(phi1, p)
    lap_f2 = un((M - corr.N12) @ fl(f2))
    base_c = state.C + dt * p.D_c * (
        lap_f2 + psi_c + psi_f2 - un(G @ fl(state.C))
    )
    Ac = sp.identity(n) - dt * p.D_c * M + dt * p.D_c * N
    c1 = un(sp.linalg.spsolve(Ac.tocsc(), fl(base_c)))
    return phi1, c1


class TestIterativeStepsMatchDense:
    stop_mode = "full"

    @pytest.mark.parametrize("variant", ["imex-i", "imex-e"])
    def test_euler_converges_to_masked_update(self, pit_setup, params, variant):
        g, mask, corr = pit_setup
        bdata = BoundaryData()
        state = pit_state(g, mask)
        cfg = iter_cfg(variant=variant, eps1=1e-13, eps2=1e-30, eps3=1e-14,
                       max_iters=500, stop_mode=self.stop_mode)
        ops = build_hole_operators(g, cfg, params, mask, bdata)
        out, rep = step_iter_euler(state, ops)
        phi_ref, c_ref = converged_dense_euler(
            state, g, mask, corr, cfg, params, bdata
        )
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10
        assert rep.k_phi >= 1 and rep.k_c >= 1

    def test_2sbdf_matches_masked_update(self, pit_setup, params):
        g, mask, corr = pit_setup
        bdata = BoundaryData()
        rng = np.random.default_rng(4)
        prev = pit_state(g, mask, rng)
        dt = 2e-3
        curr_fields = pit_state(g, mask, rng)
        curr = FieldPair(curr_fields.Phi, curr_fields.C, t=dt, step_index=1)
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=dt,
                       eps1=1e-13, eps2=1e-30, eps3=1e-14, stop_mode=self.stop_mode)
        ops = build_hole_operators(g, cfg, params, mask, bdata)
        out, _ = step_iter_2sbdf(prev, curr, ops)

        # The converged iterate solves the masked two-step system directly.
        M = kronecker_sum(g.laplacians)
        n = M.shape[0]
        p, w = params, cfg.w
        chi = (~mask.theta).astype(float)  # the indicator of the physical region
        extrap_phi = 2.0 * curr.Phi - prev.Phi
        extrap_c = 2.0 * curr.C - prev.C

        def fl(U):
            return U.ravel(order="F")

        def un(v):
            return v.reshape(g.counts, order="F")

        base_phi = (
            4.0 * curr.Phi - prev.Phi
            + 2.0 * dt * (
                chi * (
                    2.0 * reaction_f1(curr.Phi, curr.C, p)
                    + 2.0 * w * curr.Phi
                    - reaction_f1(prev.Phi, prev.C, p)
                    - w * prev.Phi
                )
            )
            - 2.0 * dt * p.D_phi * un(corr.N2 @ fl(extrap_phi))
        )
        A = ((3.0 + 2.0 * w * dt) * sp.identity(n)
             - 2.0 * dt * p.D_phi * M + 2.0 * dt * p.D_phi * corr.N1)
        phi_ref = un(sp.linalg.spsolve(A.tocsc(), fl(base_phi)))
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10

        f2 = reaction_f2(phi_ref, p)
        base_c = (
            4.0 * curr.C - prev.C
            + 2.0 * dt * p.D_c * (
                un((M - corr.N12) @ fl(f2)) - un(corr.N2 @ fl(extrap_c))
            )
        )
        Ac = (3.0 * sp.identity(n)
              - 2.0 * dt * p.D_c * M + 2.0 * dt * p.D_c * corr.N1)
        c_ref = un(sp.linalg.spsolve(Ac.tocsc(), fl(base_c)))
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10


class TestExactStepsMatchDense(TestIterativeStepsMatchDense):
    """The same steps solved by the capacitance in one solve per field."""

    stop_mode = "exact"


class TestCavity3D:
    @pytest.mark.parametrize("stop_mode", ["full", "exact"])
    @pytest.mark.parametrize("variant", ["imex-i", "imex-e"])
    def test_euler_matches_masked_update(self, params, stop_mode, variant):
        g = build_grid(GridSpec((8e-6, 6e-6, 8e-6), (9, 7, 9), (NN, NN, NN)))
        mask = rasterize_mask(g, (CylinderSegment(1, (4e-6, 4e-6), 1.5e-6),))
        assert mask.theta.any()
        corr = build_correction_matrices(g, mask)
        bdata = BoundaryData()
        state = pit_state(g, mask)
        cfg = iter_cfg(variant=variant, eps1=1e-13, eps2=1e-30, eps3=1e-14,
                       stop_mode=stop_mode)
        ops = build_hole_operators(g, cfg, params, mask, bdata)
        out, rep = step_iter_euler(state, ops)
        phi_ref, c_ref = converged_dense_euler(state, g, mask, corr, cfg, params, bdata)
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10
        if stop_mode == "exact":
            assert (rep.k_phi, rep.k_c, rep.resid_phi, rep.resid_c) == (1, 1, 0.0, 0.0)


class TestBuiltinPitExact:
    def test_matches_tight_loop_and_holds_theta_control(self):
        # The builtin pit runs the exact solve; criterion 05's bounds hold on
        # every step, and the run is the limit of the paper's loop.
        cfg = load_config("circular_pit")
        assert cfg.scheme.stop_mode == "exact"
        exact = run_scenario(cfg, horizon_scale=0.01)
        horizon = exact.timing["horizon_s"]
        eps2 = cfg.scheme.eps2
        assert len(exact.reports) == 500
        for r in exact.reports:
            assert (r.k_phi, r.k_c) == (1, 1)
            assert r.max_phi_theta <= 1e-10
            assert r.max_c_theta <= 1.5 * eps2 * r.t / horizon
        assert exact.reports[-1].max_c_theta <= 1e-3

        raw = builtin_scenarios()["circular_pit"]
        raw["scheme"].update(stop_mode="full", eps=[1e-12, 1e-3, 1e-14])
        loop = run_scenario(parse_config(raw), horizon_scale=0.01)
        assert np.abs(exact.final_state.Phi - loop.final_state.Phi).max() <= 1e-9
        assert np.abs(exact.final_state.C - loop.final_state.C).max() <= 1e-9


class TestBuiltinPolishExact:
    def test_matches_tight_loop_and_holds_theta_control(self):
        # electropolish (s = 207) under 2SBDF: the start and the main loop take
        # one solve per field, c keeps within criterion 05's budget on every
        # step, where the paper's loop overruns it, and the run is the loop's limit.
        cfg = load_config("electropolish")
        assert cfg.scheme.stop_mode == "exact"
        exact = run_scenario(cfg, horizon_scale=0.0025)
        horizon = exact.timing["horizon_s"]
        assert len(exact.reports) == 9  # 10 steps, the first one by the start
        for r in exact.reports:
            assert (r.k_phi, r.k_c) == (1, 1)
            assert r.max_c_theta <= 1.5 * cfg.scheme.eps2 * r.t / horizon

        raw = builtin_scenarios()["electropolish"]
        raw["scheme"].update(stop_mode="full", eps=[1e-12, 1e-3, 1e-14])
        loop = run_scenario(parse_config(raw), horizon_scale=0.0025)
        assert np.abs(exact.final_state.Phi - loop.final_state.Phi).max() <= 1e-9
        assert np.abs(exact.final_state.C - loop.final_state.C).max() <= 1e-9


class TestSemicylinderExact:
    @staticmethod
    def _config(**scheme):
        # semicylinder3d's boundary conditions and half-cylinder on the top
        # surface, on a 21 x 7 x 11 grid in place of 201 x 26 x 101.
        raw = builtin_scenarios()["semicylinder3d"]
        raw["grid"]["extents_um"] = [20.0, 6.0, 10.0]
        raw["geometry"][0]["cylinder"].update(center_um=[10.0, 10.0], half_limit_um=10.0)
        raw["scheme"].update(scheme)
        return parse_config(raw)

    def test_matches_tight_loop(self):
        exact_cfg = self._config()
        assert exact_cfg.scheme.stop_mode == "exact"
        exact = run_scenario(exact_cfg, horizon_scale=1.4e-4)
        assert exact.final_state.Phi.shape == (21, 7, 11)
        assert [(r.k_phi, r.k_c) for r in exact.reports] == [(1, 1)] * 4  # after the start
        loop = run_scenario(self._config(stop_mode="full", eps=[1e-12, 1e-3, 1e-14]),
                            horizon_scale=1.4e-4)
        assert np.abs(exact.final_state.Phi - loop.final_state.Phi).max() <= 1e-9
        assert np.abs(exact.final_state.C - loop.final_state.C).max() <= 1e-9


class TestFailureModes:
    def test_max_iters_exhaustion_raises(self, pit_setup, params):
        g, mask, _ = pit_setup
        cfg = iter_cfg(eps1=1e-30, eps2=1e-30, eps3=1e-30, max_iters=3)
        ops = build_hole_operators(g, cfg, params, mask, BoundaryData())
        state = pit_state(g, mask)
        with pytest.raises(ConvergenceError) as exc:
            step_iter_euler(state, ops)
        assert exc.value.last_residual is not None
        # The phi loop runs first, in the step from t = 0 to dt.
        assert exc.value.field == "phi"
        assert exc.value.t == pytest.approx(cfg.dt)
        assert "phi iteration" in str(exc.value) and "t=0.002 s" in str(exc.value)

    def test_nan_on_omega_raises_instability(self, pit_setup, params):
        # A NaN residual fails every comparison, so the Theta tests alone
        # would decide the stop; the loop reports the field and time instead.
        g, mask, _ = pit_setup
        ops = build_hole_operators(g, iter_cfg(max_iters=5), params, mask, BoundaryData())
        state = pit_state(g, mask)
        node = mask.omega_index[0]
        base = state.C.copy()
        base.reshape(-1)[node] = np.nan
        with pytest.raises(InstabilityError) as exc:
            ops.hole.iterate("c", ops.c, base, state.C, 0.5)
        assert (exc.value.field, exc.value.t) == ("c", 0.5)
        assert "non-finite c iterate" in str(exc.value) and "t=0.5s" in str(exc.value)

        class NanOnOmega:
            """A solver whose iterate is NaN at one node of Omega, 0 on Theta."""

            b = -1.0

            def solve(self, Y):
                out = np.zeros(Y.shape)
                out.reshape(-1)[node] = np.nan
                return out

        # Theta is unchanged, so the stagnation test alone would accept it.
        with pytest.raises(InstabilityError) as exc:
            ops.hole.iterate("phi", NanOnOmega(), state.Phi, np.zeros(g.counts), 0.25)
        assert (exc.value.field, exc.value.t) == ("phi", 0.25)


class TestBootstrap:
    stop_mode = "full"

    def test_bootstrap_matches_manual_substeps(self, params):
        # A 10 um grid is coarse enough for the c loop to converge at dt = 0.5,
        # where the start takes 8 substeps.
        g = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (NN, NN)))
        mask = rasterize_mask(g, (Circle((50e-6, 50e-6), 15e-6),))
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=0.5, stop_mode=self.stop_mode)
        ops = build_hole_operators(g, cfg, params, mask, BoundaryData())
        state0 = pit_state(g, mask)

        curr = bootstrap_2sbdf(state0, ops, lambda state, sub: step_iter_euler(state, sub)[0])
        assert curr.t == pytest.approx(cfg.dt)
        assert curr.step_index == 1

        count, sub = bootstrap_substeps(cfg.dt)
        sub_ops = ops.start
        assert sub_ops.cfg.order == "euler"
        assert sub_ops.cfg.dt == sub
        assert sub_ops.hole is ops.hole
        manual = state0
        for _ in range(count):
            manual = step_iter_euler(manual, sub_ops)[0]
        np.testing.assert_array_equal(curr.Phi, manual.Phi)
        np.testing.assert_array_equal(curr.C, manual.C)


class TestExactBootstrap(TestBootstrap):
    """The same start on the start's corrected solvers."""

    stop_mode = "exact"


@pytest.mark.parametrize("domain", ["rect", "holes"])
def test_2sbdf_run_builds_every_solver_in_set_up(domain, params, monkeypatch):
    # From the hook call on the initial state on, which precedes the start,
    # a 2SBDF run constructs no solver and no capacitance.
    built = collections.Counter()

    def count(cls, attr):
        original = getattr(cls, attr)

        def counting(*args, **kwargs):
            built[f"{cls.__name__}.{attr}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counting)

    count(SylvesterOperator, "__init__")
    count(SylvesterOperator, "corrected")  # copies a solver without `__init__`
    count(Capacitance, "__init__")
    at_loop = []

    def hook(state):
        if not at_loop:
            at_loop.append(built.copy())

    g = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (NN, NN)))
    mask = rasterize_mask(g, (Circle((50e-6, 50e-6), 15e-6),))
    bdata = BoundaryData()
    if domain == "rect":
        run_rect(pit_state(g, mask), SchemeConfig("2sbdf", 0.5, W), params, g, bdata,
                 3 * 0.5, hooks=(hook,))
        expected = {"SylvesterOperator.__init__": 4}
    else:
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=0.5, stop_mode="exact")
        run_holes(pit_state(g, mask), cfg, params, g, mask, bdata, 3 * cfg.dt,
                  hooks=(hook,))
        # The main and start pairs, their corrected copies and capacitances.
        expected = {"SylvesterOperator.__init__": 4, "SylvesterOperator.corrected": 4,
                    "Capacitance.__init__": 4}
    assert at_loop == [expected]
    assert built == expected


@pytest.mark.parametrize("domain", ["rect", "holes"])
def test_2sbdf_start_freed_after_start(domain, params, monkeypatch):
    # Once the start has returned, nothing of the run holds the start's solvers.
    start_phi = []

    def bootstrap(state0, ops, substep):
        start = ops.start
        start_phi.append(weakref.ref(start.phi))
        del start
        return bootstrap_2sbdf(state0, ops, substep)

    monkeypatch.setattr(rect_module, "bootstrap_2sbdf", bootstrap)
    alive_at_step_2 = []

    def hook(state):
        if state.step_index == 2:
            gc.collect()
            alive_at_step_2.append(start_phi[0]() is not None)

    g = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (NN, NN)))
    mask = rasterize_mask(g, (Circle((50e-6, 50e-6), 15e-6),))
    bdata = BoundaryData()
    if domain == "rect":
        run_rect(pit_state(g, mask), SchemeConfig("2sbdf", 0.5, W), params, g, bdata,
                 3 * 0.5, hooks=(hook,))
    else:
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=0.5, stop_mode="exact")
        run_holes(pit_state(g, mask), cfg, params, g, mask, bdata, 3 * cfg.dt,
                  hooks=(hook,))
    assert len(start_phi) == 1
    assert alive_at_step_2 == [False]


@pytest.mark.parametrize("stop_mode", ["full", "exact"])
def test_correction_matrices_freed_after_set_up(stop_mode, monkeypatch):
    # The hole keeps the nonzero rows of N1 and N2, not the set-up's matrices:
    # by the first main-loop step nothing of a cavity run holds them.
    built = []
    original = build_correction_matrices

    def build(grid, mask):
        correction = original(grid, mask)
        built.append(weakref.ref(correction))
        return correction

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("pitcorr"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, build)
    alive_at_step_2 = []

    def hook(state):
        if state.step_index == 2:
            gc.collect()
            alive_at_step_2.append([ref() is not None for ref in built])

    run = scenarios_module.run_holes
    monkeypatch.setattr(scenarios_module, "run_holes",
                        lambda *args, hooks, **kw: run(*args, hooks=hooks + (hook,), **kw))
    raw = builtin_scenarios()["circular_pit"]
    raw["scheme"]["stop_mode"] = stop_mode
    raw["horizon"] = 3 * raw["scheme"]["dt"]
    raw["snapshot_times"] = [0.0]
    run_scenario(parse_config(raw))
    assert len(built) == 1
    assert alive_at_step_2 == [[False]]


class TestRunHoles:
    def test_report_sequence_and_budget(self, pit_setup, params):
        g, mask, _ = pit_setup
        cfg = iter_cfg(variant="imex-e", dt=2e-3)
        state = pit_state(g, mask)
        horizon = 10 * cfg.dt
        final, reports = run_holes(
            state, cfg, params, g, mask,
            BoundaryData(), horizon,
        )
        assert len(reports) == 10
        ts = [r.t for r in reports]
        np.testing.assert_allclose(ts, (np.arange(10) + 1) * cfg.dt, rtol=1e-12)
        assert final.t == pytest.approx(horizon)
        # Hole values track the proportional budget at every step.
        for r in reports:
            assert r.max_phi_theta <= 1.5 * cfg.eps2 * r.t / horizon
        # Final step is held to eps2 itself.
        assert reports[-1].max_phi_theta <= cfg.eps2
        assert reports[-1].max_c_theta <= cfg.eps2

    def test_horizon_validation(self, pit_setup, params):
        g, mask, _ = pit_setup
        cfg = iter_cfg()
        state = pit_state(g, mask)
        with pytest.raises(ValueError):
            run_holes(state, cfg, params, g, mask,
                      BoundaryData(), 0.003)
