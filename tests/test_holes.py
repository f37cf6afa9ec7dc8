import numpy as np
import pytest
import scipy.sparse as sp

from pitcorr.grid import (
    Circle,
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
from pitcorr.linalg import factorization_count, kronecker_sum
from pitcorr.model import CorrosionParameters, reaction_f1, reaction_f2
from pitcorr.rect import (
    BoundaryData,
    FieldPair,
    SchemeConfig,
    bootstrap_2sbdf,
    bootstrap_substeps,
    boundary_contribution,
    build_rect_operators,
    run_rect,
    step_imex_euler_rect,
)
from pitcorr.scenarios import load_config

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
        ops = build_hole_operators(g, iter_cfg(variant="imex-i"), params, mask, corr)
        assert ops.G is None or ops.G.nnz == 0
        assert ops.N.nnz == corr.N12.nnz

    def test_2sbdf_run_factorizes_each_axis_once(self, pit_setup, params):
        g, mask, corr = pit_setup
        before = factorization_count()
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=6e-3)
        run_holes(pit_state(g, mask), cfg, params, g, mask, corr,
                  BoundaryData.homogeneous(2), 3 * cfg.dt)
        assert factorization_count() - before == g.ndim


class TestTrivialMask:
    def test_empty_theta_delegates_to_rect(self, params):
        g = build_grid(GridSpec((8e-6, 8e-6), (9, 9), (NN, NN)))
        mask = DomainMask(np.zeros(g.counts, dtype=bool))
        corr = build_correction_matrices(g, mask)
        bdata = BoundaryData.homogeneous(2)
        rng = np.random.default_rng(1)
        state = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts))

        cfg = iter_cfg()
        ops = build_hole_operators(g, cfg, params, mask, corr, bdata)
        out, rep = step_iter_euler(state, ops)
        ref = step_imex_euler_rect(state, ops.rect)
        np.testing.assert_array_equal(out.Phi, ref.Phi)
        np.testing.assert_array_equal(out.C, ref.C)
        assert rep.k_phi == 1 and rep.k_c == 1

    def test_empty_theta_run_matches_rect_run(self, params):
        g = build_grid(GridSpec((8e-6, 8e-6), (9, 9), (NN, NN)))
        mask = DomainMask(np.zeros(g.counts, dtype=bool))
        corr = build_correction_matrices(g, mask)
        bdata = BoundaryData.homogeneous(2)
        rng = np.random.default_rng(2)
        state = FieldPair(rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts))

        cfg = iter_cfg(order="2sbdf", dt=2.0)
        final, reports = run_holes(
            state, cfg, params, g, mask, corr, bdata, 10.0
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
    @pytest.mark.parametrize("variant", ["imex-i", "imex-e"])
    def test_euler_converges_to_masked_update(self, pit_setup, params, variant):
        g, mask, corr = pit_setup
        bdata = BoundaryData.homogeneous(2)
        state = pit_state(g, mask)
        cfg = iter_cfg(variant=variant, eps1=1e-13, eps2=1e-30, eps3=1e-14,
                       max_iters=500)
        ops = build_hole_operators(g, cfg, params, mask, corr, bdata)
        out, rep = step_iter_euler(state, ops)
        phi_ref, c_ref = converged_dense_euler(
            state, g, mask, corr, cfg, params, bdata
        )
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10
        assert rep.k_phi >= 1 and rep.k_c >= 1

    def test_2sbdf_matches_masked_update(self, pit_setup, params):
        g, mask, corr = pit_setup
        bdata = BoundaryData.homogeneous(2)
        rng = np.random.default_rng(4)
        prev = pit_state(g, mask, rng)
        dt = 2e-3
        curr_fields = pit_state(g, mask, rng)
        curr = FieldPair(curr_fields.Phi, curr_fields.C, t=dt, step_index=1)
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=dt,
                       eps1=1e-13, eps2=1e-30, eps3=1e-14)
        ops = build_hole_operators(g, cfg, params, mask, corr, bdata)
        out, _ = step_iter_2sbdf(prev, curr, ops)

        # The converged iterate solves the masked two-step system directly.
        M = kronecker_sum(g.laplacians)
        n = M.shape[0]
        p, w = params, cfg.w
        chi = ops.chi
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


class TestReducedMode:
    def test_single_phi_iteration(self, pit_setup, params):
        g, mask, corr = pit_setup
        cfg = iter_cfg(stop_mode="reduced")
        ops = build_hole_operators(g, cfg, params, mask, corr, BoundaryData.homogeneous(2))
        state = pit_state(g, mask)
        _, rep = step_iter_euler(state, ops)
        assert rep.k_phi == 1
        assert rep.k_c >= 1


class TestFailureModes:
    def test_max_iters_exhaustion_raises(self, pit_setup, params):
        g, mask, corr = pit_setup
        cfg = iter_cfg(eps1=1e-30, eps2=1e-30, eps3=1e-30, max_iters=3)
        ops = build_hole_operators(g, cfg, params, mask, corr, BoundaryData.homogeneous(2))
        state = pit_state(g, mask)
        with pytest.raises(ConvergenceError) as exc:
            step_iter_euler(state, ops)
        assert exc.value.last_residual is not None


class TestBootstrap:
    def test_bootstrap_matches_manual_substeps(self, params):
        # A 10 um grid is coarse enough for the c loop to converge at dt = 0.5,
        # where the start takes 8 substeps.
        g = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (NN, NN)))
        mask = rasterize_mask(g, (Circle((50e-6, 50e-6), 15e-6),))
        corr = build_correction_matrices(g, mask)
        cfg = iter_cfg(variant="imex-e", order="2sbdf", dt=0.5)
        ops = build_hole_operators(g, cfg, params, mask, corr, BoundaryData.homogeneous(2))
        state0 = pit_state(g, mask)

        curr = bootstrap_2sbdf(state0, ops, lambda state, sub: step_iter_euler(state, sub)[0])
        assert curr.t == pytest.approx(cfg.dt)
        assert curr.step_index == 1

        count, sub = bootstrap_substeps(cfg.dt)
        sub_ops = ops.retimed("euler", sub)
        assert sub_ops.cfg.order == sub_ops.rect.cfg.order == "euler"
        assert sub_ops.cfg.dt == sub_ops.rect.cfg.dt == sub
        assert sub_ops.N is ops.N and sub_ops.chi is ops.chi and sub_ops.mask is ops.mask
        manual = state0
        for _ in range(count):
            manual = step_iter_euler(manual, sub_ops)[0]
        np.testing.assert_array_equal(curr.Phi, manual.Phi)
        np.testing.assert_array_equal(curr.C, manual.C)


class TestRunHoles:
    def test_report_sequence_and_budget(self, pit_setup, params):
        g, mask, corr = pit_setup
        cfg = iter_cfg(variant="imex-e", dt=2e-3)
        state = pit_state(g, mask)
        horizon = 10 * cfg.dt
        final, reports = run_holes(
            state, cfg, params, g, mask, corr,
            BoundaryData.homogeneous(2), horizon,
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
        g, mask, corr = pit_setup
        cfg = iter_cfg()
        state = pit_state(g, mask)
        with pytest.raises(ValueError):
            run_holes(state, cfg, params, g, mask, corr,
                      BoundaryData.homogeneous(2), 0.003)
