import numpy as np
import pytest
import scipy.sparse as sp

from pitcorr.grid import GridSpec, build_grid
from pitcorr.linalg import factorization_count, kronecker_sum
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
    step_imex_2sbdf_rect,
    step_imex_euler_rect,
)

NN = ("neumann", "neumann")
DD = ("dirichlet", "dirichlet")
ND = ("neumann", "dirichlet")


@pytest.fixture
def params():
    return CorrosionParameters()


def small_grid(bc=(NN, DD), counts=(6, 5), extents=(6e-6, 5e-6)):
    return build_grid(GridSpec(extents, counts, bc))


def random_state(rng, shape):
    return FieldPair(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape))


def dense_euler_step(state, grid, cfg, params, bdata):
    """Reference IMEX Euler update assembled as one sparse linear solve."""
    M = kronecker_sum(grid.laplacians)
    n = M.shape[0]
    dt, w, p = cfg.dt, cfg.w, params

    psi_phi = boundary_contribution(grid, bdata, "phi")
    rhs = state.Phi + dt * (
        p.D_phi * psi_phi + w * state.Phi + reaction_f1(state.Phi, state.C, p)
    )
    A_phi = (1.0 + w * dt) * sp.identity(n) - dt * p.D_phi * M
    phi1 = sp.linalg.spsolve(A_phi.tocsc(), rhs.ravel(order="F"))
    phi1 = phi1.reshape(state.Phi.shape, order="F")

    psi_c = boundary_contribution(grid, bdata, "c")
    psi_f2 = boundary_contribution(grid, bdata, "F2", p)
    f2 = reaction_f2(phi1, p)
    lap_f2 = (M @ f2.ravel(order="F")).reshape(f2.shape, order="F")
    rhs_c = state.C + dt * p.D_c * (lap_f2 + psi_c + psi_f2)
    A_c = sp.identity(n) - dt * p.D_c * M
    c1 = sp.linalg.spsolve(A_c.tocsc(), rhs_c.ravel(order="F"))
    return phi1, c1.reshape(state.C.shape, order="F")


def dense_2sbdf_step(prev, curr, grid, cfg, params, bdata):
    """Reference two-step update assembled as one sparse linear solve."""
    M = kronecker_sum(grid.laplacians)
    n = M.shape[0]
    dt, w, p = cfg.dt, cfg.w, params

    psi_phi = boundary_contribution(grid, bdata, "phi")
    rhs = (
        4.0 * curr.Phi
        - prev.Phi
        + 2.0 * dt * (
            2.0 * reaction_f1(curr.Phi, curr.C, p) + 2.0 * w * curr.Phi
            - reaction_f1(prev.Phi, prev.C, p) - w * prev.Phi
        )
        + 2.0 * dt * p.D_phi * psi_phi
    )
    A_phi = (3.0 + 2.0 * w * dt) * sp.identity(n) - 2.0 * dt * p.D_phi * M
    phi2 = sp.linalg.spsolve(A_phi.tocsc(), rhs.ravel(order="F"))
    phi2 = phi2.reshape(curr.Phi.shape, order="F")

    psi_c = boundary_contribution(grid, bdata, "c")
    psi_f2 = boundary_contribution(grid, bdata, "F2", p)
    f2 = reaction_f2(phi2, p)
    lap_f2 = (M @ f2.ravel(order="F")).reshape(f2.shape, order="F")
    rhs_c = 4.0 * curr.C - prev.C + 2.0 * dt * p.D_c * (lap_f2 + psi_c + psi_f2)
    A_c = 3.0 * sp.identity(n) - 2.0 * dt * p.D_c * M
    c2 = sp.linalg.spsolve(A_c.tocsc(), rhs_c.ravel(order="F"))
    return phi2, c2.reshape(curr.C.shape, order="F")


class TestBoundaryContribution:
    def test_dirichlet_layers(self):
        g = small_grid(bc=(ND, DD), counts=(4, 5), extents=(4e-6, 6e-6))
        bdata = BoundaryData(
            phi=((0.0, 0.3), (0.7, 0.0)),
            c=((0.0, 0.0), (0.0, 1.0)),
        )
        psi = boundary_contribution(g, bdata, "phi")
        dx2, dy2 = g.spacings[0] ** 2, g.spacings[1] ** 2
        expected = np.zeros((4, 5))
        expected[-1, :] += 0.3 / dx2  # high-x Dirichlet layer
        expected[:, 0] += 0.7 / dy2  # low-y Dirichlet layer
        np.testing.assert_allclose(psi, expected, rtol=1e-14)

        psi_c = boundary_contribution(g, bdata, "c")
        expected_c = np.zeros((4, 5))
        expected_c[:, -1] += 1.0 / dy2
        np.testing.assert_allclose(psi_c, expected_c, rtol=1e-14)

    def test_neumann_edges_contribute_nothing(self):
        g = small_grid(bc=(NN, NN))
        bdata = BoundaryData(phi=((1.0, 1.0), (1.0, 1.0)), c=((1.0, 1.0), (1.0, 1.0)))
        assert np.all(boundary_contribution(g, bdata, "phi") == 0.0)
        assert np.all(boundary_contribution(g, bdata, "c") == 0.0)

    def test_f2_maps_phi_values(self, params):
        g = small_grid(bc=(NN, DD), counts=(4, 4), extents=(4e-6, 5e-6))
        bdata = BoundaryData(phi=((0.0, 0.0), (0.6, 0.0)), c=())
        psi = boundary_contribution(g, bdata, "F2", params)
        dy2 = g.spacings[1] ** 2
        expected = np.zeros((4, 4))
        expected[:, 0] = float(reaction_f2(np.array(0.6), params)) / dy2
        np.testing.assert_allclose(psi, expected, rtol=1e-14)

    def test_unknown_kind_rejected(self):
        g = small_grid()
        with pytest.raises(ValueError):
            boundary_contribution(g, BoundaryData(), "flux")

    def test_loads_built_once_per_run(self, params, monkeypatch):
        # Three loads, shared by the main operators and the start's re-timed
        # ones, however many steps and start substeps the run takes.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return boundary_contribution(*args, **kwargs)

        monkeypatch.setattr("pitcorr.rect.boundary_contribution", counting)
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("2sbdf", 1.0, 4.43e8)
        bdata = BoundaryData(phi=((0.0, 0.0), (0.0, 0.4)), c=((0.0, 0.0), (0.2, 0.0)))
        counts = []
        for n_steps in (4, 8):
            calls.clear()
            state = FieldPair(np.ones(g.counts), np.ones(g.counts))
            run_rect(state, cfg, params, g, bdata, n_steps * cfg.dt)
            counts.append(len(calls))
        assert counts[0] == counts[1] == 3


class TestStepsMatchDense:
    def test_euler_matches_dense(self, params):
        g = small_grid()
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        bdata = BoundaryData(
            phi=((0.0, 0.0), (0.0, 0.2)), c=((0.0, 0.0), (0.0, 0.1))
        )
        ops = build_rect_operators(g, cfg, params, bdata)
        rng = np.random.default_rng(11)
        state = random_state(rng, g.counts)
        out = step_imex_euler_rect(state, ops)
        phi_ref, c_ref = dense_euler_step(state, g, cfg, params, bdata)
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10
        assert out.t == pytest.approx(cfg.dt)
        assert out.step_index == 1

    def test_2sbdf_matches_dense(self, params):
        g = small_grid(bc=(DD, NN), counts=(5, 6), extents=(6e-6, 6e-6))
        cfg = SchemeConfig("2sbdf", 2e-3, 4.43e8)
        bdata = BoundaryData(phi=((0.0, 0.3), (0.0, 0.0)), c=((0.1, 0.0), (0.0, 0.0)))
        ops = build_rect_operators(g, cfg, params, bdata)
        rng = np.random.default_rng(12)
        prev = random_state(rng, g.counts)
        curr = FieldPair(
            rng.uniform(0, 1, g.counts), rng.uniform(0, 1, g.counts),
            t=cfg.dt, step_index=1,
        )
        out = step_imex_2sbdf_rect(prev, curr, ops)
        phi_ref, c_ref = dense_2sbdf_step(prev, curr, g, cfg, params, bdata)
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10

    def test_euler_matches_dense_3d(self, params):
        g = build_grid(GridSpec((3e-6, 4e-6, 3e-6), (3, 4, 4), (DD, NN, ND)))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        bdata = BoundaryData.homogeneous(3)
        ops = build_rect_operators(g, cfg, params, bdata)
        rng = np.random.default_rng(13)
        state = random_state(rng, g.counts)
        out = step_imex_euler_rect(state, ops)
        phi_ref, c_ref = dense_euler_step(state, g, cfg, params, bdata)
        assert np.abs(out.Phi - phi_ref).max() / np.abs(phi_ref).max() < 1e-10
        assert np.abs(out.C - c_ref).max() / np.abs(c_ref).max() < 1e-10


class TestEquilibrium:
    def test_solid_equilibrium_euler(self, params):
        g = small_grid(bc=(NN, NN), counts=(8, 8), extents=(8e-6, 8e-6))
        dt = 1e-3
        cfg = SchemeConfig("euler", dt, 4.43e8)
        ops = build_rect_operators(g, cfg, params, BoundaryData.homogeneous(2))
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        for _ in range(50):
            nxt = step_imex_euler_rect(state, ops)
            assert np.abs(nxt.Phi - state.Phi).max() <= 1e-13
            assert np.abs(nxt.C - state.C).max() <= 1e-13
            state = nxt
        assert np.abs(state.Phi - 1.0).max() <= 1e-13

    def test_solid_equilibrium_2sbdf(self, params):
        g = small_grid(bc=(NN, NN), counts=(8, 8), extents=(8e-6, 8e-6))
        dt = 5e-3
        cfg = SchemeConfig("2sbdf", dt, 4.43e8)
        ops = build_rect_operators(g, cfg, params, BoundaryData.homogeneous(2))
        ones = np.ones(g.counts)
        prev = FieldPair(ones.copy(), ones.copy(), t=0.0)
        curr = FieldPair(ones.copy(), ones.copy(), t=dt, step_index=1)
        for _ in range(50):
            nxt = step_imex_2sbdf_rect(prev, curr, ops)
            assert np.abs(nxt.Phi - curr.Phi).max() <= 1e-13
            assert np.abs(nxt.C - curr.C).max() <= 1e-13
            prev, curr = curr, nxt
        assert np.abs(curr.Phi - 1.0).max() <= 1e-13


class TestBootstrap:
    def test_substep_arithmetic(self):
        for dt in (1e-3, 2e-3, 0.02, 3.0, 5.0):
            count, sub = bootstrap_substeps(dt)
            assert count == max(1, int(np.ceil(4.0 / dt)))
            assert count * sub == pytest.approx(dt, rel=1e-15)

    def test_bootstrap_matches_manual_substeps(self, params):
        g = small_grid(counts=(5, 5), extents=(5e-6, 6e-6))
        cfg = SchemeConfig("2sbdf", 2.0, 4.43e8)
        bdata = BoundaryData.homogeneous(2)
        rng = np.random.default_rng(3)
        state0 = random_state(rng, g.counts)

        ops = build_rect_operators(g, cfg, params, bdata)
        curr = bootstrap_2sbdf(state0, ops, step_imex_euler_rect)
        assert curr.t == pytest.approx(cfg.dt)
        assert curr.step_index == 1

        count, sub = bootstrap_substeps(cfg.dt)
        sub_ops = build_rect_operators(g, SchemeConfig("euler", sub, cfg.w), params, bdata)
        manual = state0
        for _ in range(count):
            manual = step_imex_euler_rect(manual, sub_ops)
        np.testing.assert_array_equal(curr.Phi, manual.Phi)
        np.testing.assert_array_equal(curr.C, manual.C)


class TestRunValidation:
    def test_level_mismatch_rejected(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("2sbdf", 1e-3, 4.43e8)
        ops = build_rect_operators(g, cfg, params, BoundaryData.homogeneous(2))
        a = FieldPair(np.ones(g.counts), np.ones(g.counts), t=0.0)
        b = FieldPair(np.ones(g.counts), np.ones(g.counts), t=0.5)
        with pytest.raises(ValueError):
            step_imex_2sbdf_rect(a, b, ops)

    def test_horizon_must_be_step_multiple(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        with pytest.raises(ValueError):
            run_rect(state, cfg, params, g, BoundaryData.homogeneous(2), 0.0015)

    def test_nonfinite_state_raises(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        bad = np.ones(g.counts)
        bad[1, 1] = np.nan
        state = FieldPair(bad, np.ones(g.counts))
        with pytest.raises(InstabilityError):
            run_rect(state, cfg, params, g, BoundaryData.homogeneous(2), 1e-3)

    def test_scheme_config_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig("rk4", 1e-3, 1.0)
        with pytest.raises(ValueError):
            SchemeConfig("euler", -1e-3, 1.0)
        with pytest.raises(ValueError):
            SchemeConfig("euler", 1e-3, -1.0)

    def test_hooks_see_every_level(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        seen = []
        run_rect(
            state, cfg, params, g, BoundaryData.homogeneous(2), 5e-3,
            hooks=(lambda s: seen.append(s.t),),
        )
        np.testing.assert_allclose(seen, np.arange(6) * 1e-3, atol=1e-15)

    def test_2sbdf_run_factorizes_each_axis_once(self, params):
        # The main, c and start operators share one factorization per axis.
        g = build_grid(GridSpec((3e-6, 4e-6, 3e-6), (3, 4, 4), (DD, NN, ND)))
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        before = factorization_count()
        run_rect(state, SchemeConfig("2sbdf", 1.0, 4.43e8), params, g,
                 BoundaryData.homogeneous(3), 3.0)
        assert factorization_count() - before == g.ndim
