import gc
import itertools
import os
import platform
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import pitcorr.rect
from pitcorr.grid import (
    Circle,
    DomainMask,
    GridSpec,
    build_correction_matrices,
    build_grid,
    rasterize_mask,
)
from pitcorr.holes import IterSchemeConfig, build_hole_operators, run_holes, sparse_rows
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
    imex_step,
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
        bdata = BoundaryData()
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
        ops = build_rect_operators(g, cfg, params, BoundaryData())
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
        ops = build_rect_operators(g, cfg, params, BoundaryData())
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
        bdata = BoundaryData()
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
        ops = build_rect_operators(g, cfg, params, BoundaryData())
        a = FieldPair(np.ones(g.counts), np.ones(g.counts), t=0.0)
        b = FieldPair(np.ones(g.counts), np.ones(g.counts), t=0.5)
        with pytest.raises(ValueError):
            step_imex_2sbdf_rect(a, b, ops)

    def test_horizon_must_be_step_multiple(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        with pytest.raises(ValueError):
            run_rect(state, cfg, params, g, BoundaryData(), 0.0015)

    def test_nonfinite_state_raises(self, params):
        g = small_grid(counts=(4, 4), extents=(4e-6, 5e-6))
        cfg = SchemeConfig("euler", 1e-3, 4.43e8)
        for field, name in (("phi", "Phi"), ("c", "C")):
            levels = {"Phi": np.ones(g.counts), "C": np.ones(g.counts)}
            levels[name][1, 1] = np.nan
            state = FieldPair(**levels, t=0.5, step_index=7)
            with pytest.raises(InstabilityError) as exc:
                run_rect(state, cfg, params, g, BoundaryData(), 1e-3)
            assert (exc.value.field, exc.value.t, exc.value.step_index) == (field, 0.5, 7)
            assert f"non-finite {field} values at t=0.5s (step 7)" in str(exc.value)

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
            state, cfg, params, g, BoundaryData(), 5e-3,
            hooks=(lambda s: seen.append(s.t),),
        )
        np.testing.assert_allclose(seen, np.arange(6) * 1e-3, atol=1e-15)

    def test_2sbdf_run_factorizes_each_axis_once(self, params):
        # The main, c and start operators share one factorization per axis.
        g = build_grid(GridSpec((3e-6, 4e-6, 3e-6), (3, 4, 4), (DD, NN, ND)))
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        before = factorization_count()
        run_rect(state, SchemeConfig("2sbdf", 1.0, 4.43e8), params, g,
                 BoundaryData(), 3.0)
        assert factorization_count() - before == g.ndim


class TestSparseRows:
    """The correction mat-vecs on their nonzero rows give the bits of the
    whole-field product they replace, signed zeros included."""

    @staticmethod
    def full(A, U):
        return (A @ U.ravel(order="F")).reshape(U.shape, order="F")

    @pytest.mark.parametrize("counts", [(9, 8), (6, 5, 7)])
    def test_bits_match_whole_field_product(self, counts):
        grid = build_grid(GridSpec(tuple(1e-6 * (m - 1) for m in counts), counts,
                                   (NN,) * len(counts)))
        theta = np.zeros(counts, dtype=bool)
        theta[(slice(2, 4), slice(1, 3), slice(3, None))[: len(counts)]] = True
        theta[-1, -1] = True  # a hole on the boundary too
        mask = DomainMask(theta)
        corr = build_correction_matrices(grid, mask)
        rng = np.random.default_rng(len(counts))
        U = rng.standard_normal(counts)
        U[U < -1.0] = -0.0
        target = rng.standard_normal(counts)
        target[target < -1.0] = -0.0
        # A C-ordered field and a transposed view of one.
        for V in (U, np.ascontiguousarray(U.transpose()).transpose()):
            for A in (corr.N1, corr.N2, corr.N12):
                rows = sparse_rows(A, counts)
                for got, want in (
                    (rows.subtract(0.0, V), 0.0 - self.full(A, V)),
                    (rows.subtract(target, V), target - self.full(A, V)),
                    (rows.subtract(target, V, 3.7), target - 3.7 * self.full(A, V)),
                ):
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestStepLayout:
    """A 3D step returns C-ordered fields: the layout that the solves return
    and that the next step's elementwise work, Laplacian and solves read."""

    @pytest.mark.parametrize("order", ["euler", "2sbdf"])
    @pytest.mark.parametrize("cavity", [False, True])
    def test_3d_step_returns_c_ordered_fields(self, params, order, cavity):
        counts = (6, 5, 7)
        g = build_grid(GridSpec(tuple(1e-6 * (m - 1) for m in counts), counts, (NN, NN, ND)))
        theta = np.zeros(counts, dtype=bool)
        if cavity:
            theta[2:4, 1:3, 3:] = True
            mask = DomainMask(theta)
            cfg = IterSchemeConfig("imex-e", order, 1e-3, 4.43e8, stop_mode="exact")
            ops = build_hole_operators(g, cfg, params, mask)
            assert ops.hole is not None and ops.phi.capacitance is not None
        else:
            cfg = SchemeConfig(order, 1e-3, 4.43e8)
            ops = build_rect_operators(g, cfg, params, BoundaryData())
        rng = np.random.default_rng(21)
        levels = []
        for k in range(1 if order == "euler" else 2):
            state = random_state(rng, counts)
            state.Phi[theta] = state.C[theta] = 0.0
            levels.insert(0, FieldPair(state.Phi, state.C, t=k * 1e-3, step_index=k))
        out, _ = imex_step(levels, ops)
        assert out.Phi.flags.c_contiguous and out.C.flags.c_contiguous

    @pytest.mark.parametrize("order", ["euler", "2sbdf"])
    def test_fortran_ordered_levels_give_the_same_bits(self, params, order):
        # The cavity terms are written on the rows of the step's own arrays;
        # levels in another layout must not leave them unwritten.
        counts = (6, 5, 7)
        g = build_grid(GridSpec(tuple(1e-6 * (m - 1) for m in counts), counts, (NN, NN, ND)))
        theta = np.zeros(counts, dtype=bool)
        theta[2:4, 1:3, 3:] = True
        ops = build_hole_operators(g, IterSchemeConfig("imex-e", order, 1e-3, 4.43e8,
                                                       stop_mode="exact"),
                                   params, DomainMask(theta))
        rng = np.random.default_rng(22)
        fields = []
        for k in range(1 if order == "euler" else 2):
            state = random_state(rng, counts)
            state.Phi[theta] = state.C[theta] = 0.0
            fields.insert(0, (state.Phi, state.C, k * 1e-3, k))
        want, _ = imex_step([FieldPair(*f) for f in fields], ops)
        got, _ = imex_step([FieldPair(np.asfortranarray(phi), np.asfortranarray(c), t, k)
                            for phi, c, t, k in fields], ops)
        assert got.Phi.tobytes() == want.Phi.tobytes()
        assert got.C.tobytes() == want.C.tobytes()


class TestReactionCarry:
    """A 2SBDF run evaluates F1 once per time level: the step that reads a
    level as its newest carries its F1 on it to the next step, which reads
    it as its older level and lets it go."""

    @staticmethod
    def cavity():
        grid = build_grid(GridSpec((100e-6, 100e-6), (11, 11), (NN, NN)))
        mask = rasterize_mask(grid, (Circle((50e-6, 50e-6), 15e-6),))
        return grid, mask

    @pytest.mark.parametrize("domain", ["rect", "full", "exact"])
    def test_one_reaction_per_level(self, params, monkeypatch, domain):
        calls = []
        original = pitcorr.rect.reaction_f1

        def counting(phi, c, p, h=None):
            calls.append(1)
            return original(phi, c, p, h=h)

        monkeypatch.setattr(pitcorr.rect, "reaction_f1", counting)
        dt, n = 0.5, 5
        substeps = bootstrap_substeps(dt)[0]
        if domain == "rect":
            g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
            state = random_state(np.random.default_rng(4), g.counts)
            run_rect(state, SchemeConfig("2sbdf", dt, 4.43e8), params, g, BoundaryData(),
                     n * dt)
        else:
            g, mask = self.cavity()
            u = np.where(mask.theta, 0.0, 1.0)
            run_holes(FieldPair(u, u.copy()),
                      IterSchemeConfig("imex-e", "2sbdf", dt, 4.43e8, stop_mode=domain),
                      params, g, mask, BoundaryData(), n * dt)
        # Two evaluations per 2SBDF step would be substeps + 2 * (n - 1).
        assert len(calls) <= substeps + n < substeps + 2 * (n - 1)

    @staticmethod
    def levels(rng, counts, theta=None):
        out = []
        for k in range(2):
            state = random_state(rng, counts)
            if theta is not None:
                state.Phi[theta] = state.C[theta] = 0.0
            out.insert(0, FieldPair(state.Phi, state.C, t=k * 1e-3, step_index=k))
        return out

    @pytest.mark.parametrize("cavity", [False, True])
    def test_step_outputs_and_carry_share_no_memory(self, params, cavity):
        cfg = SchemeConfig("2sbdf", 1e-3, 4.43e8)
        if cavity:
            g, mask = self.cavity()
            ops = build_hole_operators(
                g, IterSchemeConfig("imex-e", "2sbdf", 1e-3, 4.43e8, stop_mode="exact"),
                params, mask)
            levels = self.levels(np.random.default_rng(5), g.counts, mask.theta)
        else:
            g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
            ops = build_rect_operators(g, cfg, params, BoundaryData())
            levels = self.levels(np.random.default_rng(5), g.counts)
        curr, prev = levels
        mid, _ = imex_step((curr, prev), ops)
        out, _ = imex_step((mid, curr), ops)
        carried = mid._f1[1]
        assert curr._f1 is None  # taken by the second step
        arrays = [out.Phi, out.C, carried, mid.Phi, mid.C, curr.Phi, curr.C]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_kept_level_lets_its_f1_go(self, params):
        g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
        ops = build_rect_operators(g, SchemeConfig("2sbdf", 1e-3, 4.43e8), params,
                                   BoundaryData())
        curr, prev = self.levels(np.random.default_rng(6), g.counts)
        nxt = step_imex_2sbdf_rect(prev, curr, ops)
        ref = weakref.ref(curr._f1[1])
        step_imex_2sbdf_rect(curr, nxt, ops)
        gc.collect()
        assert curr._f1 is None and ref() is None

        # No level a hook keeps holds an F1 once the run is over.
        kept = []
        run_rect(random_state(np.random.default_rng(7), g.counts),
                 SchemeConfig("2sbdf", 0.5, 4.43e8), params, g, BoundaryData(), 2.0,
                 hooks=(kept.append,))
        assert len(kept) == 5 and all(level._f1 is None for level in kept)

    def test_carry_is_not_reused_under_other_parameters(self, params):
        g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
        cfg = SchemeConfig("2sbdf", 1e-3, 4.43e8)
        other = CorrosionParameters(A=2.0 * params.A)
        curr, prev = self.levels(np.random.default_rng(8), g.counts)
        nxt = step_imex_2sbdf_rect(prev, curr, build_rect_operators(g, cfg, params, BoundaryData()))
        assert curr._f1 is not None
        ops = build_rect_operators(g, cfg, other, BoundaryData())
        got = step_imex_2sbdf_rect(curr, nxt, ops)
        want = step_imex_2sbdf_rect(FieldPair(curr.Phi, curr.C, curr.t, curr.step_index),
                                    FieldPair(nxt.Phi, nxt.C, nxt.t, nxt.step_index), ops)
        assert got.Phi.tobytes() == want.Phi.tobytes()
        assert got.C.tobytes() == want.C.tobytes()


    @pytest.mark.parametrize("order", ["euler", "2sbdf"])
    @pytest.mark.parametrize("domain", ["rect", "full", "exact"])
    def test_one_h_per_level(self, params, monkeypatch, domain, order):
        # reaction_f2 forms h(Phi) of every level a step makes, and that
        # level's F1 reads it: F1 forms h itself only on the initial level,
        # which a 2SBDF run's start and its first main step both read.
        f1_phis, f2_phis = [], []
        f1, f2 = pitcorr.rect.reaction_f1, pitcorr.rect.reaction_f2

        def counting_f1(phi, c, p, h=None):
            if h is None:
                f1_phis.append(phi)
            return f1(phi, c, p, h=h)

        def counting_f2(phi, p, **kw):
            f2_phis.append(phi)
            return f2(phi, p, **kw)

        monkeypatch.setattr(pitcorr.rect, "reaction_f1", counting_f1)
        monkeypatch.setattr(pitcorr.rect, "reaction_f2", counting_f2)
        dt, n, levels = 0.5, 5, []
        if domain == "rect":
            g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
            state = random_state(np.random.default_rng(4), g.counts)
            run_rect(state, SchemeConfig(order, dt, 4.43e8), params, g, BoundaryData(),
                     n * dt, hooks=(levels.append,))
        else:
            g, mask = self.cavity()
            u = np.where(mask.theta, 0.0, 1.0)
            state = FieldPair(u, u.copy())
            run_holes(state, IterSchemeConfig("imex-e", order, dt, 4.43e8, stop_mode=domain),
                      params, g, mask, BoundaryData(), n * dt, hooks=(levels.append,))
        substeps = bootstrap_substeps(dt)[0] if order == "2sbdf" else 0
        assert len(f2_phis) == substeps + (n - 1 if substeps else n)
        assert len({id(phi) for phi in f2_phis}) == len(f2_phis)
        assert all(level.Phi is phi for level, phi in zip(levels[1 + bool(substeps):],
                                                          f2_phis[substeps:]))
        assert len(f1_phis) == (2 if substeps else 1)
        assert all(phi is state.Phi for phi in f1_phis)

    def test_kept_level_lets_its_h_go(self, params):
        g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
        ops = build_rect_operators(g, SchemeConfig("euler", 1e-3, 4.43e8), params,
                                   BoundaryData())
        state = random_state(np.random.default_rng(9), g.counts)
        nxt = step_imex_euler_rect(state, ops)
        ref = weakref.ref(nxt._h)
        step_imex_euler_rect(nxt, ops)
        gc.collect()
        assert nxt._h is None and ref() is None

        # No level a hook keeps holds an h once the run is over.
        for order in ("euler", "2sbdf"):
            kept = []
            run_rect(random_state(np.random.default_rng(7), g.counts),
                     SchemeConfig(order, 0.5, 4.43e8), params, g, BoundaryData(), 2.0,
                     hooks=(kept.append,))
            assert len(kept) == 5 and all(level._h is None for level in kept)

    @pytest.mark.parametrize("cavity", [False, True])
    def test_carried_h_shares_no_memory(self, params, cavity):
        cfg = SchemeConfig("2sbdf", 1e-3, 4.43e8)
        if cavity:
            g, mask = self.cavity()
            ops = build_hole_operators(
                g, IterSchemeConfig("imex-e", "2sbdf", 1e-3, 4.43e8, stop_mode="exact"),
                params, mask)
            levels = self.levels(np.random.default_rng(10), g.counts, mask.theta)
        else:
            g = small_grid(counts=(6, 7), extents=(6e-6, 7e-6))
            ops = build_rect_operators(g, cfg, params, BoundaryData())
            levels = self.levels(np.random.default_rng(10), g.counts)
        curr, prev = levels
        out, _ = imex_step((curr, prev), ops)
        h = out._h
        assert h.tobytes() == (out.Phi * out.Phi * (3.0 - 2.0 * out.Phi)).tobytes()
        for a in (out.Phi, out.C, curr._f1[1], curr.Phi, curr.C, prev.Phi, prev.C):
            assert not np.shares_memory(h, a)

    @pytest.mark.parametrize("shape", [(23, 17), (9, 7, 13)])
    def test_f1_with_h_has_the_bits_of_f1(self, params, shape):
        # The inputs of test_model's test_f1_bits_are_the_formula, with h
        # as the step takes it from reaction_f2.
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1e-310, -1e-310, 1e200, -1e200,
                            0.5, 1.0, -1.0])
        rng = np.random.default_rng(len(shape))
        values = np.concatenate([special, rng.uniform(-0.5, 1.5, 64)])
        phi, c = (rng.choice(values, size=shape) for _ in range(2))
        views = [(phi, c), (phi.T, c.T), (phi[1::2, 1:], c[:-1:2, :-1]),
                 (np.asfortranarray(phi), c[..., ::-1])]
        with np.errstate(all="ignore"):
            for a, b in views:
                _, h = reaction_f2(a, params, with_h=True)
                kept = h.copy()
                got = reaction_f1(a, b, params, h=h)
                want = reaction_f1(a, b, params)
                assert got.tobytes() == want.tobytes()
                assert h.tobytes() == kept.tobytes()  # read, not written


def _no_c_library(name):
    raise OSError("no C library to load")


class TestKeptHeap:
    """`rect._keep_heap`: freed field memory stays in the process."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """The helper as in a new process, with none of glibc's variables set."""
        for name in pitcorr.rect._MALLOC_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        pitcorr.rect._keep_heap.cache_clear()
        yield
        pitcorr.rect._keep_heap.cache_clear()  # the next build sets the real policy

    @pytest.fixture
    def mallopt_calls(self, fresh, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(pitcorr.rect, "_mallopt", lambda: mallopt)
        return calls

    def test_thresholds_set_once_per_process(self, mallopt_calls, params):
        build_rect_operators(small_grid(), SchemeConfig("euler", 1e-3, 4.43e8), params)
        pitcorr.rect._keep_heap()
        build_rect_operators(small_grid(), SchemeConfig("2sbdf", 1e-3, 4.43e8), params)
        assert mallopt_calls == [(pitcorr.rect._M_MMAP_THRESHOLD, 32 << 20),
                                 (pitcorr.rect._M_TRIM_THRESHOLD, 1 << 30)]

    @pytest.mark.parametrize("name", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                                      "MALLOC_TOP_PAD_"])
    def test_glibc_variables_take_precedence(self, mallopt_calls, monkeypatch, name):
        monkeypatch.setenv(name, "131072")
        pitcorr.rect._keep_heap()
        assert mallopt_calls == []

    @pytest.mark.parametrize("library", [lambda name: object(), _no_c_library])
    def test_no_mallopt_is_a_no_op(self, fresh, monkeypatch, library):
        monkeypatch.setattr(pitcorr.rect.ctypes, "CDLL", library)
        assert pitcorr.rect._mallopt() is None
        pitcorr.rect._keep_heap()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                        or any(v in os.environ for v in pitcorr.rect._MALLOC_VARIABLES),
                        reason="the heap policy is set through glibc's mallopt")
    def test_late_steps_fault_few_pages(self, monkeypatch):
        # Without the kept heap, glibc returns freed 162 KB fields to the
        # kernel, and every third main-loop step of this run faults 168-208
        # pages back in.  The run keeps no snapshot past t = 0, so that no
        # step needs more memory than the steps before it.
        import resource

        from pitcorr import holes, scenarios

        marks = []

        def count(state):
            marks.append((state.step_index, resource.getrusage(resource.RUSAGE_SELF).ru_minflt))

        def run_holes(*args, hooks=(), **kwargs):
            return holes.run_holes(*args, hooks=tuple(hooks) + (count,), **kwargs)

        monkeypatch.setattr(scenarios, "run_holes", run_holes)
        raw = scenarios.builtin_scenarios()["electropolish"]
        raw["snapshot_times"] = [0.0]
        scenarios.run_scenario(scenarios.load_config(raw), horizon_scale=0.026)
        faults = {step: b - a for (_, a), (step, b) in zip(marks, marks[1:])}
        assert len(faults) == 104
        # Step 1 is the 2SBDF start; the first 10 main-loop steps may fault.
        late = {step: n for step, n in faults.items() if step > 11}
        assert max(late.values()) <= 8, {step: n for step, n in late.items() if n > 8}
