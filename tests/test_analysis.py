import numpy as np
import pytest
import scipy.sparse as sp

from pitcorr.analysis import (
    BoundQuery,
    actual_spectral_radius,
    bound_spectral_radius,
    error_norms,
    fit_loglog_slope,
    front_position,
    sufficient_step_conditions,
)
from pitcorr.grid import (
    Circle,
    GridSpec,
    build_correction_matrices,
    build_grid,
    rasterize_mask,
)
from pitcorr.linalg import factorization_count, kronecker_sum
from pitcorr.model import CorrosionParameters
from pitcorr.rect import FieldPair, iteration_shifts

NN = ("neumann", "neumann")
W = 4.43e8


@pytest.fixture
def params():
    return CorrosionParameters()


def query(**kw):
    defaults = dict(
        variant="imex-i", order="euler", bc_outer="neumann", equation="c",
        dx=1e-6, dy=1e-6, dt=1e-5, w=W, params=CorrosionParameters(),
    )
    defaults.update(kw)
    return BoundQuery(**defaults)


class TestBoundQuery:
    def test_validation(self, params):
        with pytest.raises(ValueError):
            query(variant="imex-x")
        with pytest.raises(ValueError):
            query(order="rk4")
        with pytest.raises(ValueError):
            query(bc_outer="robin")
        with pytest.raises(ValueError):
            query(equation="mu")
        with pytest.raises(ValueError):
            query(geometry="square")
        with pytest.raises(ValueError):
            query(dt=-1.0)


class TestBoundAnchors:
    def test_implicit_neumann_c_bound(self):
        rho = bound_spectral_radius(query())
        assert rho == pytest.approx(6.9176e-2, abs=1e-4)

    def test_explicit_neumann_circle_c_bound(self):
        rho = bound_spectral_radius(query(variant="imex-e", geometry="circle"))
        assert rho == pytest.approx(1.68573e-3, abs=1e-5)

    def test_neumann_inadmissible_at_large_dt(self):
        for variant in ("imex-i", "imex-e"):
            assert bound_spectral_radius(query(variant=variant, dt=1.0)) is None

    def test_dirichlet_always_numeric(self):
        rho = bound_spectral_radius(query(bc_outer="dirichlet", dt=1.0))
        assert isinstance(rho, float) and rho > 0.0

    def test_bounds_vanish_monotonically_with_dt(self):
        dts = np.logspace(-7, -5, 8)
        for variant in ("imex-i", "imex-e"):
            vals = [
                bound_spectral_radius(query(variant=variant, dt=float(dt)))
                for dt in dts
            ]
            assert all(np.diff(vals) > 0.0)
            assert vals[0] < 1e-3

    def test_explicit_sharper_than_implicit(self):
        rho_i = bound_spectral_radius(query(variant="imex-i"))
        rho_e = bound_spectral_radius(query(variant="imex-e"))
        assert rho_e < rho_i


class TestSufficientConditions:
    def test_implicit_dirichlet_reference_values(self, params):
        out = sufficient_step_conditions("imex-i", "euler", "dirichlet", params, W, 1e-6)
        assert out["unconditional_phi"] is True
        assert out["dt_max_phi"] == np.inf
        assert out["dt_max_c"] == pytest.approx(1.47059e-4, rel=1e-3)

    def test_neumann_tighter_than_dirichlet(self, params):
        dir_out = sufficient_step_conditions("imex-i", "euler", "dirichlet", params, W, 1e-6)
        neu_out = sufficient_step_conditions("imex-i", "euler", "neumann", params, W, 1e-6)
        assert neu_out["dt_max_c"] < dir_out["dt_max_c"]

    def test_second_order_scales_gamma(self, params):
        e1 = sufficient_step_conditions("imex-i", "euler", "dirichlet", params, W, 1e-6)
        e2 = sufficient_step_conditions("imex-i", "2sbdf", "dirichlet", params, W, 1e-6)
        assert e2["dt_max_c"] == pytest.approx(1.5 * e1["dt_max_c"])

    def test_validation(self, params):
        with pytest.raises(ValueError):
            sufficient_step_conditions("imex-i", "euler", "dirichlet", params, -1.0, 1e-6)


class TestIterationShifts:
    def test_euler_phi(self, params):
        alpha, beta = iteration_shifts("euler", "phi", 1e-3, W, params)
        assert alpha == pytest.approx(1e-3 * params.D_phi)
        assert beta == pytest.approx(1.0 + W * 1e-3)

    def test_2sbdf_c(self, params):
        alpha, beta = iteration_shifts("2sbdf", "c", 1e-3, W, params)
        assert alpha == pytest.approx(2e-3 * params.D_c)
        assert beta == pytest.approx(3.0)


class TestActualSpectralRadius:
    def test_zero_correction(self, params):
        g = build_grid(GridSpec((5e-6, 5e-6), (6, 6), (NN, NN)))
        N = sp.csr_matrix((36, 36))
        assert actual_spectral_radius(1e-8, 1.0, g, N) == 0.0

    def test_matches_dense_eigendecomposition(self, params):
        g = build_grid(GridSpec((9e-6, 9e-6), (10, 10), (NN, NN)))
        mask = rasterize_mask(g, (Circle((4e-6, 4e-6), 1.5e-6),))
        corr = build_correction_matrices(g, mask)
        alpha, beta = iteration_shifts("euler", "c", 1e-5, W, params)
        rho = actual_spectral_radius(alpha, beta, g, corr.N12)

        M = kronecker_sum(g.laplacians).toarray()
        Sigma = -alpha * np.linalg.solve(
            beta * np.eye(M.shape[0]) - alpha * M, corr.N12.toarray()
        )
        rho_dense = np.max(np.abs(np.linalg.eigvals(Sigma)))
        assert rho == pytest.approx(rho_dense, abs=1e-8)

    def test_shares_the_grid_factorizations(self, params):
        # The solver and the analysis shift the same factorization per axis.
        g = build_grid(GridSpec((9e-6, 9e-6), (10, 10), (NN, NN)))
        mask = rasterize_mask(g, (Circle((4e-6, 4e-6), 1.5e-6),))
        corr = build_correction_matrices(g, mask)
        alpha, beta = iteration_shifts("euler", "c", 1e-5, W, params)
        before = factorization_count()
        actual_spectral_radius(alpha, beta, g, corr.N12)
        actual_spectral_radius(alpha, beta, g, corr.N1)
        assert factorization_count() - before <= g.ndim

    @pytest.fixture
    def pit_grid(self):
        g = build_grid(GridSpec((200e-6, 100e-6), (201, 101), (NN, NN)))
        mask = rasterize_mask(g, (Circle((100e-6, 50e-6), 1.5e-6),))
        return g, build_correction_matrices(g, mask)

    def test_implicit_anchor(self, params, pit_grid):
        g, corr = pit_grid
        alpha, beta = iteration_shifts("euler", "c", 1e-5, W, params)
        rho = actual_spectral_radius(alpha, beta, g, corr.N12)
        assert rho == pytest.approx(5.59e-2, rel=0.05)
        bound = bound_spectral_radius(query())
        assert rho <= bound

    def test_explicit_anchor(self, params, pit_grid):
        g, corr = pit_grid
        alpha, beta = iteration_shifts("euler", "c", 1e-5, W, params)
        rho = actual_spectral_radius(alpha, beta, g, corr.N1)
        assert rho == pytest.approx(1.3538e-4, rel=0.05)
        bound = bound_spectral_radius(query(variant="imex-e", geometry="circle"))
        assert rho <= bound


class TestFrontPosition:
    def grid(self):
        return build_grid(GridSpec((4e-6, 10e-6), (5, 11), (NN, NN)))

    def test_no_crossing_raises(self):
        g = self.grid()
        state = FieldPair(np.ones(g.counts), np.ones(g.counts))
        with pytest.raises(ValueError):
            front_position(state, g, 1)

    def test_linear_interpolation(self):
        g = self.grid()
        c = np.ones(g.counts)
        c[:, 4:] = 0.0  # crossing between nodes 3 and 4
        state = FieldPair(np.ones(g.counts), c)
        pos = front_position(state, g, 1)
        assert pos == pytest.approx(3.5e-6)

    def test_exact_node_value(self):
        g = self.grid()
        c = np.ones(g.counts)
        c[:, 6] = 0.5
        c[:, 7:] = 0.0
        state = FieldPair(np.ones(g.counts), c)
        assert front_position(state, g, 1) == pytest.approx(6e-6)


    @staticmethod
    def scanned(line, coords):
        """The node-by-node scan that `front_position` vectorizes."""
        diff = line - 0.5
        for i in range(line.size - 1):
            if diff[i] == 0.0:
                return float(coords[i])
            if diff[i] * diff[i + 1] < 0.0:
                frac = diff[i] / (diff[i] - diff[i + 1])
                return float(coords[i] + frac * (coords[i + 1] - coords[i]))
        if diff[-1] == 0.0:
            return float(coords[-1])
        raise ValueError("no c = 0.5 crossing found along the probed line")

    def test_matches_the_node_scan(self):
        # Random lines with NaN, exact 0.5 nodes (last node included),
        # one-sided lines and no-crossing lines: same value, same error.
        g = build_grid(GridSpec((9e-6, 40e-6), (9, 40), (NN, NN)))
        rng = np.random.default_rng(11)
        values = np.array([0.5, 0.5, np.nan, 0.0, 1.0, 0.25, 0.75, 0.5 + 1e-17])
        errors = 0
        for trial in range(400):
            line = rng.uniform(0.4, 0.6, 40) if trial % 2 else rng.choice(values, 40)
            if trial % 5 == 0:
                line = np.abs(line - 0.5) + 0.5  # no sign change
                line[rng.integers(0, 40, rng.integers(0, 2))] = np.nan
            if trial % 7 == 0:
                line[-1] = 0.5
            c = np.ones(g.counts)
            c[4, :] = line
            state = FieldPair(np.ones(g.counts), c)
            try:
                want = self.scanned(line, g.axes[1])
            except ValueError:
                errors += 1
                with pytest.raises(ValueError, match="no c = 0.5 crossing"):
                    front_position(state, g, 1)
                continue
            got = front_position(state, g, 1)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert 0 < errors < 400


class TestErrorNormsAndFits:
    def test_trivial_norms(self):
        rng = np.random.default_rng(0)
        ref = FieldPair(rng.uniform(1, 2, (4, 4)), rng.uniform(1, 2, (4, 4)))
        assert error_norms(ref, ref) == (0.0, 0.0)
        doubled = FieldPair(2.0 * ref.Phi, 2.0 * ref.C)
        e_phi, e_c = error_norms(doubled, ref)
        assert e_phi == pytest.approx(1.0)
        assert e_c == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        z = FieldPair(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            error_norms(z, z)

    def test_loglog_slope_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, r2 = fit_loglog_slope(xs, 3.0 * xs**2)
        assert slope == pytest.approx(2.0)
        assert r2 == pytest.approx(1.0)

    def test_loglog_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])
