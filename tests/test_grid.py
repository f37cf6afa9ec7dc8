import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pitcorr.grid import (
    Circle,
    CylinderSegment,
    DomainMask,
    GridSpec,
    RoughEdgeProfile,
    axis_counts_for_spacing,
    build_correction_matrices,
    build_grid,
    rasterize_mask,
    spacing_for_axis,
)
from pitcorr.linalg import kronecker_sum

NN = ("neumann", "neumann")
DD = ("dirichlet", "dirichlet")
DN = ("dirichlet", "neumann")


def square_grid(extent=10e-6, count=None, bc=NN):
    count = count if count is not None else axis_counts_for_spacing(extent, 1e-6, bc)
    return build_grid(GridSpec((extent, extent), (count, count), (bc, bc)))


class TestGridGeometry:
    def test_spacing_rules(self):
        # Dirichlet ends exclude the boundary node, Neumann ends keep it.
        assert spacing_for_axis(1.0, 4, DD) == pytest.approx(0.2)
        assert spacing_for_axis(1.0, 5, DN) == pytest.approx(0.2)
        assert spacing_for_axis(1.0, 6, NN) == pytest.approx(0.2)

    def test_count_inverse(self):
        for bc in (DD, DN, NN):
            count = axis_counts_for_spacing(1.0, 0.2, bc)
            assert spacing_for_axis(1.0, count, bc) == pytest.approx(0.2)

    def test_count_rejects_nonmultiple(self):
        with pytest.raises(ValueError):
            axis_counts_for_spacing(1.0, 0.3, DD)

    def test_axis_coordinates(self):
        g = build_grid(GridSpec((1.0, 1.0), (4, 6), (DD, NN)))
        np.testing.assert_allclose(g.axes[0], [0.2, 0.4, 0.6, 0.8])
        np.testing.assert_allclose(g.axes[1], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_3d_grid(self):
        g = build_grid(GridSpec((1.0, 2.0, 1.5), (4, 9, 6), (DD, DD, DN)))
        assert g.ndim == 3
        assert g.n_nodes == 4 * 9 * 6
        assert len(g.laplacians) == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec((1.0,), (4,), (DD,))
        with pytest.raises(ValueError):
            GridSpec((1.0, -1.0), (4, 4), (DD, DD))
        with pytest.raises(ValueError):
            GridSpec((1.0, 1.0), (4, 1), (DD, DD))
        with pytest.raises(ValueError):
            GridSpec((1.0, 1.0), (4, 4), (DD, ("dirichlet", "robin")))


class TestShapes:
    def test_circle_node_count_r2(self):
        # Closed disk of radius 2h on the unit lattice covers 13 nodes.
        g = square_grid(extent=200e-6)
        mask = rasterize_mask(g, (Circle((100e-6, 100e-6), 2e-6),))
        assert int(mask.theta.sum()) == 13

    def test_circle_node_count_r15(self):
        # Radius 1.5h keeps the full 3x3 block (offsets with d^2 <= 2h^2).
        g = square_grid(extent=200e-6)
        mask = rasterize_mask(g, (Circle((100e-6, 100e-6), 1.5e-6),))
        assert int(mask.theta.sum()) == 9

    def test_degenerate_circle_rejected(self):
        g = square_grid()
        thin = Circle((5.5e-6, 5.5e-6), 0.4e-6)  # between nodes, r < spacing
        with pytest.raises(ValueError):
            rasterize_mask(g, (thin,))

    def test_circle_snapping(self):
        g = square_grid()
        snapped = Circle((5.3e-6, 4.8e-6), 2e-6).snapped(g)
        np.testing.assert_allclose(snapped.center, (5e-6, 5e-6), rtol=1e-12)

    def test_rough_edge_covers_high_y(self):
        g = build_grid(GridSpec((200e-6, 100e-6), (201, 101), (NN, NN)))
        prof = RoughEdgeProfile(
            amplitude=15e-6, wavelength=10e-6, base_height=95e-6, seed=7
        )
        mask = rasterize_mask(g, (prof,))
        # The top row is always inside and the bottom row never is.
        assert mask.theta[:, -1].all()
        assert not mask.theta[:, 0].any()
        # Matches the direct definition y >= profile(x).
        heights = prof.heights(g.axes[0])
        np.testing.assert_array_equal(mask.theta,
                                      g.axes[1][None, :] >= heights[:, None] * (1 - 1e-12))

    def test_rough_edge_deterministic(self):
        g = build_grid(GridSpec((200e-6, 100e-6), (201, 101), (NN, NN)))
        prof = RoughEdgeProfile(15e-6, 10e-6, 95e-6, seed=3)
        m1 = rasterize_mask(g, (prof,)).theta
        m2 = rasterize_mask(g, (prof,)).theta
        np.testing.assert_array_equal(m1, m2)

    def test_cylinder_3d(self):
        g = build_grid(
            GridSpec((20e-6, 10e-6, 20e-6), (21, 11, 21), (NN, NN, NN))
        )
        cyl = CylinderSegment(1, (10e-6, 20e-6), 1.5e-6, None, (2, 20e-6))
        mask = rasterize_mask(g, (cyl,))
        # Half of the 3x3 block survives the clip: 6 nodes per y-slice.
        assert int(mask.theta.sum()) == 6 * 11
        assert mask.theta[:, 0, :].sum() == 6

    def test_masks_match_meshgrid_definition(self):
        # Circle and cylinder masks against their definitions on full
        # coordinate arrays, a cylinder clipped by `span` and `half_plane`.
        D, N = "dirichlet", "neumann"
        g2 = build_grid(GridSpec((20e-6, 14e-6), (21, 13), ((N, N), (D, N))))
        X, Y = np.meshgrid(*g2.axes, indexing="ij")
        circle = Circle((9e-6, 6e-6), 3.2e-6).snapped(g2)
        (cx, cy), r = circle.center, circle.radius
        expected = (X - cx) ** 2 + (Y - cy) ** 2 <= r**2 * (1.0 + 1e-12)
        assert expected.any() and not expected.all()
        np.testing.assert_array_equal(circle.contains(g2), expected)

        g3 = build_grid(GridSpec((12e-6, 10e-6, 16e-6), (13, 9, 16), ((N, N), (D, D), (D, N))))
        X, Y, Z = np.meshgrid(*g3.axes, indexing="ij")
        cyl = CylinderSegment(1, (6e-6, 8e-6), 3e-6, (2e-6, 7e-6), (2, 9e-6)).snapped(g3)
        (cx, cz), r = cyl.center, cyl.radius
        expected = ((X - cx) ** 2 + (Z - cz) ** 2 <= r**2 * (1.0 + 1e-12)) \
            & (Y >= 2e-6 * (1.0 - 1e-12)) & (Y <= 7e-6 * (1.0 + 1e-12)) \
            & (Z <= 9e-6 * (1.0 + 1e-12))
        assert expected.any() and not expected.all()
        inside = cyl.contains(g3)
        assert inside.shape == g3.counts
        np.testing.assert_array_equal(inside, expected)

    def test_cylinder_span_keeps_nodes_on_its_ends(self):
        # On this axis y = 7 um is stored as 7.000000000000001e-06; the span
        # keeps it as the radius keeps a node on the circle.
        g = build_grid(GridSpec((10e-6,) * 3, (9,) * 3, (DD,) * 3))
        assert g.axes[1][6] > 7e-6
        cyl = CylinderSegment(1, (5e-6, 5e-6), 1e-6, (2e-6, 7e-6))
        inside = cyl.contains(g)
        assert np.flatnonzero(inside.any(axis=(0, 2))).tolist() == [1, 2, 3, 4, 5, 6]
        assert int(inside.sum()) == 5 * 6

    def test_cylinder_rejects_2d(self):
        g = square_grid()
        with pytest.raises(ValueError):
            CylinderSegment(1, (1e-6, 1e-6), 2e-6).contains(g)

    def test_union_of_shapes(self):
        g = square_grid(extent=30e-6)
        shapes = (Circle((10e-6, 10e-6), 1.5e-6), Circle((20e-6, 20e-6), 1.5e-6))
        mask = rasterize_mask(g, shapes)
        assert int(mask.theta.sum()) == 18


class TestDomainMask:
    def test_omega_is_complement(self):
        theta = np.zeros((4, 4), dtype=bool)
        theta[0, 0] = True
        mask = DomainMask(theta)
        np.testing.assert_array_equal(mask.omega, ~theta)


class TestCorrectionOperators:
    @pytest.fixture
    def pit(self):
        g = build_grid(GridSpec((20e-6, 20e-6), (21, 21), (NN, NN)))
        mask = rasterize_mask(g, (Circle((10e-6, 10e-6), 2e-6),))
        return g, mask, build_correction_matrices(g, mask)

    def test_n12_is_summed_once(self, pit):
        _, _, corr = pit
        assert corr.N12 is corr.N12
        assert abs(corr.N12 - (corr.N1 + corr.N2)).sum() == 0.0

    def test_n1_nilpotent(self, pit):
        _, _, corr = pit
        prod = (corr.N1 @ corr.N1)
        assert prod.nnz == 0 or np.abs(prod.toarray()).max() == 0.0

    def test_masked_laplacian_theta_rows_cols_vanish(self, pit):
        g, mask, corr = pit
        M = kronecker_sum(g.laplacians)
        masked = (M - corr.N1 - corr.N2).toarray()
        flat = mask.theta.ravel(order="F")
        assert np.abs(masked[flat, :]).max() == 0.0
        assert np.abs(masked[:, flat]).max() == 0.0

    def test_indicator_annihilations(self, pit):
        g, mask, corr = pit
        flat = mask.theta.ravel(order="F").astype(float)
        d_theta = sp.diags(flat)
        d_omega = sp.diags(1.0 - flat)
        # N1 lives on Theta rows and Omega columns; N2 on Theta columns.
        assert abs((d_omega @ corr.N1)).sum() == 0.0
        assert abs((corr.N1 @ d_theta)).sum() == 0.0
        assert abs((corr.N2 @ d_omega)).sum() == 0.0

    def test_circle_norm_bounds(self, pit):
        _, _, corr = pit
        h2 = (1e-6) ** 2
        norm1, norm_inf = spla.norm(corr.N1, 1), spla.norm(corr.N1, np.inf)
        assert norm1 <= 2.0 / h2 * (1 + 1e-12)
        assert norm_inf <= 3.0 / h2 * (1 + 1e-12)

    def test_generic_norm_bound(self):
        g = build_grid(GridSpec((200e-6, 100e-6), (201, 101), (NN, NN)))
        prof = RoughEdgeProfile(15e-6, 10e-6, 95e-6, seed=7)
        mask = rasterize_mask(g, (prof,))
        corr = build_correction_matrices(g, mask)
        S = sum(1.0 / dr**2 for dr in g.spacings)
        norm1, norm_inf = spla.norm(corr.N1, 1), spla.norm(corr.N1, np.inf)
        assert max(norm1, norm_inf) <= 4.0 * S * (1 + 1e-12)

    def test_mask_shape_mismatch(self):
        g = square_grid()
        bad = DomainMask(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            build_correction_matrices(g, bad)

    @pytest.mark.parametrize("counts,bc", [
        ((7, 6), (DN, NN)),
        ((5, 4, 6), (NN, ("neumann", "dirichlet"), DD)),
    ])
    def test_matches_kronecker_sum_construction(self, counts, bc):
        # The stencil build against chi_Theta M chi_Omega and M chi_Theta on
        # the assembled Laplacian, stored alike, with Theta on the boundary.
        extents = tuple(1e-6 * (m + 1) for m in counts)
        grid = build_grid(GridSpec(extents, counts, bc))
        rng = np.random.default_rng(len(counts))
        theta = rng.random(counts) < 0.3
        theta[0] = True
        theta[(-1,) * len(counts)] = True
        corr = build_correction_matrices(grid, DomainMask(theta))
        M = kronecker_sum(grid.laplacians)
        flat = theta.ravel(order="F").astype(float)
        N1 = sp.diags(flat, format="csr") @ M @ sp.diags(1.0 - flat, format="csr")
        N2 = M @ sp.diags(flat, format="csr")
        for got, ref in ((corr.N1, N1.tocsr()), (corr.N2, N2.tocsr())):
            ref.eliminate_zeros()
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data)

    def test_deterministic(self, pit):
        g, mask, corr = pit
        corr2 = build_correction_matrices(g, mask)
        assert (corr.N1 != corr2.N1).nnz == 0
        assert (corr.N2 != corr2.N2).nnz == 0
