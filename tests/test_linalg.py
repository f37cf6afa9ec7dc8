import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pitcorr import linalg
from pitcorr.linalg import (
    DIRICHLET,
    NEUMANN,
    Capacitance,
    apply_laplacian,
    build_operator,
    csr_product,
    factorization_count,
    kronecker_sum,
    laplacian_1d,
    sparse_rows,
    spectral_factorize,
    support_images,
    support_inverse,
)
from pitcorr.grid import build_correction_matrices, build_grid, rasterize_mask
from pitcorr.holes import build_hole_operators
from pitcorr.rect import build_rect_operators
from pitcorr.scenarios import load_config


class TestLaplacian1D:
    def test_dirichlet_matrix_entries(self):
        M = laplacian_1d(DIRICHLET, 3, 1.0).sparse().toarray()
        expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
        np.testing.assert_array_equal(M, expected)

    def test_dirichlet_eigenvalues_m3(self):
        lam = np.linalg.eigvalsh(laplacian_1d(DIRICHLET, 3, 1.0).sparse().toarray())
        np.testing.assert_allclose(
            np.sort(lam), np.sort([-2.0 - np.sqrt(2.0), -2.0, -2.0 + np.sqrt(2.0)]),
            atol=1e-12,
        )

    def test_neumann_matrix_rows_m3(self):
        M = laplacian_1d(NEUMANN, 3, 1.0).sparse().toarray()
        expected = np.array([[-2.0, 2.0, 0.0], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
        np.testing.assert_array_equal(M, expected)

    def test_neumann_eigenvalues_m3(self):
        lam = np.linalg.eigvals(laplacian_1d(NEUMANN, 3, 1.0).sparse().toarray())
        np.testing.assert_allclose(np.sort(lam.real), [-4.0, -2.0, 0.0], atol=1e-12)

    def test_mixed_ends(self):
        M = laplacian_1d((DIRICHLET, NEUMANN), 3, 0.5)
        s = 4.0
        assert M.upper[0] == s
        assert M.lower[-1] == 2.0 * s

    def test_scaling(self):
        dr = 0.25
        M = laplacian_1d(DIRICHLET, 4, dr).sparse().toarray()
        assert M[0, 0] == pytest.approx(-2.0 / dr**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            laplacian_1d("robin", 3, 1.0)
        with pytest.raises(ValueError):
            laplacian_1d(DIRICHLET, 1, 1.0)
        with pytest.raises(ValueError):
            laplacian_1d(DIRICHLET, 3, 0.0)


class TestSpectralFactorize:
    @pytest.mark.parametrize("kind", [
        DIRICHLET, NEUMANN, (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET),
    ])
    @pytest.mark.parametrize("m", [2, 3, 8, 17])
    def test_reconstruction(self, kind, m):
        M = laplacian_1d(kind, m, 0.37)
        f = spectral_factorize(M)
        approx = f.Gamma @ np.diag(f.lam) @ f.GammaInv
        assert np.abs(approx - M.sparse().toarray()).max() < 1e-8 / 0.37**2
        assert np.abs(f.GammaInv @ f.Gamma - np.eye(m)).max() < 1e-10

    def test_eigenvalues_ascending_nonpositive(self):
        for kind in (DIRICHLET, NEUMANN, (NEUMANN, DIRICHLET)):
            f = spectral_factorize(laplacian_1d(kind, 9, 0.2))
            assert np.all(np.diff(f.lam) >= 0)
            assert np.all(f.lam <= 1e-10)

    def test_neumann_has_zero_eigenvalue(self):
        f = spectral_factorize(laplacian_1d(NEUMANN, 7, 0.3))
        assert np.abs(f.lam).min() < 1e-10

    def test_dirichlet_analytic_values(self):
        m, dr = 6, 0.11
        f = spectral_factorize(laplacian_1d(DIRICHLET, m, dr))
        k = np.arange(1, m + 1)
        analytic = -(4.0 / dr**2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2
        np.testing.assert_allclose(f.lam, np.sort(analytic), rtol=1e-13)


def _random_operator(rng, shapes, kinds, a=None, b=None):
    laps = [
        laplacian_1d(kind, m, 0.1 + 0.4 * rng.random())
        for kind, m in zip(kinds, shapes)
    ]
    a = 1.0 + 2.0 * rng.random() if a is None else a
    b = -(0.01 + rng.random()) if b is None else b
    return a, b, laps


class TestSylvesterSolve:
    def test_scalar_shift_case(self):
        # With b = 0 the solve reduces to division by a.
        lap = laplacian_1d(DIRICHLET, 4, 1.0)
        op = build_operator(5.0, 0.0, (lap, lap))
        Y = np.arange(16.0).reshape(4, 4)
        np.testing.assert_allclose(op.solve(Y), Y / 5.0, rtol=1e-14, atol=1e-14)

    def test_matches_dense_2d_random(self):
        rng = np.random.default_rng(42)
        kinds = [DIRICHLET, NEUMANN, (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]
        for trial in range(30):
            mx, my = rng.integers(2, 9, size=2)
            kx, ky = rng.choice(len(kinds), size=2)
            a, b, laps = _random_operator(rng, (mx, my), (kinds[kx], kinds[ky]))
            op = build_operator(a, b, laps)
            Y = rng.standard_normal((mx, my))
            X = op.solve(Y)
            A = a * sp.identity(mx * my) + b * kronecker_sum(laps)
            Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F"))
            Xd = Xd.reshape(mx, my, order="F")
            denom = max(np.abs(Xd).max(), 1e-30)
            assert np.abs(X - Xd).max() / denom < 1e-10

    def test_matches_dense_3d(self):
        rng = np.random.default_rng(7)
        for kinds in [(DIRICHLET,) * 3, (NEUMANN,) * 3,
                      (DIRICHLET, NEUMANN, (NEUMANN, DIRICHLET))]:
            a, b, laps = _random_operator(rng, (3, 4, 5), kinds)
            op = build_operator(a, b, laps)
            Y = rng.standard_normal((3, 4, 5))
            X = op.solve(Y)
            A = a * sp.identity(60) + b * kronecker_sum(laps)
            Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F"))
            Xd = Xd.reshape(3, 4, 5, order="F")
            assert np.abs(X - Xd).max() / np.abs(Xd).max() < 1e-10

    def test_solve_shape_mismatch(self):
        lap = laplacian_1d(DIRICHLET, 4, 1.0)
        op = build_operator(1.0, -0.1, (lap, lap))
        with pytest.raises(ValueError):
            op.solve(np.zeros((4, 5)))

    def test_factorization_count_stable_across_solves(self):
        lap = laplacian_1d(NEUMANN, 6, 0.2)
        op = build_operator(2.0, -0.3, (lap, lap))
        state = dict(vars(op))
        before = factorization_count()
        for _ in range(10):
            op.solve(np.ones((6, 6)))
        assert factorization_count() == before
        # Solving leaves the operator as it was: every attribute the same object.
        assert vars(op).keys() == state.keys()
        assert all(vars(op)[name] is value for name, value in state.items())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 3))
    def test_solve_inverts_apply(self, mx, my, kind_idx):
        kinds = [DIRICHLET, NEUMANN, (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]
        laps = (laplacian_1d(kinds[kind_idx], mx, 0.3),
                laplacian_1d(kinds[(kind_idx + 1) % 4], my, 0.2))
        a, b = 3.0, -0.05
        op = build_operator(a, b, laps)
        rng = np.random.default_rng(mx * 100 + my)
        X = rng.standard_normal((mx, my))
        Y = a * X + b * apply_laplacian(laps, X)
        np.testing.assert_allclose(op.solve(Y), X, atol=1e-9)


def _random_correction(rng, shape, n_cols=5, per_col=3):
    """A sparse N on a few random columns, with a stored zero that must not count."""
    n = int(np.prod(shape))
    cols = rng.choice(n, size=n_cols + 1, replace=False)
    cols, zero_col = np.sort(cols[:-1]), cols[-1]
    rows = rng.integers(0, n, size=(n_cols, per_col))
    vals = rng.standard_normal((n_cols, per_col)) * 1e3
    N = sp.csc_matrix(
        (np.append(vals.ravel(), 0.0),
         (np.append(rows.ravel(), 0), np.append(np.repeat(cols, per_col), zero_col))),
        shape=(n, n),
    )
    return N, cols


SHAPES_AND_KINDS = [
    ((7, 5), (NEUMANN, (DIRICHLET, NEUMANN))),
    ((5, 4, 6), (NEUMANN, DIRICHLET, (NEUMANN, DIRICHLET))),
]


class TestCapacitance:
    @pytest.mark.parametrize("shape,kinds", SHAPES_AND_KINDS)
    def test_support_inverse_matches_per_column_solves(self, shape, kinds):
        rng = np.random.default_rng(len(shape))
        a, b, laps = _random_operator(rng, shape, kinds)
        op = build_operator(a, b, laps)
        N, cols = _random_correction(rng, shape)
        before = factorization_count()
        images = _images(op, N)
        np.testing.assert_array_equal(
            images.N.cols, np.ravel_multi_index(np.unravel_index(cols, shape, order="F"), shape))
        K = support_inverse(op, images.N)
        assert factorization_count() == before
        # The construction it replaces: one solve per support column.
        ref = np.empty_like(K)
        for col, j in enumerate(cols):
            w = op.solve(N[:, [j]].toarray().reshape(shape, order="F"))
            ref[:, col] = w.ravel(order="F")[cols]
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape,kinds", SHAPES_AND_KINDS)
    def test_solve_matches_dense(self, shape, kinds):
        rng = np.random.default_rng(10 + len(shape))
        a, b, laps = _random_operator(rng, shape, kinds)
        op = build_operator(a, b, laps)
        N, _ = _random_correction(rng, shape)
        N = N * (0.1 / (abs(b) * np.abs(N).max()))  # keep I + alpha*K well conditioned
        corrected = op.corrected(_images(op, N))
        # A copy that shares the plain solver's tables and leaves it plain.
        assert corrected.facts is op.facts and corrected.Upsilon is op.Upsilon
        assert isinstance(corrected.capacitance, Capacitance) and op.capacitance is None
        Y = rng.standard_normal(shape)
        states = [(o, dict(vars(o))) for o in (op, corrected, corrected.capacitance)]
        X = corrected.solve(Y)
        for o, state in states:
            assert vars(o).keys() == state.keys()
            assert all(vars(o)[name] is value for name, value in state.items())
        n = int(np.prod(shape))
        A = a * sp.identity(n) + b * (kronecker_sum(laps) - N)
        Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F")).reshape(shape, order="F")
        assert np.abs(X - Xd).max() / np.abs(Xd).max() < 1e-10

    @pytest.mark.parametrize("shape,kinds", SHAPES_AND_KINDS)
    def test_support_inverse_in_chunks(self, shape, kinds, monkeypatch):
        # A byte bound below one head mode gives every index of the first
        # axis a chunk of its own; the chunked K matches the single-chunk one
        # and the per-column solves.
        rng = np.random.default_rng(20 + len(shape))
        a, b, laps = _random_operator(rng, shape, kinds)
        op = build_operator(a, b, laps)
        N, cols = _random_correction(rng, shape, n_cols=8)
        N_rows = sparse_rows(N, shape)
        whole = support_inverse(op, N_rows)
        widths = _head_product_widths(monkeypatch)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", 1)
        chunked = support_inverse(op, N_rows)
        # One head product of S and one of the rows per chunk of modes.
        assert widths == [1] * (2 * shape[0])
        assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()
        ref = np.empty_like(whole)
        for col, j in enumerate(cols):
            w = op.solve(N[:, [j]].toarray().reshape(shape, order="F"))
            ref[:, col] = w.ravel(order="F")[cols]
        assert np.abs(chunked - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_support_inverse_over_many_levels(self, monkeypatch):
        # A cylinder along z: S and the rows span most of the z levels, so
        # the pair table of the W_S x W_R level pairs outweighs the head
        # products.  A byte bound that would hold every head mode without
        # it cuts the modes into several chunks; K still matches the
        # per-column solves.
        raw = {"grid": {"extents_um": [6.0, 6.0, 30.0], "spacing_um": 1.0,
                        "bc": {"x": ["neumann", "neumann"], "y": ["neumann", "neumann"],
                               "z": ["neumann", "dirichlet"]}},
               "geometry": [{"cylinder": {"axis": "z", "center_um": [3.0, 3.0],
                                          "radius_um": 1.0, "span_um": [2.0, 28.0]}}],
               "scheme": {"order": "euler", "dt": 1e-3, "stop_mode": "exact"},
               "horizon": 1e-3}
        cfg = load_config(raw)
        grid = build_grid(cfg.grid_spec)
        mask = rasterize_mask(grid, [shape.snapped(grid) for shape in cfg.shapes])
        N = build_correction_matrices(grid, mask).N1
        N_rows = sparse_rows(N, grid.counts)
        op = build_rect_operators(grid, cfg.scheme.scheme(), cfg.params).phi
        s, R, m_z = N_rows.cols.size, N_rows.rows.size, grid.counts[-1]
        W_S, W_R = (np.unique(np.unravel_index(index, grid.counts)[-1]).size
                    for index in (N_rows.cols, N_rows.rows))
        pairs, H = W_S * W_R, math.prod(grid.counts[:-1])
        assert min(W_S, W_R) >= 20 and pairs > s + 2 * R
        # The lift, and the head products and work arrays of every mode with
        # half of their pair table.
        limit = 8 * (pairs * m_z + (s + 2 * R + pairs // 2) * H)
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", limit)
        widths = _head_product_widths(monkeypatch)
        K = support_inverse(op, N_rows)
        assert len(widths) >= 4 and sum(widths[::2]) == grid.counts[0]
        ref = np.empty_like(K)
        for col, j in enumerate(N_rows.cols):
            w = op.solve(N[:, [_column_stacked(j, grid.counts)]].toarray()
                         .reshape(grid.counts, order="F"))
            ref[:, col] = w.ravel()[N_rows.cols]
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_support_inverse_under_strong_decay(self):
        # A small shift b makes the last-axis Green's functions fall by about
        # 1e-6 per level, so that their values over the levels of S span more
        # than 2**500.  K still matches the per-column solves to their
        # round-off, which is relative to each solved field's maximum.
        rng = np.random.default_rng(7)
        shape = (5, 40)
        laps = (laplacian_1d(NEUMANN, 5, 0.3), laplacian_1d((DIRICHLET, NEUMANN), 40, 0.3))
        op = build_operator(1.0, -1e-7, laps)
        cols = np.sort(rng.choice(200, size=12, replace=False))
        rows = rng.integers(0, 200, size=(12, 3))
        N = sp.csc_matrix((rng.standard_normal(36), (rows.ravel(), np.repeat(cols, 3))),
                          shape=(200, 200))
        N_rows = sparse_rows(N, shape)
        K = support_inverse(op, N_rows)
        ref = np.empty_like(K)
        scale = 0.0
        for col, j in enumerate(N_rows.cols):
            w = op.solve(N[:, [_column_stacked(j, shape)]].toarray().reshape(shape, order="F"))
            ref[:, col] = w.ravel()[N_rows.cols]
            scale = max(scale, np.abs(w).max())
        assert np.abs(K - ref).max() <= 1e-12 * scale

    def test_support_inverse_on_electropolish_support(self):
        # The builtin's rough edge: s = R = 207 on 15 distinct y of a 201 x 101
        # grid, so every group and the lift take part.
        cfg = load_config("electropolish")
        grid = build_grid(cfg.grid_spec)
        mask = rasterize_mask(grid, [shape.snapped(grid) for shape in cfg.shapes])
        N = build_correction_matrices(grid, mask).N1
        op = build_rect_operators(grid, cfg.scheme.scheme(), cfg.params).c
        N_rows = sparse_rows(N, grid.counts)
        assert N_rows.cols.size == N_rows.rows.size == 207
        K = support_inverse(op, N_rows)
        ref = np.empty_like(K)
        for col, j in enumerate(N_rows.cols):
            w = op.solve(N[:, [_column_stacked(j, grid.counts)]].toarray()
                         .reshape(grid.counts, order="F"))
            ref[:, col] = w.ravel()[N_rows.cols]
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_uncertified_capacitance_falls_back_to_cond(self, monkeypatch):
        lap = laplacian_1d(NEUMANN, 6, 0.2)
        op = build_operator(2.0, -0.3, (lap, lap))
        r = 14
        unit = sp.csc_matrix(([1.0], ([r], [r])), shape=(36, 36))
        k = support_inverse(op, sparse_rows(unit, op.shape))[0, 0]
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda C: calls.append(C) or cond(C))
        # |alpha*K| = 0.3 k < 1 certifies I + alpha*K without an SVD.
        Capacitance(op, _images(op, unit))
        assert calls == []
        # 1 - b*c*k = -2 for c = 3 / (b*k): |alpha*K| = 3 fails the
        # certificate, but I + alpha*K is well conditioned and accepted.
        N = unit * (3.0 / (op.b * k))
        corrected = op.corrected(_images(op, N))
        assert len(calls) == 1
        Y = np.random.default_rng(5).standard_normal((6, 6))
        A = op.a * sp.identity(36) + op.b * (kronecker_sum((lap, lap)) - N)
        Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F")).reshape(6, 6, order="F")
        assert np.abs(corrected.solve(Y) - Xd).max() / np.abs(Xd).max() < 1e-10

    @pytest.mark.parametrize("shape,kinds", SHAPES_AND_KINDS)
    @pytest.mark.parametrize("size", [1.0, 1e-4])
    def test_lu_solves_match_dense(self, shape, kinds, size):
        # Both a unit-sized and a small alpha*K are solved by the LU factors
        # of I + alpha*K.
        rng = np.random.default_rng(30 + len(shape))
        a, b, laps = _random_operator(rng, shape, kinds)
        op = build_operator(a, b, laps)
        N, _ = _random_correction(rng, shape)
        N = N * (size / (abs(b) * np.abs(N).max()))
        corrected = op.corrected(_images(op, N))
        _assert_lu_factors(corrected.capacitance)
        Y = rng.standard_normal(shape)
        n = int(np.prod(shape))
        A = a * sp.identity(n) + b * (kronecker_sum(laps) - N)
        Xd = np.linalg.solve(A.toarray(), Y.ravel(order="F")).reshape(shape, order="F")
        assert np.abs(corrected.solve(Y) - Xd).max() / np.abs(Xd).max() < 1e-10

    @pytest.mark.parametrize("shape,kinds", SHAPES_AND_KINDS)
    def test_empty_correction_has_empty_support(self, shape, kinds):
        # imex-e's N1 is empty when Theta covers every node.
        n = int(np.prod(shape))
        op = build_operator(2.0, -0.3, _random_operator(np.random.default_rng(0), shape, kinds)[2])
        images = _images(op, sp.csr_matrix((n, n)))
        assert images.N.cols.size == images.N.rows.size == 0
        at_support = np.unravel_index(images.N.cols, shape)
        head = linalg._head_product([f.Gamma[i] for f, i in zip(op.facts[:-1], at_support)])
        assert head.shape == (0, n // shape[-1])
        assert support_inverse(op, images.N).shape == (0, 0)

    def test_capacitance_keeps_less_than_a_head_product(self):
        # semicylinder3d: s = 182 points on 201 x 26 x 101 nodes.  What the
        # correction of a step reads takes less than one head product over
        # the H = 201 * 26 head modes, s * H * 8 B = 7.26 MiB, which only
        # set-up reads.
        op = _builtin_hole_operators("semicylinder3d").phi
        images = op.capacitance.images
        assert _reachable_bytes(images) < images.N.cols.size * math.prod(op.shape[:-1]) * 8

    def test_singular_capacitance_raises(self):
        lap = laplacian_1d(NEUMANN, 6, 0.2)
        op = build_operator(2.0, -0.3, (lap, lap))
        r = 14
        unit = sp.csc_matrix(([1.0], ([r], [r])), shape=(36, 36))
        k = support_inverse(op, sparse_rows(unit, op.shape))[0, 0]
        # 1 + alpha * c * k = 1 - b * c * k vanishes for c = 1 / (b * k).
        with pytest.raises(ArithmeticError):
            Capacitance(op, _images(op, unit / (op.b * k)))
        Capacitance(op, _images(op, unit))


def _reachable_bytes(obj):
    """The bytes of the distinct arrays reachable from `obj` through
    dataclass fields, tuples and sparse matrices, a view counted as its base."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
        elif sp.issparse(x):
            todo += [x.data, x.indices, x.indptr]
        elif isinstance(x, tuple):
            todo += x
        elif dataclasses.is_dataclass(x):
            todo += [getattr(x, f.name) for f in dataclasses.fields(x)]
    return total


def _head_product_widths(monkeypatch):
    """The widths of the first factor of each `_head_product` call from now on."""
    widths = []
    head_product = linalg._head_product
    monkeypatch.setattr(linalg, "_head_product",
                        lambda f: widths.append(f[0].shape[1]) or head_product(f))
    return widths


def _images(op, N):
    """The `SupportImages` of the n x n correction N on `op`'s grid."""
    return support_images(op.facts, sparse_rows(N, op.shape))


def _column_stacked(index, shape):
    """The column-stacked index of the point at the C-order index `index`."""
    return np.ravel_multi_index(np.unravel_index(index, shape), shape, order="F")


def _flat(points, shape):
    """Column-stacked indices of the grid points (rows of coordinates)."""
    points = np.asarray(points, dtype=int).reshape(-1, len(shape))
    return np.ravel_multi_index(tuple(points.T), shape, order="F")


def _factors_at(facts, images):
    """Per axis, the Gamma rows at the coordinates of S (s x m) and the
    Gamma^{-1} columns at those of the rows (m x R), from the factorizations
    and the flat indices."""
    shape = tuple(f.lam.size for f in facts)
    at_support = np.unravel_index(images.N.cols, shape)
    at_rows = np.unravel_index(images.N.rows, shape)
    return ([f.Gamma[i] for f, i in zip(facts, at_support)],
            [f.GammaInv.T[i].T for f, i in zip(facts, at_rows)])


def _per_point_corrected(op, images, W):
    """The correction the grouped one replaces, point by point: y_S read with
    each point's Gamma rows, (I + alpha*K) x_S = y_S solved densely, and the
    weighted rank-one images of the rows summed."""
    axes = "abc"[: W.ndim]
    at_support, at_rows = _factors_at(op.facts, images)
    V = op.Upsilon * W
    y = np.einsum(",".join("k" + a for a in axes) + f",{axes}->k", *at_support, V)
    alpha = -op.b
    x = np.linalg.solve(np.eye(y.size) + alpha * support_inverse(op, images.N), y)
    weights = -alpha * (images.N.block @ x)
    return W + np.einsum(",".join(a + "r" for a in axes) + f",r->{axes}", *at_rows, weights)


# (shape, support points, row points, grouping axis of the support, of the rows)
PLANE_2D = [(i, 3) for i in range(7)]  # one y
LINE_3D_X = [(1, j, k) for j in range(4) for k in (0, 2, 5)]  # one x
LINE_3D_Y = [(i, 2, k) for i in range(5) for k in (1, 3)]  # one y
LINE_3D_Z = [(i, j, 4) for i in (0, 3) for j in range(4)]  # one z
GROUPINGS = {
    "2d-empty": ((7, 6), [], [], 0, 0),
    "2d-one-point": ((7, 6), [(2, 4)], [(2, 4)], 0, 0),
    "2d-one-y": ((7, 6), PLANE_2D, PLANE_2D, 1, 1),
    "2d-one-x": ((7, 6), [(2, j) for j in range(6)], [(2, j) for j in range(6)], 0, 0),
    "2d-all-distinct": ((7, 6), [(k, k) for k in range(5)], [(k + 1, k) for k in range(5)], 0, 0),
    "2d-split": ((7, 6), PLANE_2D, [(2, j) for j in range(6)], 1, 0),
    "3d-empty": ((5, 4, 6), [], [], 0, 0),
    "3d-one-x": ((5, 4, 6), LINE_3D_X, LINE_3D_X, 0, 0),
    "3d-one-y": ((5, 4, 6), LINE_3D_Y, LINE_3D_Y, 1, 1),
    "3d-one-z": ((5, 4, 6), LINE_3D_Z, LINE_3D_Z, 2, 2),
    "3d-all-distinct": ((5, 4, 6), [(k, k, k) for k in range(4)],
                        [(k, k, k + 1) for k in range(4)], 2, 2),
    "3d-split": ((5, 4, 6), LINE_3D_X, LINE_3D_Z, 0, 2),
}


class TestGroupedCorrection:
    """The correction read and imaged once per distinct coordinate along a
    grouping axis, against the per-point formulas and a sparse direct solve."""

    @pytest.mark.parametrize("case", sorted(GROUPINGS))
    def test_matches_per_point_and_direct_solve(self, case):
        shape, support, rows, support_axis, rows_axis = GROUPINGS[case]
        rng = np.random.default_rng(sorted(GROUPINGS).index(case))
        kinds = (NEUMANN, (DIRICHLET, NEUMANN), DIRICHLET)[: len(shape)]
        a, b, laps = _random_operator(rng, shape, kinds, a=2.0, b=-0.3)
        op = build_operator(a, b, laps)
        n = int(np.prod(shape))
        cols, rows = _flat(support, shape), _flat(rows, shape)
        r, c = np.meshgrid(rows, cols, indexing="ij")
        N = sp.csr_matrix((rng.standard_normal(r.size), (r.ravel(), c.ravel())), shape=(n, n))
        if N.nnz:
            N = N * (0.1 / (abs(b) * np.abs(N).max()))  # keep I + alpha*K well conditioned
        images = _images(op, N)
        assert (images.support_axis, images.rows_axis) == (support_axis, rows_axis)
        assert images.support_distinct.shape[0] == np.unique(
            np.unravel_index(cols, shape, order="F")[support_axis]).size
        corrected = op.corrected(images)

        W = rng.standard_normal(shape)
        ref = _per_point_corrected(op, images, W)
        assert np.abs(corrected.capacitance.corrected(W) - ref).max() <= 1e-13 * np.abs(ref).max()

        Y = rng.standard_normal(shape)
        A = (a * sp.identity(n) + b * (kronecker_sum(laps) - N)).tocsc()
        Xd = sp.linalg.spsolve(A, Y.ravel(order="F")).reshape(shape, order="F")
        X = corrected.solve(Y)
        assert np.abs(X - Xd).max() <= 1e-13 * np.abs(Xd).max()

    @pytest.mark.parametrize("name, axis, distinct", [
        ("electropolish", 1, 15), ("semicylinder3d", 2, 3),
    ])
    def test_builtins_group_by_their_fewest_coordinates(self, name, axis, distinct):
        cfg = load_config(name)
        grid = build_grid(cfg.grid_spec)
        mask = rasterize_mask(grid, [shape.snapped(grid) for shape in cfg.shapes])
        N1 = build_correction_matrices(grid, mask).N1
        images = support_images(grid.factorizations, sparse_rows(N1, grid.counts))
        assert images.support_axis == axis
        assert images.support_distinct.shape == (distinct, grid.counts[axis])


def _mode_product_as_written(A, V, axis):
    """`_mode_product` as it was first written, with its reshapes in 2D too."""
    shape = V.shape[:axis] + (A.shape[0],) + V.shape[axis + 1:]
    if axis == 0:
        return (A @ V.reshape(V.shape[0], math.prod(V.shape[1:]))).reshape(shape)
    if axis == V.ndim - 1:
        return (V.reshape(math.prod(V.shape[:-1]), V.shape[-1]) @ A.T).reshape(shape)
    return np.matmul(A, V)


def _members_as_written(group, count):
    order = np.argsort(group, kind="stable")
    return np.split(order, np.cumsum(np.bincount(group, minlength=count)))[:count]


def _reads_as_written(facts, images, V):
    """The grouped reads of y_S, rebuilding their grouping data on each call."""
    g = images.support_axis
    shape = tuple(f.lam.size for f in facts)
    T = _mode_product_as_written(images.support_distinct, np.rollaxis(V, g), 0)
    rows = [r for axis, r in enumerate(_factors_at(facts, images)[0]) if axis != g]
    group = np.unique(np.unravel_index(images.N.cols, shape)[g], return_inverse=True)[1]
    ones = np.ones((group.size, 1))
    left = linalg._head_product([ones] + rows[:1])
    right = linalg._head_product([ones] + rows[1:])
    T = T.reshape(T.shape[0], left.shape[1], right.shape[1])
    y = np.empty(group.size)
    for d, ks in enumerate(_members_as_written(group, T.shape[0])):
        y[ks] = np.einsum("kp,kp->k", left[ks] @ T[d], right[ks])
    return y


def _image_as_written(facts, images, weights):
    """The grouped spectral image, rebuilding its grouping data on each call."""
    g = images.rows_axis
    shape = tuple(f.lam.size for f in facts)
    at_rows = np.unravel_index(images.N.rows, shape)
    Q, group = images.rows_distinct, np.unique(at_rows[g], return_inverse=True)[1]
    factors = [f for axis, f in enumerate(_factors_at(facts, images)[1]) if axis != g]
    a = linalg._head_product([np.ones((group.size, 1))] + [f.T for f in factors[:-1]]).T
    b = factors[-1]
    H = np.empty((Q.shape[1], a.shape[0], b.shape[0]))
    for e, rs in enumerate(_members_as_written(group, Q.shape[1])):
        np.matmul(a[:, rs] * weights[rs], b[:, rs].T, out=H[e])
    H = H.reshape((Q.shape[1],) + shape[:g] + shape[g + 1:])
    return _mode_product_as_written(Q, np.rollaxis(H, 0, g + 1), g)


@functools.cache
def _builtin_hole_operators(name):
    cfg = load_config(name)
    grid = build_grid(cfg.grid_spec)
    mask = rasterize_mask(grid, [shape.snapped(grid) for shape in cfg.shapes])
    return build_hole_operators(grid, cfg.scheme, cfg.params, mask, cfg.bdata)


def _assert_lu_factors(cap):
    """Asserts that `cap` holds the LU factors of an s x s I + alpha*K."""
    s = cap.images.N.cols.size
    lu, piv = cap.lu
    assert lu.shape == (s, s) and piv.shape == (s,)


def _check_capacitance_paths(op, rng):
    """Asserts that the capacitance of `op` holds LU factors, and that its
    solve of I + alpha*K and its correction have the bits of the calls they
    replace."""
    cap = op.capacitance
    _assert_lu_factors(cap)
    y = rng.standard_normal(cap.images.N.cols.size)
    want = spla.lu_solve(cap.lu, y, check_finite=False)
    assert np.array_equal(cap._solve(y.copy()), want)

    W = rng.standard_normal(cap.Upsilon.shape)
    x = cap._solve(_reads_as_written(op.facts, cap.images, cap.Upsilon * W))
    want = _image_as_written(op.facts, cap.images, -cap.alpha * (cap.images.N.block @ x))
    want += W
    assert np.array_equal(cap.corrected(W), want)


class TestFastPathsMatchTheirReferences:
    """Each per-call shortcut of the exact solve against the call it
    replaces, bit for bit (np.array_equal)."""

    @pytest.mark.parametrize("name", ["circular_pit", "electropolish", "semicylinder3d"])
    def test_builtin_capacitances(self, name):
        ops = _builtin_hole_operators(name)
        rng = np.random.default_rng(len(name))
        for part in (ops, ops.start):
            if part is None:  # circular_pit runs IMEX Euler, with no start
                continue
            for op in (part.phi, part.c):
                # The capacitance holds the hole's own correction, not a copy.
                assert op.capacitance.images.N is ops.hole.N
                _check_capacitance_paths(op, rng)
        for rows in (ops.hole.N, ops.hole.G, ops.hole.N12):
            v = rng.standard_normal(rows.cols.size)
            assert np.array_equal(rows.product(v), rows.block @ v)

    @pytest.mark.parametrize("case", sorted(GROUPINGS))
    def test_grouped_correction_cases(self, case):
        shape, support, rows, _, _ = GROUPINGS[case]
        rng = np.random.default_rng(sorted(GROUPINGS).index(case))
        op = build_operator(2.0, -0.3, _random_operator(rng, shape, (NEUMANN,) * len(shape))[2])
        n = int(np.prod(shape))
        r, c = np.meshgrid(_flat(rows, shape), _flat(support, shape), indexing="ij")
        N = sp.csr_matrix((rng.standard_normal(r.size), (r.ravel(), c.ravel())), shape=(n, n))
        for size in (1.0, 1e-4):  # a unit-sized and a small alpha*K
            if N.nnz:
                N = N * (size / (abs(op.b) * np.abs(N).max()))
            _check_capacitance_paths(op.corrected(_images(op, N)), rng)

    def test_csr_product(self, monkeypatch):
        A = sp.random(9, 7, density=0.4, format="csr", random_state=1)
        x = np.random.default_rng(2).standard_normal(14)
        for v in (x[:7], x[::2], x[:7].astype(np.float32)):  # strided, other dtype
            assert np.array_equal(csr_product(A, v), A @ v)
        with pytest.raises(ValueError):
            csr_product(A, x[:5])  # the kernel itself would read past it
        monkeypatch.setattr(linalg, "_csr_matvec", None)
        assert np.array_equal(csr_product(A, x[:7]), A @ x[:7])


def _layouts(Y):
    """Y as C-ordered, Fortran-ordered and transposed-view copies, and with
    its last axis outermost in memory."""
    return {
        "C": np.ascontiguousarray(Y),
        "F": np.asfortranarray(Y),
        "transposed": np.ascontiguousarray(Y.transpose()).transpose(),
        "last-outermost": np.moveaxis(np.ascontiguousarray(np.moveaxis(Y, -1, 0)), 0, -1),
    }


def _operators(shape, seed):
    """A plain operator on `shape` and a copy corrected for a random N."""
    rng = np.random.default_rng(seed)
    kinds = (NEUMANN, (DIRICHLET, NEUMANN), DIRICHLET)[: len(shape)]
    a, b, laps = _random_operator(rng, shape, kinds)
    op = build_operator(a, b, laps)
    N, _ = _random_correction(rng, shape)
    N = N * (0.1 / (abs(b) * np.abs(N).max()))  # keep I + alpha*K well conditioned
    return op, op.corrected(_images(op, N))


class TestModeProduct:
    """`_mode_product`, the one transform primitive, against `np.einsum`,
    and the layout contract of the solves built on it."""

    @pytest.mark.parametrize("shape", [(7, 5), (5, 4, 6)])
    @pytest.mark.parametrize("rows", ["square", "fewer", "more", "none"])
    def test_matches_einsum_on_every_axis(self, shape, rows):
        rng = np.random.default_rng(len(shape))
        V = rng.standard_normal(shape)
        letters = "abc"[: len(shape)]
        for axis, m in enumerate(shape):
            n = {"square": m, "fewer": m - 2, "more": m + 3, "none": 0}[rows]
            A = rng.standard_normal((n, m))
            out = linalg._mode_product(A, V, axis)
            ref = np.einsum(f"ip,{letters[:axis]}p{letters[axis + 1:]}"
                            f"->{letters[:axis]}i{letters[axis + 1:]}", A, V)
            assert out.shape == ref.shape == shape[:axis] + (n,) + shape[axis + 1:]
            assert out.flags.c_contiguous
            assert np.abs(out - ref).max(initial=0.0) <= 1e-13 * np.abs(ref).max(initial=0.0)

    def test_empty_axis_gives_zeros(self):
        # The image of an empty support: no columns, no coordinates along the axis.
        shape = (5, 4, 6)
        for axis, m in enumerate(shape):
            H = np.empty(shape[:axis] + (0,) + shape[axis + 1:])
            out = linalg._mode_product(np.empty((m, 0)), H, axis)
            assert out.shape == shape and out.flags.c_contiguous
            assert not out.any()

    # 61 x 43 is large enough that a Fortran-ordered operand changes the
    # bits of its GEMM on OpenBLAS, so the test sees a solve that reads Y
    # in place.
    @pytest.mark.parametrize("shape", [(61, 43), (13, 11, 17)])
    def test_solves_are_c_ordered_whatever_the_layout(self, shape):
        Y = np.random.default_rng(3).standard_normal(shape)
        for op in _operators(shape, seed=len(shape)):
            outs = {name: op.solve(V) for name, V in _layouts(Y).items()}
            for name, X in outs.items():
                assert X.flags.c_contiguous, name
                assert X.tobytes() == outs["C"].tobytes(), name

    def test_2d_solve_bits_are_the_matrix_form(self):
        """The 2D solve issues the products of Gx (Upsilon o (Gx^-1 Y Gy^-T)) Gy^T,
        with the correction of a corrected operator in between."""
        Y = np.random.default_rng(5).standard_normal((61, 43))
        plain, corrected = _operators((61, 43), seed=9)
        fx, fy = plain.facts
        W = fx.GammaInv @ Y @ fy.GammaInv.T
        want = fx.Gamma @ (plain.Upsilon * W) @ fy.Gamma.T
        assert plain.solve(Y).tobytes() == want.tobytes()
        W = corrected.capacitance.corrected(W)
        want = fx.Gamma @ (corrected.Upsilon * W) @ fy.Gamma.T
        assert corrected.solve(Y).tobytes() == want.tobytes()


class TestKroneckerSum:
    def test_matches_apply_2d(self):
        rng = np.random.default_rng(3)
        laps = (laplacian_1d(NEUMANN, 4, 0.5), laplacian_1d(DIRICHLET, 5, 0.4))
        U = rng.standard_normal((4, 5))
        direct = apply_laplacian(laps, U)
        via_kron = (kronecker_sum(laps) @ U.ravel(order="F")).reshape(4, 5, order="F")
        np.testing.assert_allclose(direct, via_kron, rtol=1e-12)

    def test_matches_apply_3d(self):
        rng = np.random.default_rng(4)
        laps = (
            laplacian_1d(DIRICHLET, 3, 0.5),
            laplacian_1d(NEUMANN, 4, 0.4),
            laplacian_1d((DIRICHLET, NEUMANN), 2, 0.3),
        )
        U = rng.standard_normal((3, 4, 2))
        direct = apply_laplacian(laps, U)
        via_kron = (kronecker_sum(laps) @ U.ravel(order="F")).reshape(
            3, 4, 2, order="F"
        )
        np.testing.assert_allclose(direct, via_kron, rtol=1e-12)

    def test_row_sums_vanish_all_neumann(self):
        laps = (laplacian_1d(NEUMANN, 4, 0.5), laplacian_1d(NEUMANN, 3, 0.25))
        M = kronecker_sum(laps)
        np.testing.assert_allclose(np.asarray(M.sum(axis=1)).ravel(), 0.0, atol=1e-10)


KINDS = [DIRICHLET, NEUMANN, (DIRICHLET, NEUMANN), (NEUMANN, DIRICHLET)]


def _stencil_layouts(U):
    """The `_layouts` of U, and U as a view with a stride of two on every axis."""
    strided = np.zeros(tuple(2 * m + 1 for m in U.shape))[(slice(1, None, 2),) * U.ndim]
    strided[...] = U
    return dict(_layouts(U), strided=strided)


def _check_stencil(laps, U):
    """`apply_laplacian` against the sparse Kronecker sum on every layout of U,
    within 1e-14 * sum_a 4*s_a * max|U|."""
    shape = U.shape
    ref = (kronecker_sum(laps) @ U.ravel(order="F")).reshape(shape, order="F")
    bound = 1e-14 * sum(4.0 * (-0.5 * M.main[0]) for M in laps) * np.abs(U).max()
    for name, V in _stencil_layouts(U).items():
        out = apply_laplacian(laps, V)
        assert out.shape == shape, name
        assert np.abs(out - ref).max() <= bound, name


class TestApplyLaplacian:
    """The flat-field stencil against the sparse Kronecker sum."""

    @pytest.mark.parametrize("mx", [2, 3, 5, 17])
    @pytest.mark.parametrize("my", [2, 3, 5, 17])
    def test_matches_kronecker_sum_2d(self, mx, my):
        rng = np.random.default_rng(mx * 100 + my)
        for kx in KINDS:
            for ky in KINDS:
                laps = (laplacian_1d(kx, mx, 0.1 + 0.4 * rng.random()),
                        laplacian_1d(ky, my, 0.1 + 0.4 * rng.random()))
                _check_stencil(laps, rng.standard_normal((mx, my)))

    @pytest.mark.parametrize("shape", [(2, 3, 5), (5, 2, 3), (3, 5, 2), (2, 2, 2), (17, 2, 3)])
    def test_matches_kronecker_sum_3d(self, shape):
        rng = np.random.default_rng(sum(shape))
        for kinds in itertools.product(KINDS, repeat=3):
            laps = [laplacian_1d(k, m, 0.1 + 0.4 * rng.random()) for k, m in zip(kinds, shape)]
            _check_stencil(laps, rng.standard_normal(shape))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(2, 9), st.sampled_from(range(4)),
                              st.floats(0.05, 5.0)), min_size=2, max_size=3),
           st.integers(0, 2**32 - 1))
    def test_property_random_shapes_and_ends(self, axes, seed):
        laps = [laplacian_1d(KINDS[k], m, dr) for m, k, dr in axes]
        U = np.random.default_rng(seed).standard_normal(tuple(m for m, _, _ in axes))
        _check_stencil(laps, U)

    def test_new_c_ordered_float_array_and_input_unchanged(self):
        laps = (laplacian_1d(NEUMANN, 5, 0.3), laplacian_1d((DIRICHLET, NEUMANN), 4, 0.2),
                laplacian_1d(DIRICHLET, 3, 0.4))
        U = np.random.default_rng(1).standard_normal((5, 4, 3))
        for name, V in _stencil_layouts(U).items():
            before = V.copy()
            V.flags.writeable = False
            out = apply_laplacian(laps, V)
            assert out.flags.c_contiguous and out.flags.writeable, name
            assert out.dtype == np.float64, name
            assert not np.shares_memory(out, V), name
            assert V.tobytes() == before.tobytes(), name
        ints = np.arange(60).reshape(5, 4, 3)
        out = apply_laplacian(laps, ints)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, apply_laplacian(laps, ints.astype(float)))

    def test_shape_mismatch(self):
        laps = (laplacian_1d(DIRICHLET, 4, 1.0), laplacian_1d(NEUMANN, 5, 1.0))
        with pytest.raises(ValueError):
            apply_laplacian(laps, np.zeros((5, 4)))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [2, 3, 5, 17])
    @pytest.mark.parametrize("dr", [1.0, 0.37, 1e-7])
    def test_laplacian_1d_has_the_stencil_structure(self, kind, m, dr):
        # What the stencil reads off a `laplacian_1d`: a constant main
        # diagonal, interior off-diagonals s = -main[0]/2, and end entries
        # s at a Dirichlet end and 2s at a Neumann end.
        M = laplacian_1d(kind, m, dr)
        s = -0.5 * M.main[0]
        assert s > 0.0
        assert np.all(M.main == M.main[0])
        assert np.all(M.upper[1:] == s) and np.all(M.lower[:-1] == s)
        assert M.upper[0] == (2.0 * s if M.bc_low == NEUMANN else s)
        assert M.lower[-1] == (2.0 * s if M.bc_high == NEUMANN else s)
