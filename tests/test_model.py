import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitcorr.model import (
    CorrosionParameters,
    double_well_slope,
    interpolant,
    interpolant_slope,
    reaction_f1,
    reaction_f2,
)


@pytest.fixture
def params():
    return CorrosionParameters()


def double_well(x):
    return x * x * (1.0 - x) ** 2


class TestInterpolationFamilies:
    def test_h_endpoints(self):
        for x, (h, hp) in [(0.0, (0.0, 0.0)), (1.0, (1.0, 0.0)), (0.5, (0.5, 1.5))]:
            assert interpolant(np.array(x)) == pytest.approx(h)
            assert interpolant_slope(np.array(x)) == pytest.approx(hp)

    def test_g_endpoints(self):
        for x, (g, gp) in [(0.0, (0.0, 0.0)), (1.0, (0.0, 0.0)), (0.5, (0.0625, 0.0))]:
            assert double_well(x) == pytest.approx(g)
            assert double_well_slope(np.array(x)) == pytest.approx(gp)

    @given(st.floats(-0.5, 1.5))
    def test_h_derivatives_consistent(self, x):
        eps = 1e-6
        der = interpolant_slope(np.array(x))
        lo = interpolant(np.array(x - eps))
        hi = interpolant(np.array(x + eps))
        assert der == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)

    @given(st.floats(-0.5, 1.5))
    def test_g_derivatives_consistent(self, x):
        eps = 1e-6
        der = double_well_slope(np.array(x))
        lo = double_well(x - eps)
        hi = double_well(x + eps)
        assert der == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)


class TestReactions:
    def test_equilibrium_zero(self, params):
        assert reaction_f1(np.array(1.0), np.array(1.0), params) == pytest.approx(0.0)
        assert reaction_f1(np.array(0.0), np.array(0.0), params) == pytest.approx(0.0)
        assert reaction_f2(np.array(0.0), params) == pytest.approx(0.0)

    def test_f2_solid_value(self, params):
        # F2(1) = c_L - 1
        assert reaction_f2(np.array(1.0), params) == pytest.approx(
            params.c_L - 1.0, rel=1e-12
        )
        assert reaction_f2(np.array(1.0), params) == pytest.approx(-0.9643, abs=1e-4)

    @staticmethod
    def f1_formula(phi, c, p):
        """F1 as numpy evaluates the textbook expression term by term."""
        h = phi * phi * (3.0 - 2.0 * phi)
        hp = 6.0 * phi * (1.0 - phi)
        gp = 2.0 * phi * (1.0 - phi) * (1.0 - 2.0 * phi)
        drive = c - h * (1.0 - p.c_L) - p.c_L
        return 2.0 * p.A * p.L * (1.0 - p.c_L) * drive * hp - p.omega * p.L * gp

    @pytest.mark.parametrize("shape", [(23, 17), (9, 7, 13)])
    def test_f1_bits_are_the_formula(self, params, shape):
        # In-place evaluation must round as the expression does, special
        # values included, on contiguous fields and on strided or transposed views.
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
                got = reaction_f1(a, b, params)
                want = self.f1_formula(a, b, params)
                assert got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("shape", [(23, 17), (9, 7, 13)])
    def test_f2_bits_are_the_formula(self, params, shape):
        # (c_L - 1) * h(phi) as numpy evaluates the expression, special
        # values included, on contiguous fields, Fortran-ordered copies and
        # strided views, and on a scalar.
        def formula(phi, p):
            return (p.c_L - 1.0) * (phi * phi * (3.0 - 2.0 * phi))

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1e-310, -1e-310, 1e200, -1e200,
                            0.5, 1.0, -1.0])
        rng = np.random.default_rng(len(shape))
        phi = rng.choice(np.concatenate([special, rng.uniform(-0.5, 1.5, 64)]), size=shape)
        views = [phi, phi.T, phi[1::2, 1:], phi[..., ::-1], np.asfortranarray(phi)]
        with np.errstate(all="ignore"):
            for a in views:
                got = reaction_f2(a, params)
                want = formula(a, params)
                assert got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()
            for x in special:
                got, want = reaction_f2(float(x), params), formula(x, params)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_f1_matches_definition(self, params):
        phi = np.linspace(0.1, 0.9, 7)
        c = np.linspace(0.2, 1.0, 7)
        h, hp = interpolant(phi), interpolant_slope(phi)
        gp = double_well_slope(phi)
        p = params
        expected = (
            2.0 * p.A * p.L * (1.0 - p.c_L)
            * (c - h * (1.0 - p.c_L) - p.c_L) * hp
            - p.omega * p.L * gp
        )
        np.testing.assert_allclose(reaction_f1(phi, c, p), expected, rtol=1e-13)


class TestParameters:
    def test_defaults_match_reference_values(self, params):
        assert params.L == pytest.approx(2.0)
        assert params.A == pytest.approx(5.35e7)
        assert params.D_phi == pytest.approx(6.02e-6)
        assert params.D_c == pytest.approx(8.5e-10)
        assert params.c_L == pytest.approx(3.57e-2)
        assert params.omega == pytest.approx(2.08e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrosionParameters(D_phi=-1.0)
        with pytest.raises(ValueError):
            CorrosionParameters(c_L=1.5)
