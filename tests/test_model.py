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
