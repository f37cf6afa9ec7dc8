import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitcorr.model import (
    CorrosionParameters,
    eval_g_family,
    eval_h_family,
    reaction_f1,
    reaction_f2,
)


@pytest.fixture
def params():
    return CorrosionParameters()


class TestInterpolationFamilies:
    def test_h_endpoints(self):
        for x, (h, hp) in [(0.0, (0.0, 0.0)), (1.0, (1.0, 0.0)), (0.5, (0.5, 1.5))]:
            val, der, _ = eval_h_family(np.array(x))
            assert val == pytest.approx(h)
            assert der == pytest.approx(hp)

    def test_g_endpoints(self):
        for x, (g, gp) in [(0.0, (0.0, 0.0)), (1.0, (0.0, 0.0)), (0.5, (0.0625, 0.0))]:
            val, der, _ = eval_g_family(np.array(x))
            assert val == pytest.approx(g)
            assert der == pytest.approx(gp)

    @given(st.floats(-0.5, 1.5))
    def test_h_derivatives_consistent(self, x):
        eps = 1e-6
        _, der, second = eval_h_family(np.array(x))
        lo, _, _ = eval_h_family(np.array(x - eps))
        hi, _, _ = eval_h_family(np.array(x + eps))
        assert der == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)
        _, dlo, _ = eval_h_family(np.array(x - eps))
        _, dhi, _ = eval_h_family(np.array(x + eps))
        assert second == pytest.approx((dhi - dlo) / (2 * eps), abs=1e-5)

    @given(st.floats(-0.5, 1.5))
    def test_g_derivatives_consistent(self, x):
        eps = 1e-6
        _, der, second = eval_g_family(np.array(x))
        lo, _, _ = eval_g_family(np.array(x - eps))
        hi, _, _ = eval_g_family(np.array(x + eps))
        assert der == pytest.approx((hi - lo) / (2 * eps), abs=1e-6)
        _, dlo, _ = eval_g_family(np.array(x - eps))
        _, dhi, _ = eval_g_family(np.array(x + eps))
        assert second == pytest.approx((dhi - dlo) / (2 * eps), abs=1e-5)


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
        h, hp, _ = eval_h_family(phi)
        _, gp, _ = eval_g_family(phi)
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
