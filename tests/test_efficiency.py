"""Tests for the success curve and its optimal SINR operating points.

Frozen expected values were computed independently with 40-digit mpmath
bisection before the solver existed.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hetnet_ee import EfficiencyModel, optimal_sinr
from hetnet_ee.efficiency import optimal_sinr_with_feedback

# mpmath, 40 digits, root of m*x*exp(-x) = 1 - exp(-x)
GAMMA = {
    2: 1.2564312086261697,
    5: 2.660399058463685,
    10: 3.6149504270875306,
    100: 6.4746003795893581,
}
# mpmath roots of m*x*(1 - a*x)*exp(-x) = 1 - exp(-x), m=2
GAMMA_FEEDBACK = {0.05: 1.1568280419083893, 0.1: 1.0667417385321016,
                  0.2: 0.91364231530796302}


class TestSuccessCurve:
    def test_zero_and_saturation(self, model):
        assert model.value(0.0) == 0.0
        assert model.value(50.0) > 1.0 - 1e-9

    def test_hand_value_at_ln2(self, model):
        # (1 - 1/2)^2
        assert_allclose(model.value(math.log(2.0)), 0.25, rtol=1e-14)

    def test_monotone_increasing(self, model):
        # strictly below float64 saturation, non-decreasing beyond
        x = np.geomspace(1e-6, 30.0, 400)
        v = model.value(x)
        assert np.all(np.diff(v) > 0)
        assert np.all((v >= 0) & (v <= 1))

    def test_negative_sinr_rejected(self, model):
        with pytest.raises(ValueError):
            model.value(-0.1)
        with pytest.raises(ValueError):
            model.derivative(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, True])
    def test_exponent_validation(self, bad):
        with pytest.raises(ValueError):
            EfficiencyModel(m=bad)


class TestDerivative:
    def test_flat_at_origin(self, model):
        assert model.derivative(0.0) == 0.0

    def test_hand_value_at_ln2(self, model):
        # 2 * (1/2) * (1/2)
        assert_allclose(model.derivative(math.log(2.0)), 0.5, rtol=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_matches_finite_differences(self, m):
        model = EfficiencyModel(m=m)
        h = 1e-5
        for x in np.geomspace(0.01, 20.0, 40):
            numeric = (model.value(x + h) - model.value(x - h)) / (2 * h)
            assert abs(model.derivative(x) - numeric) < 1e-6


class TestOptimalSinr:
    @pytest.mark.parametrize("m", sorted(GAMMA))
    def test_frozen_values(self, m):
        assert_allclose(optimal_sinr(EfficiencyModel(m=m)), GAMMA[m], rtol=1e-9)

    @pytest.mark.parametrize("m", sorted(GAMMA))
    def test_defining_residual(self, m):
        model = EfficiencyModel(m=m)
        tol = 1e-12
        g = optimal_sinr(model, tol)
        assert abs(g * model.derivative(g) - model.value(g)) < tol

    @pytest.mark.parametrize("m", [2, 10])
    def test_maximizes_success_per_sinr(self, m):
        # the root is also the argmax of f(x)/x; locate it by a fine
        # independent grid scan
        model = EfficiencyModel(m=m)
        x = np.geomspace(1e-2, 1e2, 200_000)
        peak = float(x[np.argmax(model.value(x) / x)])
        step = math.log(1e4) / 199_999
        assert abs(math.log(peak) - math.log(optimal_sinr(model))) <= step

    @pytest.mark.parametrize("m", [2, 5, 100])
    def test_unique_sign_change(self, m):
        model = EfficiencyModel(m=m)
        x = np.geomspace(1e-12, 1e3, 10_000)
        resid = x * model.derivative(x) - model.value(x)
        signs = np.sign(resid)
        signs = signs[signs != 0]  # exact-zero underflow at tiny x is not a crossing
        assert int((np.diff(signs) != 0).sum()) == 1

    def test_invalid_tolerance(self, model):
        with pytest.raises(ValueError):
            optimal_sinr(model, tol=0.0)


class TestFeedbackAdjustedSinr:
    def test_zero_feedback_is_bitwise_identical(self, model):
        assert optimal_sinr_with_feedback(model, 0.0) == optimal_sinr(model)

    @pytest.mark.parametrize("a", sorted(GAMMA_FEEDBACK))
    def test_frozen_values(self, model, a):
        assert_allclose(optimal_sinr_with_feedback(model, a), GAMMA_FEEDBACK[a], rtol=1e-9)

    @pytest.mark.parametrize("a", [0.03, 0.1, 0.7, 5.0])
    def test_bracketing_oracle(self, model, a):
        """Cross-check against an independent coarse bisection in the test."""

        def residual(x):
            return (x - a * x * x) * model.derivative(x) - model.value(x)

        lo, hi = 1e-9, 1.0 / a
        assert residual(lo) > 0 > residual(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert_allclose(optimal_sinr_with_feedback(model, a), 0.5 * (lo + hi), rtol=1e-9)

    def test_quadratic_penalty_shrinks_the_root(self, model):
        roots = [optimal_sinr_with_feedback(model, a) for a in (0.0, 0.1, 0.2)]
        assert roots[0] > roots[1] > roots[2]

    @pytest.mark.parametrize("a", [0.01, 1.0, 50.0])
    def test_root_times_feedback_below_one(self, model, a):
        g = optimal_sinr_with_feedback(model, a)
        assert 0.0 < a * g < 1.0

    def test_residual_at_root(self, model):
        a, tol = 0.37, 1e-12
        g = optimal_sinr_with_feedback(model, a, tol)
        assert abs((g - a * g * g) * model.derivative(g) - model.value(g)) < tol

    def test_negative_feedback_rejected(self, model):
        with pytest.raises(ValueError):
            optimal_sinr_with_feedback(model, -0.5)
