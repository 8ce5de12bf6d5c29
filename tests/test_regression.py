import math

import numpy as np
import pytest

from youngbsde.errors import NumericalError
from youngbsde.regression import (fit_predict, line_fit, poly_basis,
                                  ridge_factor, ridge_fit)


class TestPolyBasis:
    def test_degree_two_one_dim(self):
        b = poly_basis(np.array([[2.0], [3.0]]), 2)
        np.testing.assert_allclose(b, [[1, 2, 4], [1, 3, 9]])

    def test_degree_two_two_dims(self):
        b = poly_basis(np.array([[1.0, 2.0]]), 2)
        # 1, x, y, x^2, xy, y^2
        np.testing.assert_allclose(b, [[1, 1, 2, 1, 2, 4]])
        assert b.shape[1] == math.comb(2 + 2, 2)

    def test_degree_zero_is_constant(self):
        b = poly_basis(np.zeros((4, 3)), 0)
        np.testing.assert_allclose(b, np.ones((4, 1)))


class TestRidge:
    def test_recovers_exact_polynomial(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        x = rng.standard_normal((500, 1))
        y = 2.0 - x[:, 0] + 0.5 * x[:, 0] ** 2
        fitted, coeffs = fit_predict(poly_basis(x, 2), y)
        np.testing.assert_allclose(coeffs, [2.0, -1.0, 0.5], atol=1e-6)
        np.testing.assert_allclose(fitted, y, atol=1e-6)

    def test_constant_state_degrades_to_mean(self):
        # collinear columns: ridge picks the minimum-norm-ish solution but
        # the fitted values still average the targets
        x = np.full((200, 1), 1.3)
        y = np.arange(200, dtype=float)
        fitted, _ = fit_predict(poly_basis(x, 2), y)
        np.testing.assert_allclose(fitted, y.mean(), rtol=1e-6)

    def test_multi_target(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        x = rng.standard_normal((300, 1))
        targets = np.column_stack([x[:, 0], x[:, 0] ** 2])
        coeffs = ridge_fit(poly_basis(x, 2), targets)
        assert coeffs.shape == (3, 2)
        np.testing.assert_allclose(coeffs[:, 0], [0, 1, 0], atol=1e-6)

    def test_in_sample_mean_preserved(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        x = rng.standard_normal((400, 1))
        y = np.cos(3 * x[:, 0])  # far outside the basis span
        fitted, _ = fit_predict(poly_basis(x, 2), y)
        assert fitted.mean() == pytest.approx(y.mean(), abs=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_raises(self, bad):
        rng = np.random.Generator(np.random.Philox(key=4))
        x = rng.standard_normal((50, 1))
        y = x[:, 0].copy()
        y[17] = bad
        with pytest.raises(NumericalError, match="not finite"):
            ridge_fit(poly_basis(x, 2), y)

    def test_non_finite_basis_raises(self):
        x = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(NumericalError, match="unsolvable"):
            ridge_factor(poly_basis(x, 2))


class TestLineFit:
    def test_exact_line(self):
        slope, intercept, r2 = line_fit([1.0, 2.0, 4.0], [1.0, 3.0, 7.0])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_response_has_unit_r2(self):
        slope, intercept, r2 = line_fit([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_r2_of_noisy_fit(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = np.array([0.0, 1.0, 1.0, 3.0])
        slope, intercept, r2 = line_fit(xs, ys)
        residual = ys - (slope * xs + intercept)
        expected = 1 - np.sum(residual**2) / np.sum((ys - ys.mean())**2)
        assert r2 == pytest.approx(expected, rel=1e-12)
        assert 0 < r2 < 1
