import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dpotrs

from youngbsde.errors import NumericalError
from youngbsde.regression import (fit_predict, line_fit, poly_basis,
                                  ridge_factor, ridge_fit, ridge_solve)


def _column_stack_basis(x, degree):
    """The monomial basis as columns of products started from ones, each
    taken left to right, stacked by np.column_stack."""
    cols = [np.ones(x.shape[0])]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(x.shape[1]), d):
            col = np.ones(x.shape[0])
            for j in combo:
                col = col * x[:, j]
            cols.append(col)
    return np.column_stack(cols)


def _ridged_lower(basis):
    """Lower Cholesky factor of the normal matrix at the first ridge level,
    1e-8 of its mean diagonal."""
    gram = basis.T @ basis
    scale = float(np.mean(np.diag(gram)))
    return np.linalg.cholesky(gram + 1e-8 * scale * np.eye(len(gram)))


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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), degree=st.integers(0, 3),
           samples=st.integers(0, 30))
    def test_bytes_of_column_stack_formula(self, data, dim, degree, samples):
        x = data.draw(hnp.arrays(float, (samples, dim), elements=st.floats(
            -1e3, 1e3, allow_nan=False)))
        want = _column_stack_basis(x, degree)
        for given_x in ((x, x[:, 0]) if dim == 1 else (x,)):
            got = poly_basis(given_x, degree)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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


class TestRidgeAgainstLapack:
    """ridge_solve through the inverse factor against LAPACK's Cholesky
    solve dpotrs on the factor it inverts."""

    @pytest.mark.parametrize("seed, dim, degree", [
        (1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 2, 3), (5, 3, 2), (6, 3, 3)])
    def test_random_basis(self, seed, dim, degree):
        rng = np.random.Generator(np.random.Philox(key=seed))
        basis = poly_basis(rng.standard_normal((300, dim)), degree)
        lower = _ridged_lower(basis)
        factor = ridge_factor(basis)
        np.testing.assert_array_equal(factor, np.linalg.inv(lower))
        for targets in (rng.standard_normal(300),
                        rng.standard_normal((300, 3))):
            want, info = dpotrs(lower, basis.T @ targets, lower=1)
            assert info == 0
            got = ridge_solve(factor, basis, targets)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    def test_collinear_basis(self):
        # the basis of test_constant_state_degrades_to_mean: rank one, so
        # the coefficients are set by the ridge and only the fits compare
        basis = poly_basis(np.full((200, 1), 1.3), 2)
        lower = _ridged_lower(basis)
        factor = ridge_factor(basis)
        np.testing.assert_array_equal(factor, np.linalg.inv(lower))
        y = np.arange(200, dtype=float)
        for targets in (y, np.column_stack([y, -2.0 * y])):
            want, info = dpotrs(lower, basis.T @ targets, lower=1)
            assert info == 0
            mean = np.broadcast_to(targets.mean(axis=0), targets.shape)
            for coeffs in (ridge_solve(factor, basis, targets), want):
                np.testing.assert_allclose(basis @ coeffs, mean, rtol=1e-6)


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
