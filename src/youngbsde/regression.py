"""Least-squares Monte Carlo regression: polynomial state bases and ridge
coefficient operators shared by the BSDE and PDE layers, and the ordinary
least-squares line of the decay experiments."""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericalError

__all__ = ["poly_basis", "ridge_operator", "ridge_solve", "ridge_fit",
           "fit_predict", "line_fit"]

_RIDGE = 1e-8
_RIDGE_CEILING = 1e-2


def poly_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of total degree <= degree in the columns of x (S, d);
    first column is the constant.  Each monomial x_a x_b ... x_c is the
    left-to-right product ((x_a * x_b) * ...) * x_c, built on the column of
    its prefix x_a x_b ..."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    combos = [combo for d in range(1, degree + 1)
              for combo in combinations_with_replacement(range(x.shape[1]), d)]
    out = np.empty((x.shape[0], len(combos) + 1))
    out[:, 0] = 1.0
    column = {}
    for k, combo in enumerate(combos, start=1):
        if len(combo) == 1:
            out[:, k] = x[:, combo[0]]
        else:
            np.multiply(out[:, column[combo[:-1]]], x[:, combo[-1]],
                        out=out[:, k])
        column[combo] = k
    return out


def ridge_operator(basis: np.ndarray) -> np.ndarray:
    """Coefficient operator (B^T B + lambda I)^-1 B^T, shape (p, n), of the
    ridge least squares on a basis B (n, p), formed as W^T (W B^T) with
    W = L^-1 the inverse of the lower Cholesky factor L of the ridged
    normal matrix.

    The ridge lambda is 1e-8 of the mean diagonal of B^T B, so a
    constant-state regression degrades gracefully to the sample mean.  It
    escalates tenfold while the factorization fails or W is not finite, up
    to 1e-2, then raises NumericalError.  This is the only escalation rule:
    every ridge fit solves through an operator made here.
    """
    gram = basis.T @ basis
    scale = max(float(np.diag(gram).mean()), 1e-300)
    eye = np.eye(len(gram))
    level = _RIDGE
    while level <= _RIDGE_CEILING:
        try:
            inverse = np.linalg.inv(
                np.linalg.cholesky(gram + level * scale * eye))
            if np.isfinite(inverse).all():
                return inverse.T @ (inverse @ basis.T)
        except np.linalg.LinAlgError:
            pass
        level *= 10.0
    raise NumericalError(
        f"regression normal equations unsolvable up to ridge {_RIDGE_CEILING:g}"
        f" (n={basis.shape[0]}, basis={basis.shape[1]})")


def ridge_solve(operator: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Ridge coefficients operator @ targets of targets (n,) or (n, k),
    given operator = ridge_operator(basis); raises NumericalError when they
    are not finite, as a NaN or inf target makes them."""
    coeffs = operator @ targets
    if not np.isfinite(coeffs).all():
        raise NumericalError(
            f"regression coefficients not finite (n={operator.shape[1]}, "
            f"basis={operator.shape[0]})")
    return coeffs


def ridge_fit(basis: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Coefficients of ridge least squares, shape (n_basis,) for targets
    (n,) and (n_basis, k) for targets (n, k)."""
    return ridge_solve(ridge_operator(basis),
                       np.asarray(targets, dtype=float))


def fit_predict(basis: np.ndarray, targets: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """In-sample fitted values and the coefficients that produced them."""
    coeffs = ridge_fit(basis, targets)
    return basis @ coeffs, coeffs


def line_fit(xs, ys) -> tuple[float, float, float]:
    """Ordinary least-squares line ys ~ slope * xs + intercept; returns
    (slope, intercept, R^2), with R^2 = 1 when ys is constant."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
