"""Crank-Nicolson reference solver for one-dimensional linear parabolic
terminal-value problems

    du/dt + a(x)/2 u'' + b(x) u' + c(x) u = 0,   u(T, x) = u_T(x),

on a truncated interval with homogeneous Dirichlet far-field.  This is the
finite-difference oracle the Monte Carlo solutions are checked against; the
truncation radius must dominate the diffusion range of the evaluation points.

The implicit matrix I - dt/2 L does not change between steps, so it is
factored once (LAPACK dgttrf) and each step is one tridiagonal solve
(dgttrs) against the explicit right-hand side.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["crank_nicolson_terminal_value", "CrankNicolsonSolution"]


class CrankNicolsonSolution:
    """Dense solution u(t, x) on the truncated grid with interpolation."""

    def __init__(self, times: np.ndarray, xs: np.ndarray, values: np.ndarray):
        self.times = times
        self.xs = xs
        self.values = values

    def at(self, t: float, x) -> np.ndarray:
        """u(t, x) by linear interpolation in space at the nearest time.

        t must lie in the table's time range (up to a relative 1e-12) and
        every x in its space range: the table holds no value outside them.
        """
        t0, t1 = self.times[0], self.times[-1]
        slack = 1e-12 * (t1 - t0)
        if not t0 - slack <= t <= t1 + slack:
            raise DomainError(f"t = {t} outside the table's [{t0}, {t1}]")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not ((x >= self.xs[0]) & (x <= self.xs[-1])).all():
            raise DomainError(f"x outside the table's "
                              f"[{self.xs[0]}, {self.xs[-1]}]")
        k = int(np.argmin(np.abs(self.times - t)))
        return np.interp(x, self.xs, self.values[k])


def crank_nicolson_terminal_value(terminal, diffusion_sq, drift, potential,
                                  horizon: float, radius: float,
                                  space_points: int = 2000,
                                  time_steps: int = 2000
                                  ) -> CrankNicolsonSolution:
    """Solve backward from u(T) = terminal on [-radius, radius].

    terminal, diffusion_sq (= a = sigma^2), drift (= b) and potential (= c)
    are vectorized callables of x.  horizon and radius must be finite and
    positive, space_points at least 5 (three interior nodes, the fewest
    scipy's dgttrf and dgttrs wrappers take) and time_steps at least 1.
    Returns the full (t, x) table, terminal slice included.  Raises
    ValueError when the matrix or a right-hand side is not finite, and
    LinAlgError when the implicit matrix is singular.
    """
    # imported here so that importing the package does not load scipy
    from scipy.linalg.lapack import dgttrf, dgttrs

    if not (math.isfinite(horizon) and horizon > 0
            and math.isfinite(radius) and radius > 0
            and space_points >= 5 and time_steps >= 1):
        raise DomainError("bad Crank-Nicolson discretization")
    xs = np.linspace(-radius, radius, space_points)
    h = xs[1] - xs[0]
    dt = horizon / time_steps
    interior = xs[1:-1]
    a = np.asarray(diffusion_sq(interior), dtype=float)
    b = np.asarray(drift(interior), dtype=float)
    c = np.asarray(potential(interior), dtype=float)

    lower = (a / (2 * h * h) - b / (2 * h))[1:]
    diag = -a / (h * h) + c
    upper = (a / (2 * h * h) + b / (2 * h))[:-1]

    # tridiagonal (I - dt/2 L): sub-, main and super-diagonal
    sub = -0.5 * dt * lower
    main = 1.0 - 0.5 * dt * diag
    sup = -0.5 * dt * upper
    if not (np.isfinite(sub).all() and np.isfinite(main).all()
            and np.isfinite(sup).all()):
        raise ValueError("array must not contain infs or NaNs")
    dl, d, du, du2, ipiv, info = dgttrf(sub, main, sup)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")

    values = np.empty((time_steps + 1, space_points))
    values[-1] = np.asarray(terminal(xs), dtype=float)
    values[:, 0] = 0.0
    values[:, -1] = 0.0
    for k in range(time_steps - 1, -1, -1):
        u = values[k + 1, 1:-1]
        # (I + dt/2 L) u
        s = diag * u
        s[1:] += lower * u[:-1]
        s[:-1] += upper * u[1:]
        rhs = u + (0.5 * dt) * s
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        values[k, 1:-1] = dgttrs(dl, d, du, du2, ipiv, rhs,
                                 overwrite_b=1)[0]
    times = np.linspace(0.0, horizon, time_steps + 1)
    return CrankNicolsonSolution(times, xs, values)
