"""Crank-Nicolson reference solver for one-dimensional linear parabolic
terminal-value problems

    du/dt + a(x)/2 u'' + b(x) u' + c(x) u = 0,   u(T, x) = u_T(x),

on a truncated interval with homogeneous Dirichlet far-field.  This is the
finite-difference oracle the Monte Carlo solutions are checked against; the
truncation radius must dominate the diffusion range of the evaluation points.
"""

from __future__ import annotations

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
        """u(t, x) by linear interpolation in space at the nearest time."""
        k = int(np.argmin(np.abs(self.times - t)))
        return np.interp(np.atleast_1d(x), self.xs, self.values[k])


def crank_nicolson_terminal_value(terminal, diffusion_sq, drift, potential,
                                  horizon: float, radius: float,
                                  space_points: int = 2000,
                                  time_steps: int = 2000
                                  ) -> CrankNicolsonSolution:
    """Solve backward from u(T) = terminal on [-radius, radius].

    terminal, diffusion_sq (= a = sigma^2), drift (= b) and potential (= c)
    are vectorized callables of x.  Returns the full (t, x) table, terminal
    slice included.
    """
    # imported here so that importing the package does not load scipy
    from scipy.linalg import solve_banded

    if radius <= 0 or space_points < 3 or time_steps < 1:
        raise DomainError("bad Crank-Nicolson discretization")
    xs = np.linspace(-radius, radius, space_points)
    h = xs[1] - xs[0]
    dt = horizon / time_steps
    interior = xs[1:-1]
    a = np.asarray(diffusion_sq(interior), dtype=float)
    b = np.asarray(drift(interior), dtype=float)
    c = np.asarray(potential(interior), dtype=float)

    lower = a / (2 * h * h) - b / (2 * h)
    diag = -a / (h * h) + c
    upper = a / (2 * h * h) + b / (2 * h)

    n = interior.size
    # banded forms of (I -/+ dt/2 L) for solve_banded
    ab_impl = np.zeros((3, n))
    ab_impl[0, 1:] = -0.5 * dt * upper[:-1]
    ab_impl[1, :] = 1.0 - 0.5 * dt * diag
    ab_impl[2, :-1] = -0.5 * dt * lower[1:]

    values = np.empty((time_steps + 1, space_points))
    values[-1] = np.asarray(terminal(xs), dtype=float)
    values[-1, 0] = 0.0
    values[-1, -1] = 0.0
    u = values[-1, 1:-1].copy()
    for k in range(time_steps - 1, -1, -1):
        rhs = u + 0.5 * dt * (
            diag * u
            + np.concatenate([[0.0], lower[1:] * u[:-1]])
            + np.concatenate([upper[:-1] * u[1:], [0.0]]))
        u = solve_banded((1, 1), ab_impl, rhs)
        values[k, 1:-1] = u
        values[k, 0] = 0.0
        values[k, -1] = 0.0
    times = np.linspace(0.0, horizon, time_steps + 1)
    return CrankNicolsonSolution(times, xs, values)
