"""The Crank-Nicolson oracle: pinned bytes, the heat-equation closed form,
its input checks, the table's domain, and one factorization per solve."""

import hashlib
import math

import numpy as np
import pytest

from youngbsde.errors import DomainError
from youngbsde.fd import crank_nicolson_terminal_value


def gaussian(x):
    return np.exp(-x ** 2 / 2)


def heat(horizon, space_points, time_steps, terminal=gaussian,
         potential=np.zeros_like):
    return crank_nicolson_terminal_value(
        terminal, np.ones_like, np.zeros_like, potential, horizon, 8.0,
        space_points, time_steps)


def refuse(x):
    raise AssertionError("coefficient called")


class TestBytes:
    # sha256 of the values table, taken with scipy.linalg.solve_banded at
    # every step; the factored solve does the same elimination
    def test_cos_potential_table(self):
        # the benchmark's and criterion 09's oracle
        table = crank_nicolson_terminal_value(
            np.ones_like, np.ones_like, np.zeros_like, np.cos, 1.0, 8.0,
            2000, 2000)
        assert table.values.shape == (2001, 2000)
        assert hashlib.sha256(table.values.tobytes()).hexdigest() == (
            "756bc84cfc8e4c508062d2eed7d5f4fcba738fcde901ac90004c040146eec0cb")

    def test_sine_drift_table(self):
        table = crank_nicolson_terminal_value(
            gaussian, np.ones_like, lambda x: 0.3 * np.sin(x),
            np.zeros_like, 1.0, 8.0, 1601, 800)
        assert table.values.shape == (801, 1601)
        assert hashlib.sha256(table.values.tobytes()).hexdigest() == (
            "7e236f8c28dcc3a03f854080f3812945f250cc51faf4846d940e5b64740347ad")


def test_heat_closed_form_second_order():
    # u_t + u''/2 = 0, u(T) = exp(-x^2/2):
    # u(0, x) = (1 + T)^(-1/2) exp(-x^2 / (2 (1 + T)))
    horizon = 1.0
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    exact = np.exp(-xs ** 2 / (2 * (1 + horizon))) / math.sqrt(1 + horizon)
    coarse, fine = (
        np.max(np.abs(heat(horizon, n_x, n_t).at(0.0, xs) - exact))
        for n_x, n_t in ((801, 400), (1601, 800)))
    assert fine <= coarse <= 1e-5
    assert coarse / fine >= 3.0


class TestNumericalFailures:
    def test_nan_potential(self):
        def potential(x):
            c = np.zeros_like(x)
            c[len(c) // 2] = np.nan
            return c

        with pytest.raises(ValueError, match="infs or NaNs"):
            heat(1.0, 41, 10, potential=potential)

    def test_nan_terminal(self):
        def terminal(x):
            u = gaussian(x)
            u[len(u) // 2] = np.nan
            return u

        with pytest.raises(ValueError, match="infs or NaNs"):
            heat(1.0, 41, 10, terminal=terminal)

    def test_singular_implicit_matrix(self):
        # a = 0, b = 0 and c = 2/dt make I - dt/2 L the zero matrix
        steps = 10
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            crank_nicolson_terminal_value(
                gaussian, np.zeros_like, np.zeros_like,
                lambda x: np.full_like(x, 2.0 * steps), 1.0, 8.0, 41, steps)


class TestDomain:
    @pytest.mark.parametrize("horizon, radius", [
        (-1.0, 8.0), (0.0, 8.0), (math.inf, 8.0), (math.nan, 8.0),
        (1.0, 0.0), (1.0, -8.0), (1.0, math.inf), (1.0, math.nan)])
    def test_horizon_and_radius_finite_positive(self, horizon, radius):
        with pytest.raises(DomainError, match="discretization"):
            crank_nicolson_terminal_value(refuse, refuse, refuse, refuse,
                                          horizon, radius, 41, 10)

    @pytest.mark.parametrize("space_points, time_steps",
                             [(3, 10), (4, 10), (41, 0)])
    def test_grid_sizes(self, space_points, time_steps):
        with pytest.raises(DomainError, match="discretization"):
            crank_nicolson_terminal_value(refuse, refuse, refuse, refuse,
                                          1.0, 8.0, space_points, time_steps)

    def test_smallest_grid_solves(self):
        assert heat(1.0, 5, 2).values.shape == (3, 5)

    @pytest.mark.parametrize("t, x", [
        (2.0, 0.5), (-5.0, 0.5), (1.0 + 1e-9, 0.5), (0.0, 9.0),
        (0.0, [0.0, -8.5]), (0.0, math.nan), (math.nan, 0.0)])
    def test_at_outside_the_table(self, t, x):
        table = heat(1.0, 41, 10)
        with pytest.raises(DomainError, match="outside"):
            table.at(t, x)

    def test_at_edges_of_the_table(self):
        table = heat(1.0, 41, 10)
        assert table.at(1.0 + 1e-13, [-8.0, 0.0, 8.0]) == pytest.approx(
            [0.0, 1.0, 0.0], abs=1e-12)
        assert table.at(-1e-13, 0.0) == table.at(0.0, 0.0)


def test_one_factorization_per_solve(monkeypatch):
    from scipy.linalg import lapack

    calls = {"dgttrf": 0, "dgttrs": 0}

    def counting(name):
        wrapped = getattr(lapack, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(lapack, name, counting(name))
    heat(1.0, 41, 7)
    assert calls == {"dgttrf": 1, "dgttrs": 7}
