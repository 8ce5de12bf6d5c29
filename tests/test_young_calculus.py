import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from youngbsde.drivers import make_grid_driver, make_separable_driver, \
    zero_driver
from youngbsde.errors import DomainError, NumericalError
from youngbsde.paths import SamplePath, TimeGrid
from youngbsde.young_calculus import (flow_inverse, flow_product_defect,
                                      nonlinear_young_integral, solve_flow,
                                      step_increments, young_sum_batch,
                                      young_sum_fixed_partition)


def grid_path(fn, steps=256, horizon=1.0):
    g = TimeGrid.uniform(horizon, steps)
    return SamplePath(g, fn(g.times))


def driver_vt(v, a, **kw):
    return make_separable_driver(v, a, **kw)


TIME_ONLY = driver_vt(lambda x: np.ones(x.shape[0]), lambda t: t)
COS_T = driver_vt(lambda x: np.cos(x[:, 0]), lambda t: t)


class TestNonlinearYoungIntegral:
    def test_unit_integrand_telescopes(self):
        y = grid_path(np.ones_like)
        x = grid_path(lambda t: np.sin(3 * t))
        res = nonlinear_young_integral(y, x, TIME_ONLY)
        assert float(res) == pytest.approx(1.0, abs=1e-12)

    def test_constant_integrand_frozen_path(self):
        c, x0 = 2.5, 0.7
        y = grid_path(lambda t: np.full_like(t, c))
        x = grid_path(lambda t: np.full_like(t, x0))
        res = nonlinear_young_integral(y, x, COS_T)
        assert float(res) == pytest.approx(c * math.cos(x0), abs=1e-12)

    def test_classical_riemann(self):
        y = grid_path(lambda t: t)
        x = grid_path(lambda t: t)
        res = nonlinear_young_integral(y, x, TIME_ONLY)
        assert res.converged
        assert float(res) == pytest.approx(0.5, abs=1e-6)

    def test_smooth_driver_quadrature_oracle(self):
        y = grid_path(np.sin, steps=1024)
        x = grid_path(lambda t: t, steps=1024)
        res = nonlinear_young_integral(y, x, COS_T)
        oracle, _ = quad(lambda r: math.sin(r) * math.cos(r), 0, 1,
                         epsabs=1e-9)
        assert res.converged
        assert float(res) == pytest.approx(oracle, abs=1e-6)

    def test_linearity_at_fixed_partition(self):
        g = TimeGrid.uniform(1.0, 64)
        rng = np.random.Generator(np.random.Philox(key=3))
        y1, y2 = rng.standard_normal(65), rng.standard_normal(65)
        x = rng.standard_normal((65, 1)).cumsum(axis=0)
        s12 = young_sum_fixed_partition(COS_T, g.times, 2.0 * y1 - y2, x)
        s1 = young_sum_fixed_partition(COS_T, g.times, y1, x)
        s2 = young_sum_fixed_partition(COS_T, g.times, y2, x)
        np.testing.assert_allclose(s12, 2.0 * s1 - s2, atol=1e-12)

    def test_interval_additivity_fixed_partition(self):
        g = TimeGrid.uniform(1.0, 64)
        rng = np.random.Generator(np.random.Philox(key=4))
        y = SamplePath(g, rng.standard_normal(65))
        x = SamplePath(g, rng.standard_normal(65).cumsum())
        whole = young_sum_fixed_partition(COS_T, g.times, y.values, x.values)
        mid = 32
        left = young_sum_fixed_partition(COS_T, g.times[:mid + 1],
                                         y.values[:mid + 1],
                                         x.values[:mid + 1])
        right = young_sum_fixed_partition(COS_T, g.times[mid:],
                                          y.values[mid:], x.values[mid:])
        np.testing.assert_allclose(left + right, whole, atol=1e-12)

    def test_space_independent_reduces_to_stieltjes(self):
        # eta(t, x) = a(t): the result is the classical integral of y da
        a = lambda t: np.sin(2 * t)
        drv = driver_vt(lambda x: np.ones(x.shape[0]), a)
        # base grid fine enough that the linear-in-y interpolation bias
        # (h^2/8 * |y''|) sits below the comparison tolerance
        g = TimeGrid.uniform(1.0, 1024)
        y_vals = np.cos(g.times)
        x = SamplePath(g, np.exp(g.times))  # irrelevant path
        res = nonlinear_young_integral(SamplePath(g, y_vals), x, drv)
        oracle, _ = quad(lambda r: math.cos(r) * 2 * math.cos(2 * r), 0, 1,
                         epsabs=1e-11)
        assert float(res) == pytest.approx(oracle, abs=2e-6)

    def test_geometric_gap_decay_reported(self):
        y = grid_path(np.sin, steps=64)
        x = grid_path(lambda t: t, steps=64)
        res = nonlinear_young_integral(y, x, COS_T, tol_abs=1e-13,
                                       tol_rel=0.0, max_levels=8)
        # smooth driver: left sums converge at first order, so inter-level
        # gaps halve; measure the decay exponent, assert rough geometry
        assert not res.converged
        assert res.cauchy_gap < 1e-4

    def test_grid_mismatch_rejected(self):
        y = grid_path(np.ones_like, steps=32)
        x = grid_path(lambda t: t, steps=64)
        with pytest.raises(DomainError):
            nonlinear_young_integral(y, x, TIME_ONLY)

    def test_non_convergence_flagged_not_raised(self):
        y = grid_path(np.sin, steps=8)
        x = grid_path(lambda t: t, steps=8)
        res = nonlinear_young_integral(y, x, COS_T, tol_abs=0.0, tol_rel=0.0,
                                       max_levels=2)
        assert not res.converged


class TestFlows:
    def test_zero_coefficient_identity(self):
        x = grid_path(lambda t: t, steps=64)
        flow = solve_flow(np.zeros(65), TIME_ONLY, x)
        np.testing.assert_allclose(flow.matrices,
                                   np.ones((65, 1, 1)), atol=0)

    def test_scalar_exponential(self):
        x = grid_path(lambda t: t, steps=512)
        flow = solve_flow(np.ones(513), TIME_ONLY, x, mode="exact")
        np.testing.assert_allclose(flow.matrices[:, 0, 0],
                                   np.exp(flow.times), rtol=1e-12)

    def test_euler_converges_to_matrix_exponential(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        errs = []
        for steps in (128, 256, 512):
            g = TimeGrid.uniform(1.0, steps)
            x = SamplePath(g, np.zeros(steps + 1))
            alpha = np.broadcast_to(rot, (steps + 1, 1, 2, 2)).copy()
            flow = solve_flow(alpha, TIME_ONLY, x)
            errs.append(np.max(np.abs(flow.terminal - expm(rot.T))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert 0.8 <= np.mean(orders) <= 1.2

    def test_exact_mode_needs_scalar(self):
        x = grid_path(lambda t: t, steps=16)
        alpha = np.zeros((17, 1, 2, 2))
        with pytest.raises(DomainError):
            solve_flow(alpha, TIME_ONLY, x, mode="exact")

    def test_log_flow_is_young_integral(self):
        g = TimeGrid.uniform(1.0, 1024)
        x = SamplePath(g, np.sin(g.times))
        alpha = np.cos(g.times)
        flow = solve_flow(alpha, COS_T, x, mode="exact")
        lhs = math.log(flow.terminal[0, 0])
        rhs = float(young_sum_fixed_partition(COS_T, g.times, alpha,
                                              x.values)[0])
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_overflow_guard(self):
        x = grid_path(lambda t: t, steps=4)
        with pytest.raises(NumericalError):
            solve_flow(np.full(5, 200.0), TIME_ONLY, x, mode="exact")

    def test_inverse_of_scalar_flow(self):
        x = grid_path(lambda t: t, steps=128)
        flow = solve_flow(np.ones(129), TIME_ONLY, x, mode="exact")
        inv = flow_inverse(flow)
        np.testing.assert_allclose(inv.matrices[:, 0, 0],
                                   np.exp(-flow.times), rtol=1e-12)

    def test_inverse_solves_adjoint_equation(self):
        # the transpose-inverse flow satisfies
        # d tilde = -alpha tilde eta(ds, x) up to the Euler step error
        steps = 4096
        g = TimeGrid.uniform(1.0, steps)
        x = SamplePath(g, np.sin(g.times))
        rot = np.array([[0.1, 1.0], [-1.0, 0.2]])
        alpha = np.broadcast_to(rot, (steps + 1, 1, 2, 2)).copy()
        flow = solve_flow(alpha, COS_T, x)
        tilde = np.transpose(np.linalg.inv(flow.matrices), (0, 2, 1))
        deta = COS_T.increment_pairs(g.times[:-1], g.times[1:],
                                     x.values[:-1])[:, 0]
        recon = tilde[:-1] - np.einsum("ij,kjl,k->kil", rot, tilde[:-1], deta)
        assert np.max(np.abs(recon - tilde[1:])) < 5e-4

    def test_inverse_rejects_singular(self):
        flow = solve_flow(np.zeros(17), TIME_ONLY,
                          grid_path(lambda t: t, steps=16))
        bad = flow.matrices.copy()
        bad[5] = 0.0
        with pytest.raises((NumericalError, DomainError)):
            flow_inverse(type(flow)(base_time=flow.base_time,
                                    times=flow.times, matrices=bad))

    def test_product_defect_zero_for_zero_alpha(self):
        x = grid_path(lambda t: t, steps=64)
        full = solve_flow(np.zeros(65), TIME_ONLY, x, base_time=0.0)
        half = solve_flow(np.zeros(65), TIME_ONLY, x, base_time=0.5)
        assert flow_product_defect(full, half) == 0.0

    def test_product_defect_trivial_split(self):
        x = grid_path(lambda t: np.sin(t), steps=64)
        alpha = np.cos(x.grid.times)
        full = solve_flow(alpha, COS_T, x, base_time=0.0)
        assert flow_product_defect(full, full) == pytest.approx(0.0,
                                                                abs=1e-12)

    def test_determinant_stays_positive(self):
        steps = 512
        g = TimeGrid.uniform(1.0, steps)
        x = SamplePath(g, np.sin(g.times))
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        alpha = np.broadcast_to(rot, (steps + 1, 1, 2, 2)).copy()
        flow = solve_flow(alpha, COS_T, x)
        assert np.min(np.abs(np.linalg.det(flow.matrices))) > 0.5


class TestBatchSums:
    def test_cumsum_matches_fixed_partition(self):
        g = TimeGrid.uniform(1.0, 32)
        rng = np.random.Generator(np.random.Philox(key=9))
        paths = rng.standard_normal((7, 33, 1)).cumsum(axis=1)
        y = rng.standard_normal((7, 33))
        deta = np.stack(list(step_increments(COS_T, g.times, paths)), axis=1)
        cums = np.cumsum(y[:, :-1, None] * deta, axis=1)
        for s in range(7):
            for j in (8, 32):
                direct = young_sum_fixed_partition(
                    COS_T, g.times[:j + 1], y[s, :j + 1], paths[s, :j + 1])
                np.testing.assert_allclose(cums[s, j - 1], direct,
                                           atol=1e-12)

    def test_zero_driver_gives_zero(self):
        g = TimeGrid.uniform(1.0, 8)
        paths = np.zeros((3, 9, 1))
        steps = list(step_increments(zero_driver(), g.times, paths))
        assert len(steps) == 8
        assert all(d.shape == (3, 1) and np.all(d == 0) for d in steps)

    def test_one_point_grid_sums_to_zero(self):
        out = young_sum_batch(COS_T, np.array([0.0]), np.ones((4, 1, 1)))
        assert out.shape == (4, 1) and np.all(out == 0)


# a space-time field that is not separable: bilinear interpolation of
# fixed grid samples
GRID_DRIVER = make_grid_driver(
    np.linspace(0.0, 1.0, 9), [np.linspace(-4.0, 4.0, 17)],
    np.random.Generator(np.random.Philox(key=21)).standard_normal((9, 17)))
DRIVERS = [COS_T, TIME_ONLY, GRID_DRIVER,
           driver_vt(lambda x: np.sin(x[:, 0]), lambda t: np.sqrt(t))]


def _random_grid(rng, m):
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, m - 2)),
                           [1.0]])


class TestStepIncrementProperties:
    @given(st.sampled_from(DRIVERS), st.integers(2, 24), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_telescopes_along_a_path_fixed_in_space(self, driver, m, S, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        times = _random_grid(rng, m)
        x = rng.uniform(-3.0, 3.0, (S, 1))
        paths = np.broadcast_to(x[:, None, :], (S, m, 1))
        total = sum(step_increments(driver, times, paths))
        whole = driver.increment_pairs(np.full(S, times[0]),
                                       np.full(S, times[-1]), x)
        np.testing.assert_allclose(total, whole, rtol=0, atol=1e-12)

    @given(st.sampled_from(DRIVERS), st.integers(2, 16), st.integers(2, 9),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_of_the_batch_is_stable(self, driver, m, S, data):
        k = data.draw(st.integers(1, S))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.Generator(np.random.Philox(key=seed))
        times = _random_grid(rng, m)
        paths = rng.standard_normal((S, m, 1)).cumsum(axis=1)
        full = list(step_increments(driver, times, paths))
        prefix = list(step_increments(driver, times, paths[:k]))
        assert len(full) == len(prefix) == m - 1
        for a, b in zip(full, prefix):
            np.testing.assert_array_equal(a[:k], b)
