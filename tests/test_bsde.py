import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from youngbsde import bsde
from youngbsde.bsde import (BsdeProblem, PicardConfig,
                            exponential_moment_diagnostic,
                            girsanov_weight, martingale_residual,
                            solve_bsde_with_localization,
                            solve_localized_bsde, solve_localized_bsdes,
                            tower_rule_defect)
from youngbsde.diffusion import DiffusionSpec, PathBatch, first_exit, simulate
from youngbsde.drivers import (SpaceTimeDriver, make_separable_driver,
                               mollify_time, zero_driver)
from youngbsde.errors import DomainError, NumericalError
from youngbsde.paths import SamplePath, TimeGrid
from youngbsde.pde_fk import (LinearBsdeSpec, fk_point_estimate,
                              solve_linear_bsde)
from youngbsde.regression import poly_basis, ridge_fit
from youngbsde.registry import diffusion_by_name, driver_by_names
from youngbsde.young_calculus import solve_flow, young_sum_batch

BROWNIAN = diffusion_by_name("brownian")
GRID = TimeGrid.uniform(1.0, 32)
TIME_DRIVER = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: t)
# cos(x) t with a second channel 100 t, which one-channel readers would drop
TWO_CHANNEL_DRIVER = make_separable_driver(
    lambda x: np.stack([np.cos(x[:, 0]), np.full(x.shape[0], 100.0)], axis=1),
    lambda t: t, channels=2)


def brownian_batch(samples=20000, seed=5, grid=GRID, x0=0.0):
    return simulate(BROWNIAN, [x0], grid, samples, seed)


def assert_datum_at_stop(problem, sol, batch):
    """Each sample's Y at its stop index is its boundary datum exactly."""
    stop = first_exit(batch, sol.radius).stop_index
    np.testing.assert_array_equal(
        sol.y_paths[np.arange(batch.samples), stop],
        problem.terminal_at(batch, stop))


def _reference_ridge_fit(basis, targets):
    """Ridge least squares by an LU solve of the ridged normal equations,
    escalating the ridge tenfold on failure; independent of the Cholesky
    factor the solver caches."""
    targets = np.asarray(targets, dtype=float)
    gram = basis.T @ basis
    scale = max(float(np.mean(np.diag(gram))), 1e-300)
    level = 1e-8
    while level <= 1e-2:
        try:
            coeffs = np.linalg.solve(gram + level * scale * np.eye(len(gram)),
                                     basis.T @ targets)
            if np.all(np.isfinite(coeffs)):
                return coeffs
        except np.linalg.LinAlgError:
            pass
        level *= 10.0
    raise NumericalError("reference normal equations unsolvable")


def _reference_localized_bsde(problem, radius, batch, basis_degree=2,
                              picard=None):
    """The localized Picard scheme as a masked loop in sample order: every
    sweep gathers each step's active rows, builds their basis and solves
    the normal equations afresh."""
    picard = picard or PicardConfig()
    times = batch.grid.times
    S, m = batch.samples, times.size
    dts = np.diff(times)
    stop_index = first_exit(batch, radius).stop_index
    datum = problem.terminal_at(batch, stop_index)
    deta = batch.driver_increments(problem.driver).swapaxes(0, 1)
    y = np.tile(datum[:, None], (1, m))
    z = np.zeros((S, m - 1, batch.dim))
    converged, iterations = False, 0
    for iteration in range(picard.max_iterations):
        iterations = iteration + 1
        y_new = y.copy()
        for i in range(m - 2, -1, -1):
            active = stop_index > i
            if not np.any(active):
                continue
            basis = poly_basis(batch.paths[active, i, :], basis_degree)
            zt = (y_new[active, i + 1:i + 2] * batch.increments[active, i, :]
                  / dts[i])
            z_fit = basis @ _reference_ridge_fit(basis, zt)
            z[active, i, :] = z_fit
            f_val = np.asarray(
                problem.f(times[i], batch.paths[active, i, :],
                          y[active, i], z_fit), dtype=float)
            g_val = np.asarray(problem.g(y[active, i]), dtype=float)
            if g_val.ndim == 1:
                g_val = g_val[:, None]
            target = (y_new[active, i + 1] + f_val * dts[i]
                      + np.sum(g_val * deta[active, i, :], axis=1))
            y_new[active, i] = basis @ _reference_ridge_fit(basis, target)
        gap = float(np.max(np.abs(y_new - y)))
        y = y_new
        if gap < picard.tolerance:
            converged = True
            break
    return SimpleNamespace(
        y_paths=y, z_paths=z, picard_iterations=iterations,
        converged=converged, stop_index=stop_index)


class TestGirsanov:
    def test_zero_process_unit_weight(self):
        batch = brownian_batch(100)
        g = np.zeros_like(batch.increments)
        m_t = girsanov_weight(g, batch.increments, np.diff(GRID.times))
        assert np.all(m_t == 1.0)

    def test_deterministic_process_lognormal(self):
        batch = brownian_batch(50000)
        g = np.full_like(batch.increments, 0.4)
        m_t = girsanov_weight(g, batch.increments, np.diff(GRID.times))
        log_m = np.log(m_t)
        # log M_T ~ N(-q/2, q) with q = int |G|^2 dt
        q = 0.16
        assert log_m.mean() == pytest.approx(
            -q / 2, abs=3 * math.sqrt(q / m_t.size))
        se = m_t.std(ddof=1) / math.sqrt(m_t.size)
        assert abs(m_t.mean() - 1.0) <= 3 * se

    def test_replay_identical(self):
        b1, b2 = brownian_batch(64, seed=3), brownian_batch(64, seed=3)
        g1 = 0.3 * np.cos(b1.paths[:, :-1, :])
        g2 = 0.3 * np.cos(b2.paths[:, :-1, :])
        m1 = girsanov_weight(g1, b1.increments, np.diff(GRID.times))
        m2 = girsanov_weight(g2, b2.increments, np.diff(GRID.times))
        np.testing.assert_array_equal(m1, m2)

    def test_weight_above_guard_raises(self):
        # log M_T = 10 * 8 - 50 = 30 > log(1e12): M_T would be 1.07e13
        with pytest.raises(NumericalError, match="overflow"):
            girsanov_weight(np.full((1, 1, 1), 10.0), np.full((1, 1, 1), 8.0),
                            np.array([1.0]))

    def test_guard_reads_the_final_log_weight(self):
        # log M passes 700 after the first step (40 * 38 - 800 = 720) and
        # the second step (40 * 2 - 800 = -720) brings it back to 0
        m_t = girsanov_weight(np.full((1, 2, 1), 40.0),
                              np.array([[[38.0], [2.0]]]), np.ones(2))
        assert m_t.tolist() == [1.0]


class TestLinearSolver:
    def test_martingale_case(self):
        spec = LinearBsdeSpec(
            alpha=0.0,
            terminal=lambda p: p[:, -1, 0], driver=TIME_DRIVER)
        sol = solve_linear_bsde(spec, brownian_batch(20000, seed=11, x0=0.3))
        assert abs(sol.y0 - 0.3) <= 3 * sol.y0_standard_error

    def test_unit_coefficient_time_driver(self):
        # alpha = 1, eta = t, xi = 1: the flow is e^T exactly
        spec = LinearBsdeSpec(
            alpha=1.0,
            terminal=lambda p: np.ones(p.shape[0]), driver=TIME_DRIVER)
        sol = solve_linear_bsde(spec, brownian_batch(500, seed=1))
        assert sol.y0 == pytest.approx(math.e, rel=1e-12)

    def test_one_coefficient_per_channel(self):
        # two channels of eta = t: the exponent is 0.5 T - 0.25 T exactly
        driver = make_separable_driver(lambda x: np.ones((x.shape[0], 2)),
                                       lambda t: t, channels=2)
        spec = LinearBsdeSpec(
            alpha=np.array([0.5, -0.25]),
            terminal=lambda p: np.ones(p.shape[0]), driver=driver)
        sol = solve_linear_bsde(spec, brownian_batch(200, seed=1))
        assert sol.y0 == pytest.approx(math.exp(0.25), rel=1e-12)

    def test_guard_reads_the_whole_weight(self):
        # exponent 10 and log M_T = 3 * 8 - 4.5 = 19.5 are each below
        # log(1e12) ~ 27.6, their sum 29.5 is not
        driver = driver_by_names("one", "linear", amplitude=10.0)
        # two paths at rest at 0 whose one Brownian increment is 8
        batch = PathBatch(grid=TimeGrid.uniform(1.0, 1),
                          paths=np.zeros((2, 2, 1)),
                          increments=np.full((2, 1, 1), 8.0))

        def spec(alpha, drift_change):
            return LinearBsdeSpec(
                alpha=alpha, terminal=lambda p: np.ones(p.shape[0]),
                driver=driver, drift_change=drift_change)

        def drift(t, x):
            return np.full_like(x, 3.0)

        assert solve_linear_bsde(spec(1.0, None), batch).y0 == \
            pytest.approx(math.exp(10.0), rel=1e-12)
        assert solve_linear_bsde(spec(0.0, drift), batch).y0 == \
            pytest.approx(math.exp(19.5), rel=1e-12)
        with pytest.raises(NumericalError, match="overflow"):
            solve_linear_bsde(spec(1.0, drift), batch)

    def test_kac_potential_against_finite_differences(self):
        from youngbsde.fd import crank_nicolson_terminal_value

        driver = driver_by_names("cos", "linear")
        spec = LinearBsdeSpec(
            alpha=1.0,
            terminal=lambda p: np.ones(p.shape[0]), driver=driver)
        sol = solve_linear_bsde(spec, brownian_batch(
            50000, seed=7, grid=TimeGrid.uniform(1.0, 64)))
        oracle = crank_nicolson_terminal_value(
            lambda x: np.ones_like(x), lambda x: np.ones_like(x),
            lambda x: np.zeros_like(x), np.cos, 1.0, 8.0, 1200, 600)
        ref = float(oracle.at(0.0, 0.0)[0])
        assert sol.y0 == pytest.approx(ref, rel=0.02)

    def test_girsanov_drift_change_consistency(self):
        # xi = X_T under a constant drift change: E[X_T M_T] = x0 + c T
        c = 0.4
        spec = LinearBsdeSpec(
            alpha=0.0,
            terminal=lambda p: p[:, -1, 0], driver=TIME_DRIVER,
            drift_change=lambda t, x: np.full_like(x, c))
        sol = solve_linear_bsde(spec, brownian_batch(50000, seed=13))
        assert abs(sol.y0 - c) <= 3 * sol.y0_standard_error

    @pytest.mark.parametrize("seed", range(5))
    def test_is_the_feynman_kac_point_estimate(self, seed):
        # alpha = 1 and no drift change: the linear payoff is the FK
        # payoff h(X_T) exp(sum deta) on the same simulated paths
        driver = driver_by_names("cos", "linear", amplitude=0.5)
        h = lambda x: np.cos(x[:, 0]) + 2.0
        spec = LinearBsdeSpec(
            alpha=1.0,
            terminal=lambda p: h(p[:, -1, :]), driver=driver)
        sol = solve_linear_bsde(spec, brownian_batch(3000, seed=seed, x0=0.3))
        value, se = fk_point_estimate(BROWNIAN, driver, h, 0.0, [0.3], 1.0,
                                      32, 3000, seed)
        assert sol.y0 == value
        assert sol.y0_standard_error == se


class TestTowerRule:
    def test_deterministic_integrand_exact(self):
        batch = brownian_batch(5000)
        a = np.full((5000, 33), 1.7)
        b = np.ones((5000, 33))
        e1, e2, se = tower_rule_defect(a, b, TIME_DRIVER, batch)
        assert e1 == pytest.approx(1.7, abs=1e-12)
        # the conditioned side carries the ridge shrinkage, O(1e-8 * scale)
        assert abs(e1 - e2) <= max(3 * se, 1e-6)

    def test_terminal_measurable_integrand(self):
        batch = brownian_batch(20000)
        a = np.tile(batch.paths[:, -1, 0][:, None], (1, 33))
        b = np.ones((20000, 33))
        e1, e2, se = tower_rule_defect(a, b, TIME_DRIVER, batch)
        assert abs(e1 - e2) <= max(3 * se, 1e-10)

    def test_terminal_time_empty_interval(self):
        # starting at the last grid point leaves no step to sum over
        batch = brownian_batch(500)
        a = np.ones((500, 33))
        b = np.ones((500, 33))
        with pytest.raises(DomainError, match="t_index 32"):
            tower_rule_defect(a, b, TIME_DRIVER, batch, t_index=32)

    def test_multi_channel_driver_rejected(self):
        batch = brownian_batch(500)
        with pytest.raises(DomainError, match="one driver channel, got 2"):
            tower_rule_defect(np.ones((500, 33)), np.ones((500, 33)),
                              TWO_CHANNEL_DRIVER, batch)


class TestLocalizedSolver:
    def test_radius_must_exceed_start(self):
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.zeros((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=zero_driver())
        with pytest.raises(DomainError, match="radius"):
            solve_localized_bsde(problem, 1.5,
                                 brownian_batch(100, seed=1, x0=2.0))

    def test_conditional_expectation_only(self):
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.zeros((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=zero_driver(),
            lipschitz_f=1e-9)
        batch = brownian_batch(20000, seed=3)
        sol = solve_localized_bsde(problem, 6.0, batch)
        direct = batch.paths[:, -1, 0].mean()
        assert sol.y0 == pytest.approx(direct, abs=1e-9)
        assert_datum_at_stop(problem, sol, batch)

    def test_classical_linear_oracle(self):
        rate = 0.1
        problem = BsdeProblem(
            f=lambda t, x, y, z: rate * y,
            g=lambda y: np.zeros((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=zero_driver(),
            lipschitz_f=rate * 1.01)
        sol = solve_localized_bsde(problem, 6.0, brownian_batch(
            20000, seed=22, grid=TimeGrid.uniform(1.0, 64), x0=1.0))
        assert sol.y0 == pytest.approx(math.exp(rate), rel=0.02)
        assert sol.converged

    def test_constant_young_coefficient_explicit_solution(self):
        driver = driver_by_names("cos", "linear")
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=driver, lipschitz_f=1e-9)
        batch = brownian_batch(20000, seed=5)
        sol = solve_localized_bsde(problem, 6.0, batch)
        explicit = (batch.paths[:, -1, 0]
                    + young_sum_batch(driver, GRID.times,
                                      batch.paths)[:, 0]).mean()
        assert sol.y0 == pytest.approx(explicit, abs=1e-7)

    def test_one_gap_per_active_step(self):
        # the fixed point is solved step by step: one final gap for every
        # step with an active sample, each below the tolerance
        driver = driver_by_names("cos", "linear")
        problem = BsdeProblem(
            f=lambda t, x, y, z: 0.2 * y,
            g=lambda y: np.tanh(y).reshape(-1, 1),
            terminal=lambda x: x[:, 0], driver=driver, lipschitz_f=0.21)
        picard = PicardConfig(tolerance=1e-9, max_iterations=50)
        batch = brownian_batch(5000, seed=9)
        sol = solve_localized_bsde(problem, 1.0, batch, picard=picard)
        stop = first_exit(batch, 1.0).stop_index
        assert sol.converged
        assert len(sol.picard_gaps) == np.count_nonzero(
            [np.any(stop > i) for i in range(GRID.times.size - 1)])
        assert all(gap < picard.tolerance for gap in sol.picard_gaps)
        assert 1 <= sol.picard_iterations <= picard.max_iterations

    def test_martingale_residual_within_band(self):
        problem = BsdeProblem(
            f=lambda t, x, y, z: 0.1 * y,
            g=lambda y: np.zeros((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=zero_driver(),
            lipschitz_f=0.11)
        batch = brownian_batch(20000, seed=42, x0=0.5)
        sol = solve_localized_bsde(problem, 6.0, batch)
        res = martingale_residual(problem, sol, batch)
        z = np.abs(res["mean"]) / np.maximum(res["se"], 1e-300)
        assert np.max(z) <= 3.5

    def test_terminal_exactness_with_exits(self):
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.zeros((np.size(y), 1)),
            terminal=lambda x: np.abs(x[:, 0]), driver=zero_driver(),
            lipschitz_f=1e-9)
        batch = brownian_batch(2000, seed=7)
        sol = solve_localized_bsde(problem, 1.0, batch)
        assert_datum_at_stop(problem, sol, batch)
        assert sol.exit_probability > 0.1

    def test_one_channel_g_may_drop_its_axis(self):
        # g returning (S,) is read as one channel: the same solve, bit for
        # bit, as g returning (S, 1)
        def problem(g):
            return BsdeProblem(
                f=lambda t, x, y, z: 0.2 * y, g=g, terminal=lambda x: x[:, 0],
                driver=driver_by_names("cos", "linear"), lipschitz_f=0.21)

        batch = brownian_batch(2000, seed=4)
        flat = solve_localized_bsde(problem(lambda y: np.tanh(y)), 1.5, batch)
        column = solve_localized_bsde(
            problem(lambda y: np.tanh(y).reshape(-1, 1)), 1.5, batch)
        np.testing.assert_array_equal(flat.y_paths, column.y_paths)
        np.testing.assert_array_equal(flat.z_paths, column.z_paths)
        np.testing.assert_array_equal(flat.y0_samples, column.y0_samples)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), channels=st.integers(1, 3), flat_g=st.booleans(),
           samples=st.integers(0, 30))
    def test_young_term_is_the_channel_sum(self, data, channels, flat_g,
                                           samples):
        floats = st.floats(-1e3, 1e3, allow_nan=False)
        y = data.draw(hnp.arrays(float, samples, elements=floats))
        deta = data.draw(hnp.arrays(float, (samples, channels),
                                    elements=floats))
        weights = np.arange(1.0, channels + 1.0)
        g = ((lambda v: np.tanh(v)) if flat_g
             else (lambda v: np.tanh(v)[:, None] * weights))
        g_val = np.asarray(g(y), dtype=float)
        if g_val.ndim == 1:
            g_val = g_val[:, None]
        want = np.sum(g_val * deta, axis=1)
        got = bsde._young_term(SimpleNamespace(g=g), y, deta)
        assert got.shape == want.shape == (samples,)
        assert np.array_equal(got, want)

    def test_spot_check_rejects_unbounded_g(self):
        with pytest.raises(DomainError, match="declared bound"):
            BsdeProblem(
                f=lambda t, x, y, z: np.zeros(x.shape[0]),
                g=lambda y: (2.0 * np.asarray(y)).reshape(-1, 1),
                terminal=lambda x: x[:, 0], driver=zero_driver(),
                coefficient_bound=1.0)


def _with_exited_sample(batch):
    """The batch with one more sample, last, that lies outside every ball
    from its start: it stops at index 0, so no step of a solve has all its
    samples active and every step gathers its active rows by index."""
    far = np.full((1, *batch.paths.shape[1:]), 1e3)
    still = np.zeros((1, *batch.increments.shape[1:]))
    return dataclasses.replace(
        batch, paths=np.concatenate([batch.paths, far]),
        increments=np.concatenate([batch.increments, still]))


class TestOnePassSolver:
    """The solver makes one backward pass: each step builds one basis and
    one ridge operator on its active rows and iterates its own Y fit to the
    tolerance.  Its fixed point must be that of the global Picard sweeps
    of the masked reference loop, and every fit must still be the
    ridge_fit of that step's active rows."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 2),
           degree=st.integers(1, 3), radius=st.floats(0.6, 6.0),
           steps=st.integers(0, 12), samples=st.integers(2, 150))
    # every sample has left the ball of radius 0.6 before the last steps
    @example(seed=959, dim=1, degree=2, radius=0.6, steps=12, samples=30)
    @example(seed=1, dim=2, degree=3, radius=2.0, steps=0, samples=20)
    # no sample reaches radius 6: every step takes all samples as views
    @example(seed=3, dim=2, degree=2, radius=6.0, steps=10, samples=120)
    def test_matches_masked_reference(self, seed, dim, degree, radius, steps,
                                      samples):
        first_y = {}

        def f(t, x, y, z):
            # the first iterate of each step is the step above's Y row
            first_y.setdefault(t, np.array(y))
            return 0.2 * np.cos(x[:, 0]) * y + 0.1 * z[:, -1]

        problem = BsdeProblem(
            f=f,
            g=lambda y: np.tanh(np.asarray(y, dtype=float)).reshape(-1, 1),
            terminal=lambda x: np.sum(x, axis=1),
            driver=driver_by_names("cos", "linear", dim=dim), lipschitz_f=0.3)
        grid = TimeGrid([0.0], 1.0) if steps == 0 \
            else TimeGrid.uniform(1.0, steps)
        batch = simulate(diffusion_by_name("brownian", dim=dim),
                         np.zeros(dim), grid, samples, seed)
        # both iterate to the same fixed point, one step or one sweep at a
        # time; a tolerance far below the fit tolerance compares the points
        picard = PicardConfig(tolerance=1e-13, max_iterations=200)
        ref = _reference_localized_bsde(problem, radius, batch,
                                        basis_degree=degree, picard=picard)
        gathered = solve_localized_bsde(problem, radius,
                                        _with_exited_sample(batch),
                                        basis_degree=degree, picard=picard)
        first_y.clear()
        sol = solve_localized_bsde(problem, radius, batch,
                                   basis_degree=degree, picard=picard)
        assert ref.converged and sol.converged
        # steps where no sample has exited read views, not gathered rows:
        # the same bytes, and no row of y moves once the step below it has
        # read it
        for got, want in ((sol.y_paths, gathered.y_paths[:-1]),
                          (sol.z_paths, gathered.z_paths[:-1]),
                          (sol.y0_samples, gathered.y0_samples[:-1])):
            assert np.array_equal(got, want)
        for i in range(grid.times.size - 1):
            rows = ref.stop_index > i
            if np.any(rows):
                assert np.array_equal(first_y[grid.times[i]],
                                      sol.y_paths[rows, i + 1])
        # the solver solves the normal equations by Cholesky, the reference
        # by LU.  With at least 2p active rows at every step (p basis
        # columns) the fits agree to 1e-11.  With fewer, the normal
        # equations are nearly singular and only the 1e-8 ridge bounds
        # their condition number, by about p / 1e-8: either fit is then
        # accurate to eps * p / 1e-8
        p = math.comb(dim + degree, degree)
        active = (np.count_nonzero(ref.stop_index > i)
                  for i in range(grid.times.size - 1))
        tol = 1e-11 if all(n == 0 or n >= 2 * p for n in active) \
            else np.finfo(float).eps * p / 1e-8
        np.testing.assert_allclose(sol.y_paths, ref.y_paths, rtol=0,
                                   atol=tol)
        np.testing.assert_allclose(sol.z_paths, ref.z_paths, rtol=0,
                                   atol=tol)
        assert_datum_at_stop(problem, sol, batch)

    def test_reference_example_has_empty_steps(self):
        # the first explicit example above, where the solver skips steps
        ref = _reference_localized_bsde(
            BsdeProblem(f=lambda t, x, y, z: np.zeros(x.shape[0]),
                        g=lambda y: np.ones((np.size(y), 1)),
                        terminal=lambda x: x[:, 0],
                        driver=driver_by_names("cos", "linear")),
            0.6, brownian_batch(30, seed=959, grid=TimeGrid.uniform(1.0, 12)))
        # every sample stops by step 9: steps 9 to 11 have none active
        assert np.max(ref.stop_index) == 9

    @staticmethod
    def fits_match_ridge_fit(problem, radius, batch, degree):
        """Assert that each step's final Z and Y coefficients equal ridge_fit
        on that step's active rows, in sample order, and return the active
        counts.  Needs f = 0 and g = 1, so the Y target does not involve the
        previous iterate."""
        sol = solve_localized_bsde(problem, radius, batch,
                                   basis_degree=degree)
        times = batch.grid.times
        stop = first_exit(batch, radius).stop_index
        deta = batch.driver_increments(problem.driver).swapaxes(0, 1)
        dts = np.diff(times)
        counts = []
        for i in range(times.size - 1):
            rows = np.flatnonzero(stop > i)
            if rows.size == 0:
                continue
            basis = poly_basis(batch.paths[rows, i], degree)
            y_next = sol.y_paths[rows, i + 1]
            z_ref = ridge_fit(basis, y_next[:, None]
                              * batch.increments[rows, i] / dts[i])
            y_ref = ridge_fit(basis, y_next + deta[rows, i, 0])
            for got, want in ((sol.z_coefficients[i], z_ref),
                              (sol.y_coefficients[i], y_ref)):
                assert np.all(np.isfinite(got))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
            counts.append(rows.size)
        return counts

    @staticmethod
    def constant_g_problem():
        return BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)), terminal=lambda x: x[:, 0],
            driver=driver_by_names("cos", "linear"), lipschitz_f=1e-9)

    def test_degree_six_on_clustered_states(self):
        narrow = DiffusionSpec(sigma=lambda t, x: np.full(x.shape[0], 1e-3),
                               drift=lambda t, x: np.zeros(x.shape[0]),
                               bound=1.0, dim=1)
        batch = simulate(narrow, [1.3], TimeGrid.uniform(1.0, 16), 300, 3)
        counts = self.fits_match_ridge_fit(self.constant_g_problem(), 2.0,
                                           batch, degree=6)
        assert counts == [300] * 16

    def test_two_active_samples_at_degree_two(self):
        batch = brownian_batch(12, seed=2, grid=TimeGrid.uniform(1.0, 16))
        counts = self.fits_match_ridge_fit(self.constant_g_problem(), 0.8,
                                           batch, degree=2)
        assert 2 in counts

    def test_nan_from_g_raises(self):
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.full((np.size(y), 1), np.nan),
            terminal=lambda x: x[:, 0],
            driver=driver_by_names("cos", "linear"), lipschitz_f=1e-9)
        with pytest.raises(NumericalError, match="not finite"):
            solve_localized_bsde(problem, 3.0, brownian_batch(200, seed=1))


class TestStandardError:
    # the lorentz-driver problem of criterion 11 at a small size.  At a
    # deterministic start the fitted t=0 values differ only by roundoff
    # (a spread of 3.5e-18 at seed 2), and the spread of Y at step 1 is
    # too small by about sqrt(steps): the standard error is the spread of
    # the pathwise sum whose mean is y0
    GRID32 = TimeGrid.uniform(1.0, 32)

    @staticmethod
    def problem():
        return BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)), terminal=lambda x: x[:, 0],
            driver=driver_by_names("lorentz", "linear"), lipschitz_f=1e-9)

    def test_single_solve_uses_pathwise_spread(self):
        problem = self.problem()
        batch = brownian_batch(4000, seed=2, grid=self.GRID32)
        sol = solve_localized_bsde(problem, 3.0, batch)
        # f = 0 and g = 1: the pathwise sum is the stopped state plus the
        # driver increments before the stop, whatever the fitted Y
        stop = first_exit(batch, 3.0).stop_index
        deta = batch.driver_increments(problem.driver)[:, :, 0].T
        before_stop = np.arange(32)[None, :] < stop[:, None]
        pathwise = (batch.paths[np.arange(4000), stop, 0]
                    + np.sum(deta * before_stop, axis=1))
        np.testing.assert_allclose(sol.y0_samples, pathwise, rtol=0,
                                   atol=1e-12)
        assert abs(sol.y0_samples.mean() - sol.y0) <= 1e-6
        assert sol.y0_standard_error == \
            np.std(sol.y0_samples, ddof=1) / math.sqrt(4000)
        assert sol.y0_standard_error > 1e-3

    def test_sweep_uses_paired_pathwise_spread(self):
        finest, table = solve_bsde_with_localization(
            self.problem(), [1.5, 2.0, 3.0],
            brownian_batch(4000, seed=1, grid=self.GRID32))
        assert table[-1]["se"] == 0.0
        assert all(row["se"] > 1e-6 for row in table[:-1])

    def test_calibrated_over_seeds(self):
        # a nonlinear problem at 1000 samples x 16 steps over 30 seeds: the
        # seed-to-seed spread of y0, and of the paired difference between
        # radii 1.5 and 2.5, over the median reported standard error.  The
        # pathwise rule gives 1.25 and 1.44; the step-1 spread gave 3.9 and
        # 12.0
        problem = BsdeProblem(
            f=lambda t, x, y, z: 0.5 * np.sin(y) + 0.2 * z[:, 0],
            g=lambda y: np.tanh(np.asarray(y, dtype=float)).reshape(-1, 1),
            terminal=lambda x: x[:, 0],
            driver=driver_by_names("linear", "linear"), lipschitz_f=0.5)
        grid = TimeGrid.uniform(1.0, 16)
        y0, se, diff, diff_se = [], [], [], []
        for seed in range(30):
            finest, table = solve_bsde_with_localization(
                problem, [1.5, 2.5], brownian_batch(1000, seed, grid))
            y0.append(finest.y0)
            se.append(finest.y0_standard_error)
            diff.append(table[0]["y0"] - finest.y0)
            diff_se.append(table[0]["se"])
        assert 0.5 <= np.std(y0, ddof=1) / np.median(se) <= 2.5
        assert 0.5 <= np.std(diff, ddof=1) / np.median(diff_se) <= 2.5

    def test_no_sweep_leaves_the_datum(self):
        sol = solve_localized_bsde(self.problem(), 3.0,
                                   brownian_batch(200, seed=2,
                                                  grid=self.GRID32),
                                   picard=PicardConfig(max_iterations=0))
        assert not sol.converged
        np.testing.assert_array_equal(sol.y0_samples, sol.y_paths[:, -1])

    def test_one_point_grid_is_the_terminal_datum(self):
        sol = solve_localized_bsde(
            self.problem(), 2.0,
            brownian_batch(10, seed=1, grid=TimeGrid([0.0], 1.0), x0=0.5))
        assert sol.y0 == 0.5 and sol.y0_standard_error == 0.0


class TestLinearNonlinearConsistency:
    def test_localized_solver_agrees_with_flow_formula(self):
        # the same equation solved twice: g(y) = y through the localized
        # regression scheme, alpha = 1 through the explicit flow formula
        amp = 0.5
        driver = driver_by_names("cos", "linear", amplitude=amp)
        grid = TimeGrid.uniform(1.0, 64)
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.asarray(y, dtype=float).reshape(-1, 1),
            terminal=lambda x: np.ones(x.shape[0]), driver=driver,
            coefficient_bound=20.0, lipschitz_f=1e-9)
        lsmc = solve_localized_bsde(problem, 6.0,
                                    brownian_batch(40000, seed=33, grid=grid),
                                    picard=PicardConfig(tolerance=1e-8,
                                                        max_iterations=80))
        spec = LinearBsdeSpec(
            alpha=1.0,
            terminal=lambda p: np.ones(p.shape[0]), driver=driver)
        flow = solve_linear_bsde(
            spec, brownian_batch(40000, seed=3300, grid=grid))
        combined = math.hypot(lsmc.y0_standard_error,
                              flow.y0_standard_error)
        scheme_bias = lsmc.y0 * amp**2 / (2 * 64)
        assert abs(lsmc.y0 - flow.y0) <= 3 * combined + scheme_bias

    def test_drift_change_bound_enforced(self):
        spec = LinearBsdeSpec(
            alpha=0.0,
            terminal=lambda p: p[:, -1, 0], driver=TIME_DRIVER,
            drift_change=lambda t, x: np.full_like(x, 2.0),
            drift_change_bound=1.0)
        with pytest.raises(DomainError, match="bound"):
            solve_linear_bsde(spec, brownian_batch(50, seed=1))

    def test_flow_overflow_guard_shared_with_exact_flow(self):
        # exponent 40 t ends above log(FLOW_OVERFLOW_GUARD) ~ 27.6 but below
        # the 700 of the exponential-martingale guard
        driver = driver_by_names("one", "linear", amplitude=40.0)
        grid = TimeGrid.uniform(1.0, 8)
        spec = LinearBsdeSpec(
            alpha=1.0, terminal=lambda p: np.ones(p.shape[0]), driver=driver)
        with pytest.raises(NumericalError):
            solve_linear_bsde(spec, brownian_batch(50, seed=1, grid=grid))
        with pytest.raises(NumericalError):
            solve_flow(np.ones(9), driver, SamplePath(grid, np.zeros(9)),
                       mode="exact")
        with pytest.raises(NumericalError):
            fk_point_estimate(BROWNIAN, driver,
                              lambda x: np.ones(x.shape[0]), 0.0, [0.0],
                              1.0, 8, 50, 1)

    def test_guard_reads_the_final_exponent(self):
        # the exponent 40 sin(pi t) passes log(FLOW_OVERFLOW_GUARD) at
        # t = 1/2 and returns to 0 (up to round-off) at t = 1
        driver = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                       lambda t: 40.0 * np.sin(np.pi * t))
        spec = LinearBsdeSpec(
            alpha=1.0, terminal=lambda p: np.ones(p.shape[0]), driver=driver)
        sol = solve_linear_bsde(spec, brownian_batch(50, seed=1))
        assert sol.y0 == pytest.approx(1.0, abs=1e-12)


class TestLocalizationSweep:
    GRID8 = TimeGrid.uniform(1.0, 8)

    @staticmethod
    def problem():
        return BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)), terminal=lambda x: x[:, 0],
            driver=driver_by_names("lorentz", "linear"), lipschitz_f=1e-9)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16),
           radii=st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
                          min_size=1, max_size=3, unique=True).map(sorted))
    def test_rows_match_standalone_solves(self, seed, radii):
        problem = self.problem()
        batch = simulate(BROWNIAN, [0.0], self.GRID8, 300, seed)
        finest, table = solve_bsde_with_localization(problem, radii, batch)
        assert finest.radius == radii[-1] and len(table) == len(radii)
        for radius, row in zip(radii, table):
            sol = solve_localized_bsde(problem, radius, batch)
            assert row["radius"] == radius
            assert row["y0"] == sol.y0
            assert row["y0_standard_error"] == sol.y0_standard_error
            assert row["gap"] == abs(sol.y0 - finest.y0)
            assert row["se"] == np.std(sol.y0_samples - finest.y0_samples,
                                       ddof=1) / math.sqrt(300)
            assert row["exit_probability"] == sol.exit_probability

    def test_sweep_evaluates_the_driver_once(self, monkeypatch):
        # every radius reads the increments the batch keeps: m - 1 calls of
        # increment_pairs for the whole sweep, not one per radius and step
        calls, solves = [], []
        increment_pairs = SpaceTimeDriver.increment_pairs
        solve = bsde.solve_localized_bsde

        def counting(driver, *args):
            calls.append(args[2].shape[0])
            return increment_pairs(driver, *args)

        monkeypatch.setattr(SpaceTimeDriver, "increment_pairs", counting)
        monkeypatch.setattr(bsde, "solve_localized_bsde",
                            lambda *args, **kwargs: solves.append(args[1])
                            or solve(*args, **kwargs))
        batch = simulate(BROWNIAN, [0.0], self.GRID8, 200, 3)
        solve_bsde_with_localization(self.problem(), [1.0, 1.5, 2.0, 3.0],
                                     batch)
        assert solves == [1.0, 1.5, 2.0, 3.0]
        assert calls == [200] * 8

    @pytest.mark.parametrize("radii", [[], [2.0, 2.0], [3.0, 2.5],
                                       [0.5, 3.0], [1.0, 3.0], [math.nan]])
    def test_radii_rejected_before_simulation(self, monkeypatch, radii):
        # the sweep is given its batch; bad radii are rejected before any
        # solve runs on it
        batch = simulate(BROWNIAN, [1.0], self.GRID8, 50, 1)
        calls = []
        monkeypatch.setattr(bsde, "solve_localized_bsde",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError):
            solve_bsde_with_localization(self.problem(), radii, batch)
        assert not calls

    def test_inert_when_coefficients_compact(self):
        # driver coefficient vanishes outside |x| <= 1 and paths are frozen
        # only beyond the smallest radius, so all radii agree
        driver = driver_by_names("tent", "linear")
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: np.zeros(x.shape[0]), driver=driver,
            lipschitz_f=1e-9)
        batch = simulate(diffusion_by_name("drift-only"), [0.0], GRID, 200, 1)
        finest, table = solve_bsde_with_localization(
            problem, [2.0, 3.0, 4.0], batch)
        gaps = [row["gap"] for row in table]
        assert all(g == 0.0 for g in gaps)

    def test_equal_stop_indices_give_bit_identical_solves(self):
        # two radii strictly between the same two consecutive visited norms
        # stop every sample at the same index, so the sorted sample orders
        # and the solves agree bit for bit and the sweep gap is exactly 0,
        # the saturation mark of localization_error_experiment
        problem = self.problem()
        batch = simulate(BROWNIAN, [0.0], GRID, 400, 12)
        norms = np.unique(np.abs(batch.paths))
        k = np.searchsorted(norms, 1.5)
        lo, hi = norms[k], norms[k + 1]
        radii = [lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3]
        stops = [first_exit(batch, r).stop_index for r in radii]
        np.testing.assert_array_equal(stops[0], stops[1])
        assert 0 < np.count_nonzero(stops[0] < GRID.times.size - 1) < 400
        solutions = [solve_localized_bsde(problem, r, batch) for r in radii]
        np.testing.assert_array_equal(solutions[0].y_paths,
                                      solutions[1].y_paths)
        _, table = solve_bsde_with_localization(problem, radii, batch)
        assert table[0]["gap"] == 0.0

    def test_common_random_numbers_deterministic(self):
        driver = driver_by_names("lorentz", "linear")
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=driver, lipschitz_f=1e-9)
        _, t1 = solve_bsde_with_localization(problem, [1.5, 2.5],
                                             brownian_batch(2000, seed=4))
        _, t2 = solve_bsde_with_localization(problem, [1.5, 2.5],
                                             brownian_batch(2000, seed=4))
        assert [r["gap"] for r in t1] == [r["gap"] for r in t2]

    def test_growth_bound_fit_and_holdout(self):
        # fit the growth envelope on half the start points, verify on the
        # other half: |Y0(x0)| <= C (1 + |x0|^max(1, (lam+beta)/eps))
        driver = driver_by_names("lorentz", "linear")
        x0s = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=driver, lipschitz_f=1e-9)
        values = []
        for x0 in x0s:
            sol = solve_localized_bsde(problem, abs(x0) + 4.0,
                                       brownian_batch(4000, seed=31, x0=x0))
            values.append(abs(sol.y0))
        power = max(1.0, (driver.lam + driver.beta) / 0.5)
        envelope = 1.0 + np.abs(x0s) ** power
        fit_c = np.max(np.asarray(values)[::2] / envelope[::2])
        assert np.all(np.asarray(values)[1::2]
                      <= 1.5 * fit_c * envelope[1::2] + 1e-9)


class TestJointPass:
    """`solve_localized_bsdes` shares each step's active rows, basis and
    ridge operator among its problems; each problem keeps the bytes of its
    lone solve."""

    GRID8 = TimeGrid.uniform(1.0, 8)

    @staticmethod
    def problems():
        # problems that differ in f, g, terminal and driver
        return [
            BsdeProblem(
                f=lambda t, x, y, z: np.zeros(x.shape[0]),
                g=lambda y: np.ones((np.size(y), 1)),
                terminal=lambda x: x[:, 0],
                driver=driver_by_names("lorentz", "linear"),
                lipschitz_f=1e-9),
            BsdeProblem(
                f=lambda t, x, y, z: 0.3 * np.sin(y) + 0.2 * z[:, 0],
                g=lambda y: np.tanh(y).reshape(-1, 1),
                terminal=lambda x: np.cos(x[:, 0]),
                driver=mollify_time(driver_by_names("linear", "kink-mid"),
                                    0.1, 1.0),
                lipschitz_f=0.5),
            BsdeProblem(
                f=lambda t, x, y, z: -0.5 * y,
                g=lambda y: np.stack([np.sin(y), 0.01 * np.cos(y)], axis=1),
                terminal=lambda x: np.abs(x[:, 0]),
                driver=TWO_CHANNEL_DRIVER, lipschitz_f=0.5),
        ]

    # samples exit at radius 1 (gathered rows) and none at 50 (views)
    @pytest.mark.parametrize("radius, exits", [(1.0, True), (50.0, False)])
    def test_each_solution_has_its_lone_solve_bytes(self, radius, exits):
        batch = simulate(BROWNIAN, [0.2], self.GRID8, 300, 7)
        assert (first_exit(batch, radius).probability > 0) == exits
        problems = self.problems()
        picard = PicardConfig(tolerance=1e-10, max_iterations=30)
        joint = solve_localized_bsdes(problems, radius, batch, picard=picard)
        assert len(joint) == len(problems)
        for problem, sol in zip(problems, joint):
            lone = solve_localized_bsde(problem, radius, batch, picard=picard)
            for name in ("y0_samples", "y_paths", "z_paths"):
                assert getattr(sol, name).tobytes() == \
                    getattr(lone, name).tobytes(), name
            for name in ("picard_gaps", "picard_iterations", "converged",
                         "exit_probability"):
                assert getattr(sol, name) == getattr(lone, name), name
        assert len({sol.y0 for sol in joint}) == len(problems)

    def test_no_problem_rejected(self):
        batch = simulate(BROWNIAN, [0.0], self.GRID8, 20, 1)
        with pytest.raises(DomainError, match="at least one problem"):
            solve_localized_bsdes([], 2.0, batch)


class TestLayout:
    """simulate stores a batch step-major; a sample-major copy of the same
    arrays must give every consumer the same bytes."""

    @staticmethod
    def outputs(batch, dim):
        driver = driver_by_names("cos", "linear", dim=dim)
        problem = BsdeProblem(
            f=lambda t, x, y, z: 0.2 * np.cos(x[:, 0]) * y + 0.1 * z[:, -1],
            g=lambda y: np.tanh(np.asarray(y, dtype=float)).reshape(-1, 1),
            terminal=lambda x: np.sum(x**2, axis=1), driver=driver,
            lipschitz_f=0.3)
        linear = LinearBsdeSpec(
            alpha=0.7, driver=driver,
            terminal=lambda p: np.sum(p[:, -1, :], axis=1),
            drift_change=lambda t, x: 0.3 * np.sin(x))
        sol = solve_localized_bsde(problem, 1.5, batch)
        finest, table = solve_bsde_with_localization(problem, [1.0, 2.0],
                                                     batch)
        residual = martingale_residual(problem, finest, batch)
        x = batch.paths[:, :, 0]
        return [sol.y_paths, sol.z_paths, sol.y0_samples, finest.y0_samples,
                [[row[k] for k in sorted(row)] for row in table],
                residual["mean"], residual["se"],
                solve_linear_bsde(linear, batch).y0_samples,
                tower_rule_defect(np.tile(x[:, -1:], (1, x.shape[1])), x,
                                  driver, batch, t_index=2),
                first_exit(batch, 1.5).stop_index,
                young_sum_batch(driver, batch.grid.times, batch.paths)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sample_major_copy_gives_the_same_bytes(self, dim):
        batch = simulate(diffusion_by_name("brownian", dim=dim),
                         np.full(dim, 0.1), TimeGrid.uniform(1.0, 12), 1500,
                         seed=4, sample_offset=700)
        sample_major = dataclasses.replace(
            batch, paths=np.ascontiguousarray(batch.paths),
            increments=np.ascontiguousarray(batch.increments))
        assert batch.paths[:, 3].flags.c_contiguous
        assert sample_major.paths[3].flags.c_contiguous
        for a, b in zip(self.outputs(batch, dim),
                        self.outputs(sample_major, dim)):
            assert np.array_equal(np.asarray(a), np.asarray(b))


class TestExponentialMoment:
    def test_zero_coefficient_is_one(self):
        batch = brownian_batch(5000)
        est = exponential_moment_diagnostic(
            np.zeros((5000, 33)), driver_by_names("cos", "linear"), batch,
            exponent=2.0, radius=3.0)
        assert est.value == pytest.approx(1.0)

    def test_deterministic_driver_closed_form(self):
        batch = brownian_batch(2000)
        a = 0.7
        est = exponential_moment_diagnostic(
            np.full((2000, 33), a), TIME_DRIVER, batch, exponent=2.0,
            radius=50.0)
        # integral is deterministic: sup_t E exp(q a (T - t)) = e^{q a T}
        assert est.value == pytest.approx(math.exp(2.0 * a), rel=1e-9)
        assert est.argmax_time == 0.0

    def test_multi_channel_driver_rejected(self):
        batch = brownian_batch(500)
        with pytest.raises(DomainError, match="one driver channel, got 2"):
            exponential_moment_diagnostic(
                np.ones((500, 33)), TWO_CHANNEL_DRIVER, batch, exponent=2.0,
                radius=3.0)

    def test_subquadratic_growth_in_radius(self):
        from youngbsde.fractional_sheet import SheetSpec, sample_sheet

        spec = SheetSpec(0.9, [0.75], TimeGrid(np.linspace(0, 1, 6), 1.0),
                         [np.linspace(-8.0, 8.0, 9)])
        sheet = sample_sheet(spec, seed=14)
        batch = brownian_batch(4000, seed=14)
        logs = []
        for radius in (2.0, 4.0):
            est = exponential_moment_diagnostic(
                np.ones((4000, 33)), sheet, batch, exponent=1.5,
                radius=radius)
            logs.append(max(est.log_value, 1e-12))
        growth = math.log(logs[1] / logs[0]) / math.log(2.0)
        assert growth < 2.0
