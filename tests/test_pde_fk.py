import hashlib
import math

import numpy as np
import pytest

from youngbsde import bsde, pde_fk
from youngbsde.bsde import (BsdeProblem, PicardConfig,
                            solve_bsde_with_localization)
from youngbsde.diffusion import first_exit, simulate
from youngbsde.drivers import make_separable_driver, zero_driver
from youngbsde.errors import DomainError, NumericalError
from youngbsde.fd import crank_nicolson_terminal_value
from youngbsde.paths import TimeGrid
from youngbsde.pde_fk import (PdeProblem, check_reaction_growth,
                              fk_point_estimate,
                              localization_error_experiment,
                              solve_linear_bsde, solve_linear_young_pde,
                              solve_young_pde_double_approximation,
                              weak_solution_residual)
from youngbsde.registry import (diffusion_by_name, driver_by_names,
                                drift_change_function, terminal_function)
from youngbsde.rng import hash64

BROWNIAN = diffusion_by_name("brownian")


def bump(radius):
    def phi(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < radius
        out = np.zeros_like(x)
        out[inside] = np.exp(-1.0 / (1.0 - (x[inside] / radius) ** 2))
        return out

    return phi


class TestLinearFeynmanKac:
    def test_zero_driver_martingale(self):
        table = solve_linear_young_pde(
            lambda x: x[:, 0], BROWNIAN, zero_driver(),
            [(0.0, [0.5]), (0.25, [-1.0])], horizon=1.0, samples=20000,
            seed=3, steps=32)
        for (t, x), u, se in zip(table.points, table.values,
                                 table.standard_errors):
            assert abs(u - x[0]) <= 3 * se

    def test_space_free_exponential_weight(self):
        c = 0.7
        driver = make_separable_driver(lambda x: np.full(x.shape[0], c),
                                       lambda t: t)
        table = solve_linear_young_pde(
            lambda x: np.ones(x.shape[0]), BROWNIAN, driver,
            [(0.0, [0.0]), (0.5, [1.0])], horizon=1.0, samples=200, seed=3,
            steps=16)
        assert table.values[0] == pytest.approx(math.exp(c), rel=1e-10)
        assert table.values[1] == pytest.approx(math.exp(c / 2), rel=1e-10)

    def test_terminal_time_exact(self):
        u, se = fk_point_estimate(BROWNIAN, zero_driver(),
                                  lambda x: x[:, 0] ** 2, 1.0, [1.5], 1.0,
                                  16, 100, point_seed=1)
        assert u == 2.25 and se == 0.0

    def test_standard_error_survives_large_offset(self):
        # a one-pass E[X^2] - E[X]^2 cancels at an offset of 1e8 and
        # reported SE 0.0100 against 0.00702 without the offset
        def estimate(offset):
            return fk_point_estimate(BROWNIAN, zero_driver(),
                                     lambda x: offset + x[:, 0], 0.0, [0.0],
                                     1.0, 16, 20000, point_seed=5)

        u_big, se_big = estimate(1e8)
        u_plain, se_plain = estimate(0.0)
        assert se_plain == pytest.approx(1 / math.sqrt(20000), rel=0.05)
        assert se_big == pytest.approx(se_plain, rel=1e-6)
        assert u_big - 1e8 == pytest.approx(u_plain, abs=1e-6)

    def test_chunking_keeps_the_bytes(self, monkeypatch):
        # a chunk size that is not a multiple of the 1024-sample stream
        # block makes every chunk after the first start inside a block
        driver = driver_by_names("cos", "linear")

        def estimate():
            return fk_point_estimate(BROWNIAN, driver, lambda x: x[:, 0] ** 2,
                                     0.0, [0.3], 1.0, 8, 3000, point_seed=7)

        whole = estimate()
        monkeypatch.setattr(pde_fk, "_FK_CHUNK", 700)
        assert estimate() == whole

    def test_weight_overflow_raises(self):
        driver = make_separable_driver(lambda x: np.full(x.shape[0], 800.0),
                                       lambda t: t)
        with pytest.raises(NumericalError, match="overflow"):
            fk_point_estimate(BROWNIAN, driver, lambda x: x[:, 0], 0.0,
                              [0.0], 1.0, 8, 10, point_seed=1)

    def test_cos_potential_vs_crank_nicolson(self):
        driver = driver_by_names("cos", "linear")
        table = solve_linear_young_pde(
            lambda x: np.ones(x.shape[0]), BROWNIAN, driver,
            [(0.0, [0.0])], horizon=1.0, samples=40000, seed=17, steps=64)
        oracle = crank_nicolson_terminal_value(
            lambda x: np.ones_like(x), lambda x: np.ones_like(x),
            lambda x: np.zeros_like(x), np.cos, 1.0, 8.0, 1200, 600)
        ref = float(oracle.at(0.0, 0.0)[0])
        assert table.values[0] == pytest.approx(ref, rel=0.02)

    @pytest.mark.parametrize("space, alpha, drift_change, terminal, digest", [
        ("cos", 1.0, ("cos-state", 0.3), "cos",
         "d00f9fd997abae0fa46a8d9960a5452d1b89e735cbfde5f12223999e19b118af"),
        ("lorentz", 0.0, ("const", 0.4), "identity",
         "2536d622282981598505bdc3e45eb16c0b907ee8b8e11fe018824fd83e4c5616"),
        ("cos-and-linear", np.array([0.5, -0.25]), None, "gauss",
         "f212b5783e9b229c09e5f57df2302c7bbe1465bf2af6861931dab8719822a45b"),
    ], ids=["cos-state-drift-change", "const-drift-change", "two-channels"])
    def test_linear_formula_keeps_its_bytes(self, space, alpha, drift_change,
                                            terminal, digest):
        # per-sample payoffs of three linear equations on one batch: a
        # state-dependent and a constant drift change, and one alpha per
        # channel of a two-channel driver
        if space == "cos-and-linear":
            driver = make_separable_driver(
                lambda x: np.stack([np.cos(x[:, 0]), x[:, 0]], axis=1),
                lambda t: np.asarray(t, dtype=float), channels=2)
        else:
            driver = driver_by_names(space, "linear")
        batch = simulate(BROWNIAN, [0.3], TimeGrid.uniform(1.0, 32), 3000, 5)
        payoff = solve_linear_bsde(
            driver, terminal_function(terminal), batch, alpha=alpha,
            drift_change=drift_change and drift_change_function(*drift_change))
        assert hashlib.sha256(payoff.tobytes()).hexdigest() == digest

    def test_requires_ellipticity(self):
        with pytest.raises(DomainError, match="ellipticity"):
            solve_linear_young_pde(lambda x: x[:, 0],
                                   diffusion_by_name("drift-only"),
                                   zero_driver(), [(0.0, [0.0])], 1.0, 10,
                                   1)

    def test_markov_consistency_with_bsde_regression(self):
        # E[Y_s | X_s = x] read off the backward solve agrees with a fresh
        # forward estimate started at (s, x)
        from youngbsde.bsde import BsdeProblem, solve_localized_bsde
        from youngbsde.regression import poly_basis

        driver = driver_by_names("cos", "linear")
        grid = TimeGrid.uniform(1.0, 32)
        problem = BsdeProblem(
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: np.ones(x.shape[0]), driver=driver,
            lipschitz_f=1e-9)
        sol = solve_localized_bsde(
            problem, 6.0, simulate(BROWNIAN, [0.0], grid, 40000, seed=19))
        s_idx = 16  # t = 0.5 on the 32-step grid
        x_probe = 0.3
        coeffs = sol.y_coefficients[s_idx]
        fitted = (poly_basis(np.array([[x_probe]]), 2) @ coeffs).item()

        # fresh forward estimate at (0.5, 0.3) of the same additive problem:
        # u(s, x) = E[ h + int_s^T eta(dr, X^{s,x}_r) ]
        sub = TimeGrid(np.linspace(0.5, 1.0, 17), 1.0)
        fresh = simulate(BROWNIAN, [x_probe], sub, 40000, seed=1900)
        from youngbsde.young_calculus import young_sum_batch

        payoff = 1.0 + young_sum_batch(driver, sub.times, fresh.paths)[:, 0]
        u_fresh = float(payoff.mean())
        se = float(payoff.std(ddof=1) / math.sqrt(payoff.size))
        assert abs(fitted - u_fresh) <= max(3 * se, 0.01)


class TestWeakSolutionResidual:
    def _heat_table(self, n_t=41, n_x=241):
        times = np.linspace(0.0, 1.0, n_t)
        xs = np.linspace(-6.0, 6.0, n_x)
        tt, xx = np.meshgrid(times, xs, indexing="ij")
        u = np.exp(-xx**2 / (2 * (2 - tt))) / np.sqrt(2 - tt)
        return times, xs, u

    def test_heat_solution_small_residual(self):
        times, xs, u = self._heat_table()
        res = weak_solution_residual(
            times, xs, u, lambda x: np.exp(-x[:, 0] ** 2 / 2), bump(3.0),
            BROWNIAN, zero_driver())
        assert abs(res) < 1e-5

    def test_terminal_time_reduces_to_terminal_match(self):
        times, xs, u = self._heat_table(n_t=2)
        res = weak_solution_residual(
            times[1:], xs, u[1:], lambda x: np.exp(-x[:, 0] ** 2 / 2),
            bump(3.0), BROWNIAN, zero_driver())
        assert abs(res) < 1e-12

    def test_zero_test_function_rejected(self):
        times, xs, u = self._heat_table(n_t=5, n_x=31)
        with pytest.raises(DomainError, match="zero"):
            weak_solution_residual(times, xs, u,
                                   lambda x: np.exp(-x[:, 0] ** 2 / 2),
                                   lambda x: np.zeros_like(x), BROWNIAN,
                                   zero_driver())

    def test_support_violation_rejected(self):
        times, xs, u = self._heat_table(n_t=5, n_x=31)
        with pytest.raises(DomainError, match="support"):
            weak_solution_residual(times, xs, u,
                                   lambda x: np.exp(-x[:, 0] ** 2 / 2),
                                   lambda x: np.ones_like(x), BROWNIAN,
                                   zero_driver())

    def test_driver_term_enters(self):
        # Crank-Nicolson table for the cos-potential equation satisfies the
        # identity up to the left-point Young-sum bias, which shrinks as the
        # time grid refines
        driver = driver_by_names("cos", "linear")
        cn = crank_nicolson_terminal_value(
            lambda x: np.exp(-x**2 / 2), lambda x: np.ones_like(x),
            lambda x: np.zeros_like(x), np.cos, 1.0, 8.0, 1601, 800)
        xs = np.linspace(-6.0, 6.0, 241)
        residuals = []
        for n_t in (41, 161):
            times = np.linspace(0.0, 1.0, n_t)
            u = np.stack([cn.at(t, xs) for t in times])
            residuals.append(abs(weak_solution_residual(
                times, xs, u, lambda x: np.exp(-x[:, 0] ** 2 / 2),
                bump(3.0), BROWNIAN, driver)))
        assert residuals[1] < 0.5 * residuals[0]


class TestDoubleApproximation:
    def _tent_problem(self):
        driver = driver_by_names("tent", "linear")
        return PdeProblem(
            diffusion=BROWNIAN,
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: np.zeros(x.shape[0]), driver=driver,
            horizon=1.0, lipschitz_f=1e-9, lipschitz_terminal=1e-9)

    def test_inert_beyond_support(self):
        problem = self._tent_problem()
        # coefficients vanish outside the unit ball and no sample reaches
        # either radius, so localization is fully inert: identical tables
        finest, diag = solve_young_pde_double_approximation(
            problem, deltas=[0.02, 0.01], radii=[4.0, 5.0],
            eval_points=[(0.0, [0.0])], samples=2000, seed=6, steps=32)
        values = diag["values"][:, :, 0]
        assert abs(values[0, 1] - values[1, 1]) == 0.0
        # mollification of the linear-in-time factor only bends near the
        # horizon: the delta-direction stabilization stays within its bias
        assert np.max(np.abs(np.diff(values, axis=1))) <= 0.01

    def test_linear_specialization_matches_direct_fk(self):
        amp = 0.5
        driver = driver_by_names("cos", "linear", amplitude=amp)
        problem = PdeProblem(
            diffusion=BROWNIAN,
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.asarray(y, dtype=float).reshape(-1, 1),
            terminal=lambda x: np.ones(x.shape[0]), driver=driver,
            horizon=1.0, coefficient_bound=20.0, lipschitz_f=1e-9,
            lipschitz_terminal=1e-9)
        finest, diag = solve_young_pde_double_approximation(
            problem, deltas=[0.01], radii=[6.0],
            eval_points=[(0.0, [0.0])], samples=40000, seed=8, steps=64,
            picard=PicardConfig(tolerance=1e-8, max_iterations=80))
        direct = solve_linear_young_pde(
            lambda x: np.ones(x.shape[0]), BROWNIAN, driver,
            [(0.0, [0.0])], horizon=1.0, samples=40000, seed=808, steps=64)
        combined = math.hypot(float(direct.standard_errors[0]),
                              float(finest.standard_errors[0]))
        # the backward scheme compounds (1 + d_eta) while the weight is
        # exp(sum d_eta): an O(dt) scheme bias ~ u * amp^2 * T / (2 steps)
        scheme_bias = float(finest.values[0]) * amp**2 / (2 * 64)
        assert abs(finest.values[0] - direct.values[0]) \
            <= 3 * combined + scheme_bias

    def test_two_schedules_agree(self):
        problem = self._tent_problem()
        _, diag_halving = solve_young_pde_double_approximation(
            problem, deltas=[0.08, 0.04, 0.02], radii=[3.0],
            eval_points=[(0.0, [0.0])], samples=4000, seed=21, steps=32)
        _, diag_third = solve_young_pde_double_approximation(
            problem, deltas=[0.09, 0.03, 0.01], radii=[3.0],
            eval_points=[(0.0, [0.0])], samples=4000, seed=21, steps=32)
        a = diag_halving["values"][-1, -1, 0]
        b = diag_third["values"][-1, -1, 0]
        se = math.hypot(diag_halving["standard_errors"][-1, -1, 0],
                        diag_third["standard_errors"][-1, -1, 0])
        assert abs(a - b) <= max(3 * se, 5e-3)

    def test_stabilization_diagnostics_shrink(self):
        driver = driver_by_names("lorentz", "linear")
        problem = PdeProblem(
            diffusion=BROWNIAN,
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            g=lambda y: np.ones((np.size(y), 1)),
            terminal=lambda x: x[:, 0], driver=driver, horizon=1.0,
            lipschitz_f=1e-9)
        _, diag = solve_young_pde_double_approximation(
            problem, deltas=[0.08, 0.02], radii=[1.5, 2.5, 4.0],
            eval_points=[(0.0, [0.0])], samples=20000, seed=23, steps=32)
        radius_steps = diag["radius_stabilization"][:, -1]
        # one violation of monotone shrinking allowed for noise
        violations = sum(1 for a, b in zip(radius_steps[:-1],
                                           radius_steps[1:]) if b > a)
        assert violations <= 1

    def test_schedule_direction_validated(self):
        problem = self._tent_problem()
        with pytest.raises(DomainError):
            solve_young_pde_double_approximation(
                problem, deltas=[0.01, 0.02], radii=[2.0],
                eval_points=[(0.0, [0.0])], samples=100, seed=1, steps=8)

    @pytest.mark.parametrize("deltas", [[1.5], [0.5, 0.0], [2.0, 0.5]])
    def test_widths_rejected_before_simulation(self, monkeypatch, deltas):
        calls = []
        monkeypatch.setattr(pde_fk, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError, match="mollification width"):
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=deltas, radii=[2.0],
                eval_points=[(0.0, [0.0]), (0.0, [1.0])], samples=100,
                seed=1, steps=8)
        assert not calls

    def test_radii_checked_before_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the radii were checked")

        monkeypatch.setattr(pde_fk, "simulate", refuse)
        with pytest.raises(DomainError, match="must exceed"):
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=[0.1], radii=[0.5, 2.0],
                eval_points=[(0.0, [0.0]), (0.0, [1.0])], samples=100,
                seed=1, steps=8)

    def test_empty_points_rejected_before_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated with no evaluation point")

        monkeypatch.setattr(pde_fk, "simulate", refuse)
        with pytest.raises(DomainError, match="at least one evaluation point"):
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=[0.1], radii=[2.0],
                eval_points=[], samples=100, seed=1, steps=8)

    def test_ellipticity_checked_before_simulation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pde_fk, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(DomainError, match="ellipticity"):
            solve_young_pde_double_approximation(
                _pde(diffusion=diffusion_by_name("drift-only")),
                deltas=[0.1], radii=[2.0], eval_points=[(0.0, [0.0])],
                samples=100, seed=1, steps=8)
        assert not calls


    def test_empty_widths_rejected_before_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated with no mollification width")

        monkeypatch.setattr(pde_fk, "simulate", refuse)
        with pytest.raises(DomainError, match="at least one mollification"):
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=[], radii=[2.0],
                eval_points=[(0.0, [0.0])], samples=100, seed=1, steps=8)

    @pytest.mark.parametrize("t", [1.0, 1.5, -0.1])
    def test_times_checked_before_simulation(self, monkeypatch, t):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the times were checked")

        monkeypatch.setattr(pde_fk, "simulate", refuse)
        with pytest.raises(DomainError, match=r"evaluation point 1 \(t="):
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=[0.1], radii=[2.0],
                eval_points=[(0.0, [0.0]), (t, [0.5])], samples=100,
                seed=1, steps=8)

    def test_one_operator_per_visited_step_and_radius(self, monkeypatch):
        # the widths of one radius share its exit times, so each visited
        # step builds one basis and one ridge operator for all of them
        operators, batches = [], []
        ridge_operator, simulate_batch = bsde.ridge_operator, pde_fk.simulate
        monkeypatch.setattr(bsde, "ridge_operator",
                            lambda basis: operators.append(basis.shape[0])
                            or ridge_operator(basis))
        monkeypatch.setattr(pde_fk, "simulate",
                            lambda *args, **kwargs: batches.append(
                                simulate_batch(*args, **kwargs))
                            or batches[-1])
        radii = [1.0, 1.5, 4.0]
        counts = {}
        for deltas in ([0.1], [0.2, 0.1, 0.05]):
            operators.clear()
            batches.clear()
            solve_young_pde_double_approximation(
                self._tent_problem(), deltas=deltas, radii=radii,
                eval_points=[(0.0, [0.0]), (0.5, [0.5])], samples=200,
                seed=3, steps=8)
            # step i is visited when some sample stops after it
            exits = [first_exit(batch, r) for batch in batches for r in radii]
            assert len(operators) == sum(int(e.stop_index.max())
                                         for e in exits)
            counts[len(deltas)] = operators.copy()
        # samples exit, so the operators of a point's radii differ in rows
        assert exits[0].probability > 0
        assert counts[1] == counts[3]

    def test_table_keeps_its_bytes(self):
        # a nonlinear problem with a time kink (so every width matters) and
        # exits at the smaller radii; a move of these bytes is an output
        # change to declare
        problem = PdeProblem(
            diffusion=BROWNIAN,
            f=lambda t, x, y, z: 0.3 * np.sin(y) + 0.2 * z[:, 0],
            g=lambda y: np.tanh(np.asarray(y, dtype=float)).reshape(-1, 1),
            terminal=lambda x: x[:, 0],
            driver=driver_by_names("linear", "kink-mid"), horizon=1.0,
            lipschitz_f=0.5)
        _, diag = solve_young_pde_double_approximation(
            problem, deltas=[0.2, 0.1, 0.05], radii=[1.5, 2.5, 4.0],
            eval_points=[(0.0, [0.0]), (0.25, [0.5])], samples=400, seed=26,
            steps=16)
        digest = hashlib.sha256(diag["values"].tobytes()
                                + diag["standard_errors"].tobytes())
        assert digest.hexdigest() == ("b522d982a6d36ab9160970ef0cfd3949"
                                      "f8d43050803714d9e9341ff4d72b1790")


class TestLocalizationError:
    def _linear_problem(self):
        return _pde(g=lambda y: np.zeros((np.size(y), 1)))

    def test_saturated_radius_exact_zero(self):
        report = localization_error_experiment(
            self._linear_problem(), [7.0], [_start_batch(0.0, 2000, 16, 3)],
            8.0)
        assert bool(report.saturated[0, 0])
        assert report.gaps[0, 0] == 0.0

    def test_sublinear_reaction_decays(self):
        problem = _sublinear_problem()
        report = localization_error_experiment(
            problem, [1.5, 2.0, 2.5, 3.0], [_start_batch(0.0, 50000, 32, 2)],
            4.0)
        assert report.slopes[0] < 0

    def test_intercept_grows_with_start_magnitude(self):
        problem = _sublinear_problem()
        report = localization_error_experiment(
            problem, [2.0, 2.5, 3.0],
            [_start_batch(x, 50000, 32, 4, j) for j, x in enumerate((0, 1))],
            4.0)
        assert report.intercepts[1] > report.intercepts[0]

    def test_young_driver_is_the_sweep_of_the_given_problem(self):
        # g = tanh on eta = x t: the experiment solves this problem, not a
        # zero-driver stand-in, on the batch keyed by (seed, point index)
        problem = _pde(g=lambda y: np.tanh(np.asarray(y)).reshape(-1, 1),
                       driver=driver_by_names("linear", "linear"))
        report = localization_error_experiment(
            problem, [1.0, 1.5], [_start_batch(0.0, 2000, 16, 5)], 2.5)
        batch = simulate(BROWNIAN, [0.0], TimeGrid.uniform(1.0, 16), 2000,
                         hash64(5, 0))
        ref, table = solve_bsde_with_localization(problem, [1.0, 1.5, 2.5],
                                                  batch)
        assert np.array_equal(report.gaps[0],
                              [row["gap"] for row in table[:-1]])
        assert np.array_equal(report.gap_ses[0],
                              [row["se"] for row in table[:-1]])
        assert np.array_equal(report.reference_values, [ref.y0])
        assert np.any(report.gaps != 0.0)

    def test_growth_split_spot_check(self):
        with pytest.raises(DomainError, match="Lipschitz growth"):
            check_reaction_growth(
                lambda t, x, y, z: x[:, 0] ** 2 * np.tanh(np.asarray(y)),
                1, theta1=0.0, theta2=1.0, theta3=2.0)

    def test_duplicate_radii_rejected(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            localization_error_experiment(
                self._linear_problem(), [2.0, 2.0],
                [_start_batch(0.0, 100, 8, 1)], 3.0)

    def test_reference_must_dominate(self):
        with pytest.raises(DomainError, match="reference"):
            localization_error_experiment(
                self._linear_problem(), [2.0, 3.0],
                [_start_batch(0.0, 100, 8, 1)], 3.0)


def _start_batch(x, samples, steps, seed, point=0):
    # the batch that point `point` of a localization-error run reads
    return simulate(BROWNIAN, [x], TimeGrid.uniform(1.0, steps), samples,
                    hash64(seed, point))


def _zero_reaction(t, x, y, z):
    return np.zeros(x.shape[0])


def _bsde(**kw):
    args = dict(f=_zero_reaction, g=lambda y: np.zeros((np.size(y), 1)),
                terminal=lambda x: x[:, 0], driver=zero_driver(),
                lipschitz_f=1e-9)
    return BsdeProblem(**{**args, **kw})


def _pde(**kw):
    args = dict(diffusion=BROWNIAN, f=_zero_reaction,
                g=lambda y: np.ones((np.size(y), 1)),
                terminal=lambda x: x[:, 0], driver=zero_driver(), horizon=1.0,
                lipschitz_f=1e-9)
    return PdeProblem(**{**args, **kw})


def _sublinear_problem():
    # |x| tanh(y): its size and its y-Lipschitz weight grow like |x|
    f = lambda t, x, y, z: np.abs(x[:, 0]) * np.tanh(np.asarray(y))
    check_reaction_growth(f, 1, theta1=0.0, theta2=1.0, theta3=1.0)
    return _pde(f=f, g=lambda y: np.zeros((np.size(y), 1)),
                lipschitz_f=math.inf)


def _growth(**kw):
    args = dict(f=_zero_reaction, dim=1, theta1=0.0, theta2=0.0, theta3=0.0)
    check_reaction_growth(**{**args, **kw})


class TestDeclaredConstants:
    @pytest.mark.parametrize("build, match", [
        (lambda: _bsde(g=lambda y: (2.0 * np.asarray(y)).reshape(-1, 1)),
         "declared bound"),
        (lambda: _bsde(g=lambda y: np.sin(3.0 * np.asarray(y))),
         "declared bound"),
        (lambda: _bsde(g=lambda y: 0.5 * np.sin(2.0 * np.asarray(y))),
         "declared bound"),
        (lambda: _pde(g=lambda y: np.full((np.size(y), 1), 1.5)),
         "declared bound"),
        (lambda: _bsde(f=lambda t, x, y, z: 2.0 * y, lipschitz_f=1.0),
         "f exceeds its declared Lipschitz"),
        (lambda: _pde(f=lambda t, x, y, z: np.sum(z, axis=1)),
         "f exceeds its declared Lipschitz"),
        (lambda: _pde(terminal=lambda x: 3.0 * x[:, 0]),
         "terminal condition violates"),
        (lambda: _growth(f=lambda t, x, y, z: x[:, 0] ** 2, theta3=1.0),
         "size growth"),
        (lambda: _growth(f=lambda t, x, y, z: x[:, 0] ** 2 * np.tanh(y),
                         theta2=1.0, theta3=2.0), "y-Lipschitz growth"),
        (lambda: _growth(f=lambda t, x, y, z: (np.abs(x[:, 0])
                                               * np.tanh(z[:, 0])),
                         theta3=1.0), "z-Lipschitz growth"),
        (lambda: _growth(theta2=2.0), "growth split requires"),
    ], ids=["g-value", "g-derivative", "g-curvature", "pde-g", "f-y",
            "pde-f-z", "terminal", "growth-size", "growth-y", "growth-z",
            "growth-range"])
    def test_rejected_at_construction(self, build, match):
        with pytest.raises(DomainError, match=match):
            build()

    @pytest.mark.parametrize("build, name", [
        (lambda nan: _bsde(g=lambda y: (100.0 * np.asarray(y))
                           .reshape(-1, 1), coefficient_bound=nan),
         "coefficient_bound"),
        (lambda nan: _bsde(f=lambda t, x, y, z: 100.0 * y, lipschitz_f=nan),
         "lipschitz_f"),
        (lambda nan: _pde(terminal=lambda x: 100.0 * x[:, 0],
                          lipschitz_terminal=nan), "lipschitz_terminal"),
    ], ids=["coefficient-bound", "lipschitz-f", "lipschitz-terminal"])
    def test_nan_declared_constant_rejected(self, build, name):
        # a NaN bound passes every secant check, so it declares nothing
        with pytest.raises(DomainError, match=f"declared {name} is NaN"):
            build(float("nan"))

    def test_solves_skip_the_residual_diagnostic(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("cross-fitted control called by a solve")

        monkeypatch.setattr(bsde, "_cross_fitted_control", fail)
        problem = _bsde(g=lambda y: np.tanh(y).reshape(-1, 1),
                        driver=driver_by_names("cos", "linear"))
        _, table = solve_bsde_with_localization(
            problem, [1.0, 2.0],
            simulate(BROWNIAN, [0.0], TimeGrid.uniform(1.0, 8), 200, seed=3))
        assert len(table) == 2
        finest, _ = solve_young_pde_double_approximation(
            _pde(driver=driver_by_names("cos", "linear")),
            deltas=[0.1, 0.05], radii=[2.0, 3.0],
            eval_points=[(0.0, [0.0])], samples=200, seed=4, steps=8)
        assert np.all(np.isfinite(finest.values))
