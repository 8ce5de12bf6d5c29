from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbsde.drivers import (estimate_seminorm, load_sampled_driver,
                               make_grid_driver, make_separable_driver,
                               mollify_time, save_sampled_driver, zero_driver)
from youngbsde.errors import DomainError
from youngbsde.fractional_sheet import SheetSpec, sample_sheet
from youngbsde.paths import TimeGrid
from youngbsde.registry import TIME_FUNCTIONS, driver_by_names


def cos_driver(amplitude=1.0):
    return make_separable_driver(
        lambda x: amplitude * np.cos(x[:, 0]), lambda t: t)


class TestSeparableDriver:
    def test_unit_space_linear_time(self):
        drv = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: t)
        assert drv.at_pairs([0.3], [5.0])[0, 0] == pytest.approx(0.3)

    def test_linear_space_quadratic_time(self):
        drv = make_separable_driver(lambda x: x[:, 0], lambda t: t**2)
        assert drv.at_pairs([1.0], [2.0])[0, 0] == pytest.approx(2.0)

    def test_cosine_space(self):
        assert cos_driver().at_pairs([0.5], [0.0])[0, 0] == \
            pytest.approx(0.5)

    def test_normalized_at_zero(self):
        drv = make_separable_driver(lambda x: x[:, 0], lambda t: t + 3.0)
        # a(0) != 0 is subtracted away
        assert drv.at_pairs([0.0], [4.0])[0, 0] == pytest.approx(0.0)
        assert drv.at_pairs([1.0], [4.0])[0, 0] == pytest.approx(4.0)

    def test_pairs_evaluation(self):
        drv = cos_driver()
        t = np.array([0.1, 0.2, 0.3])
        x = np.array([[0.0], [np.pi], [0.0]])
        out = drv.at_pairs(t, x)
        assert out.shape == (3, 1)
        assert out[1, 0] == pytest.approx(-0.2)

    def test_increments_skip_recentring(self):
        drv = cos_driver()
        inc = drv.increment_pairs(np.array([0.1]), np.array([0.4]),
                                  np.array([[0.0]]))
        assert inc[0, 0] == pytest.approx(0.3)


class TestMollify:
    def test_linear_time_reproduced_in_interior(self):
        drv = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: t)
        smooth = mollify_time(drv, delta=0.05, horizon=1.0)
        for t in (0.1, 0.4, 0.8):
            assert smooth.at_pairs([t], [0.0])[0, 0] == \
                pytest.approx(t, abs=1e-12)

    def test_zero_driver_stays_zero(self):
        smooth = mollify_time(zero_driver(), delta=0.1, horizon=1.0)
        assert smooth.at_pairs([0.6], [1.0])[0, 0] == 0.0

    def test_kink_smoothed(self):
        drv = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: np.abs(t - 0.5))
        delta = 0.1
        smooth = mollify_time(drv, delta=delta, horizon=1.0)
        # strictly above the kink tip after recentring
        assert smooth.at_pairs([0.5], [0.0])[0, 0] > \
            drv.at_pairs([0.5], [0.0])[0, 0]
        # uniform closeness O(delta) on the grid, oracle via 10x quadrature
        fine = mollify_time(drv, delta=delta, horizon=1.0,
                            quadrature_points=1291)
        ts = np.linspace(0.0, 1.0, 41)
        xs = np.zeros((41, 1))
        coarse_vals = smooth.at_pairs(ts, xs)
        fine_vals = fine.at_pairs(ts, xs)
        raw_vals = drv.at_pairs(ts, xs)
        # kinked integrand: Simpson at 129 nodes is ~1e-7 from the 10x oracle
        assert np.max(np.abs(coarse_vals - fine_vals)) < 1e-6
        assert np.max(np.abs(coarse_vals - raw_vals)) <= 2.0 * delta

    def test_smooth_flag_and_time_derivative_stabilizes(self):
        drv = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: np.abs(t - 0.5))
        smooth = mollify_time(drv, delta=0.1, horizon=1.0)
        x = [0.0]
        derivs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            derivs.append((smooth.at_pairs([0.3 + h], x)[0, 0]
                           - smooth.at_pairs([0.3], x)[0, 0]) / h)
        # Richardson ratio: successive finite differences converge
        assert abs(derivs[2] - derivs[1]) <= abs(derivs[1] - derivs[0]) + 1e-9

    def test_contracts_uniform_norm(self):
        drv = make_separable_driver(lambda x: np.cos(x[:, 0]),
                                    lambda t: np.sin(3 * t))
        smooth = mollify_time(drv, delta=0.08, horizon=1.0)
        ts = np.linspace(0, 1, 65)
        xs = np.linspace(-2, 2, 9)
        tt = np.repeat(ts, 9)
        xx = np.tile(xs, 65).reshape(-1, 1)
        # the convolution averages reflected values whose magnitudes all
        # appear on the time axis, so the sup cannot grow; the fine grid
        # stands in for the extended-axis sup
        base = np.max(np.abs(drv.at_pairs(tt, xx)))
        assert np.max(np.abs(smooth.at_pairs(tt, xx))) <= base + 1e-10

    def test_rejects_wide_kernel(self):
        with pytest.raises(DomainError):
            mollify_time(zero_driver(), delta=1.5, horizon=1.0)

    def test_separable_stays_separable(self):
        smooth = mollify_time(cos_driver(), delta=0.1, horizon=1.0)
        assert smooth._factors is not None
        grid = make_grid_driver(np.linspace(0, 1, 3), [np.array([0.0, 1.0])],
                                np.arange(6.0).reshape(3, 2), tau=0.5,
                                lam=0.5, beta=0.0)
        assert mollify_time(grid, delta=0.1, horizon=1.0)._factors is None


def wavy_driver(phase: float):
    return make_separable_driver(
        lambda x: np.cos(x[:, 0]) + 0.5 * x[:, 0],
        lambda t: np.sin(3.0 * t + phase) + t)


def grid_driver():
    times = np.linspace(0.0, 1.0, 9)
    axis = np.linspace(-3.0, 3.0, 7)
    values = np.sin(times[:, None] * 4.0 + axis[None, :])
    return make_grid_driver(times, [axis], values, tau=1.0, lam=1.0,
                            beta=0.0)


unit_times = st.floats(0.0, 1.0)
points = st.floats(-3.0, 3.0)
phases = st.floats(0.0, 2.0 * np.pi)
widths = st.floats(0.005, 0.45)
query = st.lists(st.tuples(unit_times, points), min_size=1, max_size=6)


def _arrays(pairs):
    ts = np.array([t for t, _ in pairs])
    xs = np.array([[x] for _, x in pairs])
    return ts, xs


class TestSeparableProperties:
    @settings(max_examples=25, deadline=None)
    @given(phase=phases, delta=widths, pairs=query)
    def test_mollified_factors_match_generic_quadrature(self, phase, delta,
                                                         pairs):
        drv = wavy_driver(phase)
        fast = mollify_time(drv, delta, 1.0)
        generic = mollify_time(replace(drv, _factors=None), delta, 1.0)
        assert generic._factors is None
        ts, xs = _arrays(pairs)
        np.testing.assert_allclose(fast.at_pairs(ts, xs),
                                   generic.at_pairs(ts, xs), rtol=0,
                                   atol=1e-13)
        t1 = np.minimum(ts + 0.25, 1.0)
        np.testing.assert_allclose(fast.increment_pairs(ts, t1, xs),
                                   generic.increment_pairs(ts, t1, xs),
                                   rtol=0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(slope=st.floats(-5.0, 5.0), offset=st.floats(-5.0, 5.0),
           delta=widths, fracs=st.lists(unit_times, min_size=1, max_size=6),
           x=points, separable=st.booleans())
    def test_linear_in_time_reproduced_inside(self, slope, offset, delta,
                                              fracs, x, separable):
        drv = make_separable_driver(lambda y: 1.0 + y[:, 0] ** 2,
                                    lambda t: slope * t + offset)
        if not separable:
            drv = replace(drv, _factors=None)
        smooth = mollify_time(drv, delta, 1.0)
        ts = delta + np.array(fracs) * (1.0 - 2.0 * delta)
        xs = np.full((ts.size, 1), x)
        np.testing.assert_allclose(smooth.at_pairs(ts, xs),
                                   drv.at_pairs(ts, xs), rtol=1e-12,
                                   atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(phase=phases, delta=widths, kind=st.sampled_from(
               ["separable", "mollified", "grid", "mollified-grid"]),
           times=st.lists(unit_times, min_size=3, max_size=3),
           x=points)
    def test_increments_are_additive(self, phase, delta, kind, times, x):
        drv = grid_driver() if kind.endswith("grid") else wavy_driver(phase)
        if kind.startswith("mollified"):
            drv = mollify_time(drv, delta, 1.0)
        t0, t1, t2 = (np.array([t]) for t in sorted(times))
        xs = np.array([[x]])
        whole = drv.increment_pairs(t0, t2, xs)
        parts = (drv.increment_pairs(t0, t1, xs)
                 + drv.increment_pairs(t1, t2, xs))
        np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(phase=phases, pairs=query, lag=unit_times)
    def test_fast_increments_equal_raw_field_difference(self, phase, pairs,
                                                        lag):
        drv = wavy_driver(phase)
        t0, xs = _arrays(pairs)
        t1 = t0 + lag
        assert np.array_equal(drv.increment_pairs(t0, t1, xs),
                              drv.fn(t1, xs) - drv.fn(t0, xs))


# one driver of each increment path that a scalar time can take
_SCALAR_TIME_DRIVERS = {
    "separable": wavy_driver(0.7),
    "separable-3": make_separable_driver(
        lambda x: np.column_stack([np.cos(x[:, 0]), np.sin(x[:, 1]),
                                   x[:, 0] * x[:, 1]]),
        lambda t: np.sin(3.0 * t) + t, dim=2, channels=3),
    "mollified": mollify_time(wavy_driver(0.7), 0.05, 1.0),
    "grid": sample_sheet(SheetSpec(0.9, [0.75],
                                   TimeGrid(np.linspace(0, 1, 6), 1.0),
                                   [np.linspace(-4.0, 4.0, 9)]), seed=14),
    "mollified-grid": mollify_time(grid_driver(), 0.1, 1.0),
}


class TestScalarTimes:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_SCALAR_TIME_DRIVERS)), t0=unit_times,
           lag=st.floats(0.0, 0.5), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_times_give_the_paired_bytes(self, kind, t0, lag, rows,
                                                seed):
        # a step's two times as scalars against np.full(K, t) of each
        drv = _SCALAR_TIME_DRIVERS[kind]
        x = np.random.Generator(np.random.Philox(key=seed)).uniform(
            -5.0, 5.0, (rows, drv.dim))
        t1 = min(t0 + lag, 1.0)
        got = drv.increment_pairs(t0, t1, x)
        want = drv.increment_pairs(np.full(rows, t0), np.full(rows, t1), x)
        assert got.shape == want.shape == (rows, drv.channels)
        assert got.tobytes() == want.tobytes()


def _two_call_increments(drv, t0, t1, x):
    """A separable driver's increments with its time factor called once per
    endpoint."""
    v, a, a0 = drv._factors
    t0 = np.asarray(t0, dtype=float).ravel()
    t1 = np.asarray(t1, dtype=float).ravel()
    vx = np.asarray(v(x), dtype=float).reshape(x.shape[0], -1)
    hi = vx * (np.asarray(a(t1), dtype=float) - a0)[:, None]
    lo = vx * (np.asarray(a(t0), dtype=float) - a0)[:, None]
    return hi - lo


# every registry time factor, and a mollified one
_TIME_FACTOR_DRIVERS = {name: driver_by_names("cos", name)
                        for name in TIME_FUNCTIONS}
_TIME_FACTOR_DRIVERS["mollified kink-mid"] = mollify_time(
    driver_by_names("cos", "kink-mid"), 0.1, 1.0)


class TestOneTimeFactorCall:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(_TIME_FACTOR_DRIVERS)),
           paired=st.booleans(), rows=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_one_call_per_endpoint(self, kind, paired, rows,
                                                 seed):
        drv = _TIME_FACTOR_DRIVERS[kind]
        gen = np.random.Generator(np.random.Philox(key=seed))
        x = gen.uniform(-5.0, 5.0, (rows, 1))
        size = rows if paired else None
        t0 = gen.uniform(0.0, 1.0, size)
        t1 = np.minimum(t0 + gen.uniform(0.0, 0.5, size), 1.0)
        got = drv.increment_pairs(t0, t1, x)
        want = _two_call_increments(drv, t0, t1, x)
        assert got.shape == want.shape == (rows, 1)
        assert got.tobytes() == want.tobytes()


class TestNormalization:
    @settings(max_examples=25, deadline=None)
    @given(start=st.one_of(st.just(0.0),
                           st.floats(0.0, 0.5, exclude_min=True)),
           values=st.lists(st.floats(-5.0, 5.0), min_size=9, max_size=9),
           offset=st.floats(0.5, 5.0), delta=st.floats(0.005, 0.45),
           seed=st.integers(0, 2**32), xs=st.lists(points, min_size=1,
                                                   max_size=6))
    def test_every_driver_vanishes_at_time_zero(self, start, values, offset,
                                                delta, seed, xs):
        # grid axes may start after t = 0; a(0) = offset is nonzero
        times = np.linspace(start, 1.0, 3)
        axis = np.array([-1.0, 0.0, 1.0])
        grid = make_grid_driver(times, [axis], np.reshape(values, (3, 3)),
                                tau=1.0, lam=1.0, beta=0.0)
        sheet = sample_sheet(
            SheetSpec(0.75, [0.75], TimeGrid(times, 1.0), [axis]), seed)
        separable = make_separable_driver(lambda y: np.cos(y[:, 0]),
                                          lambda t: t + offset)
        t, x = np.zeros(len(xs)), np.array(xs)[:, None]
        for drv in (grid, sheet, separable,
                    mollify_time(separable, delta, 1.0),
                    mollify_time(grid, delta, 1.0)):
            assert np.all(drv.at_pairs(t, x) == 0.0)


class TestSeminorm:
    def test_linear_time_driver(self):
        drv = make_separable_driver(lambda x: np.ones(x.shape[0]),
                                    lambda t: t)
        est = estimate_seminorm(drv, np.linspace(0, 1, 5),
                                np.linspace(-1, 1, 5), beta=0.0, tau=1.0,
                                lam=1.0)
        # rectangular and space quotients vanish; time quotient is 1
        assert est.unweighted == pytest.approx(1.0)
        assert est.components_unweighted[0] == pytest.approx(0.0)

    def test_zero_driver(self):
        est = estimate_seminorm(zero_driver(), np.linspace(0, 1, 4),
                                np.linspace(-1, 1, 4), beta=0.5, tau=0.5,
                                lam=0.5)
        assert est.weighted == 0.0

    def test_separable_linear_space_brute_force(self):
        drv = make_separable_driver(lambda x: x[:, 0], lambda t: t)
        times = np.linspace(0.0, 1.0, 3)
        xs = np.array([-1.0, 0.0, 1.0])
        est = estimate_seminorm(drv, times, xs, beta=0.0, tau=1.0, lam=1.0)
        # brute force over all grid pairs
        rect, timeq, spaceq = 0.0, 0.0, 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                for a in range(3):
                    timeq = max(timeq, abs(xs[a]) * (times[j] - times[i])
                                / ((times[j] - times[i]) * (1 + abs(xs[a]))))
                    for b in range(3):
                        if a == b:
                            continue
                        num = abs((times[j] - times[i]) * (xs[a] - xs[b]))
                        den = ((times[j] - times[i]) * abs(xs[a] - xs[b])
                               * (1 + 1 + 1))
                        rect = max(rect, num / den)
        for a in range(3):
            for b in range(a + 1, 3):
                for i in range(3):
                    num = times[i] * abs(xs[a] - xs[b])
                    den = abs(xs[a] - xs[b]) * 3.0
                    spaceq = max(spaceq, num / den)
        assert est.components_weighted[0] == pytest.approx(rect)
        assert est.weighted == pytest.approx(rect + timeq + spaceq)

    def test_weighted_below_unweighted(self):
        drv = cos_driver()
        est = estimate_seminorm(drv, np.linspace(0, 1, 6),
                                np.linspace(-2, 2, 6), beta=1.0, tau=0.8,
                                lam=0.9)
        assert est.weighted <= est.unweighted + 1e-12

    def test_monotone_under_refinement(self):
        drv = cos_driver()
        coarse = estimate_seminorm(drv, np.linspace(0, 1, 4),
                                   np.linspace(-2, 2, 4), beta=0.0, tau=0.7,
                                   lam=0.9)
        fine = estimate_seminorm(drv, np.linspace(0, 1, 7),
                                 np.linspace(-2, 2, 7), beta=0.0, tau=0.7,
                                 lam=0.9)
        assert fine.unweighted >= coarse.unweighted - 1e-12

    def test_degenerate_grid_rejected(self):
        with pytest.raises(DomainError):
            estimate_seminorm(cos_driver(), [0.5], np.linspace(-1, 1, 4),
                              beta=0.0, tau=0.5, lam=0.5)


class TestCsvRoundTrip:
    def test_grid_driver_round_trip(self, tmp_path):
        times = np.linspace(0.0, 1.0, 4)
        axes = [np.array([-1.0, 0.0, 1.0]), np.array([0.0, 2.0])]
        rng = np.random.Generator(np.random.Philox(key=5))
        values = rng.standard_normal((4, 3, 2))
        drv = make_grid_driver(times, axes, values, tau=0.6, lam=0.6,
                               beta=0.5)
        target = tmp_path / "driver.csv"
        save_sampled_driver(drv, target)
        loaded = load_sampled_driver(target, tau=0.6, lam=0.6, beta=0.5)
        probes_t = np.array([0.0, 0.37, 0.8, 1.0])
        probes_x = np.array([[-0.4, 1.1], [0.2, 0.3], [1.0, 2.0],
                             [-1.0, 0.0]])
        np.testing.assert_allclose(loaded.at_pairs(probes_t, probes_x),
                                   drv.at_pairs(probes_t, probes_x),
                                   atol=1e-12)

    def test_non_grid_driver_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            save_sampled_driver(cos_driver(), tmp_path / "x.csv")

    def test_clamping_outside_hull(self):
        times = np.linspace(0.0, 1.0, 3)
        axes = [np.array([0.0, 1.0])]
        values = np.arange(6, dtype=float).reshape(3, 2)
        drv = make_grid_driver(times, axes, values, tau=0.5, lam=0.5,
                               beta=0.0)
        assert drv.at_pairs([0.5], [5.0])[0, 0] == \
            drv.at_pairs([0.5], [1.0])[0, 0]

    def test_header_only_file_rejected(self, tmp_path):
        target = tmp_path / "header.csv"
        target.write_text("t,0|0,1|0\n")
        with pytest.raises(DomainError, match="no time rows"):
            load_sampled_driver(target)

    def test_ragged_rows_rejected(self, tmp_path):
        target = tmp_path / "ragged.csv"
        target.write_text("t,0,1\n0,0,0\n0.5,1\n")
        with pytest.raises(DomainError, match="row 2 has 2 cells"):
            load_sampled_driver(target)

    def test_non_numeric_cell_rejected(self, tmp_path):
        target = tmp_path / "text.csv"
        target.write_text("t,0\n0,abc\n")
        with pytest.raises(DomainError, match="row 1 column 1: 'abc'"):
            load_sampled_driver(target)
