import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbsde import diffusion
from youngbsde.diffusion import (DiffusionSpec, exit_tail_decay, first_exit,
                                 simulate)
from youngbsde.drivers import SpaceTimeDriver, mollify_time
from youngbsde.errors import DomainError
from youngbsde.fractional_sheet import SheetSpec, sample_sheet
from youngbsde.paths import TimeGrid
from youngbsde.registry import diffusion_by_name, driver_by_names
from youngbsde.rng import stream
from youngbsde.young_calculus import step_increments


def constant_spec(sigma=1.0, drift=0.0, dim=1, bound=None):
    s, b = float(sigma), float(drift)
    return DiffusionSpec(
        sigma=lambda t, x: np.broadcast_to(s * np.eye(dim),
                                           (x.shape[0], dim, dim)),
        drift=lambda t, x: np.full_like(x, b),
        bound=bound if bound is not None else max(abs(s), abs(b), 1e-9)
        * np.sqrt(dim),
        dim=dim)


GRID = TimeGrid.uniform(1.0, 32)

# Master seeds on both sides of the int64 range and past 2**64: stream keys
# reduce every word mod 2**64.
SEEDS = st.one_of(st.integers(-2**63, -1), st.integers(0, 2**32),
                  st.integers(2**63, 2**64 + 2**20))
DIMS = st.integers(1, 3)


@st.composite
def grids(draw):
    """Uniform grids, or non-uniform ones with gaps up to 100:1, on [0, 1]."""
    steps = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return TimeGrid.uniform(1.0, steps)
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=steps,
                         max_size=steps))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return TimeGrid(times / times[-1], 1.0)


def brownian(dim):
    return constant_spec(1.0, 0.0, dim=dim)


class TestSimulate:
    def test_degenerate_constant_paths(self):
        batch = simulate(constant_spec(0.0, 0.0), [0.7], GRID, 10, seed=1)
        assert np.all(batch.paths == 0.7)

    def test_pure_drift_is_exact(self):
        batch = simulate(constant_spec(0.0, 1.0), [0.2], GRID, 5, seed=1)
        np.testing.assert_allclose(batch.paths[:, -1, 0], 1.2, atol=1e-12)

    def test_brownian_moments(self):
        batch = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 100000,
                         seed=2)
        terminal = batch.paths[:, -1, 0]
        se_mean = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean()) <= 3 * se_mean
        var = terminal.var(ddof=1)
        se_var = np.sqrt(2.0 / (terminal.size - 1))  # Gaussian chi^2 spread
        assert abs(var - 1.0) <= 3 * se_var

    def test_determinism(self):
        a = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 64, seed=9)
        b = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 64, seed=9)
        np.testing.assert_array_equal(a.paths, b.paths)
        np.testing.assert_array_equal(a.increments, b.increments)

    @given(SEEDS, st.one_of(st.integers(0, 2**40), st.integers(1018, 1030)),
           DIMS, grids(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_increments_follow_reference_streams(self, seed, offset, dim,
                                                 grid, samples):
        # global sample j is row j % 1024 of stream(seed, j // 1024)'s
        # (1024, steps, dim) standard normals
        batch = simulate(brownian(dim), np.zeros(dim), grid, samples, seed,
                         sample_offset=offset)
        steps = grid.times.size - 1
        sqrt_dt = np.sqrt(np.diff(grid.times))[:, None]
        for i in range(samples):
            block, row = divmod(offset + i, 1024)
            ref = stream(seed, block).standard_normal((1024, steps, dim))[row]
            assert np.array_equal(batch.increments[i], ref * sqrt_dt)

    @given(SEEDS, DIMS, grids(), st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_seed_splitting_prefix_stable(self, seed, dim, grid, small_n,
                                          extra):
        small = simulate(brownian(dim), np.zeros(dim), grid, small_n, seed)
        large = simulate(brownian(dim), np.zeros(dim), grid, small_n + extra,
                         seed)
        np.testing.assert_array_equal(small.paths, large.paths[:small_n])
        np.testing.assert_array_equal(small.increments,
                                      large.increments[:small_n])

    @given(SEEDS, DIMS, grids(), st.integers(0, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_sample_offset_matches_big_batch(self, seed, dim, grid, split,
                                             tail_n):
        whole = simulate(brownian(dim), np.zeros(dim), grid, split + tail_n,
                         seed)
        tail = simulate(brownian(dim), np.zeros(dim), grid, tail_n, seed,
                        sample_offset=split)
        np.testing.assert_array_equal(whole.paths[split:], tail.paths)
        np.testing.assert_array_equal(whole.increments[split:],
                                      tail.increments)

    @pytest.mark.parametrize("split", [1, 1023, 1024, 1025, 2047])
    def test_splits_across_block_boundaries(self, split):
        grid = TimeGrid.uniform(1.0, 3)
        spec = brownian(2)
        whole = simulate(spec, np.zeros(2), grid, 2600, seed=11)
        head = simulate(spec, np.zeros(2), grid, split, seed=11)
        tail = simulate(spec, np.zeros(2), grid, 2600 - split, seed=11,
                        sample_offset=split)
        np.testing.assert_array_equal(head.increments,
                                      whole.increments[:split])
        np.testing.assert_array_equal(tail.increments,
                                      whole.increments[split:])
        np.testing.assert_array_equal(tail.paths, whole.paths[split:])

    @given(SEEDS, st.integers(1, 40), st.integers(1, 6),
           st.sampled_from([1, 2]), st.integers(1, 2), st.data())
    @settings(max_examples=40, deadline=None)
    def test_step_major_layout_matches_sample_major_euler(
            self, seed, samples, steps, dim, block, data):
        # each step is one contiguous row, and the values are those of an
        # Euler recursion in sample order over the reference stream rows
        offset = block * 1024 - data.draw(st.integers(0, samples))
        grid = TimeGrid.uniform(1.0, steps)
        spec = DiffusionSpec(
            sigma=lambda t, x: (1.0 + 0.3 * np.sin(x))[:, :, None]
            * np.eye(x.shape[1]),
            drift=lambda t, x: 0.5 * np.cos(x) - t, bound=4.0, dim=dim)
        x0 = np.linspace(0.2, -0.3, dim)
        batch = simulate(spec, x0, grid, samples, seed, sample_offset=offset)
        for i in range(steps + 1):
            assert batch.paths[:, i].flags.c_contiguous
        for i in range(steps):
            assert batch.increments[:, i].flags.c_contiguous

        times, dts = grid.times, np.diff(grid.times)
        normals = {b: stream(seed, b).standard_normal((1024, steps, dim))
                   for b in {(offset + j) // 1024 for j in range(samples)}}
        dw = np.stack([normals[(offset + j) // 1024][(offset + j) % 1024]
                       for j in range(samples)]) * np.sqrt(dts)[:, None]
        ref = np.empty((samples, steps + 1, dim))
        ref[:, 0] = x0
        for i in range(steps):
            x = ref[:, i]
            sig = spec.sigma_at(times[i], x)
            ref[:, i + 1] = (x + spec.drift_at(times[i], x) * dts[i]
                             + np.einsum("sij,sj->si", sig, dw[:, i]))
        assert np.array_equal(batch.increments, dw)
        assert np.array_equal(batch.paths, ref)

    def test_bound_violation_raises(self):
        spec = constant_spec(2.0, 0.0, bound=1.0)
        with pytest.raises(DomainError, match="bound"):
            simulate(spec, [0.0], GRID, 4, seed=0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ellipticity_violation_raises(self, dim):
        # sigma = I near the start, 0.5 I once the drift has carried a path
        # past |x| = 0.5: the start is elliptic, later visited states are not.
        def sigma(t, x):
            scale = np.where(np.linalg.norm(x, axis=1) < 0.5, 1.0, 0.5)
            return scale[:, None, None] * np.eye(dim)

        spec = DiffusionSpec(sigma=sigma, drift=lambda t, x: np.ones_like(x),
                             bound=np.sqrt(dim), dim=dim, ellipticity=1.0)
        with pytest.raises(DomainError, match=r"ellipticity violated at "
                           r"t=0\.\d+: smallest sigma\*sigma\^T eigenvalue "
                           r"0.25 < declared 1"):
            simulate(spec, np.zeros(dim), GRID, 4, seed=0)


CONSTANT_DIFFUSIONS = ("brownian", "brownian-halfvol", "drift-only")


def callable_twin(spec):
    """The constant coefficients of spec as vectorized callables."""
    sigma, drift = spec.sigma, spec.drift
    return DiffusionSpec(
        sigma=lambda t, x: np.broadcast_to(sigma, (x.shape[0],) + sigma.shape),
        drift=lambda t, x: np.broadcast_to(drift, x.shape), bound=spec.bound,
        dim=spec.dim, ellipticity=spec.ellipticity)


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated while building a spec")

    monkeypatch.setattr(diffusion, "simulate", refuse)


class TestConstantCoefficients:
    @given(SEEDS, st.sampled_from(CONSTANT_DIFFUSIONS), DIMS, grids(),
           st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_callable_twin(self, seed, name, dim, grid,
                                         samples, data):
        # the batch straddles the boundary between stream blocks 0 and 1
        offset = 1024 - data.draw(st.integers(1, samples - 1))
        spec = diffusion_by_name(name, dim)
        assert spec.constant
        x0 = np.linspace(0.3, -1.1, dim)
        const = simulate(spec, x0, grid, samples, seed, sample_offset=offset)
        twin = simulate(callable_twin(spec), x0, grid, samples, seed,
                        sample_offset=offset)
        assert const.paths.tobytes() == twin.paths.tobytes()
        assert const.increments.tobytes() == twin.increments.tobytes()

    def test_checked_once_not_per_step(self, monkeypatch):
        constant = diffusion_by_name("brownian", 2)
        stepwise = diffusion_by_name("ou-truncated", 2)
        assert not stepwise.constant
        calls = []
        monkeypatch.setattr(DiffusionSpec, "check_bounds",
                            lambda spec, t, sig, dri: calls.append(t))
        simulate(constant, np.ones(2), GRID, 8, seed=1)
        assert calls == []
        simulate(stepwise, np.ones(2), GRID, 8, seed=1)
        assert calls == list(GRID.times[:-1])

    def test_read_only_copies(self):
        sigma, drift = np.eye(2), np.zeros(2)
        spec = DiffusionSpec(sigma=sigma, drift=drift, bound=2.0, dim=2)
        sigma[0, 0] = drift[0] = 5.0
        assert np.array_equal(spec.sigma, np.eye(2))
        assert np.array_equal(spec.drift, np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            spec.sigma[0, 0] = 5.0
        x = np.zeros((3, 2))
        assert spec.sigma_at(0.0, x).shape == (3, 2, 2)
        assert spec.drift_at(0.0, x).shape == (3, 2)

    @pytest.mark.parametrize("sigma, drift", [
        (2.0 * np.eye(2), np.zeros(2)), (np.eye(2), np.full(2, 1.5))])
    def test_bound_violation_raises_at_construction(self, no_simulation,
                                                    sigma, drift):
        with pytest.raises(DomainError, match="bound violated"):
            DiffusionSpec(sigma=sigma, drift=drift, bound=2.0, dim=2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ellipticity_violation_raises_at_construction(self, no_simulation,
                                                          dim):
        with pytest.raises(DomainError, match=r"smallest sigma\*sigma\^T "
                           r"eigenvalue 0.25 < declared 1"):
            DiffusionSpec(sigma=0.5 * np.eye(dim), drift=np.zeros(dim),
                          bound=1.0, dim=dim, ellipticity=1.0)

    @pytest.mark.parametrize("sigma, drift", [
        (np.ones(2), np.zeros(2)), (np.eye(3), np.zeros(2)),
        (np.eye(2), np.zeros((2, 1))), (np.eye(2), 0.0)])
    def test_wrong_shape_raises_at_construction(self, no_simulation, sigma,
                                                drift):
        with pytest.raises(DomainError, match="must have shape"):
            DiffusionSpec(sigma=sigma, drift=drift, bound=10.0, dim=2)


class TestFirstExit:
    def test_no_exit_inside_ball(self):
        # a path that stays inside stops at the last grid index
        batch = simulate(constant_spec(0.0, 0.0), [0.5], GRID, 8, seed=1)
        report = first_exit(batch, 1.0)
        assert np.all(report.stop_index == GRID.times.size - 1)
        assert report.probability == 0.0

    def test_linear_crossing(self):
        batch = simulate(constant_spec(0.0, 2.0), [0.0], GRID, 3, seed=1)
        report = first_exit(batch, 1.0)
        # first grid index with 2t > 1
        assert np.all(report.stop_index == np.argmax(GRID.times * 2.0 > 1.0))
        assert report.probability == 1.0

    def test_exit_at_the_horizon_is_not_before_it(self):
        # X_t = t leaves the ball of radius 0.99 only at the last grid point
        batch = simulate(constant_spec(0.0, 1.0), [0.0], GRID, 4, seed=1)
        report = first_exit(batch, 0.99)
        assert np.all(report.stop_index == GRID.times.size - 1)
        assert report.probability == 0.0

    def test_monotone_in_radius(self):
        batch = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 512, seed=3)
        r1 = first_exit(batch, 0.5)
        r2 = first_exit(batch, 1.0)
        assert np.all(r1.stop_index <= r2.stop_index)
        assert 0 < r2.probability < r1.probability


class TestExitTailDecay:
    def test_brownian_gaussian_tail(self):
        fit = exit_tail_decay(
            simulate(diffusion_by_name("brownian"), [0.0],
                     TimeGrid.uniform(1.0, 128), 20000, seed=5),
            [1.0, 1.5, 2.0, 2.5])
        assert fit.slope < 0
        assert fit.r_squared >= 0.9
        # Gaussian oracle for the reflection bound: P ~ 4 Phi-bar(r)
        from scipy.stats import norm

        oracle = 4 * norm.sf(fit.radii)
        assert np.all(fit.probabilities <= 1.6 * oracle)
        assert np.all(fit.probabilities >= 0.25 * oracle)

    def test_radii_below_start_rejected(self):
        with pytest.raises(DomainError, match="must exceed"):
            exit_tail_decay(simulate(constant_spec(1.0, 0.0), [2.0], GRID,
                                     100, seed=1), [1.0, 2.5, 3.0])

    def test_duplicate_radii_rejected(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            exit_tail_decay(simulate(constant_spec(1.0, 0.0), [0.0], GRID,
                                     100, seed=1), [1.0, 1.5, 1.5, 2.0])

    def test_degenerate_no_exit_reported(self):
        with pytest.raises(DomainError, match="degenerate|nonzero"):
            exit_tail_decay(simulate(constant_spec(0.0, 0.0), [0.0], GRID,
                                     50, seed=1), [1.0, 1.5, 2.0])


def sample_major(batch):
    """The same batch stored sample-major, as any caller could build it."""
    return dataclasses.replace(
        batch, paths=np.ascontiguousarray(batch.paths),
        increments=np.ascontiguousarray(batch.increments))


class TestReadOnlyBatch:
    def test_in_place_writes_raise(self):
        batch = simulate(brownian(2), np.zeros(2), GRID, 8, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            batch.paths[:, 3] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            batch.increments[0, 0, 0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            batch.driver_increments(driver_by_names("cos", "linear",
                                                    dim=2))[0] = 0.0

    def test_replaced_copy_keeps_nothing(self):
        batch = simulate(brownian(1), [0.0], GRID, 8, seed=1)
        driver = driver_by_names("cos", "linear")
        kept = batch.driver_increments(driver)
        copy = sample_major(batch)
        assert copy.driver_increments(driver) is not kept
        assert batch.driver_increments(driver) is kept


# one driver of each increment path: a separable field, its mollification
# (separable quadrature) and a sampled sheet (grid interpolation)
_SEPARABLE = driver_by_names("cos", "linear")
_DRIVERS = {
    "separable": _SEPARABLE,
    "mollified": mollify_time(_SEPARABLE, 0.05, 1.0),
    "grid": sample_sheet(SheetSpec(0.9, [0.75],
                                   TimeGrid(np.linspace(0, 1, 6), 1.0),
                                   [np.linspace(-4.0, 4.0, 9)]), seed=14),
}


class TestDriverIncrements:
    @given(SEEDS, st.integers(1, 30), st.integers(0, 7),
           st.sampled_from(sorted(_DRIVERS)), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_stack_of_step_increments(self, seed, samples, steps, kind,
                                      step_major):
        driver = _DRIVERS[kind]
        grid = (TimeGrid.uniform(1.0, steps) if steps
                else TimeGrid(np.array([0.0]), 1.0))
        batch = simulate(brownian(1), [0.1], grid, samples, seed)
        if not step_major:
            batch = sample_major(batch)
        deta = batch.driver_increments(driver)
        assert deta.shape == (steps, samples, 1)
        if steps:
            want = np.stack(list(step_increments(driver, grid.times,
                                                 batch.paths)))
            assert deta.tobytes() == want.tobytes()

    def test_kept_for_every_driver(self, monkeypatch):
        calls = []
        original = SpaceTimeDriver.increment_pairs

        def counting(driver, *args):
            calls.append(driver)
            return original(driver, *args)

        monkeypatch.setattr(SpaceTimeDriver, "increment_pairs", counting)
        batch = simulate(brownian(1), [0.0], GRID, 16, seed=2)
        first, second = _DRIVERS["separable"], _DRIVERS["mollified"]
        kept = batch.driver_increments(first)
        assert batch.driver_increments(first) is kept
        assert len(calls) == GRID.times.size - 1
        # a second driver object is kept beside the first; an equal copy is
        # still a new driver
        batch.driver_increments(second)
        again = batch.driver_increments(first)
        assert again is kept
        batch.driver_increments(dataclasses.replace(first))
        assert len(calls) == 3 * (GRID.times.size - 1)
