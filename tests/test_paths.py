import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbsde.errors import DomainError
from youngbsde.paths import (SamplePath, TimeGrid, p_variation,
                             p_variation_brute_force)


def path_1d(values, times=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.linspace(0.0, 1.0, values.shape[0])
    return SamplePath(TimeGrid(times, float(times[-1])), values)


class TestTimeGrid:
    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 0.5, 0.4]), 1.0)

    def test_rejects_beyond_horizon(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 2.0]), 1.0)

    def test_subinterval_grid_allowed(self):
        g = TimeGrid(np.array([0.3, 0.7]), 1.0)
        assert len(g) == 2


class TestPVariation:
    def test_tent_total_variation(self):
        assert p_variation(path_1d([0, 1, 0]), 1.0) == pytest.approx(2.0)

    def test_tent_quadratic(self):
        # brute force over all sub-partitions shows the full partition wins
        assert p_variation(path_1d([0, 1, 0]), 2.0) == pytest.approx(
            np.sqrt(2.0))

    def test_constant_path_zero(self):
        assert p_variation(path_1d([3.0, 3.0, 3.0]), 2.5) == 0.0

    def test_monotone_increments_merge_for_large_p(self):
        # for p > 1 the sup drops interior points of a monotone run
        path = path_1d([0.0, 0.5, 1.0])
        assert p_variation(path, 2.0) == pytest.approx(1.0)

    def test_requires_two_points(self):
        with pytest.raises(DomainError):
            p_variation(path_1d([1.0]), 2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            p_variation(path_1d([0.0, 1.0]), 0.5)

    @given(st.integers(3, 10), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dp_matches_brute_force(self, m, p, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        path = path_1d(rng.standard_normal(m))
        assert p_variation(path, p) == pytest.approx(
            p_variation_brute_force(path, p), abs=1e-12)

    @given(st.integers(3, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_in_p(self, m, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        path = path_1d(rng.standard_normal(m))
        values = [p_variation(path, p) for p in (1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @given(st.integers(4, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_superadditive_over_split(self, m, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        values = rng.standard_normal(m)
        times = np.linspace(0, 1, m)
        split = m // 2
        p = 2.0
        whole = p_variation(path_1d(values, times), p) ** p
        left = p_variation(path_1d(values[:split + 1], times[:split + 1]),
                           p) ** p
        right = p_variation(path_1d(values[split:], times[split:]), p) ** p
        assert left + right <= whole + 1e-10
