import numpy as np
import pytest

from youngbsde.errors import DomainError, ResourceError
from youngbsde.fractional_sheet import (SheetSpec, covariance_matrix,
                                        hurst_admissible, hurst_region_grid,
                                        sample_sheet, sample_sheet_batch)
from youngbsde.paths import TimeGrid


def fbm_covariance(a, b, hurst):
    """(|a|^2H + |b|^2H - |a - b|^2H) / 2 for scalars."""
    a, b = abs(float(a)), abs(float(b))
    return 0.5 * (a ** (2 * hurst) + b ** (2 * hurst)
                  - abs(a - b) ** (2 * hurst))


def sheet_covariance(spec, point_a, point_b):
    """E[B(t,x) B(s,y)] for points (t, x) and (s, y), one factor per axis:
    the pointwise reference that covariance_matrix is checked against."""
    (t, x), (s, y) = point_a, point_b
    cov = fbm_covariance(t, s, spec.h0)
    for x_k, y_k, hurst in zip(x, y, spec.h):
        cov *= fbm_covariance(x_k, y_k, hurst)
    return cov


def spec_1d(h0=0.75, h=0.75, n_t=6, n_x=5, x_lo=0.25, x_hi=2.0):
    return SheetSpec(h0, [h], TimeGrid(np.linspace(0, 1, n_t), 1.0),
                     [np.linspace(x_lo, x_hi, n_x)])


class TestCovariance:
    def test_standard_point(self):
        spec = SheetSpec(0.5, [0.5], TimeGrid(np.array([0.0, 1.0]), 1.0),
                         [np.array([0.5, 1.0])])
        # (1/4) * (1 + 1 - 0) * (1 + 1 - 0) = 1
        assert sheet_covariance(spec, (1.0, [1.0]),
                                (1.0, [1.0])) == pytest.approx(1.0)

    def test_zero_time_vanishes(self):
        spec = spec_1d()
        assert sheet_covariance(spec, (0.0, [1.0]), (0.7, [0.9])) == 0.0

    def test_zero_space_vanishes(self):
        spec = spec_1d()
        assert sheet_covariance(spec, (0.5, [0.0]), (0.7, [0.9])) == 0.0

    def test_symmetry(self):
        spec = spec_1d(h0=0.6, h=0.8)
        a, b = (0.3, [1.2]), (0.9, [0.4])
        assert sheet_covariance(spec, a, b) == pytest.approx(
            sheet_covariance(spec, b, a))

    def test_matrix_matches_pointwise(self):
        spec = spec_1d(n_t=3, n_x=3)
        cov = covariance_matrix(spec)
        pts = [(t, [x]) for t in spec.grid.times for x in spec.space_axes[0]]
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert cov[i, j] == pytest.approx(
                    sheet_covariance(spec, a, b), abs=1e-14)

    def test_positive_semidefinite_across_hurst_range(self):
        for h in (0.55, 0.75, 0.95):
            spec = spec_1d(h0=h, h=h, n_t=8, n_x=8)
            cov = covariance_matrix(spec)
            smallest = np.min(np.linalg.eigvalsh(cov))
            assert smallest > -1e-10 * np.trace(cov) / len(cov)

    @pytest.mark.parametrize("h", [0.55, 0.95])
    def test_cholesky_jitter_within_relative_budget(self, h):
        # desk-scale grid (~1000 points): the escalation ladder settles at a
        # jitter below 1e-10 * trace/size
        spec = SheetSpec(h, [h], TimeGrid(np.linspace(0, 1, 16), 1.0),
                         [np.linspace(0.25, 2.0, 64)])
        cov = covariance_matrix(spec)
        _, jitter = sample_sheet_batch(spec, seed=1, n_samples=1)
        assert jitter <= 1e-10 * np.trace(cov) / len(cov)


class TestSampling:
    def test_degenerate_time_grid_zero_sample(self):
        spec = SheetSpec(0.75, [0.75], TimeGrid(np.array([0.0]), 1.0),
                         [np.linspace(0.5, 1.5, 4)])
        drv = sample_sheet(spec, seed=1)
        assert drv.at_pairs([0.0], [1.0])[0, 0] == 0.0

    def test_seed_determinism(self):
        spec = spec_1d()
        a = sample_sheet(spec, seed=11)
        b = sample_sheet(spec, seed=11)
        np.testing.assert_array_equal(a.payload["values"],
                                      b.payload["values"])

    def test_distinct_seeds_differ(self):
        spec = spec_1d()
        a = sample_sheet(spec, seed=11)
        b = sample_sheet(spec, seed=12)
        assert not np.array_equal(a.payload["values"], b.payload["values"])

    def test_normalized_at_zero(self):
        drv = sample_sheet(spec_1d(), seed=3)
        assert abs(drv.at_pairs([0.0], [1.3])[0, 0]) == 0.0

    def test_self_similarity_variance_ratio(self):
        # Var B(t, x) ~ t^{2 H0} along fixed x
        h0 = 0.7
        spec = SheetSpec(h0, [0.6],
                         TimeGrid(np.array([0.0, 0.4, 0.8]), 1.0),
                         [np.array([1.0, 1.5])])
        values, _ = sample_sheet_batch(spec, seed=5, n_samples=40000)
        grid_pts = values.reshape(-1, 3, 2)
        var_t = grid_pts[:, 1, 0].var()
        var_2t = grid_pts[:, 2, 0].var()
        assert var_2t / var_t == pytest.approx(2.0 ** (2 * h0), rel=0.05)

    def test_empirical_covariance_small_grid(self):
        spec = spec_1d(n_t=4, n_x=4)
        cov = covariance_matrix(spec)
        samples = 30000
        values, _ = sample_sheet_batch(spec, seed=8, n_samples=samples)
        emp = values.T @ values / samples
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2)
                     / samples)
        keep = se > 0
        assert np.max(np.abs(emp - cov)[keep] / se[keep]) <= 4.0

    def test_grid_size_limit(self):
        with pytest.raises(ResourceError):
            SheetSpec(0.75, [0.75], TimeGrid(np.linspace(0, 1, 100), 1.0),
                      [np.linspace(0.1, 2, 100)])

    def test_declared_regularity_is_estimate(self):
        drv = sample_sheet(spec_1d(h0=0.8, h=0.7), seed=2)
        assert drv.tau == pytest.approx(0.79)
        assert drv.lam == pytest.approx(0.69)
        assert drv.beta == pytest.approx(0.7 - 0.69)


class TestHurstRegion:
    def test_admissible_examples(self):
        assert hurst_admissible(0.9, 0.5, 1)
        assert not hurst_admissible(0.6, 0.9, 1)
        # boundary case: d*h == 2*h0 - 1 fails the strict inequality
        assert not hurst_admissible(0.75, 0.5, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            hurst_admissible(1.0, 0.5, 1)

    def test_grid_consistent_with_pointwise(self):
        table = hurst_region_grid(1, 7)
        for row in table:
            assert row["admissible"] == int(
                hurst_admissible(row["h0"], row["h"], 1))

    def test_region_shrinks_with_dimension(self):
        t1 = hurst_region_grid(1, 15)
        t2 = hurst_region_grid(2, 15)
        adm1 = set(map(tuple, np.column_stack(
            [t1["h"], t1["h0"]])[t1["admissible"] == 1]))
        adm2 = set(map(tuple, np.column_stack(
            [t2["h"], t2["h0"]])[t2["admissible"] == 1]))
        assert adm2 <= adm1

    def test_inadmissible_below_three_quarters(self):
        table = hurst_region_grid(1, 25)
        low = table[table["h0"] <= 0.75]
        assert np.all(low["admissible"] == 0)
