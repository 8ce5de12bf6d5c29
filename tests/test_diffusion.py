import numpy as np
import pytest

from youngbsde.diffusion import (NO_EXIT, DiffusionSpec, exit_tail_decay,
                                 first_exit, sample_pvar, simulate)
from youngbsde.errors import DomainError
from youngbsde.paths import TimeGrid
from youngbsde.registry import diffusion_by_name


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

    def test_seed_splitting_prefix_stable(self):
        small = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 16, seed=9)
        large = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 48, seed=9)
        np.testing.assert_array_equal(small.paths, large.paths[:16])

    def test_sample_offset_matches_big_batch(self):
        whole = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 32, seed=9)
        tail = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 12, seed=9,
                        sample_offset=20)
        np.testing.assert_array_equal(whole.paths[20:], tail.paths)

    def test_bound_violation_raises(self):
        spec = constant_spec(2.0, 0.0, bound=1.0)
        with pytest.raises(DomainError, match="bound"):
            simulate(spec, [0.0], GRID, 4, seed=0)


class TestFirstExit:
    def test_no_exit_inside_ball(self):
        batch = simulate(constant_spec(0.0, 0.0), [0.5], GRID, 8, seed=1)
        report = first_exit(batch, 1.0)
        assert np.all(report.exit_index == NO_EXIT)
        assert np.all(report.exit_time == 1.0)
        assert report.probability == 0.0

    def test_linear_crossing(self):
        batch = simulate(constant_spec(0.0, 2.0), [0.0], GRID, 3, seed=1)
        report = first_exit(batch, 1.0)
        # first grid time with 2t > 1
        crossing = GRID.times[np.argmax(GRID.times * 2.0 > 1.0)]
        assert np.all(report.exit_time == pytest.approx(crossing))

    def test_monotone_in_radius(self):
        batch = simulate(constant_spec(1.0, 0.0), [0.0], GRID, 512, seed=3)
        r1 = first_exit(batch, 0.5)
        r2 = first_exit(batch, 1.0)
        both = (r1.exit_index != NO_EXIT) & (r2.exit_index != NO_EXIT)
        assert np.all(r1.exit_index[both] <= r2.exit_index[both])
        assert np.all((r2.exit_index != NO_EXIT)
                      <= (r1.exit_index != NO_EXIT))


class TestExitTailDecay:
    def test_brownian_gaussian_tail(self):
        fit = exit_tail_decay(diffusion_by_name("brownian"), [0.0],
                              [1.0, 1.5, 2.0, 2.5],
                              TimeGrid.uniform(1.0, 128), 20000, seed=5)
        assert fit.slope < 0
        assert fit.r_squared >= 0.9
        # Gaussian oracle for the reflection bound: P ~ 4 Phi-bar(r)
        from scipy.stats import norm

        oracle = 4 * norm.sf(fit.radii)
        assert np.all(fit.probabilities <= 1.6 * oracle)
        assert np.all(fit.probabilities >= 0.25 * oracle)

    def test_radii_below_start_rejected(self):
        with pytest.raises(DomainError, match=">="):
            exit_tail_decay(constant_spec(1.0, 0.0), [2.0], [1.0, 2.5, 3.0],
                            GRID, 100, seed=1)

    def test_degenerate_no_exit_reported(self):
        with pytest.raises(DomainError, match="degenerate|nonzero"):
            exit_tail_decay(constant_spec(0.0, 0.0), [0.0],
                            [1.0, 1.5, 2.0], GRID, 50, seed=1)


class TestExport:
    def test_round_trip_rows(self, tmp_path):
        from youngbsde.diffusion import export_batch_csv

        batch = simulate(constant_spec(0.0, 1.0), [0.0],
                         TimeGrid.uniform(1.0, 2), 2, seed=1)
        p = export_batch_csv(batch, tmp_path / "b.csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "sample,time_index,time,x0"
        assert len(lines) == 1 + 2 * 3

    def test_size_guard(self, tmp_path):
        from youngbsde.diffusion import export_batch_csv
        from youngbsde.errors import ResourceError

        batch = simulate(constant_spec(0.0, 1.0), [0.0], GRID, 10, seed=1)
        with pytest.raises(ResourceError):
            export_batch_csv(batch, tmp_path / "b.csv", max_cells=10)


class TestPvarSurrogate:
    def test_bounded_as_samples_grow(self):
        spec = constant_spec(1.0, 0.0)
        means = []
        for s in (200, 800):
            batch = simulate(spec, [0.0], GRID, s, seed=11)
            means.append(float(np.mean(sample_pvar(batch, 3.0) ** 2)))
        assert means[1] <= means[0] * 1.25

    def test_exact_mode_matches_path_module(self):
        from youngbsde.paths import p_variation

        batch = simulate(constant_spec(1.0, 0.0), [0.0],
                         TimeGrid.uniform(1.0, 8), 5, seed=2)
        exact = sample_pvar(batch, 2.0, mode="exact")
        for i in range(5):
            assert exact[i] == pytest.approx(
                p_variation(batch.path(i), 2.0), abs=1e-12)
