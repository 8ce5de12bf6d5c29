import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbsde import experiments
from youngbsde.cli import main
from youngbsde.config import parse_config
from youngbsde.csvio import format_value, sha256_of_file, write_csv
from youngbsde.errors import ConfigError
from youngbsde.rng import hash64, stream


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config(text="kind = hurst-region\n")
        assert cfg["resolution"] == 101
        assert cfg["seed"] == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(text="# comment\nkind = hurst-region\n\n"
                                "d = 2  # inline\n")
        assert cfg["d"] == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(text="kind = hurst-region\nbogus = 1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
            parse_config(text="kind = nope\n")

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(text="d = 1\n")

    def test_required_key_enforced(self):
        with pytest.raises(ConfigError, match="requires key"):
            parse_config(text="kind = simulate-fbs\nh0 = 0.75\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text="kind = hurst-region\nd = 1\nd = 2\n")

    def test_validator_runs(self):
        with pytest.raises(ConfigError, match="precondition"):
            parse_config(text="kind = hurst-region\nresolution = 1\n")

    def test_tuple_values(self):
        cfg = parse_config(text="kind = exit-decay\nradii = 1.0,2.0, 3.0\n")
        assert cfg["radii"] == (1.0, 2.0, 3.0)

    def test_overrides_win(self):
        cfg = parse_config(text="kind = hurst-region\nd = 1\n",
                           overrides=["d=3", "seed=9"])
        assert cfg["d"] == 3 and cfg["seed"] == 9

    def test_echo_round_trips_types(self):
        cfg = parse_config(text="kind = exit-decay\n")
        echo = cfg.echo()
        assert echo["kind"] == "exit-decay"
        assert isinstance(echo["radii"], list)


class TestCsvFormatting:
    def test_seventeen_digits(self):
        assert format_value(1.0 / 3.0) == "0.33333333333333331"

    def test_ints_and_bools(self):
        assert format_value(True) == "1"
        assert format_value(np.int64(7)) == "7"

    def test_rejects_quoting(self):
        with pytest.raises(ValueError):
            format_value("a,b")

    def test_write_and_hash(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2.5], [3, 4.5]])
        assert p.read_text() == "a,b\n1,2.5\n3,4.5\n"
        assert len(sha256_of_file(p)) == 64


class TestRngStreams:
    def test_hash64_order_sensitive(self):
        assert hash64(1, 2) != hash64(2, 1)

    @given(st.integers(-2**70, 2**70), st.sampled_from(["int64", "uint64"]),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hash64_array_word_matches_scalar_words(self, word, dtype, first,
                                                    data):
        info = np.iinfo(dtype)
        column = data.draw(st.lists(st.integers(int(info.min), int(info.max)),
                                    min_size=1, max_size=16))

        def words(c):
            return (c, word) if first else (word, c)

        scalar = [hash64(*words(c)) for c in column]
        assert all(type(k) is int for k in scalar)
        keys = hash64(*words(np.array(column, dtype=dtype)))
        assert keys.dtype == np.uint64
        assert keys.tolist() == scalar

    def test_stream_reproducible(self):
        a = stream(5, 3).standard_normal(4)
        b = stream(5, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_looking(self):
        a = stream(5, 3).standard_normal(1000)
        b = stream(5, 4).standard_normal(1000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


class TestCliExitCodes:
    def _write(self, tmp_path, body):
        p = tmp_path / "cfg.txt"
        p.write_text(body)
        return str(p)

    def test_success(self, tmp_path):
        cfg = self._write(tmp_path, "kind = hurst-region\nresolution = 9\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "hurst_region.csv").exists()
        assert (tmp_path / "o" / "run_manifest.json").exists()

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "kind = hurst-region\nwat = 1\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config"

    def test_growth_exponent_out_of_range_is_2(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "kind = localization-error\ntheta2 = 2.0\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "theta2" in err["message"]

    def test_precondition_error_is_3(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "kind = nonlinear-bsde\nx0 = 2.0\n"
                          "radii = 1.5, 1.8\nsamples = 50\nsteps = 4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "precondition"
        assert not list(out.glob("*.csv"))

    def test_undetectable_gaps_are_dropped(self, tmp_path):
        # the v-times-g reaction, with every gap far below the detection
        # multiple of its paired standard error: each radius is dropped from
        # the fit with a warning and marked saturated
        cfg = self._write(tmp_path,
                          "kind = localization-error\n"
                          "reaction_kind = v-times-g\nsamples = 500\n"
                          "steps = 8\nradii = 1.0, 1.5\n"
                          "reference_radius = 2.5\nmin_detectable_z = 1e6\n")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="dropped from the decay fit"):
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "decay_gaps.csv").read_text().splitlines()]
        assert header == ["x", "radius", "gap", "standard_error",
                          "saturated"]
        assert len(rows) == 2
        assert all(float(row[2]) > 0 and row[4] == "1" for row in rows)

    def test_localization_error_needs_no_ellipticity(self, tmp_path):
        # a degenerate diffusion still runs: only the two PDE solvers
        # require a declared positive ellipticity
        cfg = self._write(tmp_path,
                          "kind = localization-error\n"
                          "diffusion = drift-only\nsamples = 200\n"
                          "steps = 8\nradii = 1.5, 2.0\n"
                          "reference_radius = 3.0\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "decay_gaps.csv").exists()

    @pytest.mark.parametrize("file_lines, flags, workers", [
        ("workers = 3\n", [], 3),
        ("workers = 3\n", ["--workers", "2"], 2),
        ("", [], 1),
    ], ids=["config-file", "flag-over-file", "default"])
    def test_worker_count_reaches_pool_and_manifest(
            self, tmp_path, monkeypatch, file_lines, flags, workers):
        seen = []
        pool = experiments.parallel_map

        def recording_map(fn, items, count):
            seen.append(count)
            return pool(fn, items, count)

        monkeypatch.setattr(experiments, "parallel_map", recording_map)
        cfg = self._write(tmp_path, "kind = pde-fk\nsamples = 200\n"
                                    "steps = 8\n" + file_lines)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out),
                     *flags]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert seen == [workers]
        assert manifest["config"]["workers"] == workers

    @pytest.mark.parametrize("file_lines, flags", [
        ("workers = 0\n", []),
        ("workers = abc\n", []),
        ("", ["--workers", "0"]),
    ], ids=["file-zero", "file-text", "flag-zero"])
    def test_invalid_workers_is_2(self, tmp_path, capsys, file_lines, flags):
        cfg = self._write(tmp_path, "kind = pde-fk\n" + file_lines)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     *flags]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "workers" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["nonlinear-bsde", "localization-error",
                                      "exit-decay"])
    def test_empty_radii_is_2(self, tmp_path, capsys, kind):
        cfg = self._write(tmp_path, f"kind = {kind}\nradii =\n"
                                    "samples = 50\nsteps = 4\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "radii" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["pde-fk", "localization-error"])
    def test_empty_eval_xs_is_2(self, tmp_path, capsys, kind):
        cfg = self._write(tmp_path, f"kind = {kind}\neval_xs =\n"
                                    "samples = 50\nsteps = 4\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "eval_xs" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t_index, code", [(7, 0), (8, 3), (40, 3)])
    def test_tower_rule_t_index_must_leave_a_step(self, tmp_path, capsys,
                                                  t_index, code):
        cfg = self._write(tmp_path, "kind = tower-rule\nsteps = 8\n"
                                    f"samples = 200\nt_index = {t_index}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        if code:
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "precondition"
            assert "t_index" in err["message"]
            assert not list(out.glob("*.csv"))

    def test_numerical_error_is_4(self, tmp_path, capsys):
        # jitter capped at zero cannot factor the singular t=0 block
        cfg = self._write(tmp_path,
                          "kind = simulate-fbs\nh0 = 0.75\nh = 0.75\n"
                          "time_points = 4\nspace_points = 3\njitter = 0\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "numerical"

    def test_nonconvergence_is_5_with_outputs(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "kind = young-integral\nsteps = 16\n"
                          "tol_abs = 1e-30\ntol_rel = 0.0\n"
                          "max_levels = 2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 5
        assert (out / "integral.csv").exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "non-convergence"

    def test_seed_flag_overrides(self, tmp_path):
        cfg = self._write(tmp_path,
                          "kind = exit-decay\nsamples = 2000\nsteps = 16\n"
                          "seed = 1\nradii = 0.5, 1.0, 1.5\n")
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "1"])
        main(["run", "--config", cfg, "--out", str(out3), "--seed", "2"])
        body1 = (out1 / "exit_probabilities.csv").read_bytes()
        assert body1 == (out2 / "exit_probabilities.csv").read_bytes()
        assert body1 != (out3 / "exit_probabilities.csv").read_bytes()

    def test_hurst_region_subcommand(self, tmp_path):
        out = tmp_path / "hr"
        assert main(["hurst-region", "--d", "1", "--resolution", "11",
                     "--out", str(out)]) == 0
        lines = (out / "hurst_region.csv").read_text().splitlines()
        assert lines[0] == "H,H0,admissible"
        assert len(lines) == 1 + 11 * 11


class TestManifest:
    def test_checksums_match_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kind = hurst-region\nresolution = 7\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert sha256_of_file(out / name) == digest
        assert manifest["config"]["kind"] == "hurst-region"
        assert "compute" in manifest["wall_clock_seconds"]

    def test_replay_identical_bodies_manifest_differs_in_time(self,
                                                              tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("kind = tower-rule\nsamples = 500\nsteps = 8\n")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "tower.csv").read_bytes() == \
            (outs[1] / "tower.csv").read_bytes()
        m1 = json.loads((outs[0] / "run_manifest.json").read_text())
        m2 = json.loads((outs[1] / "run_manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["config"] == m2["config"]


class TestWorkerDeterminism:
    @pytest.mark.parametrize("kind,body", [
        ("pde-fk", "samples = 1000\nsteps = 16\neval_xs = -1.0, 0.0, 1.0\n"),
        ("localization-error",
         "samples = 2000\nsteps = 8\nradii = 1.5, 2.0\n"
         "reference_radius = 3.0\n"),
    ])
    def test_csv_bodies_stable_across_workers(self, tmp_path, kind, body):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"kind = {kind}\nseed = 3\n{body}")
        bodies = {}
        for w in (1, 4):
            out = tmp_path / f"w{w}"
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--workers", str(w)]) == 0
            bodies[w] = {p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))}
        assert bodies[1] == bodies[4]
