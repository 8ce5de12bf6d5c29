import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from youngbsde import experiments, pde_fk
from youngbsde.acceptance import _DETERMINISM_CONFIGS
from youngbsde.cli import main
from youngbsde.config import EXPERIMENT_KINDS, SCHEMAS, parse_config
from youngbsde.csvio import format_value, sha256_of_file, write_csv
from youngbsde.errors import ConfigError
from youngbsde.rng import hash64, stream


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config(text="kind = hurst-region\n")
        assert cfg.values["resolution"] == 101
        assert cfg.values["seed"] == 0

    def test_comments_and_blank_lines(self):
        cfg = parse_config(text="# comment\nkind = hurst-region\n\n"
                                "d = 2  # inline\n")
        assert cfg.values["d"] == 2

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
        assert cfg.values["radii"] == (1.0, 2.0, 3.0)

    def test_inf_accepted(self):
        cfg = parse_config(text="kind = pde-fk\namplitude = inf\n"
                                "eval_xs = -inf, 0.0\n")
        assert cfg.values["amplitude"] == float("inf")
        assert cfg.values["eval_xs"] == (float("-inf"), 0.0)

    def test_overrides_win(self):
        cfg = parse_config(text="kind = hurst-region\nd = 1\n",
                           overrides=["d=3", "seed=9"])
        assert cfg.values["d"] == 3 and cfg.values["seed"] == 9

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

    def test_pde_fk_needs_ellipticity(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "kind = pde-fk\ndiffusion = drift-only\n"
                          "samples = 50\nsteps = 4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "precondition"
        assert "ellipticity" in err["message"]
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("body, match", [
        ("kind = exit-decay\nx0 = 2.0\n",
         "localization radius must exceed |x0| = 2"),
        ("kind = localization-error\nradii = 1.5, 2.5\n"
         "reference_radius = 2.0\n", "reference radius"),
        ("kind = nonlinear-bsde\nx0 = 5.0\n",
         "localization radius must exceed |x0| = 5"),
        ("kind = localization-error\neval_xs = 0.0, 2.0\n",
         "localization radius must exceed |x0| = 2"),
        ("kind = localization-error\nradii = 2.0, 2.0\n",
         "radii must be strictly increasing"),
        ("kind = exit-decay\nradii = 2.5, 1.0, 1.5, 2.0\n",
         "radii must be strictly increasing"),
        ("kind = tower-rule\nt_index = 40\n", "t_index 40 outside [0, 31]"),
    ], ids=["exit-decay", "localization-error", "nonlinear-bsde-start",
            "localization-error-start", "localization-error-duplicate",
            "exit-decay-unsorted", "tower-rule-t-index"])
    def test_bad_radii_exit_3_before_simulating(self, tmp_path, capsys,
                                                monkeypatch, body, match):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before the radii were checked")

        monkeypatch.setattr(experiments, "simulate", refuse)
        monkeypatch.setattr(pde_fk, "simulate", refuse)
        out = tmp_path / "o"
        assert main(["run", "--config", self._write(tmp_path, body),
                     "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "precondition" and match in err["message"]
        assert not list(out.glob("*.csv"))

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

    @pytest.mark.parametrize("body, key", [
        ("kind = linear-bsde\namplitude = nan\n", "amplitude"),
        ("kind = linear-bsde\ndrift_change = const\n"
         "drift_change_amplitude = nan\n", "drift_change_amplitude"),
        ("kind = pde-fk\namplitude = nan\n", "amplitude"),
        ("kind = pde-fk\neval_xs = 0.0, NaN\n", "eval_xs"),
    ], ids=["linear-bsde-amplitude", "linear-bsde-drift-change",
            "pde-fk-amplitude", "pde-fk-eval-xs"])
    def test_nan_value_is_2(self, tmp_path, capsys, body, key):
        # a NaN passes every precondition and every overflow guard, so it
        # is refused where it enters
        cfg = self._write(tmp_path, body + "samples = 50\nsteps = 4\n")
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and key in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("body", [
        "kind = linear-bsde\nx0 = inf\n",
        "kind = pde-fk\neval_xs = -inf, 0.0\n",
        "kind = tower-rule\nx0 = inf\n",
    ], ids=["linear-bsde", "pde-fk", "tower-rule"])
    def test_non_finite_start_is_3(self, tmp_path, capsys, body):
        # config keys accept inf; the simulation refuses it as a start point
        # before it draws, with no numpy warning on the way
        cfg = self._write(tmp_path, body + "samples = 50\nsteps = 4\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "precondition"
        assert "not finite" in err["message"]
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENT_KINDS
                                      if "horizon" in SCHEMAS[k]])
    def test_infinite_horizon_is_2(self, tmp_path, capsys, kind):
        required = "h0 = 0.75\nh = 0.75\n" if kind == "simulate-fbs" else ""
        cfg = self._write(tmp_path,
                          f"kind = {kind}\n{required}horizon = inf\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "horizon" in err["message"]
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

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "cfg.txt"],
        ["hurst-region", "--resolution", "5"],
        ["acceptance", "--select", "01"],
    ], ids=["run", "hurst-region", "acceptance"])
    def test_out_that_is_a_file_is_2(self, tmp_path, capsys, monkeypatch,
                                     argv):
        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, "kind = hurst-region\nresolution = 5\n")
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main([*argv, "--out", str(taken)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and err["exit"] == 2
        assert taken.read_text() == "kept"

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

    def test_jobs_see_the_callers_errstate(self):
        # numpy keeps its floating-point error state in a context variable,
        # which a pool thread does not inherit by itself
        with np.errstate(over="raise", under="ignore"):
            states = {w: experiments.parallel_map(
                lambda item: (np.geterr()["over"], np.geterr()["under"]),
                list(range(4)), w) for w in (1, 2)}
        assert states[1] == states[2] == [("raise", "ignore")] * 4


# sha256 of every CSV of the criterion-12 configs at seed 77, one worker
GOLDEN_SHA256 = {
    "simulate-fbs/sheet.csv":
        "62541d803fe1d71932bd62fb729ef071e92b448ab718c8e518a0a611c743230b",
    "simulate-fbs/sheet_meta.csv":
        "1c336e9bc788301bda47fa7d1078db519c75bdefd32fef0294b9e8a0b9690e29",
    "young-integral/integral.csv":
        "097581185b7fa26267aa177c570c9bcfd784915a7c0a4a02ba50a3bb2e84ba63",
    "flow/flow.csv":
        "cc16c8fa1b10c640f95f597ba1c12605aa707e7f8e98bf241a9a277cd6ebf50f",
    "flow/flow_diagnostics.csv":
        "bb73ee215e21a99cae3772d197cc1af2e01bb83ca0c77c4071d27dc84b6d0804",
    "linear-bsde/linear_solution.csv":
        "a11e97144b9cce9a07e04016f5cfb0a27bb71e2b87e1e8a657c4d13b07ff4b44",
    "nonlinear-bsde/localization_decay.csv":
        "11a5e503e7b13b5177f2020d568eb5303c5f92b8f2404282785f527a617e7bf2",
    "nonlinear-bsde/solution_coefficients.csv":
        "21a8f5b70607c0450034cf1ee88661a45389706c12c5f997e49a9342eb1a884f",
    "pde-fk/pde_table.csv":
        "fcdf1f4735cdfbb0864e58ebd437293b0fb6e1dfdc4f48bf6ded80a1e049c365",
    "localization-error/decay_fits.csv":
        "109c1024ab0a4d1552894fe7dfb35ff94352e070e9e08711f0c5f330e47f6c73",
    "localization-error/decay_gaps.csv":
        "8be5149edf68172a0395f9f6e9bf0abc7c86d409d3f8688919fe880fe643fde0",
    "hurst-region/hurst_region.csv":
        "33f32e7b6c22cf733a7fe0e5b2946efee5295fb04c4cd8591ff1c10be2b6bbdf",
    "tower-rule/tower.csv":
        "749e15aac8003d2d8dfeb33a64be7431c7437588a97004ca6c410bb5ea8dc863",
    "exit-decay/exit_probabilities.csv":
        "d17b744cef3d906dc999d0c6ba51b2110e055af6dffe88e1627dbc1311c60f69",
    "exit-decay/exit_decay_fit.csv":
        "de88669b6a750538760023c78f85707471ff3b914122b45e7f142f81e67e07ac",
}


class TestGoldenBytes:
    def test_two_point_localization_keeps_its_bytes(self, tmp_path):
        # the second point reads the stream hash64(77, 1), which no
        # criterion-12 config reaches
        cfg = parse_config(text="kind = localization-error\nseed = 77\n"
                                "eval_xs = 0.0, 0.5\nsamples = 4000\n"
                                "steps = 16\nradii = 1.5, 2.0, 2.5\n"
                                "reference_radius = 3.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = experiments.run_experiment(cfg, tmp_path)
        assert {Path(f).name: sha256_of_file(f) for f in result.files} == {
            "decay_fits.csv": "2dbb572fbf6d2a4fc7a2e9a1bbf42c7c"
                              "29ee688bb221d22d786ed0eed1eae528",
            "decay_gaps.csv": "35444d450203f921a583fc9a78bb9129"
                              "e0c56c7734d2577977f4b1524c991240"}

    def test_determinism_configs_keep_their_bytes(self, tmp_path):
        # criterion 12 compares worker counts within one tree; this pins the
        # bytes themselves, so an output move from one revision to the next
        # is seen
        digests = {}
        for kind, body in _DETERMINISM_CONFIGS.items():
            cfg = parse_config(text=f"kind = {kind}\nseed = 77\n{body}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = experiments.run_experiment(cfg, tmp_path / kind)
            for f in result.files:
                digests[f"{kind}/{Path(f).name}"] = sha256_of_file(f)
        moved = sorted(name for name in digests.keys() | GOLDEN_SHA256.keys()
                       if digests.get(name) != GOLDEN_SHA256.get(name))
        assert not moved, (
            f"output bytes moved: {moved}. Declare the move in CHANGES.md, "
            "with a statistical equivalence check against the old outputs, "
            "then update GOLDEN_SHA256")
