"""Configuration resolution, experiment preparation and the CLI entry point."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declangevin
from declangevin import (ConfigError, Dataset, GaussianDist, Trace,
                         build_config, generate_linreg_data, linreg_posterior,
                         linreg_w2_series, logistic_auc_series, main,
                         make_surrogate_classification, prepare,
                         run_experiment, spectral_bounds, step_size)
from declangevin import cli as cli_module
from declangevin.cli import _FIELD_TYPES, ExperimentConfig, load_config_file

from conftest import reference_auc_series, reference_w2_series, save_libsvm


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test on any numpy generator being built."""
    def fail(*args, **kwargs):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(np.random, "Generator", fail)
    monkeypatch.setattr(np.random, "default_rng", fail)


class TestBuildConfig:
    def test_subcommand_defaults(self):
        cfg = build_config("linreg")
        assert cfg.experiment == "linreg"
        assert cfg.iters == 200
        assert (cfg.alpha_start, cfg.alpha_end) == (0.008, 0.0005)
        assert build_config("run").schedule == "harmonic"
        assert build_config("mixture").iters == 10000
        assert build_config("logistic").dims == 123

    def test_later_maps_win_and_none_is_skipped(self):
        cfg = build_config("linreg", {"iters": 50, "agents": 8},
                           {"iters": 99, "agents": None})
        assert cfg.iters == 99
        assert cfg.agents == 8

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config("linreg", {"itres": 50})

    def test_experiment_key_is_reserved(self):
        with pytest.raises(ConfigError, match="subcommand"):
            build_config("linreg", {"experiment": "mixture"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            build_config("bandit")

    def test_field_types_follow_the_annotations(self):
        # every annotation reads "T" or "T | None" and T is the coercion type
        for f in dataclasses.fields(ExperimentConfig):
            assert _FIELD_TYPES[f.name].__name__ == f.type.removesuffix(" | None"), f.name
        assert build_config("run", {"graph_seed": "3"}).graph_seed == 3
        assert build_config("run", {"alpha0": "2"}).alpha0 == 2.0

    def test_integer_coercion(self):
        assert build_config("run", {"iters": "5"}).iters == 5
        assert build_config("run", {"iters": 5.0}).iters == 5
        with pytest.raises(ConfigError, match="expects int"):
            build_config("run", {"iters": 5.5})
        with pytest.raises(ConfigError, match="expects float"):
            build_config("run", {"sigma_sq": "much"})


class TestLoadConfigFile:
    def test_reads_a_flat_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"iters": 7, "agents": 2}))
        assert load_config_file(path) == {"iters": 7, "agents": 2}

    def test_error_cases(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config_file(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="one flat JSON object"):
            load_config_file(arr)
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"a": {"b": 1}}))
        with pytest.raises(ConfigError, match="must be a scalar"):
            load_config_file(nested)


class TestSchedules:
    def test_endpoint_solver_hits_both_ends(self):
        setup = prepare(build_config("linreg"))
        assert step_size(setup.sched, 0) == pytest.approx(0.008, rel=1e-12)
        assert step_size(setup.sched, 200) == pytest.approx(0.0005, rel=1e-12)

    def test_endpoints_must_come_in_pairs(self):
        with pytest.raises(ConfigError, match="together"):
            prepare(build_config("run", {"alpha_start": 0.01}))

    def test_endpoints_require_a_power_schedule(self):
        with pytest.raises(ConfigError, match="power"):
            prepare(build_config("run", {"alpha_start": 0.01,
                                         "alpha_end": 0.001}))

    def test_gaussian_run_solves_its_own_step_size(self):
        assert prepare(build_config("run", {"agents": 4})).sched.alpha0 == 1.0
        assert prepare(build_config("run", {"agents": 4,
                                            "model_kappa": 2.0})).sched.alpha0 == 0.5
        assert prepare(build_config("run", {"agents": 4,
                                            "alpha0": 0.3})).sched.alpha0 == 0.3

    def test_alpha0_is_required_elsewhere(self):
        cfg = dataclasses.replace(build_config("linreg"),
                                  alpha_start=None, alpha_end=None)
        with pytest.raises(ConfigError, match="alpha0 is required"):
            prepare(cfg)

    def test_noise_variance_caps_the_first_step(self):
        with pytest.raises(ConfigError, match="sigma_sq"):
            prepare(build_config("run", {"sigma_sq": 10.0, "alpha0": 1.0}))


class TestPrepare:
    def test_basic_validation(self):
        for bad in [{"agents": 0}, {"iters": 0}, {"stride": 0},
                    {"monitors": "maybe"}, {"seed": -1}, {"batch": -1},
                    {"sigma_sq": -1.0}, {"eval_every": 0}]:
            with pytest.raises(ConfigError):
                prepare(build_config("run", bad))

    def test_periodic_list_needs_explicit_graphs(self):
        with pytest.raises(ConfigError, match="in code"):
            prepare(build_config("run", {"graph_kind": "periodic-list"}))

    def test_graph_seed_defaults_to_the_run_seed(self):
        setup = prepare(build_config("run", {"seed": 11}))
        assert setup.metadata["graph_seed"] == 11
        setup = prepare(build_config("run", {"seed": 11, "graph_seed": 5}))
        assert setup.metadata["graph_seed"] == 5

    def test_per_experiment_batch_defaults(self):
        assert prepare(build_config("linreg")).potential.batch_size == 1
        assert prepare(build_config("mixture",
                                    {"iters": 10})).potential.batch_size is None
        assert prepare(build_config("linreg",
                                    {"batch": 0})).potential.batch_size is None
        assert prepare(build_config("linreg")).metadata["batch"] == 1

    def test_linreg_extras(self):
        cfg = build_config("linreg", {"seed": 3, "agents": 5})
        setup = prepare(cfg)
        assert setup.extras["x0"].shape == (5, 2)
        again = prepare(cfg)
        np.testing.assert_array_equal(setup.extras["x0"], again.extras["x0"])
        ds = generate_linreg_data(cfg.n, cfg.dims, cfg.data_sigma,
                                  np.array([1.0, -1.0]), cfg.seed)
        post = linreg_posterior(ds, GaussianDist(np.zeros(2), np.eye(2)),
                                cfg.data_sigma)
        np.testing.assert_allclose(setup.extras["posterior"].mean, post.mean,
                                   atol=1e-12)

    def test_linreg_input_validation(self):
        with pytest.raises(ConfigError, match="float list"):
            prepare(build_config("linreg", {"true_w": "1.0,abc"}))
        with pytest.raises(ConfigError, match="2 entries"):
            prepare(build_config("linreg", {"true_w": "1.0,2.0,3.0"}))
        with pytest.raises(ConfigError, match="data_sigma"):
            prepare(build_config("linreg", {"data_sigma": 0.0}))

    def test_mixture_validation(self):
        with pytest.raises(ConfigError, match="sigma_x_sq"):
            prepare(build_config("mixture", {"sigma_x_sq": 0.0}))

    def test_logistic_file_branch_splits_the_data(self, tmp_path):
        path = tmp_path / "small.libsvm"
        save_libsvm(make_surrogate_classification(20, 6, seed=1), path)
        cfg = build_config("logistic", {"dataset": str(path), "dims": 6,
                                        "agents": 3})
        setup = prepare(cfg)
        assert setup.metadata["n"] == 20
        assert setup.metadata["n_train"] == 16
        assert setup.extras["test"].n == 4
        sizes = [int(s) for s in setup.metadata["shard_sizes"].split("/")]
        assert sum(sizes) == 16 and max(sizes) - min(sizes) <= 1

    def test_logistic_missing_file_mentions_the_surrogate(self):
        with pytest.raises(ConfigError, match="--surrogate on"):
            prepare(build_config("logistic", {"dataset": "no/such/file"}))

    def test_logistic_surrogate_branch(self):
        cfg = build_config("logistic", {"dataset": "no/such/file",
                                        "surrogate": "on", "n": 120,
                                        "dims": 8, "agents": 3})
        setup = prepare(cfg)
        assert setup.metadata["surrogate"] == "on"
        assert setup.metadata["n"] == 120
        assert setup.metadata["dims"] == 8

    def test_logistic_needs_an_evaluation_point(self):
        # records at 0, 7 and 14: none a multiple of 10, and t=20 unrecorded
        cfg = build_config("logistic", {"surrogate": "on", "n": 200,
                                        "iters": 20, "stride": 7,
                                        "eval_every": 10})
        with pytest.raises(ConfigError, match="iters=20, stride=7 and "
                                              "eval_every=10"):
            prepare(cfg)
        # a recorded last iteration or a recorded multiple is enough
        for ok in [{"iters": 21}, {"iters": 70}, {"eval_every": 14}]:
            prepare(dataclasses.replace(cfg, **ok))

    def test_logistic_test_split_needs_both_classes(self):
        # six rows split 5/1 leave one negative row to test on
        cfg = build_config("logistic", {"surrogate": "on", "n": 6,
                                        "agents": 2, "seed": 3, "iters": 20})
        with pytest.raises(ConfigError,
                           match="0 positive and 1 negative rows"):
            prepare(cfg)

    def test_unknown_model(self):
        # explicit alpha0: the automatic step size only knows gaussian
        with pytest.raises(ConfigError, match="registered"):
            prepare(build_config("run", {"model": "banana", "alpha0": 0.1}))


class TestRunExperiment:
    def test_smoke_run_is_deterministic(self):
        cfg = build_config("run", {"agents": 3, "iters": 50, "stride": 5})
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.states.shape == (11, 3, 2)
        np.testing.assert_array_equal(a.states, b.states)

    def test_linreg_distance_series_fills_in_once_the_window_is_full(self):
        cfg = build_config("linreg", {"n": 80, "agents": 3, "iters": 40,
                                      "stride": 5})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        paper, bures = linreg_w2_series(trace, setup.extras["posterior"])
        assert paper.shape == (9, 3)
        # trailing window (t/2, t] holds dim + 1 = 3 records from t = 25 on
        assert np.isnan(paper[:5]).all()
        assert np.isfinite(paper[5:]).all()
        assert np.all(paper[5:] + 1e-9 >= bures[5:])

    @staticmethod
    def w2_trace(states, stride):
        n_rec, m, _ = states.shape
        num_iters = (n_rec - 1) * stride
        return Trace(ts=np.arange(n_rec) * stride, alphas=np.zeros(n_rec),
                     states=states, consensus=np.zeros((n_rec, m)),
                     z_dev=np.zeros((num_iters, m)),
                     pert_norms=np.zeros((num_iters, m)),
                     num_iters=num_iters, stride=stride)

    @staticmethod
    def assert_w2_series_match(trace, posterior, rtol):
        got = linreg_w2_series(trace, posterior)
        for have, want in zip(got, reference_w2_series(trace, posterior)):
            np.testing.assert_array_equal(np.isnan(have), np.isnan(want))
            np.testing.assert_allclose(have, want, rtol=rtol, atol=0.0)

    @settings(max_examples=40)
    @given(n_rec=st.integers(1, 60), m=st.integers(1, 4),
           d=st.integers(1, 4), stride=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_linreg_w2_series_equals_the_per_window_refits(self, n_rec, m,
                                                            d, stride, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((d, d))
        posterior = GaussianDist(3.0 * rng.standard_normal(d),
                                 r @ r.T + 0.1 * np.eye(d))
        states = posterior.mean + rng.standard_normal((n_rec, m, d)) \
            @ r.T + 0.5 * rng.standard_normal(d)
        self.assert_w2_series_match(self.w2_trace(states, stride), posterior,
                                    1e-10)

    def test_linreg_w2_series_holds_far_from_the_origin(self):
        # posterior mean at 1e4; the samples drift steadily up to 66 sd
        # off it, so the prefix sums grow far beyond any window's spread
        rng = np.random.default_rng(5)
        n_rec, m, d = 10_000, 1, 2
        posterior = GaussianDist(np.array([1e4, -1e4]),
                                 np.array([[1.0, 0.3], [0.3, 0.5]]))
        drift = np.linspace(0.0, 66.0, n_rec)[:, None, None] \
            * np.array([1.0, 0.5])
        states = posterior.mean + drift \
            + rng.standard_normal((n_rec, m, d)) * np.array([1.0, 0.7])
        self.assert_w2_series_match(self.w2_trace(states, 1), posterior,
                                    1e-10)

    def test_logistic_auc_series_picks_evaluation_points(self):
        cfg = build_config("logistic", {"dataset": "no/such/file",
                                        "surrogate": "on", "n": 200,
                                        "dims": 10, "agents": 3, "iters": 20,
                                        "stride": 5, "eval_every": 10,
                                        "batch": 8})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"],
                                            cfg.eval_every)
        np.testing.assert_array_equal(eval_ts, [10, 20])
        assert aucs.shape == (2, 3)
        assert np.all((0.0 <= aucs) & (aucs <= 1.0))

    def test_logistic_auc_series_equals_the_per_state_loop(self,
                                                             monkeypatch):
        cfg = build_config("logistic", {"surrogate": "on", "n": 600,
                                        "dims": 12, "agents": 3, "iters": 40,
                                        "stride": 3, "eval_every": 4,
                                        "batch": 8})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        test = setup.extras["test"]
        # chunks of 5 states: 3 evaluations (t=12, 24, 36) times 3 agents
        # leave a ragged last chunk of 4
        monkeypatch.setattr(cli_module, "_AUC_CHUNK_BYTES", 5 * 8 * test.n)
        eval_ts, aucs = logistic_auc_series(trace, test, cfg.eval_every)
        want_ts, want = reference_auc_series(trace, test, cfg.eval_every)
        np.testing.assert_array_equal(eval_ts, [12, 24, 36])
        np.testing.assert_array_equal(eval_ts, want_ts)
        assert aucs.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="eval_every"):
            logistic_auc_series(trace, test, 0)

    def test_logistic_auc_series_scores_in_bounded_memory(self):
        # 100 evaluations of 4 agents on a 6512-row test set: all 400
        # states' scores at once would take 20.8 MB, and as much again to
        # split them by class
        rng = np.random.default_rng(0)
        n_rec, m, d = 101, 4, 123
        trace = Trace(ts=np.arange(n_rec) * 10, alphas=np.zeros(n_rec),
                      states=rng.standard_normal((n_rec, m, d)),
                      consensus=np.zeros((n_rec, m)),
                      z_dev=np.zeros((1000, m)), pert_norms=np.zeros((1000, m)),
                      num_iters=1000, stride=10)
        test = Dataset((rng.random((6512, d)) < 0.1).astype(float),
                       np.where(rng.random(6512) < 0.25, 1.0, -1.0))
        tracemalloc.start()
        try:
            eval_ts, aucs = logistic_auc_series(trace, test, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aucs.shape == (100, 4)
        assert peak < 10e6


class TestMain:
    LINREG_FLAGS = ["linreg", "--n", "60", "--agents", "4", "--iters", "40",
                    "--stride", "5"]

    def test_identical_runs_write_identical_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.LINREG_FLAGS + ["--out", str(out1)]) == 0
        assert main(self.LINREG_FLAGS + ["--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert data.startswith(b"# experiment=linreg\r\n")
        assert b"# iters=40\r\n" in data
        assert "wrote" in capsys.readouterr().out

    def test_monitor_runs_echo_the_bound_outcome(self, tmp_path, capsys):
        flags = ["run", "--agents", "3", "--iters", "30", "--monitors", "on"]
        out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        assert main(flags + ["--out", str(out1)]) == 0
        assert main(flags + ["--out", str(out2)]) == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()
        assert b"# lemma4_violated=" in data
        assert b"lemma4_lhs,lemma4_bound" in data
        assert "deviation bound" in capsys.readouterr().out

    def test_monitors_work_at_sixteen_agents(self, tmp_path, capsys):
        # from 14 agents on the closed-form lambda rounds to 1.0; the bound
        # must use the gap 1 - lambda computed without cancellation
        out = tmp_path / "big.csv"
        assert main(["run", "--agents", "16", "--monitors", "on",
                     "--out", str(out)]) == 0
        assert b"# lemma4_violated=false\r\n" in out.read_bytes()
        assert "held" in capsys.readouterr().out

    def test_monitors_use_the_run_window_length(self, tmp_path, capsys):
        out = tmp_path / "b4.csv"
        assert main(["run", "--agents", "4", "--graph_b", "4", "--iters", "40",
                     "--monitors", "on", "--out", str(out)]) == 0
        capsys.readouterr()
        meta = dict(line[2:].split("=", 1) for line in
                    out.read_text().splitlines() if line.startswith("# "))
        assert float(meta["lemma4_delta"]) == spectral_bounds(4, 4).delta_lower

    def test_config_file_sits_between_defaults_and_flags(self, tmp_path,
                                                         capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"iters": 30, "agents": 3, "n": 60}))
        out = tmp_path / "out.csv"
        code = main(["linreg", "--config", str(config), "--iters", "20",
                     "--stride", "5", "--out", str(out)])
        assert code == 0
        data = out.read_bytes()
        assert b"# iters=20\r\n" in data
        assert b"# agents=3\r\n" in data
        capsys.readouterr()

    def test_unknown_flag_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["linreg", "--bogus", "1"])
        capsys.readouterr()

    def test_config_errors_exit_with_two(self, capsys):
        assert main(["run", "--batch", "-1"]) == 2
        assert "batch" in capsys.readouterr().err

    def test_monitors_reject_an_underflowing_delta_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        # 64**(-64*3) is below the smallest double
        def no_sampling(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_module, "run", no_sampling)
        code = main(["run", "--agents", "64", "--graph_b", "3", "--iters",
                     "3000", "--monitors", "on", "--out",
                     str(tmp_path / "u.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "m=64" in err and "B=3" in err
        assert not (tmp_path / "u.csv").exists()

    @pytest.mark.parametrize("eval_every", ["0", "-5"])
    def test_eval_every_below_one_exits_before_sampling(
            self, eval_every, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_module, "run", no_sampling)
        code = main(["logistic", "--surrogate", "on", "--n", "2000",
                     "--iters", "20", "--eval_every", eval_every, "--out",
                     str(tmp_path / "e.csv")])
        assert code == 2
        assert "eval_every must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--alpha0", "nan"], "alpha0"), (["--alpha0", "inf"], "alpha0"),
        (["--schedule", "power", "--alpha0", "0.1", "--sched_offset", "nan"],
         "offset")])
    def test_non_finite_schedule_exits_before_any_draw(
            self, flags, field, tmp_path, capsys, no_draws):
        code = main(["run", *flags, "--iters", "10", "--out",
                     str(tmp_path / "a.csv")])
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--model_kappa", "0"], "model_kappa must be positive"),
        (["run", "--model_kappa", "-1"], "model_kappa must be positive"),
        (["run", "--model_dim", "0"], "model_dim must be at least 1"),
        (["run", "--model_dim", "-1"], "model_dim must be at least 1"),
        (["linreg", "--n", "0"], "n must be at least 1"),
        (["mixture", "--n", "-1"], "n must be at least 1"),
        (["linreg", "--data_sigma", "nan"], "data_sigma must be positive"),
        (["mixture", "--sigma_x_sq", "nan"], "sigma_x_sq must be positive"),
        (["mixture", "--prior_var1", "-1"], "prior_var1 must be positive"),
        (["mixture", "--prior_var1", "nan"], "prior_var1 must be positive"),
        (["mixture", "--prior_var2", "0"], "prior_var2 must be positive"),
        (["logistic", "--surrogate", "on", "--dims", "0"],
         "dims must be at least 1")])
    def test_bad_model_or_data_size_exits_before_any_draw(
            self, argv, message, tmp_path, capsys, no_draws):
        code = main([*argv, "--iters", "10", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_schedule_exponent_of_zero_exits_before_any_draw(
            self, tmp_path, capsys, no_draws):
        code = main(["linreg", "--sched_p", "0", "--out",
                     str(tmp_path / "p.csv")])
        assert code == 2
        assert "exponent must lie in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("experiment, field, value", [
        ("linreg", "true_w", "1.0,\n-1.0"),
        ("logistic", "dataset", "data/a9a\r"),
        ("logistic", "surrogate", "on\r\n")])
    def test_a_line_break_in_a_string_value_exits_before_any_draw(
            self, experiment, field, value, tmp_path, capsys, no_draws):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({field: value}))
        code = main([experiment, "--config", str(config), "--out",
                     str(tmp_path / "b.csv")])
        assert code == 2
        assert f"{field} holds a line break" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("kind", ["seeded-random", "static"])
    def test_negative_graph_seed_exits_before_any_draw(
            self, kind, tmp_path, capsys, no_draws):
        code = main(["run", "--graph_kind", kind, "--graph_seed", "-1",
                     "--iters", "10", "--out", str(tmp_path / "g.csv")])
        assert code == 2
        assert "graph seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_package_runs_as_a_module(self, tmp_path):
        out = tmp_path / "m.csv"
        src = str(Path(declangevin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "declangevin", "run",
             "--agents", "2", "--iters", "5", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert out.read_bytes().startswith(b"# experiment=run\r\n")

    def test_divergence_exits_with_one(self, tmp_path, capsys):
        # the state overflows before the finiteness check trips
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["linreg", "--n", "60", "--alpha_start", "1000",
                         "--alpha_end", "500", "--out",
                         str(tmp_path / "d.csv")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err


class TestCommandPath:
    SMOKE = {
        "linreg": ["--n", "60", "--iters", "40", "--stride", "5"],
        "mixture": ["--n", "60", "--iters", "40"],
        "logistic": ["--surrogate", "on", "--n", "2000", "--iters", "40"],
        "run": ["--iters", "30"],
    }
    STEPS = ("prepare", "run_experiment", "check_lemma4_bound", "write_csv")

    @pytest.mark.parametrize("command", sorted(SMOKE))
    def test_every_subcommand_takes_each_step_once(self, command, tmp_path,
                                                   capsys, monkeypatch):
        # the steps are looked up on the module at call time, so wrappers
        # installed there (as the benchmark's spans are) see every call
        calls = dict.fromkeys(self.STEPS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.STEPS:
            monkeypatch.setattr(cli_module, name,
                                counted(name, getattr(cli_module, name)))
        out = tmp_path / f"{command}.csv"
        assert main([command, *self.SMOKE[command], "--monitors", "on",
                     "--out", str(out)]) == 0
        assert calls == dict.fromkeys(self.STEPS, 1)
        meta = [line[2:].split("=", 1)[0] for line in
                out.read_text().splitlines() if line.startswith("# ")]
        for key in ("violated", "max_ratio", "delta", "lambda", "d_hat"):
            assert f"lemma4_{key}" in meta
        assert capsys.readouterr().out.startswith(f"{command}: wrote {out}")

    def test_batch_defaults_per_subcommand(self):
        assert [build_config(name).batch for name in
                ("linreg", "mixture", "logistic", "run")] == [1, 0, 32, 0]

    def test_a_null_batch_in_a_config_file_keeps_the_default(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"batch": None}))
        overrides = load_config_file(config)
        assert build_config("linreg", overrides).batch == 1
        assert build_config("logistic", overrides).batch == 32

    def test_batch_zero_is_the_full_shard(self):
        cfg = build_config("logistic", {"surrogate": "on", "n": 2000,
                                        "batch": 0})
        assert prepare(cfg).potential.batch_size is None
