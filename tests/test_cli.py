"""Configuration resolution, experiment preparation and the CLI entry point."""

import dataclasses
import json

import numpy as np
import pytest

from declangevin import (ConfigError, GaussianDist, build_config,
                         generate_linreg_data, linreg_posterior,
                         linreg_w2_series, logistic_auc_series, main,
                         make_surrogate_classification, prepare,
                         run_experiment, save_libsvm, step_size)
from declangevin.cli import _FIELD_TYPES, ExperimentConfig, load_config_file


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
                    {"monitors": "maybe"}, {"seed": -1}, {"batch": -1}]:
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

    def test_divergence_exits_with_one(self, tmp_path, capsys):
        # the state overflows before the finiteness check trips
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["linreg", "--n", "60", "--alpha_start", "1000",
                         "--alpha_end", "500", "--out",
                         str(tmp_path / "d.csv")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
