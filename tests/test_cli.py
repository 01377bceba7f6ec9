"""Configuration resolution, experiment preparation and the CLI entry point."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declangevin
import declangevin.graphs as graphs_module
from declangevin import (ConfigError, Dataset, GaussianDist, Trace,
                         build_config, generate_linreg_data, linreg_posterior,
                         linreg_w2_series, logistic_auc_series, main,
                         make_surrogate_classification, prepare,
                         run_experiment, spectral_bounds, step_size,
                         w2_gaussian_bures, w2_gaussian_paper)
from declangevin import cli as cli_module
from declangevin.cli import _FIELD_TYPES, ExperimentConfig, load_config_file
from declangevin.metrics import COV_RIDGE

from conftest import (reference_auc_series, reference_b_connected,
                      reference_w2_series, save_libsvm)

# the fields each subcommand reads: the shared ones and its own, in the
# order ExperimentConfig declares them; logistic derives its stride
SHARED = ("seed agents iters out monitors graph_kind graph_b graph_seed "
          "schedule alpha0 sched_offset sched_p alpha_start alpha_end").split()
OWN = {
    "linreg": "stride batch n dims data_sigma true_w",
    "mixture": "stride batch n theta1 theta2 sigma_x_sq prior_var1 prior_var2",
    "logistic": "batch n dims dataset surrogate split_seed split_frac "
                "eval_every",
    "run": "stride model_dim model_kappa",
}
READS = {name: [f.name for f in dataclasses.fields(ExperimentConfig)
                if f.name in SHARED or f.name in own.split()]
         for name, own in OWN.items()}


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
        # the update's noise has no variance to set
        with pytest.raises(ConfigError, match="unknown config key 'sigma_sq'"):
            build_config("run", {"sigma_sq": 0.0})

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
        for value in (5.5, True, False, float("inf")):
            with pytest.raises(ConfigError, match=f"expects int, got {value!r}"):
                build_config("run", {"iters": value})
        with pytest.raises(ConfigError, match="config key 'seed' expects int, got False"):
            build_config("run", {"seed": False})
        with pytest.raises(ConfigError, match="expects float"):
            build_config("run", {"model_kappa": "much"})

    @pytest.mark.parametrize("experiment, key", [
        ("linreg", "theta1"), ("mixture", "dims"), ("logistic", "model_dim"),
        ("run", "batch")])
    def test_a_key_the_experiment_does_not_read(self, experiment, key):
        with pytest.raises(ConfigError, match=f"{experiment} does not read "
                                              f"config key '{key}'"):
            build_config(experiment, {key: 1})

    def test_every_default_is_a_field_its_subcommand_reads(self):
        # and differs from ExperimentConfig's, so each default is stated once
        base = ExperimentConfig()
        for experiment, defaults in cli_module._DEFAULTS.items():
            assert set(defaults) <= set(READS[experiment]), experiment
            for key, value in defaults.items():
                assert value != getattr(base, key), (experiment, key)

    def test_logistic_records_the_iterations_it_scores(self):
        cfg = build_config("logistic")
        assert cfg.stride == cfg.eval_every == 10
        assert build_config("logistic", {"eval_every": 7}).stride == 7


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

    def test_subcommand_defaults_leave_every_schedule_form_open(self):
        # logistic's default alpha0, offset and exponent are not refused
        # when its schedule does not read them
        logistic = {"surrogate": "on", "n": 200}
        sched = prepare(build_config("logistic", logistic, {
            "schedule": "harmonic", "alpha0": 0.01})).sched
        assert (sched.kind, sched.alpha0, sched.offset) == ("harmonic", 0.01, 1.0)
        sched = prepare(build_config("logistic", logistic, {
            "alpha_start": 0.01, "alpha_end": 0.001})).sched
        assert step_size(sched, 1000) == pytest.approx(0.001, rel=1e-12)
        assert sched.exponent == 0.45

    def test_power_schedules_default_to_exponent_0_65(self):
        assert prepare(build_config("linreg")).sched.exponent == 0.65
        assert prepare(build_config("mixture", {"iters": 10})).sched.exponent == 0.65
        assert prepare(build_config("run", {"schedule": "power",
                                            "alpha0": 0.1})).sched.exponent == 0.65
        assert prepare(build_config("logistic", {"surrogate": "on", "n": 200})
                       ).sched.exponent == 0.45


class TestPrepare:
    def test_basic_validation(self):
        # each value is accepted by its subcommand and refused by prepare
        for experiment, bad in [
                ("run", {"agents": 0}), ("run", {"iters": 0}),
                ("run", {"stride": 0}), ("run", {"monitors": "maybe"}),
                ("run", {"seed": -1}), ("linreg", {"batch": -1}),
                ("logistic", {"eval_every": 0})]:
            cfg = build_config(experiment, bad)
            with pytest.raises(ConfigError):
                prepare(cfg)

    def test_an_unknown_experiment_is_refused_as_build_config_refuses_it(self):
        # a config built for one subcommand and relabelled raised a bare KeyError
        cfg = dataclasses.replace(build_config("run"), experiment="foo")
        with pytest.raises(ConfigError, match="^unknown experiment 'foo'$"):
            prepare(cfg)

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

    @pytest.mark.parametrize("flags, unread", [
        (["--surrogate", "on"], "surrogate=on"),
        (["--n", "50"], "n=50"),
        (["--surrogate", "on", "--n", "50"], "surrogate=on and n=50")])
    def test_logistic_surrogate_fields_are_refused_when_the_file_exists(
            self, flags, unread, tmp_path, capsys):
        path = tmp_path / "small.libsvm"
        save_libsvm(make_surrogate_classification(200, 6, seed=1), path)
        out = tmp_path / "l.csv"
        code = main(["logistic", "--dataset", str(path), "--dims", "6",
                     "--iters", "10", *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"dataset file {str(path)!r} exists, so {unread} would not " \
            "be read" in err
        assert not out.exists()

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

    def test_logistic_prepare_holds_the_training_rows_once(self):
        # the dataset, the test split's copy and the potential's row table;
        # no stacked copy of the training shards
        cfg = build_config("logistic", {"surrogate": "on", "n": 8000})
        tracemalloc.start()
        try:
            setup = prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * cfg.n * cfg.dims * 8
        assert setup.potential.batch_size == 32

    def test_default_surrogate_prepare_holds_no_float_copy_of_the_features(
            self, tmp_path):
        # the 0/1 features stay bytes: the dataset, the test split and the
        # surrogate's chunks stay under half of one float copy
        cfg = build_config("logistic", {"surrogate": "on",
                                        "dataset": str(tmp_path / "absent")})
        tracemalloc.start()
        try:
            setup = prepare(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert setup.extras["test"].features.dtype == np.uint8
        assert peak < 0.5 * cfg.n * cfg.dims * 8

    def test_logistic_needs_an_evaluation_point(self):
        cfg = build_config("logistic", {"surrogate": "on", "n": 200,
                                        "iters": 20, "eval_every": 30})
        with pytest.raises(ConfigError, match="eval_every=30 exceeds "
                                              "iters=20"):
            prepare(cfg)
        # one multiple of eval_every is enough
        prepare(build_config("logistic", {"surrogate": "on", "n": 200,
                                          "iters": 20, "eval_every": 20}))

    def test_a_logistic_stride_apart_from_eval_every_is_refused(self, no_draws):
        # build_config derives the stride; a config built by hand that scores
        # other iterations than it records never reaches a draw
        cfg = build_config("logistic", {"surrogate": "on", "n": 2000, "iters": 40})
        with pytest.raises(ConfigError, match="stride=3 must equal eval_every=10"):
            prepare(dataclasses.replace(cfg, stride=3))

    @pytest.mark.parametrize("experiment, name, value", [
        ("run", "theta1", 0.5), ("run", "batch", 5), ("linreg", "model_dim", 3),
        ("mixture", "dims", 3), ("logistic", "true_w", "2.0,1.0"),
        ("linreg", "eval_every", 4)])
    def test_a_field_the_subcommand_does_not_read_is_refused(
            self, experiment, name, value, no_draws):
        cfg = dataclasses.replace(build_config(experiment), **{name: value})
        with pytest.raises(ConfigError, match=re.escape(
                f"{experiment} does not read {name}, set to {value!r}")):
            prepare(cfg)

    def test_an_unread_field_at_its_default_is_accepted(self):
        # the default of the subcommand, and logistic's stride at any
        # eval_every it is derived from
        prepare(dataclasses.replace(build_config("run", {"iters": 5}), theta1=0.0))
        cfg = build_config("logistic", {"surrogate": "on", "n": 200, "iters": 20,
                                        "eval_every": 5})
        assert prepare(dataclasses.replace(cfg, stride=5)).cfg.stride == 5

    def test_logistic_test_split_needs_both_classes(self):
        # six rows split 5/1 leave one negative row to test on
        cfg = build_config("logistic", {"surrogate": "on", "n": 6,
                                        "agents": 2, "seed": 3, "iters": 20})
        with pytest.raises(ConfigError,
                           match="0 positive and 1 negative rows"):
            prepare(cfg)

    @pytest.mark.parametrize("frac", [0.999, 0.01])
    def test_a_split_that_starves_training_or_testing_is_refused(self, frac):
        # 200 rows split 0.999 leave none to test on; split 0.01, two rows
        # to train four agents
        cfg = build_config("logistic", {"surrogate": "on", "n": 200,
                                        "agents": 4, "split_frac": frac})
        with pytest.raises(ConfigError, match="split leaves too few rows"):
            prepare(cfg)

    @pytest.mark.parametrize("frac", [0.0, 1.0, float("nan")])
    def test_split_frac_must_lie_inside_the_unit_interval(self, frac):
        cfg = build_config("logistic", {"surrogate": "on", "n": 200,
                                        "split_frac": frac})
        with pytest.raises(ConfigError, match="split_frac must lie strictly"):
            prepare(cfg)


class TestRunExperiment:
    def test_a_logistic_trace_holds_only_the_records_it_scores(self):
        cfg = build_config("logistic", {"surrogate": "on", "n": 200,
                                        "dims": 10, "agents": 3, "iters": 45,
                                        "eval_every": 10})
        trace = run_experiment(cfg)
        assert trace.states.shape == (cfg.iters // cfg.eval_every + 1, 3, 10)
        np.testing.assert_array_equal(trace.ts, [0, 10, 20, 30, 40])

    def test_smoke_run_is_deterministic(self):
        cfg = build_config("run", {"agents": 3, "iters": 50, "stride": 5})
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.states.shape == (11, 3, 2)
        np.testing.assert_array_equal(a.states, b.states)

    def test_a_setup_of_another_config_is_refused(self):
        # a 5-agent, 30-step setup would give a run of 20 steps on 5 agents
        setup = prepare(build_config("run", {"agents": 5, "iters": 30}))
        cfg = build_config("run", {"agents": 5, "iters": 20})
        with pytest.raises(ValueError, match="another configuration"):
            run_experiment(cfg, setup)
        assert run_experiment(setup.cfg, setup).num_iters == 30

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
        return Trace(alphas=np.zeros(n_rec),
                     states=states, consensus=np.zeros((n_rec, m)),
                     record_dev=np.zeros((n_rec, m)),
                     worst_cum_dev=np.zeros(max(num_iters - 1, 0)),
                     max_pert=0.0, num_iters=num_iters, stride=stride)

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

    @staticmethod
    def one_shot_w2_series(trace, posterior):
        """The series from prefix sums over every record and fits of every
        full window at once."""
        x = np.pad(trace.states - posterior.mean, [(1, 0), (0, 0), (0, 0)])
        first = np.cumsum(x, axis=0)
        second = np.cumsum(x[..., :, None] * x[..., None, :], axis=0)
        lo = np.searchsorted(trace.ts, trace.ts / 2, side="right")
        hi = np.arange(1, len(lo) + 1)
        full = hi - lo > trace.dim
        lo, hi = lo[full], hi[full]
        n = (hi - lo)[:, None, None, None]
        s1 = first[hi] - first[lo]
        cov = (second[hi] - second[lo]
               - s1[..., :, None] * s1[..., None, :] / n) / (n - 1)
        cov += COV_RIDGE * np.eye(trace.dim)
        fit = GaussianDist(posterior.mean + s1 / n[..., 0], cov)
        w2 = np.full((2,) + trace.consensus.shape, np.nan)
        w2[:, full] = (w2_gaussian_paper(fit, posterior),
                       w2_gaussian_bures(posterior, fit))
        return w2

    def test_linreg_w2_series_holds_about_two_traces_beside_its_trace(self):
        # a 20,000-step linreg trace, synthetic so that nothing is sampled;
        # whole-array sums and fits held 5.3 times the trace's bytes
        rng = np.random.default_rng(3)
        n_rec, m, d = 20_001, 4, 2
        posterior = GaussianDist(np.array([1.0, -1.0]),
                                 np.array([[1.0, 0.3], [0.3, 0.5]]))
        trace = Trace(alphas=rng.random(n_rec),
                      states=posterior.mean + rng.standard_normal((n_rec, m, d)),
                      consensus=rng.random((n_rec, m)),
                      record_dev=rng.random((n_rec, m)),
                      worst_cum_dev=rng.random(n_rec - 2), max_pert=0.0,
                      num_iters=n_rec - 1, stride=1)
        trace_bytes = sum(a.nbytes for a in (
            trace.alphas, trace.states, trace.consensus, trace.record_dev,
            trace.worst_cum_dev))
        linreg_w2_series(trace, posterior)  # no first-call allocation counted
        tracemalloc.start()
        try:
            got = linreg_w2_series(trace, posterior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * trace_bytes
        assert np.stack(got).tobytes() == \
            self.one_shot_w2_series(trace, posterior).tobytes()

    def test_logistic_auc_series_picks_evaluation_points(self):
        cfg = build_config("logistic", {"dataset": "no/such/file",
                                        "surrogate": "on", "n": 200,
                                        "dims": 10, "agents": 3, "iters": 20,
                                        "eval_every": 10, "batch": 8})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"])
        np.testing.assert_array_equal(eval_ts, [10, 20])
        assert aucs.shape == (2, 3)
        assert np.all((0.0 <= aucs) & (aucs <= 1.0))

    def test_logistic_auc_series_equals_the_per_state_loop(self,
                                                             monkeypatch):
        cfg = build_config("logistic", {"surrogate": "on", "n": 600,
                                        "dims": 12, "agents": 3, "iters": 40,
                                        "eval_every": 12, "batch": 8})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        test = setup.extras["test"]
        # chunks of 5 states: 3 evaluations (t=12, 24, 36) times 3 agents
        # leave a ragged last chunk of 4
        monkeypatch.setattr(cli_module, "_AUC_CHUNK_BYTES", 5 * 8 * test.n)
        eval_ts, aucs = logistic_auc_series(trace, test)
        want_ts, want = reference_auc_series(trace, test)
        np.testing.assert_array_equal(eval_ts, [12, 24, 36])
        np.testing.assert_array_equal(eval_ts, want_ts)
        assert aucs.tobytes() == want.tobytes()

    def test_logistic_auc_series_scores_in_bounded_memory(self):
        # 100 evaluations of 4 agents on a 6512-row test set: all 400
        # states' scores at once would take 20.8 MB, and as much again to
        # split them by class
        rng = np.random.default_rng(0)
        n_rec, m, d = 101, 4, 123
        trace = Trace(alphas=np.zeros(n_rec),
                      states=rng.standard_normal((n_rec, m, d)),
                      consensus=np.zeros((n_rec, m)),
                      record_dev=np.zeros((n_rec, m)),
                      worst_cum_dev=np.zeros(999), max_pert=0.0,
                      num_iters=1000, stride=10)
        test = Dataset((rng.random((6512, d)) < 0.1).astype(float),
                       np.where(rng.random(6512) < 0.25, 1.0, -1.0))
        tracemalloc.start()
        try:
            eval_ts, aucs = logistic_auc_series(trace, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aucs.shape == (100, 4)
        assert peak < 10e6

    def test_logistic_auc_series_holds_no_float_copy_of_a_byte_split(self):
        # the 6512 x 123 uint8 test split is cast in row tiles, straight
        # into each chunk's scores: a float copy of it alone is 6.4 MB
        rng = np.random.default_rng(0)
        n_rec, m, d = 101, 4, 123
        trace = Trace(alphas=np.zeros(n_rec),
                      states=rng.standard_normal((n_rec, m, d)),
                      consensus=np.zeros((n_rec, m)),
                      record_dev=np.zeros((n_rec, m)),
                      worst_cum_dev=np.zeros(999), max_pert=0.0,
                      num_iters=1000, stride=10)
        test = Dataset((rng.random((6512, d)) < 0.1).astype(np.uint8),
                       np.where(rng.random(6512) < 0.25, 1.0, -1.0))
        tracemalloc.start()
        try:
            eval_ts, aucs = logistic_auc_series(trace, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aucs.shape == (100, 4)
        assert peak < 6512 * d * 8
        want_ts, want = reference_auc_series(trace, test)
        np.testing.assert_array_equal(eval_ts, want_ts)
        assert aucs.tobytes() == want.tobytes()

    @staticmethod
    def random_trace(rng, n_rec, m, d, stride):
        """A trace of standard normal states; only its states and times
        matter to the AUC series."""
        return Trace(alphas=np.zeros(n_rec),
                     states=rng.standard_normal((n_rec, m, d)),
                     consensus=np.zeros((n_rec, m)),
                     record_dev=np.zeros((n_rec, m)),
                     worst_cum_dev=np.zeros(stride * (n_rec - 1) - 1),
                     max_pert=0.0, num_iters=stride * (n_rec - 1),
                     stride=stride)

    def test_logistic_auc_series_holds_one_score_buffer(self):
        # the 40-state chunk's 2.08 MB of scores is the only copy: split by
        # class beside it, as roc_auc splits them, the stage peaked at 4.9 MB
        rng = np.random.default_rng(0)
        d = 123
        trace = self.random_trace(rng, 101, 4, d, 10)
        test = Dataset((rng.random((6512, d)) < 0.1).astype(np.uint8),
                       np.where(rng.random(6512) < 0.25, 1.0, -1.0))
        tracemalloc.start()
        try:
            eval_ts, aucs = logistic_auc_series(trace, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aucs.shape == (100, 4)
        assert peak < 3.0e6

    def test_a_small_split_holds_no_tile_buffer_beyond_its_rows(self):
        # 400 states on a 50-row split: a product buffer as wide as a full
        # tile, 5461 rows at d = 6, would take 17.5 MB for 0.16 MB of scores
        rng = np.random.default_rng(3)
        trace = self.random_trace(rng, 101, 4, 6, 10)
        test = Dataset((rng.random((50, 6)) < 0.5).astype(np.uint8),
                       np.where(np.arange(50) % 2, 1.0, -1.0))
        tracemalloc.start()
        try:
            eval_ts, aucs = logistic_auc_series(trace, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aucs.shape == (100, 4)
        assert peak < 1e6

    def test_logistic_auc_series_counts_ties_across_classes(self,
                                                            monkeypatch):
        # 3 byte features give at most 8 distinct scores per state, so
        # nearly every score ties with scores of the other class; the labels
        # interleave, and the chunks of 5 states and the tiles of 7 rows
        # end ragged
        rng = np.random.default_rng(1)
        base = (rng.random((8, 3)) < 0.5).astype(np.uint8)
        feats = base[rng.integers(0, 8, size=97)]
        labels = np.where(np.arange(97) % 3 == 1, 1.0, -1.0)
        test = Dataset(feats, labels)
        trace = self.random_trace(rng, 4, 3, 3, 4)
        monkeypatch.setattr(cli_module, "_AUC_CHUNK_BYTES", 5 * 8 * test.n)
        monkeypatch.setattr(cli_module, "_AUC_TILE_BYTES", 7 * 8 * test.dim)
        eval_ts, aucs = logistic_auc_series(trace, test)
        want_ts, want = reference_auc_series(trace, test)
        np.testing.assert_array_equal(eval_ts, [4, 8, 12])
        np.testing.assert_array_equal(eval_ts, want_ts)
        assert aucs.tobytes() == want.tobytes()
        scores = feats.astype(float) @ trace.states[2, 0]
        assert np.isin(scores[labels == 1.0], scores[labels == -1.0]).all()

    def test_a_nan_state_scores_nan_for_its_agent_and_evaluation_only(
            self, monkeypatch):
        rng = np.random.default_rng(2)
        trace = self.random_trace(rng, 6, 3, 6, 2)
        trace.states[2, 1, 2] = np.nan
        test = Dataset((rng.random((50, 6)) < 0.5).astype(np.uint8),
                       np.where(rng.random(50) < 0.4, 1.0, -1.0))
        # chunks of 4 states, so the NaN shares its chunk with finite ones
        monkeypatch.setattr(cli_module, "_AUC_CHUNK_BYTES", 4 * 8 * test.n)
        eval_ts, aucs = logistic_auc_series(trace, test)
        np.testing.assert_array_equal(eval_ts, [2, 4, 6, 8, 10])
        assert np.argwhere(np.isnan(aucs)).tolist() == [[1, 1]]
        want_ts, want = reference_auc_series(trace, test)
        assert aucs.tobytes() == want.tobytes()


class TestRows:
    """The output stage holds a byte-sized chunk of records at a time."""

    @settings(max_examples=40, deadline=None)
    @given(n_rec=st.integers(2, 80), chunk=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_the_occupancy_counts_every_record_once(self, n_rec, chunk, seed):
        # chunks of a few records, so that a record lost or counted twice
        # at a boundary moves the two-decimal summary
        m = 3
        rng = np.random.default_rng(seed)
        cfg = build_config("mixture")
        modes = np.array([[cfg.theta1, cfg.theta2],
                          [cfg.theta1 + cfg.theta2, -cfg.theta2],
                          [5.0, 5.0]])
        states = modes[rng.integers(0, 3, (n_rec, m))] + \
            rng.uniform(-0.3, 0.3, (n_rec, m, 2))
        trace = Trace(alphas=np.zeros(n_rec), states=states,
                      consensus=np.zeros((n_rec, m)),
                      record_dev=np.zeros((n_rec, m)),
                      worst_cum_dev=np.zeros(n_rec - 2), max_pert=0.0,
                      num_iters=n_rec - 1, stride=1)
        post = states[n_rec // 5:]
        want = [np.mean(np.linalg.norm(post - mode, axis=2) < 0.5)
                for mode in modes[:2]]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli_module, "_CHUNK_BYTES", chunk * m * 2 * 8)
            _, _, summary = cli_module._mixture_table(
                trace, types.SimpleNamespace(cfg=cfg), None)
        assert summary == (f"post-burn-in occupancy near the two modes "
                           f"{want[0]:.2f} / {want[1]:.2f}")

    def test_a_long_mixture_run_peaks_near_its_trace_bytes(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        # the whole table stacked at once, and the occupancy's norms over
        # every post-burn-in record, took 2.1 times the trace's bytes
        traces = []

        def keep(cfg, setup=None):
            traces.append(run_experiment(cfg, setup))
            return traces[-1]

        monkeypatch.setattr(cli_module, "run_experiment", keep)
        flags = ["mixture", "--monitors", "on", "--out", str(tmp_path / "o.csv")]
        # a short run first, so that no first-call allocation is counted
        assert main(flags + ["--iters", "10"]) == 0
        traces.clear()
        tracemalloc.start()
        try:
            assert main(flags + ["--iters", "20000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        trace, = traces
        # the mixture's table reads no deviations, so its run keeps none
        assert trace.record_dev is None
        trace_bytes = sum(a.nbytes for a in (
            trace.alphas, trace.states, trace.consensus, trace.worst_cum_dev))
        assert trace_bytes > 2.2e6
        assert peak < 1.25 * trace_bytes


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
        assert main(["run", "--agents", "0"]) == 2
        assert "agents must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", sorted(READS))
    def test_a_flag_only_another_subcommand_reads_exits_through_argparse(
            self, experiment, tmp_path, capsys, no_draws):
        # run --batch among them: run's Gaussian target holds no data
        out = tmp_path / "f.csv"
        others = {key for keys in OWN.values() for key in keys.split()}
        for key in sorted(others - set(READS[experiment])):
            with pytest.raises(SystemExit) as exc:
                main([experiment, f"--{key}", "1", "--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--model_d", "3"], ["linreg", "--iter", "5"],
        ["mixture", "--sigma_sq", "1"], ["logistic", "--stride", "5"]])
    def test_a_prefix_or_a_retired_flag_exits_through_argparse(
            self, argv, tmp_path, capsys, no_draws):
        out = tmp_path / "p.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key", [
        ("linreg", "theta1"), ("mixture", "eval_every"),
        ("logistic", "model_kappa"), ("logistic", "stride"), ("run", "dims")])
    def test_a_config_key_the_subcommand_does_not_read_exits_with_two(
            self, experiment, key, tmp_path, capsys, no_draws):
        config, out = tmp_path / "c.json", tmp_path / "k.csv"
        config.write_text(json.dumps({key: 5}))
        code = main([experiment, "--config", str(config), "--out", str(out)])
        assert code == 2
        assert (f"{experiment} does not read config key '{key}'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("experiment", sorted(READS))
    def test_help_lists_exactly_the_fields_the_subcommand_reads(
            self, experiment):
        src = str(Path(declangevin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "declangevin", experiment, "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        listed = re.findall(r"^  --(\w+)", done.stdout, flags=re.MULTILINE)
        assert listed == ["config", *READS[experiment]]
        assert len(listed) - 1 == {"linreg": 20, "mixture": 22,
                                   "logistic": 22, "run": 17}[experiment]

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

    def test_eval_every_beyond_iters_exits_before_any_draw(
            self, tmp_path, capsys, no_draws):
        out = tmp_path / "e.csv"
        code = main(["logistic", "--surrogate", "on", "--eval_every", "30",
                     "--iters", "20", "--out", str(out)])
        assert code == 2
        assert "eval_every=30 exceeds iters=20" in capsys.readouterr().err
        assert not out.exists()

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
        (["run", "--schedule", "harmonic", "--alpha0", "0.1", "--sched_offset",
          "5", "--sched_p", "0.5"],
         "harmonic schedules do not read sched_offset or sched_p"),
        (["run", "--alpha0", "0.1", "--sched_offset", "5"],
         "harmonic schedules do not read sched_offset"),
        (["run", "--sched_p", "0.5"], "harmonic schedules do not read sched_p"),
        (["linreg", "--alpha0", "0.3"],
         "endpoint-solved schedules do not read alpha0"),
        (["mixture", "--sched_offset", "5"],
         "endpoint-solved schedules do not read sched_offset"),
        (["run", "--schedule", "power"], "alpha0 is required"),
        (["run", "--schedule", "cosine", "--alpha0", "0.1"],
         "unknown schedule kind 'cosine'"),
        (["run", "--schedule", "power", "--alpha_start", "inf", "--alpha_end", "0.1"],
         "alpha_start must be finite, got inf"),
        (["mixture", "--alpha_start", "1e308", "--alpha_end", "1e-308"],
         "alpha_start=1e+308 and alpha_end=1e-308 are too far apart"),
        (["mixture", "--sched_p", "0.001"],
         "too far apart for exponent 0.001")])
    def test_a_field_the_run_would_ignore_exits_before_any_draw(
            self, argv, message, tmp_path, capsys, no_draws):
        code = main([*argv, "--iters", "10", "--out", str(tmp_path / "i.csv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "i.csv").exists()

    def test_run_without_monitors_writes_no_bound_columns(self, tmp_path,
                                                          capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"run: wrote {out}\n"
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("# ")]
        assert len(rows) == 1 + 1001
        assert rows[0][-5:] == ["consensus_error_agent_3"] + [
            f"z_dev_agent_{i}" for i in range(4)]
        # no step has carried the network into iteration 0
        assert rows[1][-4:] == ["nan"] * 4
        assert "nan" not in rows[2]

    def test_more_agents_than_rows_exit_with_two(self, tmp_path, capsys):
        code = main(["linreg", "--agents", "900", "--out",
                     str(tmp_path / "a.csv")])
        assert code == 2
        assert "cannot split 800 rows into 900 shards" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_an_unusable_out_exits_with_two_before_any_draw(
            self, where, tmp_path, capsys, no_draws):
        out = tmp_path if where == "directory" else tmp_path / "no" / "x.csv"
        assert main(["mixture", "--out", str(out)]) == 2
        assert repr(str(out)) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

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
         "dims must be at least 1"),
        (["linreg", "--true_w", "nan,1.0"], "true_w must be finite"),
        (["linreg", "--true_w", "1.0,-inf"], "true_w must be finite"),
        (["linreg", "--data_sigma", "inf"], "data_sigma must be finite"),
        (["mixture", "--theta1", "nan"], "theta1 must be finite"),
        (["mixture", "--theta2", "inf"], "theta2 must be finite"),
        (["mixture", "--sigma_x_sq", "inf"], "sigma_x_sq must be finite"),
        (["mixture", "--prior_var1", "inf"], "prior_var1 must be finite"),
        (["mixture", "--prior_var2", "inf"], "prior_var2 must be finite"),
        (["run", "--model_kappa", "inf"], "model_kappa must be finite")])
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

    @pytest.mark.parametrize("module", ["declangevin", "declangevin.cli"])
    def test_each_module_entry_point_exits_with_main_s_code(self, module, tmp_path):
        # the package's __main__ and the cli module's own __main__ line
        src = str(Path(declangevin.__file__).parents[1])
        for flags, code in ((["--iters", "5"], 0), (["--agents", "0"], 2)):
            out = tmp_path / f"{code}.csv"
            done = subprocess.run(
                [sys.executable, "-m", module, "run", *flags, "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                text=True, timeout=120)
            assert done.returncode == code, done.stderr
            assert out.exists() == (code == 0)
        assert "agents must be at least 1" in done.stderr

    def test_importing_the_cli_loads_no_test_or_scipy_modules(self):
        # numpy is the only runtime dependency
        src = str(Path(declangevin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys, declangevin.cli; print(sorted("
             "{'scipy', 'hypothesis', 'pytest'} & {n.split('.')[0] for n in "
             "sys.modules}))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_importing_the_cli_loads_no_thread_pool(self):
        # only run_gaussian_ensemble uses one, and it imports it itself
        src = str(Path(declangevin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-c", "import sys, declangevin.cli; print(sorted("
             "{'concurrent.futures', 'logging'} & set(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_divergence_exits_with_one(self, tmp_path, capsys):
        # the state overflows before the finiteness check trips; the file
        # is opened only once a table is ready, so an old one is kept
        out = tmp_path / "d.csv"
        out.write_bytes(b"an earlier result\r\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["linreg", "--n", "60", "--alpha_start", "1000",
                         "--alpha_end", "500", "--out", str(out)])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier result\r\n"


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

    @pytest.mark.parametrize("monitors", ["on", "off"])
    @pytest.mark.parametrize("command", sorted(SMOKE))
    def test_each_table_reads_only_what_its_command_records(self, command,
                                                            monitors, tmp_path):
        # only run's table reads the recorded deviations, so only its trace
        # keeps them: any other table that read them would find None
        flags = self.SMOKE[command]
        cfg = build_config(command, dict(zip((f[2:] for f in flags[::2]), flags[1::2])),
                           {"monitors": monitors})
        setup = prepare(cfg)
        trace = run_experiment(cfg, setup)
        assert (trace.record_dev is not None) == (command == "run")
        report = cli_module._monitor_metadata(trace, setup) if monitors == "on" else None
        header, table, _ = cli_module._EXPERIMENTS[command][2](trace, setup, report)
        out = tmp_path / "o.csv"
        cli_module.write_csv(out, setup.metadata, header, *table)
        if command == "run":
            lines = [line for line in out.read_text().splitlines()
                     if not line.startswith("#")]
            cols = [i for i, name in enumerate(lines[0].split(","))
                    if name.startswith("z_dev")]
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            np.testing.assert_array_equal(rows[:, cols], trace.record_dev)

    @pytest.mark.parametrize("experiment", sorted(SMOKE))
    def test_the_header_echoes_its_own_fields_and_no_others(
            self, experiment, tmp_path, capsys):
        out = tmp_path / f"{experiment}.csv"
        assert main([experiment, *self.SMOKE[experiment], "--out",
                     str(out)]) == 0
        capsys.readouterr()
        data = out.read_text()
        meta = {line[2:].split("=", 1)[0] for line in data.splitlines()
                if line.startswith("# ")}
        own = set(OWN[experiment].split())
        others = {key for keys in OWN.values() for key in keys.split()}
        if experiment == "logistic":
            # its stride is derived from eval_every and echoed like n
            own.add("stride")
        assert own <= meta
        assert not (others - own) & meta
        assert "sigma_sq" not in data

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


class TestPreparedGraphs:
    """Every sequence the CLI builds is connected by construction, and a
    run generates each of its window blocks once."""

    def test_a_run_generates_each_block_once(self, tmp_path, capsys,
                                             monkeypatch):
        made = []
        generate = graphs_module._random_windows

        def counting(m, b, seed, k, count):
            made.append(k)
            return generate(m, b, seed, k, count)

        monkeypatch.setattr(graphs_module, "_random_windows", counting)
        # 1000 steps at window length 1 are four blocks of 256 steps
        assert main(["mixture", "--iters", "1000", "--n", "60", "--monitors",
                     "on", "--out", str(tmp_path / "g.csv")]) == 0
        assert made == [0, 1, 2, 3]
        capsys.readouterr()

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["seeded-random", "static"]),
           agents=st.integers(1, 12), graph_b=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), iters=st.integers(1, 600))
    def test_every_prepared_sequence_is_b_strongly_connected(
            self, kind, agents, graph_b, seed, iters):
        setup = prepare(build_config("run", {
            "graph_kind": kind, "agents": agents, "graph_b": graph_b,
            "seed": seed, "iters": iters}))
        assert reference_b_connected(setup.seq, max(iters, graph_b), graph_b)
