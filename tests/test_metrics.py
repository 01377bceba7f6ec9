"""Gaussian distances, AUC, and the deviation-bound monitors."""

import numpy as np
import pytest
from scipy.stats import norm

from declangevin import (GaussianDist, GaussianPotential, NoiseModel,
                         StepSchedule, Trace, check_lemma4_bound,
                         empirical_gaussian, estimate_delta_lambda,
                         generate_graph_sequence, rate_fit, roc_auc, run,
                         spectral_bounds, w2_gaussian_bures,
                         w2_gaussian_paper, z_deviation_bound_series)
from declangevin.graphs import DirectedGraph


def random_spd(rng, d):
    r = rng.standard_normal((d, d))
    return r @ r.T + 0.1 * np.eye(d)


def make_trace(x0, z_dev, pert_norms):
    """Minimal consistent trace around given per-step series, stride 1."""
    num_iters, m = z_dev.shape
    d = x0.shape[1]
    states = np.zeros((num_iters + 1, m, d))
    states[0] = x0
    return Trace(ts=np.arange(num_iters + 1),
                 alphas=np.zeros(num_iters + 1),
                 states=states,
                 consensus=np.zeros((num_iters + 1, m)),
                 z_dev=z_dev, pert_norms=pert_norms,
                 num_iters=num_iters, stride=1)


class TestW2Gaussian:
    def test_diagonal_closed_forms(self):
        g1 = GaussianDist(np.array([1.0, 2.0]), np.diag([4.0, 9.0]))
        g2 = GaussianDist(np.array([-1.0, 0.0]), np.eye(2))
        # means differ by (2, 2); root covariances by diag(1, 2)
        assert w2_gaussian_paper(g1, g2) == pytest.approx(
            2.0 * np.sqrt(2.0) + np.sqrt(5.0), abs=1e-12)
        assert w2_gaussian_bures(g1, g2) == pytest.approx(
            np.sqrt(13.0), abs=1e-12)

    def test_equal_covariances_reduce_to_mean_distance(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.5]])
        g1 = GaussianDist(np.array([0.0, 0.0]), cov)
        g2 = GaussianDist(np.array([3.0, -4.0]), cov)
        assert w2_gaussian_paper(g1, g2) == pytest.approx(5.0, abs=1e-7)
        assert w2_gaussian_bures(g1, g2) == pytest.approx(5.0, abs=1e-7)

    def test_paper_form_upper_bounds_the_exact_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(1, 5)
            g1 = GaussianDist(rng.standard_normal(d), random_spd(rng, d))
            g2 = GaussianDist(rng.standard_normal(d), random_spd(rng, d))
            assert w2_gaussian_paper(g1, g2) + 1e-9 \
                >= w2_gaussian_bures(g1, g2)

    def test_exact_distance_is_symmetric(self):
        rng = np.random.default_rng(1)
        g1 = GaussianDist(rng.standard_normal(3), random_spd(rng, 3))
        g2 = GaussianDist(rng.standard_normal(3), random_spd(rng, 3))
        assert w2_gaussian_bures(g1, g2) == pytest.approx(
            w2_gaussian_bures(g2, g1), abs=1e-8)

    def test_one_dimensional_case_against_quantile_integration(self):
        g1 = GaussianDist(0.5, 4.0)
        g2 = GaussianDist(-1.0, 0.25)
        u = (np.arange(200001) + 0.5) / 200001
        mc = np.sqrt(np.mean(
            (norm.ppf(u, 0.5, 2.0) - norm.ppf(u, -1.0, 0.5)) ** 2))
        assert w2_gaussian_bures(g1, g2) == pytest.approx(mc, abs=1e-3)
        # with distinct means the additive form stays a strict upper bound
        assert w2_gaussian_paper(g1, g2) == pytest.approx(3.0, abs=1e-12)

    def test_identical_near_singular_covariances_give_zero(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-12 * np.eye(2)
        g = GaussianDist(np.zeros(2), cov)
        assert w2_gaussian_bures(g, g) == pytest.approx(0.0, abs=1e-5)
        assert w2_gaussian_paper(g, g) == pytest.approx(0.0, abs=1e-5)

    def test_dimension_mismatch(self):
        g1 = GaussianDist(np.zeros(2), np.eye(2))
        g2 = GaussianDist(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            w2_gaussian_paper(g1, g2)
        with pytest.raises(ValueError):
            w2_gaussian_bures(g1, g2)


class TestEmpiricalGaussian:
    def test_matches_numpy_moments_plus_ridge(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((50, 3))
        fit = empirical_gaussian(samples)
        np.testing.assert_array_equal(fit.mean, samples.mean(axis=0))
        np.testing.assert_array_equal(
            fit.cov,
            np.cov(samples, rowvar=False, ddof=1) + 1e-9 * np.eye(3))

    def test_one_dimensional_samples_are_promoted(self):
        samples = np.array([0.0, 1.0, 2.0, 3.0])
        fit = empirical_gaussian(samples)
        assert fit.dim == 1
        assert fit.cov[0, 0] == pytest.approx(np.var(samples, ddof=1),
                                              abs=1e-8)

    def test_constant_cloud_is_still_valid(self):
        fit = empirical_gaussian(np.ones((5, 2)))
        np.testing.assert_array_equal(fit.cov, 1e-9 * np.eye(2))

    def test_needs_dim_plus_one_samples(self):
        with pytest.raises(ValueError):
            empirical_gaussian(np.zeros((3, 3)))


class TestRocAuc:
    @staticmethod
    def pairwise_oracle(scores, labels):
        pos = scores[labels == 1.0]
        neg = scores[labels == -1.0]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        return wins / (len(pos) * len(neg))

    def test_matches_pairwise_count_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            scores = rng.integers(0, 6, size=n).astype(float)
            labels = np.where(rng.random(n) < 0.4, 1.0, -1.0)
            if not ((labels == 1.0).any() and (labels == -1.0).any()):
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                self.pairwise_oracle(scores, labels), abs=1e-12)

    def test_extreme_cases(self):
        labels = np.array([-1.0, -1.0, 1.0, 1.0])
        assert roc_auc(np.array([0.0, 1.0, 2.0, 3.0]), labels) == 1.0
        assert roc_auc(np.array([3.0, 2.0, 1.0, 0.0]), labels) == 0.0
        assert roc_auc(np.zeros(4), labels) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            roc_auc(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            roc_auc(np.zeros(3), np.array([1.0, -1.0, 0.0]))


class TestCumulativeBound:
    def test_tame_run_respects_the_default_bound(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 2))
        z_dev = np.full((40, 3), 0.01)
        pert = np.full((40, 3), 0.05)
        report = check_lemma4_bound(make_trace(x0, z_dev, pert))
        assert not report.violated
        assert 0.0 < report.max_ratio < 1.0
        np.testing.assert_array_equal(report.taus, np.arange(1, 40))
        assert report.lhs.shape == report.bound.shape == (39,)
        assert np.all(np.diff(report.bound) > 0)

    def test_cumulative_sum_skips_the_initial_step(self):
        x0 = np.zeros((2, 1))
        z_dev = np.zeros((5, 2))
        z_dev[0] = 100.0
        z_dev[1:] = 0.25
        pert = np.full((5, 2), 1.0)
        report = check_lemma4_bound(make_trace(x0, z_dev, pert))
        # row 0 never enters: worst prefix sums are 0.25, 0.5, ...
        np.testing.assert_allclose(report.lhs, 0.25 * np.arange(1, 5),
                                   atol=1e-12)

    def test_explicit_constants_are_echoed_and_enforced(self):
        x0 = np.zeros((2, 1))
        z_dev = np.full((30, 2), 0.1)
        pert = np.zeros((30, 2))
        report = check_lemma4_bound(make_trace(x0, z_dev, pert),
                                    delta=8.0, lam=0.0, d_hat=1e-6)
        assert report.violated
        assert report.max_ratio > 1.0
        assert (report.delta, report.lam, report.d_hat) == (8.0, 0.0, 1e-6)

    def test_default_constants_come_from_the_network_size(self):
        x0 = np.zeros((3, 1))
        trace = make_trace(x0, np.full((25, 3), 0.01),
                           np.full((25, 3), 0.7))
        report = check_lemma4_bound(trace, window_len=2)
        sb = spectral_bounds(3, 2)
        assert report.delta == sb.delta_lower
        assert report.lam == sb.lambda_upper
        assert report.d_hat == 0.7

    def test_default_constants_work_where_lambda_rounds_to_one(self):
        trace = make_trace(np.ones((16, 1)), np.full((20, 16), 0.01),
                           np.full((20, 16), 0.1))
        report = check_lemma4_bound(trace)
        assert report.lam == 1.0
        assert np.all(np.isfinite(report.bound)) and np.all(report.bound > 0)
        assert not report.violated

    def test_default_bound_at_a_hundred_agents_is_never_nan(self):
        # delta = 1e-200 and gap ~ 1e-202 overflow (8/delta)(lam/gap); with
        # x0 = 0 that term read inf * 0 = NaN, and no comparison flags a NaN
        m = 100
        seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
        trace = run(seq, StepSchedule("harmonic", alpha0=0.5),
                    GaussianPotential(np.zeros(2), np.eye(2), m),
                    NoiseModel(0, m), num_iters=30)
        report = check_lemma4_bound(trace)
        assert report.delta == 1e-200
        assert not np.isnan(report.bound).any()
        assert np.all(report.bound == np.inf)
        # the ratios lie near exp(-900), below the smallest double
        assert report.max_ratio == 0.0
        assert not report.violated

    def test_bound_at_a_hundred_agents_can_still_be_violated(self):
        # no initial mass and no perturbation make the bound exactly zero,
        # so any deviation at all exceeds it
        trace = make_trace(np.zeros((100, 1)), np.full((20, 100), 0.01),
                           np.zeros((20, 100)))
        report = check_lemma4_bound(trace)
        np.testing.assert_array_equal(report.bound, 0.0)
        assert report.violated
        assert report.max_ratio == np.inf

    def test_constant_validation(self):
        trace = make_trace(np.zeros((2, 1)), np.zeros((5, 2)),
                           np.zeros((5, 2)))
        with pytest.raises(ValueError):
            check_lemma4_bound(trace, delta=0.0, lam=0.5)
        with pytest.raises(ValueError):
            check_lemma4_bound(trace, delta=0.5, lam=1.0)


class TestDeviationSeries:
    def test_recursion_matches_the_explicit_double_sum(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 2))
        z_dev = rng.random((30, 3))
        pert = rng.random((30, 3))
        trace = make_trace(x0, z_dev, pert)
        lhs, bound = z_deviation_bound_series(trace, delta=0.2, lam=0.6)
        np.testing.assert_array_equal(lhs, z_dev.max(axis=1))
        x0_l1 = np.abs(x0).sum()
        pert_sums = pert.sum(axis=1)
        expected = [(8.0 / 0.2) * (0.6 ** (t + 1) * x0_l1
                                   + sum(0.6 ** (t - s) * pert_sums[s]
                                         for s in range(t + 1)))
                    for t in range(30)]
        np.testing.assert_allclose(bound, expected, rtol=1e-10)


class TestRateFit:
    def test_recovers_an_exact_power_law(self):
        ts = np.arange(100)
        w2 = 3.0 * (1.0 + ts) ** -0.7
        assert rate_fit(w2, ts) == pytest.approx(-0.7, abs=1e-10)

    def test_only_the_trailing_half_matters(self):
        ts = np.arange(100).astype(float)
        w2 = 3.0 * (1.0 + ts) ** -0.7
        w2[:50] = 17.0
        assert rate_fit(w2, ts) == pytest.approx(-0.7, abs=1e-10)

    def test_validation(self):
        ts = np.arange(19)
        with pytest.raises(ValueError):
            rate_fit(np.ones(19), ts)
        with pytest.raises(ValueError):
            rate_fit(np.zeros(30), np.arange(30))
        with pytest.raises(ValueError):
            rate_fit(np.ones(30), np.arange(29))


class TestEmpiricalMixingConstants:
    def test_static_complete_graph_is_exact(self):
        edges = frozenset((i, j) for i in range(3) for j in range(3)
                          if i != j)
        g = DirectedGraph(3, edges)
        seq = generate_graph_sequence("static", 3, graphs=[g])
        delta_emp, lambda_emp = estimate_delta_lambda(seq, horizon=10)
        # every product equals the rank-one matrix with entries 1/3; the
        # per-step root turns an O(1e-16) singular value into O(1e-6)
        assert delta_emp == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert lambda_emp == pytest.approx(0.0, abs=1e-5)

    def test_random_sequences_beat_the_worst_case_constants(self):
        seq = generate_graph_sequence("seeded-random", 4, 2, seed=6)
        delta_emp, lambda_emp = estimate_delta_lambda(seq, horizon=32)
        sb = spectral_bounds(4, 2)
        assert delta_emp >= sb.delta_lower
        assert 0.0 <= lambda_emp < 1.0

    def test_horizon_must_cover_one_product_span(self):
        seq = generate_graph_sequence("seeded-random", 4, 2, seed=6)
        with pytest.raises(ValueError):
            estimate_delta_lambda(seq, horizon=7)
