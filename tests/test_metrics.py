"""Gaussian distances, AUC, and the deviation-bound monitors."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import norm, rankdata

import declangevin
from declangevin import (GaussianDist, GaussianPotential, NoiseModel,
                         StepSchedule, Trace, check_lemma4_bound,
                         empirical_gaussian, generate_graph_sequence,
                         rate_fit, roc_auc, run, spectral_bounds,
                         w2_gaussian_bures, w2_gaussian_paper)
from declangevin.trace import _CHUNK_BYTES


def random_spd(rng, d):
    r = rng.standard_normal((d, d))
    return r @ r.T + 0.1 * np.eye(d)


def make_trace(x0, worst_cum_dev, max_pert):
    """Minimal consistent trace around given monitor inputs, stride 1."""
    m, d = x0.shape
    num_iters = len(worst_cum_dev) + 1
    states = np.zeros((num_iters + 1, m, d))
    states[0] = x0
    return Trace(alphas=np.zeros(num_iters + 1),
                 states=states,
                 consensus=np.zeros((num_iters + 1, m)),
                 record_dev=np.zeros((num_iters + 1, m)),
                 worst_cum_dev=worst_cum_dev, max_pert=max_pert,
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

    def test_stacks_equal_per_pair_calls(self):
        rng = np.random.default_rng(3)
        lead, d = (3, 4), 3
        means = rng.standard_normal(lead + (d,))
        covs = np.array([random_spd(rng, d) for _ in range(12)])
        stack = GaussianDist(means, covs.reshape(lead + (d, d)))
        other = GaussianDist(rng.standard_normal(d), random_spd(rng, d))
        pairs = [(GaussianDist(mu, c), other)
                 for mu, c in zip(means.reshape(-1, d), covs)]
        for w2 in (w2_gaussian_paper, w2_gaussian_bures):
            assert type(w2(*pairs[0])) is float
            want = np.array([w2(a, b) for a, b in pairs]).reshape(lead)
            got = w2(stack, other)
            assert got.shape == lead
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            # either side may be the stack, and stacks broadcast together
            np.testing.assert_allclose(w2(other, stack),
                                       [[w2(b, a) for a, b in pairs[r:r + 4]]
                                        for r in (0, 4, 8)],
                                       rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(w2(stack, stack), 0.0, atol=1e-6)

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

    def test_stacked_clouds_equal_per_cloud_fits(self):
        rng = np.random.default_rng(4)
        clouds = rng.standard_normal((2, 3, 20, 4)) + rng.standard_normal(4)
        fit = empirical_gaussian(clouds)
        assert fit.mean.shape == (2, 3, 4) and fit.cov.shape == (2, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            one = empirical_gaussian(clouds[idx])
            np.testing.assert_array_equal(fit.mean[idx], one.mean)
            np.testing.assert_array_equal(fit.cov[idx], one.cov)

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

    def test_rows_with_many_ties_match_an_exact_pair_count(self):
        # few distinct values, so most positives tie with some negative;
        # twice U counts a win as 2 and a tie as 1, exactly, in integers
        rng = np.random.default_rng(17)
        labels = np.where(rng.random(301) < 0.3, 1.0, -1.0)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf])
        scores = rng.choice(pool, size=(40, 301))
        scores[::7] = 0.0
        # every positive above every negative, then below
        scores[3] = np.where(labels == 1.0, 5.0, 1.0)
        scores[4] = -scores[3]
        pos, neg = scores[:, labels == 1.0], scores[:, labels == -1.0]
        twice_u = (2 * (pos[:, :, None] > neg[:, None, :])
                   + (pos[:, :, None] == neg[:, None, :])).sum(axis=(1, 2))
        want = twice_u / 2 / (pos.shape[1] * neg.shape[1])
        assert want[3] == 1.0 and want[4] == 0.0 and want[0] == 0.5
        np.testing.assert_array_equal(roc_auc(scores, labels), want)

    def test_extreme_cases(self):
        labels = np.array([-1.0, -1.0, 1.0, 1.0])
        assert roc_auc(np.array([0.0, 1.0, 2.0, 3.0]), labels) == 1.0
        assert roc_auc(np.array([3.0, 2.0, 1.0, 0.0]), labels) == 0.0
        assert roc_auc(np.zeros(4), labels) == 0.5

    def test_equals_the_scipy_rank_sum_bitwise(self):
        def rank_sum(scores, labels):
            # the rank-sum formula on scipy's ranks, as roc_auc once
            # computed it
            pos = labels == 1.0
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            u = rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0
            return float(u / (n_pos * n_neg))

        rng = np.random.default_rng(5)
        cases = [(np.array([0.0, -0.0, 1.0, -0.0]),
                  np.array([1.0, -1.0, -1.0, 1.0])),
                 (np.array([np.inf, -np.inf, 3.0, np.inf, -np.inf]),
                  np.array([1.0, -1.0, 1.0, -1.0, -1.0])),
                 (np.array([1.0, np.nan, 0.0]), np.array([1.0, -1.0, -1.0])),
                 (np.full(3, np.nan), np.array([-1.0, 1.0, 1.0])),
                 (np.array([2.5, 1.0]), np.array([1.0, -1.0]))]
        for k in range(300):
            n = int(rng.integers(2, 120))
            scores = [rng.standard_normal(n),
                      rng.integers(0, 4, size=n).astype(float),
                      rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], size=n)][k % 3]
            if k % 5 == 0:
                # a single positive, or a single negative
                labels = np.full(n, 1.0 if k % 2 else -1.0)
                labels[int(rng.integers(n))] *= -1.0
            else:
                labels = np.where(rng.random(n) < rng.random(), 1.0, -1.0)
                labels[:2] = (1.0, -1.0)
            cases.append((scores, labels))
        for scores, labels in cases:
            got, want = roc_auc(scores, labels), rank_sum(scores, labels)
            # bit for bit, NaN where the rank sum gives NaN
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(data=st.data(), lead=st.sampled_from([(1,), (5,), (3, 4)]),
           n=st.integers(2, 40))
    def test_leading_axes_equal_a_loop_of_1d_calls(self, data, lead, n):
        labels = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        if data.draw(st.booleans()):
            # one class has a single member
            labels[:] = labels[0]
            labels[data.draw(st.integers(0, n - 1))] *= -1.0
        else:
            labels[:2] = (1.0, -1.0)
        pool = [0.0, -0.0, 1.0, 2.5, np.inf, -np.inf]
        scores = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=int(np.prod(lead)) * n,
            max_size=int(np.prod(lead)) * n))).reshape(*lead, n)
        flat = scores.reshape(-1, n)
        # NaN in some scorings only
        for row in data.draw(st.lists(st.integers(0, len(flat) - 1),
                                      max_size=2)):
            flat[row, data.draw(st.integers(0, n - 1))] = np.nan
        got = roc_auc(scores, labels)
        assert isinstance(got, np.ndarray) and got.shape == lead
        want = np.array([roc_auc(row, labels) for row in flat]).reshape(lead)
        assert got.tobytes() == want.tobytes()

    def test_one_dimensional_scores_give_a_float(self):
        got = roc_auc(np.array([0.0, 1.0, 2.0]), np.array([-1.0, 1.0, 1.0]))
        assert type(got) is float and got == 1.0
        nan = roc_auc(np.array([np.nan, 1.0]), np.array([-1.0, 1.0]))
        assert type(nan) is float and np.isnan(nan)

    def test_scores_must_end_in_the_label_axis(self):
        with pytest.raises(ValueError, match="one score per label"):
            roc_auc(np.zeros((2, 4)), np.array([1.0, -1.0, 1.0]))

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, declangevin.cli; "
                "sys.exit(any(name == 'scipy' or name.startswith('scipy.') "
                "for name in sys.modules))")
        src = str(Path(declangevin.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120)
        assert done.returncode == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            roc_auc(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            roc_auc(np.zeros(3), np.array([1.0, -1.0, 0.0]))


class TestCumulativeBound:
    def test_tame_run_respects_the_default_bound(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((3, 2))
        trace = make_trace(x0, np.cumsum(np.full(39, 0.01)), 0.05)
        report = check_lemma4_bound(trace)
        assert not report.violated
        assert 0.0 < report.max_ratio < 1.0
        assert report.bound.shape == trace.worst_cum_dev.shape == (39,)
        assert np.all(np.diff(report.bound) > 0)

    def test_explicit_constants_are_echoed_and_enforced(self):
        x0 = np.zeros((2, 1))
        report = check_lemma4_bound(
            make_trace(x0, np.cumsum(np.full(29, 0.1)), 1e-6),
            delta=8.0, lam=0.0)
        assert report.violated
        assert report.max_ratio > 1.0
        assert (report.delta, report.lam) == (8.0, 0.0)

    def test_default_constants_come_from_the_network_size(self):
        x0 = np.zeros((3, 1))
        trace = make_trace(x0, np.cumsum(np.full(24, 0.01)), 0.7)
        report = check_lemma4_bound(trace, window_len=2)
        sb = spectral_bounds(3, 2)
        assert report.delta == sb.delta_lower
        assert report.lam == sb.lambda_upper
        # D = max_pert = 0.7 at m = 3: the bound grows by 8 D m / (delta gap)
        # per unit of 1 + sqrt(tau), from a zero initial-state term
        np.testing.assert_allclose(
            report.bound, (8.0 / sb.delta_lower) * (0.7 * 3 / sb.gap)
            * (1.0 + np.sqrt(np.arange(1, 25))), rtol=1e-12)

    def test_default_constants_work_where_lambda_rounds_to_one(self):
        trace = make_trace(np.ones((16, 1)), np.cumsum(np.full(19, 0.01)),
                           0.1)
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
        trace = make_trace(np.zeros((100, 1)), np.cumsum(np.full(19, 0.01)),
                           0.0)
        report = check_lemma4_bound(trace)
        np.testing.assert_array_equal(report.bound, 0.0)
        assert report.violated
        assert report.max_ratio == np.inf

    def test_check_holds_two_series_of_the_horizon_at_most(self):
        # the bound it returns, a bool per step for the verdict and one
        # chunk of ratios: 9 B per step
        rng = np.random.default_rng(5)
        num_iters, x0 = 200_000, rng.standard_normal((4, 2))
        states = np.stack([x0, np.zeros((4, 2))])
        trace = Trace(alphas=np.zeros(2), states=states,
                      consensus=np.zeros((2, 4)), record_dev=np.zeros((2, 4)),
                      worst_cum_dev=np.cumsum(rng.random(num_iters - 1)),
                      max_pert=0.3, num_iters=num_iters, stride=num_iters)
        tracemalloc.start()
        try:
            report = check_lemma4_bound(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * num_iters + 4 * _CHUNK_BYTES
        assert report.bound.shape == (num_iters - 1,) and not report.violated

    @pytest.mark.parametrize("steps", [1, 2, 8191, 8192, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("nan_at", [None, 0, -1])
    def test_max_ratio_is_the_largest_ratio_over_every_chunk(self, steps, nan_at):
        # the ratios are taken _CHUNK_BYTES of floats at a time; the largest
        # sits in the last chunk, and a NaN anywhere makes it NaN
        rng = np.random.default_rng(steps)
        lhs = np.cumsum(rng.random(steps))
        if nan_at is not None:
            lhs[nan_at] = np.nan
        report = check_lemma4_bound(make_trace(np.ones((3, 1)), lhs, 0.2),
                                    delta=0.5, lam=0.5)
        # assert_equal takes NaN for equal to NaN
        np.testing.assert_equal(report.max_ratio, (lhs / report.bound).max())
        assert np.isnan(report.max_ratio) == (nan_at is not None)

    def test_constant_validation(self):
        trace = make_trace(np.zeros((2, 1)), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            check_lemma4_bound(trace, delta=0.0, lam=0.5)
        with pytest.raises(ValueError):
            check_lemma4_bound(trace, delta=0.5, lam=1.0)

    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_nan_delta_is_refused(self, lam):
        trace = make_trace(np.ones((2, 1)), np.cumsum(np.full(9, 0.01)), 0.1)
        with pytest.raises(ValueError, match="delta must be positive"):
            check_lemma4_bound(trace, delta=float("nan"), lam=lam)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_are_refused(self, bad):
        # a NaN slope would pass any "slope > bound" check unnoticed
        ts = np.arange(40)
        w2 = 3.0 * (1.0 + ts) ** -0.7
        for at in (5, 30):
            series = w2.copy()
            series[at] = bad
            with pytest.raises(ValueError, match="finite"):
                rate_fit(series, ts)

