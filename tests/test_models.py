"""Datasets, gradients, the libsvm loader, sharding and potentials."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from declangevin import (Dataset, GaussianDist, GaussianPotential,
                         LinRegPotential, LogisticPotential, MixturePotential,
                         NoiseModel, ParseError, ZeroPotential,
                         generate_linreg_data, generate_mixture_data,
                         grad_U_linreg, grad_U_logistic, grad_U_mixture,
                         linreg_posterior, load_libsvm,
                         make_surrogate_classification, partition)
from declangevin.models import _sigmoid

from conftest import (central_fd, reference_agent_grads, reference_grad_mixture,
                      reference_surrogate, save_libsvm)


def linreg_neg_log_post(z, feats, targs, prior, sigma):
    resid = feats @ z - targs
    prior_prec = np.linalg.inv(prior.cov)
    gap = z - prior.mean
    return 0.5 * resid @ resid / sigma ** 2 + 0.5 * gap @ prior_prec @ gap


def mixture_neg_log_post(theta, x, sigma_x, prior_vars):
    a, b = theta
    l1 = -((x - a) ** 2) / (2.0 * sigma_x ** 2)
    l2 = -((x - a - b) ** 2) / (2.0 * sigma_x ** 2)
    loglik = np.logaddexp(l1, l2) + np.log(0.5)
    return -loglik.sum() + a ** 2 / (2 * prior_vars[0]) \
        + b ** 2 / (2 * prior_vars[1])


def logistic_neg_log_post(w, feats, targs):
    return np.logaddexp(0.0, -targs * (feats @ w)).sum() + np.abs(w).sum()


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.zeros(4), targets=np.zeros(4))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((4, 2)), targets=np.zeros(3))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.nan]]), targets=np.zeros(1))
        with pytest.raises(ValueError):
            Dataset(features=np.zeros((1, 1)), targets=np.array([np.inf]))

    def test_size_properties(self):
        ds = Dataset(features=np.zeros((5, 3)), targets=np.zeros(5))
        assert ds.n == 5 and ds.dim == 3

    def test_arrays_are_read_only_views_of_writable_inputs(self):
        feats, targs = np.zeros((5, 3)), np.zeros(5)
        ds = Dataset(features=feats, targets=targs)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.targets[0] = 1.0
        assert feats.flags.writeable and targs.flags.writeable
        feats[0, 0] = 2.0
        assert ds.features[0, 0] == 2.0

    def test_uint8_features_are_kept_as_read_only_indicators(self):
        feats = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        ds = Dataset(features=feats, targets=np.zeros(2))
        assert ds.features.dtype == np.uint8
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1
        assert feats.flags.writeable
        # a float 0/1 array is not converted to bytes
        assert Dataset(feats.astype(float), np.zeros(2)).features.dtype == float
        with pytest.raises(ValueError, match="0/1 indicators"):
            Dataset(features=np.array([[0, 2]], dtype=np.uint8),
                    targets=np.zeros(1))


class TestGaussianDist:
    def test_scalar_inputs_are_promoted(self):
        g = GaussianDist(mean=1.0, cov=4.0)
        assert g.dim == 1
        assert g.cov.shape == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GaussianDist(np.zeros(2), -np.eye(2))

    def test_stacks_check_every_slice(self):
        means, covs = np.zeros((4, 3, 2)), np.tile(np.eye(2), (4, 3, 1, 1))
        g = GaussianDist(means, covs)
        assert g.dim == 2 and g.cov.shape == (4, 3, 2, 2)
        with pytest.raises(ValueError, match="shape"):
            GaussianDist(means, covs[:3])
        with pytest.raises(ValueError, match="shape"):
            GaussianDist(means, np.eye(2))
        asym, indef = covs.copy(), covs.copy()
        asym[2, 1, 0, 1] = 0.5
        indef[3, 2] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match="symmetric"):
            GaussianDist(means, asym)
        with pytest.raises(ValueError, match="positive definite"):
            GaussianDist(means, indef)


class TestLinRegData:
    def test_deterministic_and_shaped(self):
        w = np.array([1.0, -1.0, 2.0])
        a = generate_linreg_data(50, 3, 0.5, w, seed=9)
        b = generate_linreg_data(50, 3, 0.5, w, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert a.n == 50 and a.dim == 3

    def test_zero_noise_is_exactly_linear(self):
        w = np.array([2.0, -0.5])
        ds = generate_linreg_data(30, 2, 0.0, w, seed=1)
        np.testing.assert_allclose(ds.targets, ds.features @ w,
                                   atol=1e-12, rtol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_linreg_data(0, 2, 1.0, np.zeros(2), 0)
        with pytest.raises(ValueError):
            generate_linreg_data(10, 2, -1.0, np.zeros(2), 0)
        with pytest.raises(ValueError):
            generate_linreg_data(10, 2, 1.0, np.zeros(3), 0)


class TestMixtureData:
    def test_the_samples_are_held_once_as_targets(self):
        # no feature column mirrors them
        ds = generate_mixture_data(40, 0.0, 1.0, np.sqrt(2.0), seed=4)
        assert ds.features.shape == (40, 0)
        assert ds.targets.shape == (40,)
        assert ds.n == 40 and ds.dim == 0

    @pytest.mark.parametrize("n, sigma_x, message", [
        (0, 1.0, "n must be at least 1"),
        (10, 0.0, "sigma_x must be positive"),
        (10, -1.0, "sigma_x must be positive")])
    def test_validation(self, n, sigma_x, message):
        with pytest.raises(ValueError, match=message):
            generate_mixture_data(n, 0.0, 1.0, sigma_x, seed=0)


class TestLinRegPosterior:
    def test_mean_solves_the_normal_equations(self):
        ds = generate_linreg_data(80, 3, 0.7, np.array([1.0, 0.0, -2.0]),
                                  seed=2)
        prior = GaussianDist(0.5 * np.ones(3), 2.0 * np.eye(3))
        post = linreg_posterior(ds, prior, 0.7)
        lhs = np.linalg.inv(post.cov) @ post.mean
        rhs = np.linalg.inv(prior.cov) @ prior.mean \
            + ds.features.T @ ds.targets / 0.7 ** 2
        np.testing.assert_allclose(lhs, rhs, atol=1e-8, rtol=0.0)

    def test_posterior_mode_has_zero_gradient(self):
        ds = generate_linreg_data(60, 2, 1.0, np.array([1.0, -1.0]), seed=3)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        post = linreg_posterior(ds, prior, 1.0)
        g = grad_U_linreg(post.mean, ds.features, ds.targets, prior, 1.0)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_empty_dataset_returns_the_prior(self):
        empty = Dataset(features=np.zeros((0, 2)), targets=np.zeros(0))
        prior = GaussianDist(np.array([1.0, 2.0]),
                             np.array([[2.0, 0.3], [0.3, 1.0]]))
        post = linreg_posterior(empty, prior, 1.0)
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-12)

    def test_sigma_validation(self):
        ds = generate_linreg_data(10, 2, 1.0, np.zeros(2), 0)
        with pytest.raises(ValueError):
            linreg_posterior(ds, GaussianDist(np.zeros(2), np.eye(2)), 0.0)

    def test_a_stacked_prior_is_refused(self):
        ds = generate_linreg_data(10, 2, 1.0, np.zeros(2), 0)
        stack = GaussianDist(np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1)))
        with pytest.raises(ValueError, match="single"):
            linreg_posterior(ds, stack, 1.0)
        with pytest.raises(ValueError, match="single"):
            LinRegPotential(ds, partition(ds, 2), stack, 1.0)

    def test_uint8_features_give_the_float_twins_posterior_bitwise(self):
        # 600 half-dense rows put Gram entries near 300, past a byte's range
        ds = make_surrogate_classification(600, 4, seed=8, density=0.5)
        twin = Dataset(ds.features.astype(float), ds.targets)
        assert (twin.features.T @ twin.features).max() > 255
        prior = GaussianDist(np.ones(4), 2.0 * np.eye(4))
        got, want = linreg_posterior(ds, prior, 0.7), linreg_posterior(twin, prior, 0.7)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.cov.tobytes() == want.cov.tobytes()


class TestGradients:
    def test_linreg_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        ds = generate_linreg_data(40, 3, 0.7, np.array([1.0, -1.0, 0.5]),
                                  seed=10)
        prior = GaussianDist(0.3 * np.ones(3), 2.0 * np.eye(3))
        for _ in range(5):
            z = rng.standard_normal(3)
            ana = grad_U_linreg(z, ds.features, ds.targets, prior, 0.7)
            fd = central_fd(
                lambda v: linreg_neg_log_post(v, ds.features, ds.targets,
                                              prior, 0.7), z)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)

    def test_mixture_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        ds = generate_mixture_data(60, 0.0, 1.0, np.sqrt(2.0), seed=11)
        for _ in range(5):
            theta = rng.standard_normal(2)
            ana = grad_U_mixture(theta, ds.targets, np.sqrt(2.0), (10.0, 1.0))
            fd = central_fd(
                lambda v: mixture_neg_log_post(v, ds.targets, np.sqrt(2.0),
                                               (10.0, 1.0)), theta)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)

    def test_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((30, 4))
        targs = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        for _ in range(5):
            # keep every coordinate away from the kink of |w|
            w = rng.standard_normal(4)
            w += 0.3 * np.sign(w)
            ana = grad_U_logistic(w, feats, targs)
            fd = central_fd(lambda v: logistic_neg_log_post(v, feats, targs),
                            w)
            np.testing.assert_allclose(ana, fd, rtol=1e-6, atol=1e-8)

    def test_minibatch_scaling_is_unbiased_for_linreg(self):
        ds = generate_linreg_data(25, 2, 1.0, np.array([1.0, -1.0]), seed=13)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        z = np.array([0.4, 0.8])
        full = grad_U_linreg(z, ds.features, ds.targets, prior, 1.0)
        singles = [grad_U_linreg(z, ds.features[k:k + 1], ds.targets[k:k + 1],
                                 prior, 1.0, scale=float(ds.n))
                   for k in range(ds.n)]
        np.testing.assert_allclose(np.mean(singles, axis=0), full,
                                   atol=1e-10, rtol=0.0)

    def test_sigmoid_matches_scipy_expit(self):
        v = np.concatenate([np.linspace(-800.0, 800.0, 200_001),
                            [0.0, -0.0, np.inf, -np.inf]])
        # the sigmoid leaves exp's overflow to its callers' error state
        with np.errstate(over="ignore"):
            np.testing.assert_allclose(_sigmoid(v), expit(v), rtol=0.0,
                                       atol=1e-15)
        # the public gradients enter it themselves: sigmoid(-1000) is 0 for
        # the first label, sigmoid(1000) is 1 for the second, without a word
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                grad_U_logistic(np.array([1000.0]), np.ones((2, 1)),
                                np.array([1.0, -1.0])), [2.0])
            assert np.isfinite(grad_U_mixture(np.array([0.0, 1.0]),
                                              np.array([1e6, -1e6]))).all()

    def test_mixture_gradient_survives_far_out_samples(self):
        g = grad_U_mixture(np.array([0.0, 1.0]), np.array([1e6, -1e6]))
        assert np.isfinite(g).all()

    def test_logistic_label_validation(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            grad_U_logistic(np.zeros(2), np.ones((2, 2)),
                            np.array([0.0, 1.0]))

    def test_logistic_empty_batch_is_pure_regularizer(self):
        w = np.array([0.5, 0.0, -2.0])
        g = grad_U_logistic(w, np.zeros((0, 3)), np.zeros(0))
        np.testing.assert_array_equal(g, [1.0, 0.0, -1.0])

    def test_parameter_validation(self):
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            grad_U_linreg(np.zeros(2), np.zeros((1, 2)), np.zeros(1), prior,
                          0.0)
        with pytest.raises(ValueError):
            grad_U_mixture(np.zeros(2), np.zeros(3), sigma_x=0.0)

    def test_an_empty_linreg_batch_leaves_the_prior_term(self):
        prior = GaussianDist(np.array([1.0, -2.0]), np.diag([2.0, 4.0]))
        grad = grad_U_linreg(np.array([3.0, 2.0]), np.zeros((0, 2)),
                             np.zeros(0), prior, 0.5, scale=10.0)
        # Sigma0^-1 (z - mu0) = diag(1/2, 1/4) (2, 4)
        np.testing.assert_array_equal(grad, [1.0, 1.0])

    def test_an_empty_linreg_batch_with_a_scale_per_row_leaves_each_prior_term(self):
        prior = GaussianDist(np.array([1.0, -2.0]), np.diag([2.0, 4.0]))
        z = np.array([[3.0, 2.0], [1.0, -2.0], [-1.0, 6.0]])
        grad = grad_U_linreg(z, np.zeros((0, 2)), np.zeros(0), prior, 0.5,
                             scale=np.array([[10.0], [0.5], [3.0]]))
        # Sigma0^-1 (z - mu0) = diag(1/2, 1/4) (z - mu0), row by row
        np.testing.assert_array_equal(grad, [[1.0, 1.0], [0.0, 0.0], [-1.0, 2.0]])


class TestLibsvm:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = make_surrogate_classification(40, 15, seed=0)
        path = tmp_path / "data.txt"
        save_libsvm(ds, path)
        back = load_libsvm(path, num_features=15)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_float_values_round_trip_exactly(self, tmp_path):
        feats = np.array([[0.1, 0.0, -2.5e-3], [0.0, 1.0 / 3.0, 0.0]])
        ds = Dataset(features=feats, targets=np.array([1.0, -1.0]))
        path = tmp_path / "floats.txt"
        save_libsvm(ds, path)
        back = load_libsvm(path, num_features=3)
        np.testing.assert_array_equal(back.features, feats)

    def test_zero_one_labels_are_mapped(self, tmp_path):
        path = tmp_path / "zo.txt"
        path.write_text("1 1:1\n0 2:1\n")
        ds = load_libsvm(path)
        np.testing.assert_array_equal(ds.targets, [1.0, -1.0])

    def test_dimension_comes_from_max_index_when_undeclared(self, tmp_path):
        path = tmp_path / "dim.txt"
        path.write_text("+1 3:1\n-1 1:1\n")
        assert load_libsvm(path).dim == 3

    def test_declared_dimension_is_enforced(self, tmp_path):
        path = tmp_path / "over.txt"
        path.write_text("+1 1:1\n-1 7:1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_libsvm(path, num_features=5)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("+1 1:1\n\n-1 2:1\n")
        assert load_libsvm(path).n == 2

    def test_malformed_inputs_name_the_line(self, tmp_path):
        cases = {
            "lbl.txt": ("x 1:1\n", "line 1: bad label"),
            "tri.txt": ("+1 5:\n", "line 1: bad feature token"),
            "bin.txt": ("+1 1:1\n3 1:1\n", "line 2: label"),
            "idx.txt": ("+1 0:1\n", "not 1-based"),
        }
        for name, (text, pattern) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ParseError, match=pattern):
                load_libsvm(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ParseError, match="no samples"):
            load_libsvm(path)

    def test_a_repeated_index_keeps_its_last_value(self, tmp_path):
        path = tmp_path / "repeat.txt"
        path.write_text("+1 3:1 1:0.5 3:2\n-1 2:1 2:0\n+1 1:1 2:1\n")
        ds = load_libsvm(path)
        np.testing.assert_array_equal(
            ds.features, [[0.5, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_a_non_finite_value_names_its_line(self, value, tmp_path):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"+1 1:1\n\n-1 2:{value}\n")
        with pytest.raises(ParseError, match="line 3: feature value"):
            load_libsvm(path)

    def test_memory_per_stored_value_is_bounded(self, tmp_path):
        # flat row, column and value buffers: 24 B per stored value, and
        # the positions are computed over the row buffer
        ds = make_surrogate_classification(3000, 123, seed=2)
        path = tmp_path / "wide.txt"
        save_libsvm(ds, path)
        load_libsvm(path, num_features=123)  # first-call allocations
        tracemalloc.start()
        try:
            back = load_libsvm(path, num_features=123)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.features, ds.features)
        nnz = np.count_nonzero(ds.features)
        assert peak - back.features.nbytes - back.targets.nbytes <= 40 * nnz

    @pytest.mark.parametrize("text, dtype", [
        ("+1 1:1 3:0\n-1 2:1\n", np.uint8),
        ("+1 1:1.0 2:0.0\n", np.uint8),
        ("+1 1:1 2:0.5\n-1 2:1\n", np.float64),
        ("+1 1:2\n", np.float64),
        ("+1 1:-1\n", np.float64)])
    def test_features_are_bytes_exactly_when_every_value_is_zero_or_one(
            self, text, dtype, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text(text)
        ds = load_libsvm(path)
        assert ds.features.dtype == dtype


class TestSurrogateData:
    def test_deterministic_shape_and_coding(self):
        a = make_surrogate_classification(200, 30, seed=5)
        b = make_surrogate_classification(200, 30, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert set(np.unique(a.features)) <= {0.0, 1.0}
        assert set(np.unique(a.targets)) == {-1.0, 1.0}

    def test_feature_density_is_near_the_requested_level(self):
        ds = make_surrogate_classification(2000, 123, seed=6)
        assert abs(ds.features.mean() - 14.0 / 123.0) < 0.01

    def test_features_are_the_thresholded_uniform_draws(self):
        ds = make_surrogate_classification(300, 20, seed=7, density=0.3)
        draws = np.random.default_rng(7).random((300, 20))
        np.testing.assert_array_equal(ds.features, (draws < 0.3).astype(float))

    @pytest.mark.parametrize("n, dim", [(32561, 123), (3500, 123),
                                        (60001, 7), (700, 2000)])
    def test_chunked_draws_equal_one_float_reference(self, n, dim):
        # more than 3 MiB of floats: at least 3 row chunks of up to 1 MiB
        assert n * dim * 8 > 3 << 20
        ds = make_surrogate_classification(n, dim, seed=11)
        want = reference_surrogate(n, dim, seed=11)
        assert ds.features.dtype == np.uint8
        np.testing.assert_array_equal(ds.features, want.features)
        assert ds.targets.tobytes() == want.targets.tobytes()


class TestPartition:
    def test_a_row_count_splits_like_a_dataset_of_that_many_rows(self):
        ds = make_surrogate_classification(23, 4, seed=0)
        for mode in ("random", "contiguous"):
            by_rows = partition(ds, 4, mode, seed=3)
            by_count = partition(23, 4, mode, seed=3)
            assert len(by_rows) == len(by_count) == 4
            for a, b in zip(by_rows, by_count):
                np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            partition(3, 4)

    def test_shards_cover_the_rows_exactly_once(self):
        ds = make_surrogate_classification(23, 4, seed=0)
        shards = partition(ds, 4, "random", seed=1)
        all_idx = np.concatenate(shards)
        assert sorted(all_idx.tolist()) == list(range(23))
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert len(shards) == 4
        assert all(s.dtype == np.int64 for s in shards)

    def test_random_mode_is_seeded(self):
        ds = make_surrogate_classification(20, 3, seed=0)
        a = partition(ds, 3, "random", seed=2)
        b = partition(ds, 3, "random", seed=2)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s, t)

    def test_contiguous_mode_keeps_order(self):
        ds = make_surrogate_classification(10, 3, seed=0)
        shards = partition(ds, 2, "contiguous")
        np.testing.assert_array_equal(shards[0], np.arange(5))
        np.testing.assert_array_equal(shards[1], np.arange(5, 10))
        assert all(s.dtype == np.int64 for s in shards)

    def test_validation(self):
        ds = make_surrogate_classification(5, 3, seed=0)
        with pytest.raises(ValueError):
            partition(ds, 6)
        with pytest.raises(ValueError):
            partition(ds, 2, mode="striped")
        # 2.5 shards used to give two
        with pytest.raises(TypeError):
            partition(ds, 2.5)


class TestPotentials:
    def test_linreg_agent_terms_sum_to_the_full_posterior_gradient(self):
        ds = generate_linreg_data(50, 2, 1.0, np.array([1.0, -1.0]), seed=20)
        shards = partition(ds, 4, "random", 20)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        pot = LinRegPotential(ds, shards, prior, 1.0, batch_size=None)
        z = np.array([0.3, -0.6])
        total = pot.grad_drawn(np.tile(z, (4, 1)), None).sum(0)
        expected = grad_U_linreg(z, ds.features, ds.targets, prior, 1.0)
        np.testing.assert_allclose(total, expected, atol=1e-9, rtol=0.0)

    def test_mixture_agent_terms_sum_to_the_full_posterior_gradient(self):
        ds = generate_mixture_data(60, 0.0, 1.0, np.sqrt(2.0), seed=21)
        shards = partition(ds, 3, "random", 21)
        pot = MixturePotential(ds, shards, np.sqrt(2.0), (10.0, 1.0),
                               batch_size=None)
        theta = np.array([0.2, 0.7])
        total = pot.grad_drawn(np.tile(theta, (3, 1)), None).sum(0)
        expected = grad_U_mixture(theta, ds.targets, np.sqrt(2.0),
                                  (10.0, 1.0))
        np.testing.assert_allclose(total, expected, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("label", [0.0, 2.0, -0.5])
    def test_logistic_potential_checks_its_labels_when_built(self, label):
        ds = make_surrogate_classification(30, 4, seed=23)
        bad = Dataset(ds.features, np.where(np.arange(30) == 17, label,
                                            ds.targets))
        with pytest.raises(ValueError, match="must be -1 or \\+1"):
            LogisticPotential(bad, partition(bad, 3, "random", 23),
                              batch_size=2)

    def test_mixture_potential_checks_sigma_x_when_built(self):
        ds = generate_mixture_data(30, 0.0, 1.0, np.sqrt(2.0), seed=24)
        with pytest.raises(ValueError, match="sigma_x must be positive"):
            MixturePotential(ds, partition(ds, 3), sigma_x=0.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_linreg_potential_checks_sigma_when_built(self, sigma):
        ds = generate_linreg_data(30, 2, 1.0, np.array([1.0, -1.0]), seed=25)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="sigma must be positive"):
            LinRegPotential(ds, partition(ds, 3), prior, sigma)

    def test_logistic_agent_terms_carry_one_regularizer_each(self):
        ds = make_surrogate_classification(60, 5, seed=22)
        shards = partition(ds, 3, "random", 22)
        pot = LogisticPotential(ds, shards, batch_size=None)
        w = np.array([0.5, -0.5, 1.0, -1.0, 2.0])
        total = pot.grad_drawn(np.tile(w, (3, 1)), None).sum(0)
        expected = grad_U_logistic(w, ds.features, ds.targets) \
            + 2.0 * np.sign(w)
        np.testing.assert_allclose(total, expected, atol=1e-9, rtol=0.0)

    def test_minibatch_draws_come_from_the_agent_stream(self):
        ds = generate_linreg_data(40, 2, 1.0, np.array([1.0, -1.0]), seed=23)
        shards = partition(ds, 2, "random", 23)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        pot = LinRegPotential(ds, shards, prior, 1.0, batch_size=2)
        z = np.zeros((2, 2))
        idx = pot.draw(NoiseModel(7, 2), 3)
        assert idx.shape == (3, 2, 2)
        for i, shard in enumerate(shards):
            own = np.random.default_rng([7, i, 1]).integers(
                0, len(shard), size=(3, 2))
            np.testing.assert_array_equal(idx[:, i], shard[own])
        a = pot.grad_drawn(z, idx[0])
        b = pot.grad_drawn(z, pot.draw(NoiseModel(7, 2), 1)[0])
        np.testing.assert_array_equal(a, b)

    def test_batch_size_validation(self):
        ds = generate_linreg_data(10, 2, 1.0, np.zeros(2), 0)
        shards = partition(ds, 2)
        prior = GaussianDist(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            LinRegPotential(ds, shards, prior, 1.0, batch_size=0)

    @pytest.mark.parametrize("m, error", [(0, ValueError), (-2, ValueError),
                                          (2.5, TypeError), (2.0, TypeError)])
    def test_gaussian_potential_refuses_a_bad_agent_count(self, m, error):
        # 0 divided by zero, -2 gave negative constants, 2.5 stored 2 but
        # divided the constants by 2.5
        with pytest.raises(error):
            GaussianPotential(np.zeros(2), np.eye(2), m)
        assert GaussianPotential(np.zeros(2), np.eye(2), np.int64(2)).num_agents == 2

    def test_gaussian_potential_declares_per_agent_constants(self):
        cov = np.diag([1.0, 4.0])
        pot = GaussianPotential(np.zeros(2), cov, 4)
        # precision eigenvalues 1 and 1/4, split across four agents
        assert pot.props.mu == pytest.approx(1.0 / 16.0)
        assert pot.props.lipschitz == pytest.approx(1.0 / 4.0)

    @pytest.mark.parametrize("mean, cov, message", [
        # eigvalsh reads one triangle: this one alone would give 1/4
        (np.zeros(2), [[1.0, 0.9], [0.0, 1.0]], "symmetric"),
        (np.zeros(2), [[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        # singular: the potential's inversion refuses it first
        (np.zeros(2), [[0.0, 0.0], [0.0, 1.0]], "positive definite|Singular matrix"),
        (np.zeros(2), [[np.nan, 0.0], [0.0, 1.0]], "finite"),
        (np.zeros(3), np.eye(2), "shape"),
        (np.zeros((2, 2)), np.stack([np.eye(2)] * 2), "single Gaussian")])
    def test_gaussian_potential_checks_the_covariance(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            GaussianPotential(mean, np.array(cov), 4)
        if mean.ndim == 1:
            with pytest.raises(ValueError, match=message):
                GaussianDist(mean, np.array(cov))

    def test_gaussian_agent_terms_sum_to_the_target_gradient(self):
        mean = np.array([1.0, -1.0])
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        pot = GaussianPotential(mean, cov, 5)
        z = np.array([0.7, 0.1])
        total = pot.grad_drawn(np.tile(z, (5, 1)), None).sum(0)
        np.testing.assert_allclose(total,
                                   np.linalg.solve(cov, z - mean),
                                   atol=1e-12, rtol=0.0)


class TestShardStorage:
    @pytest.mark.parametrize("row", [-1, 10])
    @pytest.mark.parametrize("batch", [None, 2])
    def test_rows_outside_the_dataset_are_refused(self, row, batch):
        ds = generate_linreg_data(10, 2, 1.0, np.zeros(2), 0)
        shards = [[0, 1, 2], [3, row]]
        with pytest.raises(ValueError, match=r"shard 1 holds a row outside \[0, 10\)"):
            MixturePotential(ds, shards, batch_size=batch)

    def test_a_minibatch_potential_copies_no_features(self):
        # the potential keeps the dataset's arrays and a row table; the
        # stacked (m, n_max, d) copy of the shards is for full shards only.
        # Any copy of the features, bytes or floats, takes at least a byte
        # an entry, so the bound is half of that, in either dtype.
        ds = make_surrogate_classification(20000, 100, seed=5)
        shards = partition(ds, 4, "random", 5)
        for data in (ds, Dataset(ds.features.astype(float), ds.targets)):
            tracemalloc.start()
            try:
                LogisticPotential(data, shards, batch_size=32)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * data.features.size

    @pytest.mark.parametrize("batch", [None, 3])
    def test_shard_targets_are_made_on_access(self, batch):
        # a minibatch potential keeps no copy of its shards' targets; full
        # shards hand out views of their stacked targets
        ds = generate_mixture_data(11, 0.0, 1.0, np.sqrt(2.0), 3)
        shards = [[4, 0, 9], [1], [2, 3, 5, 6, 7, 8, 10]]
        pot = MixturePotential(ds, shards, batch_size=batch)
        assert "shard_targets" not in vars(pot)
        for got, rows in zip(pot.shard_targets, shards):
            np.testing.assert_array_equal(got, ds.targets[rows])
            assert np.shares_memory(got, pot._targets) == (batch is None)

    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           dim=st.integers(1, 6),
           batch=st.sampled_from([None, 1, 3, 32]),
           seed=st.integers(0, 2 ** 16))
    def test_uint8_and_float_twins_give_bitwise_equal_gradients(
            self, sizes, dim, batch, seed):
        rng = np.random.default_rng(seed)
        m, n = len(sizes), sum(sizes)
        shards = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
        ds = make_surrogate_classification(n, dim, seed, density=0.5)
        twin = Dataset(ds.features.astype(float), ds.targets)
        prior = GaussianDist(rng.standard_normal(dim), np.eye(dim))
        z = rng.standard_normal((m, dim))
        for build in (lambda d: LogisticPotential(d, shards, batch),
                      lambda d: LinRegPotential(d, shards, prior, 0.5, batch)):
            pot, pot_twin = build(ds), build(twin)
            idx = pot.draw(NoiseModel(seed, m), 1)[0]
            got, want = pot.grad_drawn(z, idx), pot_twin.grad_drawn(z, idx)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def ragged_potential(kind, sizes, dim, batch, seed):
    """A potential of the given kind over shards of exactly ``sizes`` rows,
    with the dataset and shards of a sharded kind (else None, None)."""
    rng = np.random.default_rng(seed)
    m, n = len(sizes), sum(sizes)
    order = rng.permutation(n)
    shards = np.split(order, np.cumsum(sizes)[:-1])
    if kind == "linreg":
        ds = generate_linreg_data(n, dim, 0.5, rng.standard_normal(dim), seed)
        prior = GaussianDist(rng.standard_normal(dim), (1.0 + rng.random()) * np.eye(dim))
        return LinRegPotential(ds, shards, prior, 0.5, batch_size=batch), ds, shards
    if kind == "mixture":
        ds = generate_mixture_data(n, 0.0, 1.0, np.sqrt(2.0), seed)
        return MixturePotential(ds, shards, batch_size=batch), ds, shards
    if kind == "logistic":
        ds = make_surrogate_classification(n, dim, seed, density=0.5)
        return LogisticPotential(ds, shards, batch_size=batch), ds, shards
    if kind == "gaussian":
        root = rng.standard_normal((dim, dim))
        return GaussianPotential(rng.standard_normal(dim),
                                 root @ root.T + dim * np.eye(dim), m), None, None
    return ZeroPotential(dim), None, None


class TestGradAll:
    @given(kind=st.sampled_from(["linreg", "mixture", "logistic", "gaussian",
                                 "zero"]),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           dim=st.integers(1, 4),
           batch=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2 ** 16),
           spread=st.sampled_from([0.1, 1.0, 10.0]))
    def test_rows_match_grad_and_consume_the_same_draws(self, kind, sizes, dim,
                                                        batch, seed, spread):
        pot, ds, shards = ragged_potential(kind, sizes, dim, batch, seed)
        m, d = len(sizes), pot.props.dim
        z = spread * np.random.default_rng(seed + 1).standard_normal((m, d))
        batched, looped = NoiseModel(seed, m), NoiseModel(seed, m)

        rows = pot.grad_drawn(z, pot.draw(batched, 1)[0])

        assert rows.shape == (m, d)
        if kind == "gaussian":
            # the single-agent chain tests compare run against grad bitwise
            ref = np.stack([pot.grad(i, z[i], None) for i in range(m)])
            assert np.array_equal(rows, ref)
        elif kind == "zero":
            assert np.array_equal(rows, np.zeros((m, d)))
        else:
            ref = reference_agent_grads(pot, ds, shards, z, looped)
            np.testing.assert_allclose(rows, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
        for i in range(m):
            assert batched.stream(i).bit_generator.state \
                == looped.stream(i).bit_generator.state


class TestMixtureKernel:
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           batch=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2 ** 16),
           spread=st.sampled_from([0.1, 1.0, 10.0, 300.0]),
           far=st.booleans())
    def test_tanh_sums_match_the_two_term_reference(self, sizes, batch, seed,
                                                    spread, far):
        # ragged full shards take the padded path, minibatches the scale,
        # and far-out samples saturate tanh where exp(-v) overflows
        rng = np.random.default_rng(seed)
        m, n = len(sizes), sum(sizes)
        x = generate_mixture_data(n, 0.0, 1.0, np.sqrt(2.0), seed).targets.copy()
        if far:
            out = rng.random(n) < 0.5
            x[out] = rng.choice([-1e6, 1e6], size=out.sum())
        ds = Dataset(x[:, None], x)
        shards = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
        pot = MixturePotential(ds, shards, np.sqrt(2.0), (10.0, 1.0), batch)
        z = spread * rng.standard_normal((m, 2))
        idx = pot.draw(NoiseModel(seed, m), 1)[0]
        batches = shards if batch is None else idx
        scale = np.array([[1.0 if batch is None else len(s) / batch]
                          for s in shards])
        width = max(map(len, batches))
        padded, mask = np.ones((m, width)), np.zeros((m, width))
        for i, rows in enumerate(batches):
            padded[i, :len(rows)], mask[i, :len(rows)] = x[rows], 1.0
        prior_vars = (10.0 * m, 1.0 * m)
        ref = np.stack([reference_grad_mixture(z[i], x[rows], np.sqrt(2.0),
                                               prior_vars, scale[i])
                        for i, rows in enumerate(batches)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {"potential": pot.grad_drawn(z, idx),
                   "public": grad_U_mixture(z, padded, np.sqrt(2.0), prior_vars,
                                            scale, mask)}
        for path, rows in got.items():
            np.testing.assert_allclose(rows, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(),
                                       err_msg=path)


class TestMixtureCancellation:
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           batch=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2 ** 16),
           depth=st.sampled_from([30.0, 300.0, 1e3]))
    def test_near_zero_responsibilities_match_the_two_term_reference(
            self, sizes, batch, seed, depth):
        # every sample lies about depth below theta1, and theta2 > 0 puts
        # b (x - a - b/2) / (2 s2) at about -5 to -20, so every t is about -1
        # and q = n + sum t nearly cancels; the kernel forms gamma n and gamma
        # sum t apart and must still hold the reference's tolerance.  Deeper
        # samples cost the reference's own v = (d1^2 - d2^2) / (2 s2) its bits
        rng = np.random.default_rng(seed)
        m, n = len(sizes), sum(sizes)
        x = rng.standard_normal(n) - depth
        ds = Dataset(x[:, None], x)
        shards = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
        pot = MixturePotential(ds, shards, np.sqrt(2.0), (10.0, 1.0), batch)
        z = np.column_stack([rng.standard_normal(m), rng.uniform(20.0, 80.0, m) / depth])
        idx = pot.draw(NoiseModel(seed, m), 1)[0]
        batches = shards if batch is None else idx
        scale = np.array([[1.0 if batch is None else len(s) / batch]
                          for s in shards])
        width = max(map(len, batches))
        padded, mask = np.ones((m, width)), np.zeros((m, width))
        for i, rows in enumerate(batches):
            padded[i, :len(rows)], mask[i, :len(rows)] = x[rows], 1.0
        prior_vars = (10.0 * m, 1.0 * m)
        ref = np.stack([reference_grad_mixture(z[i], x[rows], np.sqrt(2.0),
                                               prior_vars, scale[i])
                        for i, rows in enumerate(batches)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {"potential": pot.grad_drawn(z, idx),
                   "public": grad_U_mixture(z, padded, np.sqrt(2.0), prior_vars,
                                            scale, mask),
                   # theta over one more leading axis than the samples
                   "broadcast": grad_U_mixture(np.stack([z, z]), padded, np.sqrt(2.0),
                                               prior_vars, scale, mask)[1]}
        for path, rows in got.items():
            np.testing.assert_allclose(rows, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(),
                                       err_msg=path)


def kernel_case(kind, sizes, dim, batch, binary, seed):
    """A built-in potential of ``kind`` over shards of exactly ``sizes``
    rows, with its dataset and shards (None, None for the Gaussian).  The
    regression kinds get 0/1 ``uint8`` features, or float64 ones."""
    if kind == "gaussian":
        return ragged_potential(kind, sizes, dim, batch, seed)
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    shards = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    if kind == "mixture":
        ds = generate_mixture_data(n, 0.0, 1.0, np.sqrt(2.0), seed)
        return MixturePotential(ds, shards, batch_size=batch), ds, shards
    ds = make_surrogate_classification(n, dim, seed, density=0.5)
    if not binary:
        ds = Dataset(ds.features + rng.standard_normal((n, dim)), ds.targets)
    if kind == "logistic":
        return LogisticPotential(ds, shards, batch), ds, shards
    prior = GaussianDist(rng.standard_normal(dim), (1.0 + rng.random()) * np.eye(dim))
    return LinRegPotential(ds, shards, prior, 0.5, batch), ds, shards


def stacked_public_grads(pot, ds, shards, z, idx):
    """The potential's gradients from one stacked ``grad_U_*`` call on the
    layout it keeps: full shards padded with zero feature rows and target
    1.0 (weight 0 for the mixture), or each agent's dataset rows ``idx[i]``
    with scale shard over batch size."""
    if isinstance(pot, GaussianPotential):
        return np.stack([pot.grad(i, row, None) for i, row in enumerate(z)])
    m = len(shards)
    rows = idx if pot.batch_size is not None else shards
    width = max(map(len, rows))
    feats, targs = np.zeros((m, width, ds.dim)), np.ones((m, width))
    mask = np.zeros((m, width))
    for i, r in enumerate(rows):
        feats[i, :len(r)], targs[i, :len(r)] = ds.features[r], ds.targets[r]
        mask[i, :len(r)] = 1.0
    scale = (1.0 if pot.batch_size is None
             else np.array([[len(s) / pot.batch_size] for s in shards]))
    if isinstance(pot, MixturePotential):
        prior_vars = tuple(v * m for v in pot.prior_vars)
        return grad_U_mixture(z, targs, pot.sigma_x, prior_vars, scale,
                              mask if pot.batch_size is None else None)
    if isinstance(pot, LogisticPotential):
        return grad_U_logistic(z, feats, targs, scale)
    prior = GaussianDist(pot.prior.mean, pot.prior.cov * m)
    return grad_U_linreg(z, feats, targs, prior, pot.sigma, scale)


class TestGradientKernels:
    @given(kind=st.sampled_from(["linreg", "mixture", "logistic", "gaussian"]),
           sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           dim=st.integers(1, 4),
           batch=st.sampled_from([None, 1, 3]),
           binary=st.booleans(),
           seed=st.integers(0, 2 ** 16),
           spread=st.sampled_from([0.1, 1.0, 10.0]))
    def test_a_kernel_writes_grad_drawn_bit_for_bit(self, kind, sizes, dim,
                                                     batch, binary, seed, spread):
        # two calls of one kernel at different z and draws, each into a row
        # of a larger array as run writes them: both equal grad_drawn, so
        # the second reads nothing the first left in the scratch, and
        # grad_drawn equals one stacked call of the public gradient
        pot, ds, shards = kernel_case(kind, sizes, dim, batch, binary, seed)
        m, d = len(sizes), pot.props.dim
        zs = spread * np.random.default_rng(seed + 1).standard_normal((2, m, d))
        draws = pot.draw(NoiseModel(seed, m), 2)
        grad, out = pot.kernel((m, d)), np.full((3, m, d), np.nan)
        with np.errstate(over="ignore"):
            for k in range(2):
                grad(zs[k], draws[k], out[k + 1])
            for k in range(2):
                want = pot.grad_drawn(zs[k], draws[k])
                assert out[k + 1].tobytes() == want.tobytes()
                public = stacked_public_grads(pot, ds, shards, zs[k], draws[k])
                assert public.tobytes() == want.tobytes()
        assert np.isnan(out[0]).all()


class TestDrawnRows:
    # a minibatch draw is dataset rows: grad_drawn and the kernel read the
    # rows they are given, whichever shard holds them, and nothing else
    @pytest.mark.parametrize("kind", ["linreg", "logistic", "mixture"])
    def test_hand_made_rows_give_the_stacked_public_gradient(self, kind):
        pot, ds, shards = kernel_case(kind, [3, 5, 2], 3, 2, False, 11)
        # agent 0 reads a row of agent 1's shard and agent 2 one row twice
        rows = np.array([[shards[0][2], shards[1][4]],
                         [shards[1][0], shards[1][3]],
                         [shards[2][1], shards[2][1]]])
        z = np.random.default_rng(12).standard_normal((3, pot.props.dim))
        want = stacked_public_grads(pot, ds, shards, z, rows)
        out = np.empty_like(want)
        pot.kernel(z.shape)(z, rows, out)
        assert pot.grad_drawn(z, rows).tobytes() == want.tobytes()
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["linreg", "logistic", "mixture"])
    @pytest.mark.parametrize("past", [0, 1, 50])
    def test_a_row_past_the_dataset_raises(self, kind, past):
        pot, ds, shards = kernel_case(kind, [3, 5, 2], 3, 2, True, 13)
        rows = np.array([[0, 1], [2, ds.n + past], [4, 5]])
        z = np.zeros((3, pot.props.dim))
        with pytest.raises(IndexError):
            pot.grad_drawn(z, rows)
        with pytest.raises(IndexError):
            pot.kernel(z.shape)(z, rows, np.empty_like(z))

    @pytest.mark.parametrize("kind", ["linreg", "logistic", "mixture"])
    def test_a_draw_maps_each_agent_stream_through_its_shard(self, kind):
        seed, steps, batch = 14, 4, 3
        pot, ds, shards = kernel_case(kind, [3, 5, 1, 4], 2, batch, True, seed)
        rows = pot.draw(NoiseModel(seed, len(shards)), steps)
        assert rows.shape == (steps, len(shards), batch)
        for i, shard in enumerate(shards):
            own = np.random.default_rng([seed, i, 1]).integers(
                0, len(shard), size=(steps, batch))
            np.testing.assert_array_equal(rows[:, i], shard[own])
