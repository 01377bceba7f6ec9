"""Data models for the three inference experiments.

Holds dataset containers, seeded generators, the per-model potential
gradients, a libsvm-format loader and the sharding used to spread data over
agents.  Gradient conventions: U is the negative log posterior, so all
gradients returned here are descent directions for sampling; minibatch
estimates are rescaled by shard/batch size so they stay unbiased for the
shard's full-data gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .langevin import Potential, PotentialProps

__all__ = [
    "Dataset",
    "Shard",
    "GaussianDist",
    "ParseError",
    "generate_linreg_data",
    "linreg_posterior",
    "grad_U_linreg",
    "generate_mixture_data",
    "grad_U_mixture",
    "grad_U_logistic",
    "load_libsvm",
    "make_surrogate_classification",
    "partition",
    "LinRegPotential",
    "MixturePotential",
    "LogisticPotential",
    "GaussianPotential",
]


class ParseError(ValueError):
    """Malformed input file; the message carries the offending line number."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus per-row targets.

    ``features`` is (n, d); ``targets`` is length n and holds labels in
    {-1, +1} for classification, real responses for regression, or the raw
    sample values for the mixture model (mirrored into a single feature
    column so both access patterns work).
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        targs = np.asarray(self.targets, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if targs.shape != (feats.shape[0],):
            raise ValueError("targets length must match the number of rows")
        if not (np.isfinite(feats).all() and np.isfinite(targs).all()):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Shard:
    """One agent's slice of a dataset, by row indices."""

    agent: int
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate normal given by mean (d,) and SPD covariance (d, d), or
    a stack of them over leading axes, (..., d) and (..., d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError("covariance shape must match the mean")
        if not np.allclose(cov, np.swapaxes(cov, -1, -2), rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if (np.linalg.eigvalsh(cov) <= 0).any():
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-v)); exp overflows to inf for v below
    about -709, which gives exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-v))


def generate_linreg_data(n: int, dim: int, sigma: float, true_w: np.ndarray,
                         seed: int) -> Dataset:
    """Gaussian-design linear regression data y = X w + sigma * noise.

    Rows of X are standard normal; ``sigma`` is the response noise standard
    deviation.
    """
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    true_w = np.asarray(true_w, dtype=float)
    if true_w.shape != (dim,):
        raise ValueError("true_w must have length dim")
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, dim))
    targs = feats @ true_w + sigma * rng.standard_normal(n)
    return Dataset(features=feats, targets=targs)


def linreg_posterior(ds: Dataset, prior: GaussianDist, sigma: float) -> GaussianDist:
    """Conjugate Gaussian posterior of the regression weights.

    Precision adds X^T X / sigma^2 to the prior precision; an empty dataset
    returns the prior unchanged.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if prior.mean.ndim != 1:
        raise ValueError("prior must be a single Gaussian, not a stack")
    feats, targs = ds.features, ds.targets
    prior_prec = np.linalg.inv(prior.cov)
    prec = prior_prec + feats.T @ feats / sigma ** 2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ (prior_prec @ prior.mean + feats.T @ targs / sigma ** 2)
    return GaussianDist(mean=mean, cov=cov)


def grad_U_linreg(z: np.ndarray, batch_features: np.ndarray, batch_targets: np.ndarray,
                  prior: GaussianDist, sigma: float,
                  scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Gradient of the negative log posterior for linear regression.

    scale * X_b^T (X_b z - y_b) / sigma^2 + Sigma0^{-1} (z - mu0), where
    ``scale`` is the shard-to-batch size ratio that keeps the minibatch
    estimate unbiased.  An empty batch leaves only the prior term.

    Broadcasts over leading axes: z (..., d), features (..., b, d), targets
    (..., b) and a ``scale`` that broadcasts against (..., d) give one
    gradient per leading index.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return _grad_linreg(np.asarray(z, dtype=float), batch_features,
                        batch_targets, prior.mean, np.linalg.inv(prior.cov),
                        sigma, scale)


def _grad_linreg(z, feats, targs, prior_mean, prior_prec, sigma, scale):
    """:func:`grad_U_linreg` on a float z, given the prior precision."""
    prior_term = (prior_prec @ (z - prior_mean)[..., None])[..., 0]
    if feats.shape[-2] == 0:
        return prior_term
    resid = (feats @ z[..., None])[..., 0] - targs
    return scale * _transpose_times(feats, resid) / sigma ** 2 + prior_term


def _transpose_times(feats: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """X^T c over leading axes: feats (..., b, d), coef (..., b) -> (..., d)."""
    return (np.swapaxes(feats, -1, -2) @ coef[..., None])[..., 0]


def generate_mixture_data(n: int, theta1: float, theta2: float, sigma_x: float,
                          seed: int) -> Dataset:
    """Samples from the two-component location mixture.

    Each draw is N(theta1, sigma_x^2) or N(theta1 + theta2, sigma_x^2) with
    equal probability; ``sigma_x`` is the component standard deviation.  The
    raw samples land in ``targets`` with a mirroring (n, 1) feature column.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 2, size=n)
    samples = theta1 + comp * theta2 + sigma_x * rng.standard_normal(n)
    return Dataset(features=samples[:, None], targets=samples)


def grad_U_mixture(theta: np.ndarray, batch: np.ndarray, sigma_x: float = np.sqrt(2.0),
                   prior_vars: tuple = (10.0, 1.0), scale: float | np.ndarray = 1.0,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the negative log posterior of the location mixture.

    ``theta`` stacks (theta1, theta2); ``batch`` holds raw sample values.
    Component responsibilities are evaluated through the log-density
    difference with a saturating sigmoid, so far-out samples cannot
    overflow.  Independent zero-mean Gaussian priors with variances
    ``prior_vars`` close the posterior.

    Broadcasts over leading axes: theta (..., 2) and batch (..., b) give
    one gradient per leading index, with ``scale`` broadcasting against
    (..., 2).  ``mask`` (..., b) holds 1 for samples and 0 for padding,
    which then contributes nothing.
    """
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    return _grad_mixture(np.asarray(theta, dtype=float),
                         np.asarray(batch, dtype=float), sigma_x ** 2,
                         np.asarray(prior_vars, dtype=float), scale, mask)


def _grad_mixture(theta, x, s2, prior_vars, scale, mask):
    """:func:`grad_U_mixture` on float arrays, given s2 = sigma_x**2 and
    the prior variances as an array."""
    a, b = theta[..., :1], theta[..., 1:]
    d1 = x - a
    d2 = d1 - b
    # log N(x; a+b) - log N(x; a), feeding the responsibility of component 2
    r2 = _sigmoid((d1 ** 2 - d2 ** 2) / (2.0 * s2))
    # the two per-sample terms side by side, (..., 2, b), summed at once
    terms = np.empty(r2.shape[:-1] + (2,) + r2.shape[-1:])
    np.subtract(d1, r2 * b, out=terms[..., 0, :])
    np.multiply(r2, d2, out=terms[..., 1, :])
    if mask is not None:
        terms *= mask[..., None, :]
    return -scale * terms.sum(axis=-1) / s2 + theta / prior_vars


def grad_U_logistic(w: np.ndarray, batch_features: np.ndarray, batch_targets: np.ndarray,
                    scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Gradient of the negative log posterior for logistic regression.

    Labels must be -1 or +1.  The likelihood part is
    scale * sum_i [-y_i x_i * sigmoid(-y_i w^T x_i)] and the Laplace prior
    contributes sign(w), with sign(0) = 0.  Broadcasts over leading axes
    as :func:`grad_U_linreg` does.
    """
    w = np.asarray(w, dtype=float)
    y = np.asarray(batch_targets, dtype=float)
    _check_labels(y)
    return _grad_logistic(w, batch_features, y, scale)


def _check_labels(y: np.ndarray) -> None:
    if y.size and not np.all(np.abs(y) == 1.0):
        raise ValueError("logistic labels must be -1 or +1")


def _grad_logistic(w, feats, y, scale):
    """:func:`grad_U_logistic` on float arrays with checked labels."""
    coef = y * _sigmoid(-y * (feats @ w[..., None])[..., 0])
    return -scale * _transpose_times(feats, coef) + np.sign(w)


def load_libsvm(path, num_features: int | None = None) -> Dataset:
    """Read a sparse 'label idx:val ...' text file into a dense Dataset.

    Feature indices are 1-based.  Labels may be {-1, +1} or {0, 1}; the
    latter are mapped to {-1, +1}.  ``num_features`` fixes the feature
    dimension; rows indexing past it are rejected.  Without it the maximum
    index seen sets the dimension.

    Raises
    ------
    ParseError
        On malformed tokens, bad labels or out-of-range indices, naming the
        line.
    """
    labels = []
    rows = []
    max_idx = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
            if label in (-1.0, 1.0):
                pass
            elif label == 0.0:
                label = -1.0
            else:
                raise ParseError(f"line {lineno}: label {label} is not binary")
            feats = []
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
                if idx < 1:
                    raise ParseError(f"line {lineno}: feature index {idx} is not 1-based")
                if num_features is not None and idx > num_features:
                    raise ParseError(
                        f"line {lineno}: feature index {idx} exceeds declared {num_features}")
                max_idx = max(max_idx, idx)
                feats.append((idx, val))
            labels.append(label)
            rows.append(feats)
    if not rows:
        raise ParseError("file holds no samples")
    dim = num_features if num_features is not None else max_idx
    feats = np.zeros((len(rows), dim))
    for i, row in enumerate(rows):
        for idx, val in row:
            feats[i, idx - 1] = val
    return Dataset(features=feats, targets=np.asarray(labels))


def make_surrogate_classification(n: int, dim: int, seed: int,
                                  density: float = 14.0 / 123.0) -> Dataset:
    """Synthetic binary-feature classification data of a given shape.

    Features are Bernoulli(density) indicators and labels are drawn from a
    logistic model with a hidden weight vector, so the task is learnable but
    not separable.  Stands in for a real file when none is on disk.
    """
    rng = np.random.default_rng(seed)
    feats = rng.random((n, dim))
    np.less(feats, density, out=feats, casting="unsafe")
    hidden = rng.standard_normal(dim)
    logits = feats @ hidden
    logits -= np.median(logits)
    targs = np.where(rng.random(n) < _sigmoid(logits), 1.0, -1.0)
    return Dataset(features=feats, targets=targs)


def partition(ds: Dataset | int, num_shards: int, mode: str = "random",
              seed: int = 0) -> list:
    """Split a dataset, or a number of rows, into near-equal shards, one
    per agent.

    ``random`` permutes the rows with the given seed before splitting into
    contiguous blocks; ``contiguous`` keeps the original order.  Shard sizes
    differ by at most one row.  The shards depend on the row count alone.
    """
    n = ds if isinstance(ds, (int, np.integer)) else ds.n
    if not 1 <= num_shards <= n:
        raise ValueError(f"cannot split {n} rows into {num_shards} shards")
    if mode == "random":
        order = np.random.default_rng(seed).permutation(n)
    elif mode == "contiguous":
        order = np.arange(n)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return [Shard(agent=i, indices=chunk)
            for i, chunk in enumerate(np.array_split(order, num_shards))]


class _ShardedPotential(Potential):
    """Common minibatch plumbing for data-sharded potentials, one agent per
    shard.

    Each agent resamples ``batch_size`` rows of its shard with replacement
    every step, from its own :meth:`NoiseModel.stream`; :meth:`draw` takes
    a block of steps' indices in one draw per agent.  ``batch_size=None``
    uses the full shard deterministically and consumes no randomness.

    Shards are stored stacked, (m, n_max, d) features and (m, n_max)
    targets, so every agent's gradient comes from one array expression.
    Shorter shards are padded with zero feature rows and target 1.0, a
    valid label: a zero row adds exactly nothing to the regression and
    logistic sums, and a 0/1 mask, kept only when shard sizes differ,
    zeroes the padding out of the mixture's.
    """

    def __init__(self, ds: Dataset, shards, batch_size):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size
        self._sizes = [len(s.indices) for s in shards]
        rows = np.zeros((len(shards), max(self._sizes)), dtype=np.int64)
        for i, s in enumerate(shards):
            rows[i, :self._sizes[i]] = s.indices
        pad = np.arange(rows.shape[1]) >= np.array(self._sizes)[:, None]
        # one gather each, so no shard is ever held twice
        self._features = ds.features[rows]
        self._features[pad] = 0.0
        self._targets = ds.targets[rows]
        self._targets[pad] = 1.0
        self._mask = (~pad).astype(float) if pad.any() else None
        self.num_agents = len(shards)
        self.shard_targets = [y[:n] for y, n in zip(self._targets, self._sizes)]
        self._rows = np.arange(len(shards))[:, None]
        if batch_size is not None:
            self._scale = (np.array(self._sizes) / batch_size)[:, None]

    def draw(self, noise, steps):
        """(steps, m, batch_size) row indices, agent i's from one draw on
        its stream; full shards draw nothing (None per step)."""
        if self.batch_size is None:
            return super().draw(noise, steps)
        if noise is None:
            raise ValueError(f"batch_size={self.batch_size} draws from the noise "
                             "streams; a run without noise needs batch_size=None")
        return np.stack([noise.stream(i).integers(0, n, size=(steps, self.batch_size))
                         for i, n in enumerate(self._sizes)], axis=1)

    def _batches(self, idx):
        """(features, targets, scale) of every agent's batch, stacked: rows
        ``idx`` (m, batch_size) of each shard, or with ``idx`` None the
        padded full shards (see the class docstring)."""
        if idx is None:
            return self._features, self._targets, 1.0
        return (self._features[self._rows, idx], self._targets[self._rows, idx],
                self._scale)


class LinRegPotential(_ShardedPotential):
    """Sharded linear-regression posterior potential.

    Each agent's term carries 1/m of the shared prior, so the per-agent
    potentials sum to likelihood + one prior and the network targets the
    same posterior :func:`linreg_posterior` computes.
    """

    def __init__(self, ds: Dataset, shards, prior: GaussianDist, sigma: float,
                 batch_size: int | None = 1):
        super().__init__(ds, shards, batch_size)
        if prior.mean.ndim != 1:
            raise ValueError("prior must be a single Gaussian, not a stack")
        self.prior = prior
        self.sigma = float(sigma)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        # 1/m prior weight == m-times-wider prior covariance in the gradient
        self._agent_prec = np.linalg.inv(prior.cov * len(shards))
        self.props = PotentialProps(dim=ds.dim)

    def grad_drawn(self, z, idx):
        feats, targs, scale = self._batches(idx)
        return _grad_linreg(z, feats, targs, self.prior.mean, self._agent_prec,
                            self.sigma, scale)


class MixturePotential(_ShardedPotential):
    """Sharded two-component location-mixture potential over (theta1, theta2).

    As in :class:`LinRegPotential`, the shared prior enters each agent's
    term with weight 1/m so the network potential counts it exactly once.
    """

    def __init__(self, ds: Dataset, shards, sigma_x: float = np.sqrt(2.0),
                 prior_vars: tuple = (10.0, 1.0), batch_size: int | None = 1):
        super().__init__(ds, shards, batch_size)
        self.sigma_x = float(sigma_x)
        self.prior_vars = (float(prior_vars[0]), float(prior_vars[1]))
        if self.sigma_x <= 0:
            raise ValueError("sigma_x must be positive")
        self._s2 = self.sigma_x ** 2
        self._agent_prior_vars = np.array(self.prior_vars) * len(shards)
        self.props = PotentialProps(dim=2)

    def grad_drawn(self, z, idx):
        _, targs, scale = self._batches(idx)
        mask = self._mask if idx is None else None
        return _grad_mixture(z, targs, self._s2, self._agent_prior_vars,
                             scale, mask)


class LogisticPotential(_ShardedPotential):
    """Sharded logistic-regression potential with a Laplace prior.

    Unlike the Gaussian-prior potentials, every agent applies the full
    sign(w) regularizer: the per-agent gradient formula is fixed that way,
    so the network target carries an m-fold L1 weight.
    """

    def __init__(self, ds: Dataset, shards, batch_size: int | None = 32):
        super().__init__(ds, shards, batch_size)
        _check_labels(self._targets)
        self.props = PotentialProps(dim=ds.dim)

    def grad_drawn(self, z, idx):
        return _grad_logistic(z, *self._batches(idx))


class GaussianPotential(Potential):
    """Quadratic target split evenly across agents.

    The network as a whole targets N(mean, cov); each agent holds 1/m of
    the potential, so the declared per-agent constants are the target
    curvature extremes divided by m.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray, num_agents: int):
        mean = np.asarray(mean, dtype=float)
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        self.mean = mean
        self.precision = np.linalg.inv(cov)
        self.num_agents = int(num_agents)
        eigs = np.linalg.eigvalsh(self.precision)
        self.props = PotentialProps(dim=mean.shape[0],
                                    mu=float(eigs.min()) / num_agents,
                                    lipschitz=float(eigs.max()) / num_agents)

    def grad(self, agent, z, rng):
        return self.grad_drawn(z, None)

    def grad_drawn(self, z, drawn):
        # P (z - mean) / m as an elementwise product summed over the last
        # axis: it broadcasts over leading axes (a single z included) and
        # computes every row alike whatever their number, so grad and
        # grad_drawn agree bitwise
        return (self.precision * (z - self.mean)[..., None, :]).sum(axis=-1) \
            / self.num_agents
