"""Data models for the three inference experiments.

Holds the potential interface the samplers call and every potential, the
Gaussian target included, with dataset containers, seeded generators, the
per-model gradients, a libsvm-format loader and the sharding used to spread
data over agents.  Gradient conventions: U is the negative log posterior,
so all gradients returned here are descent directions for sampling;
minibatch estimates are rescaled by shard/batch size so they stay unbiased
for the shard's full-data gradient.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
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
    "PotentialProps",
    "Potential",
    "ZeroPotential",
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

    ``features`` is (n, d): float64, or ``uint8`` 0/1 indicators that are
    cast to float64 only where a batch or a score is computed; any other
    dtype is converted to float64.  ``targets`` is length n and holds labels
    in {-1, +1} for classification, real responses for regression, or the
    raw sample values for the mixture model.  Both are held as read-only
    views, so no write through the dataset reaches a potential that gathers
    from it; the arrays passed in stay writable.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.dtype != np.uint8:
            feats = np.asarray(feats, dtype=float)
        elif feats.max(initial=0) > 1:
            raise ValueError("uint8 features must be 0/1 indicators")
        targs = np.asarray(self.targets, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if targs.shape != (feats.shape[0],):
            raise ValueError("targets length must match the number of rows")
        # bytes are finite by type: no (n, d) bool temporary for them
        if not ((feats.dtype == np.uint8 or np.isfinite(feats).all())
                and np.isfinite(targs).all()):
            raise ValueError("dataset contains non-finite values")
        feats, targs = feats.view(), targs.view()
        feats.flags.writeable = targs.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GaussianDist:
    """Multivariate normal given by mean (d,) and SPD covariance (d, d), or
    a stack of them over leading axes, (..., d) and (..., d, d)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        _check_covariance(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _check_covariance(mean, cov, invert=False):
    """Refuse a covariance (stack) that does not match ``mean`` or is not
    finite, symmetric to within 1e-10 and positive definite.  Returns it, or
    with ``invert`` its inverse, and that matrix's eigenvalues, which are
    positive exactly when the covariance's are."""
    if cov.shape != mean.shape + mean.shape[-1:]:
        raise ValueError("covariance shape must match the mean")
    if not np.isfinite(cov).all():
        raise ValueError("covariance must be finite")
    if not (np.abs(cov - np.swapaxes(cov, -1, -2)) <= 1e-10).all():
        raise ValueError("covariance must be symmetric")
    mat = np.linalg.inv(cov) if invert else cov
    eigs = np.linalg.eigvalsh(mat)
    if not eigs.min(initial=np.inf) > 0:
        raise ValueError("covariance must be positive definite")
    return mat, eigs


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-v)); exp overflows to inf for v below
    about -709, which gives exactly 0.  The caller ignores that overflow."""
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
    # a uint8 Gram product X^T X would wrap around
    feats, targs = ds.features.astype(float, copy=False), ds.targets
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
    return _grad_linreg(np.asarray(z, dtype=float), batch_features, batch_targets,
                        prior.mean, np.linalg.inv(prior.cov), sigma, scale)


def _grad_linreg(z, feats, targs, prior_mean, prior_prec, sigma, scale):
    """:func:`grad_U_linreg` at a float z, given the prior precision.  An
    empty batch's sums are exact zeros, which leave the prior term."""
    prior_term = (prior_prec @ (z - prior_mean)[..., None])[..., 0]
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
    raw samples land in ``targets``; the feature table is (n, 0).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 2, size=n)
    samples = theta1 + comp * theta2 + sigma_x * rng.standard_normal(n)
    return Dataset(features=np.empty((n, 0)), targets=samples)


def grad_U_mixture(theta: np.ndarray, batch: np.ndarray, sigma_x: float = np.sqrt(2.0),
                   prior_vars: tuple = (10.0, 1.0), scale: float | np.ndarray = 1.0,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the negative log posterior of the location mixture.

    ``theta`` stacks (theta1, theta2); ``batch`` holds raw sample values.
    Component 2's responsibility, the sigmoid of the log-density
    difference v, is (1 + tanh(v / 2)) / 2: tanh takes no exp and saturates
    at -1 and 1, so far-out samples cannot overflow.  Independent zero-mean
    Gaussian priors with variances ``prior_vars`` close the posterior.

    Broadcasts over leading axes: theta (..., 2) and batch (..., b) give
    one gradient per leading index, with ``scale`` broadcasting against
    (..., 2).  ``mask``, of the batch's shape, holds 1 for samples and 0
    for padding, which then contributes nothing.  Each gradient is the one
    contraction a run's kernel makes, see :func:`_mixture_kernel`.
    """
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    theta = np.asarray(theta, dtype=float)
    terms, _ = _mixture_terms(np.asarray(batch, dtype=float), scale, sigma_x ** 2,
                              1.0 / np.asarray(prior_vars, dtype=float),
                              1.0 if mask is None else mask)
    shape = np.broadcast_shapes(theta.shape[:-1], terms[1].shape[:-2],
                                terms[2].shape[:-2]) + (2,)
    return _fresh(_mixture_kernel(*terms, shape), shape, np.broadcast_to(theta, shape), None)


def _fresh(grad, shape: tuple, z, *args) -> np.ndarray:
    """What the kernel ``grad`` writes at (z, *args), in a new array."""
    out = np.empty(shape)
    grad(z, *args, out)
    return out


def _mixture_terms(x, scale, s2, prior_prec, w=1.0) -> tuple:
    """The parts of :func:`_mixture_kernel` that theta leaves fixed, for
    samples x (..., b) weighted 1, or 0 where ``w`` marks padding, and the
    offset per unit of sum x, gamma (2, 1)."""
    rows = np.empty(x.shape[:-1] + (2,) + x.shape[-1:])
    rows[..., 0, :], rows[..., 1, :] = w, w * x
    sums = rows.sum(axis=-1)  # (n, sum x)
    gamma = scale / (2.0 * s2)
    per_x, curv = gamma * np.array([2.0, 1.0]), prior_prec + gamma * sums * (2.0, 0.0)
    # row k of cmat weighs P, see _mixture_kernel, into gradient entry k:
    # theta curv + gamma n (b, a + b) + gamma (sum t b, sum t (a + b) - sum t x);
    # flat[j::10] is entries (0, j) and (1, j + 1), basic slices, not a gather
    cmat = np.zeros(curv.shape + (9,))
    flat = cmat.reshape(curv.shape[:-1] + (18,))
    flat[..., 2::10], flat[..., 3::10], flat[..., 7::10] = curv, gamma * sums[..., :1], gamma
    flat[..., 15] = -flat[..., 17]
    coef = np.zeros((2, 9))  # theta . coef is P's first five slots, and zeros
    coef[:, :5] = [[1.0, 0.0, 1.0, 0.0, 1.0], [0.5, 0.5 / s2, 0.0, 1.0, 1.0]]
    return (coef, rows, cmat, sums[..., 1:] * per_x), per_x


def _mixture_kernel(coef, rows, cmat, offset, shape: tuple):
    """``grad(theta, drawn, out)``: :func:`grad_U_mixture` at theta = (a, b)
    of the samples' :func:`_mixture_terms`, which may be refilled between
    calls, into ``out`` of ``shape``, lead + (2,); drawn is unread.  It is
    theta * curv - offset + gamma (q b, q (a + b) - sum t x), where q = n +
    sum t and sample x's responsibility is (1 + t) / 2,
    t = tanh(b (x - a - b/2) / (2 s2)), taken as one contraction per agent,
    cmat . P - offset, of the row P = (a + b/2, b / (2 s2), a, b, a + b,
    sum t, sum t x, sum t b, sum t (a + b)).  q is never formed: gamma n
    and gamma sum t weigh (b, a + b) apart, so where every t is near -1
    the two cancel in the contraction, to a few roundings of gamma n
    |a + b|, far below the samples' own term."""
    p, t = np.empty(shape[:-1] + (9,)), np.empty(shape[:-1] + rows.shape[-1:])
    shift, slope, p_b, p_t = p[..., :1], p[..., 1:2], p[..., 3:5], p[..., 7:]
    sums, sum_t = p[..., 5:7], p[..., 5:6]
    x, t_row, p_row = rows[..., 1, :], t[..., None, :], p[..., None, :]

    def grad(theta, drawn, out):
        theta.dot(coef, p)  # each entry exact or one rounding, like theta @ coef
        np.subtract(x, shift, t)  # padding has x = 0 and weight 0
        np.tanh(np.multiply(t, slope, t), t)
        np.vecdot(t_row, rows, sums)  # (sum t, sum t x)
        np.multiply(sum_t, p_b, p_t)
        np.vecdot(cmat, p_row, out)
        np.subtract(out, offset, out)
    return grad


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
    with np.errstate(over="ignore"):
        return _grad_logistic(w, batch_features, y, scale)


def _check_labels(y: np.ndarray) -> None:
    if y.size and not np.all(np.abs(y) == 1.0):
        raise ValueError("logistic labels must be -1 or +1")


def _grad_logistic(w, feats, y, scale):
    """:func:`grad_U_logistic` on float arrays with checked labels.  With
    u = y w^T x, y sigmoid(-u) is y / (1 + exp(u)) bit for bit: negation is
    exact, and y = +-1 only flips the sign of 1 / (1 + exp(u))."""
    coef = np.multiply(y, (feats @ w[..., None])[..., 0])
    np.exp(coef, out=coef)
    coef += 1.0
    return -scale * _transpose_times(feats, np.divide(y, coef, out=coef)) + np.sign(w)


def load_libsvm(path, num_features: int | None = None) -> Dataset:
    """Read a sparse 'label idx:val ...' text file into a dense Dataset.

    Feature indices are 1-based.  Labels may be {-1, +1} or {0, 1}; the
    latter are mapped to {-1, +1}.  ``num_features`` fixes the feature
    dimension; rows indexing past it are rejected.  Without it the maximum
    index seen sets the dimension.  An index repeated in a row keeps its
    last value.  Features are ``uint8`` when every value is 0 or 1, and
    float64 otherwise.

    Raises
    ------
    ParseError
        On malformed tokens, bad labels, out-of-range indices or non-finite
        values, naming the line.
    """
    # flat buffers, 24 bytes per stored value, filled into the matrix at once
    labels, rows, cols, vals = array("d"), array("q"), array("q"), array("d")
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
            if label == 0.0:
                label = -1.0
            elif label not in (-1.0, 1.0):
                raise ParseError(f"line {lineno}: label {label} is not binary")
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
                if not math.isfinite(val):
                    raise ParseError(f"line {lineno}: feature value {val_s!r} is not finite")
                max_idx = max(max_idx, idx)
                rows.append(len(labels))
                cols.append(idx - 1)
                vals.append(val)
            labels.append(label)
    if not labels:
        raise ParseError("file holds no samples")
    dim = num_features if num_features is not None else max_idx
    vals = np.frombuffer(vals)
    binary = bool(((vals == 0.0) | (vals == 1.0)).all())
    feats = np.zeros((len(labels), dim), dtype=np.uint8 if binary else float)
    # row-major positions, written over the row buffer; ascending unless a
    # row repeats or reorders its indices
    at = np.frombuffer(rows, dtype=np.int64)
    at *= dim
    at += np.frombuffer(cols, dtype=np.int64)
    if not (at[1:] > at[:-1]).all():
        # the first of each position in reverse order is the row's last value
        at, last = np.unique(at[::-1], return_index=True)
        vals = vals[::-1][last]
    feats.reshape(-1)[at] = vals
    return Dataset(features=feats, targets=np.frombuffer(labels))


def make_surrogate_classification(n: int, dim: int, seed: int,
                                  density: float = 14.0 / 123.0) -> Dataset:
    """Synthetic binary-feature classification data of a given shape.

    Features are ``uint8`` Bernoulli(density) indicators and labels are
    drawn from a logistic model with a hidden weight vector, so the task is
    learnable but not separable.  Stands in for a real file when none is on
    disk.
    """
    rng = np.random.default_rng(seed)
    # row chunks of up to 1 MiB of floats, 64 rows a multiple so that the
    # chunks' products group rows as one product over all rows: same bits
    step = 64 * max(1, 2048 // dim)
    feats = np.empty((n, dim), dtype=np.uint8)
    chunks = [feats[start:start + step] for start in range(0, n, step)]
    for chunk in chunks:
        np.less(rng.random(chunk.shape), density, out=chunk)
    hidden = rng.standard_normal(dim)
    logits = np.concatenate([chunk @ hidden for chunk in chunks])
    logits -= np.median(logits)
    with np.errstate(over="ignore"):
        targs = np.where(rng.random(n) < _sigmoid(logits), 1.0, -1.0)
    return Dataset(features=feats, targets=targs)


def partition(ds: Dataset | int, num_shards: int, mode: str = "random",
              seed: int = 0) -> list:
    """Split a dataset, or a number of rows, into near-equal shards, one
    per agent: int64 arrays of row indices, entry i agent i's.

    ``random`` permutes the rows with the given seed before splitting into
    contiguous blocks; ``contiguous`` keeps the original order.  Shard sizes
    differ by at most one row.  The shards depend on the row count alone.
    """
    n = ds if isinstance(ds, (int, np.integer)) else ds.n
    if not 1 <= operator.index(num_shards) <= n:
        raise ValueError(f"cannot split {n} rows into {num_shards} shards")
    if mode == "random":
        order = np.random.default_rng(seed).permutation(n)
    elif mode == "contiguous":
        order = np.arange(n)
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return np.array_split(order, num_shards)


@dataclass(frozen=True)
class PotentialProps:
    """Declared analytic properties of a potential.

    ``mu`` and ``lipschitz`` are the per-agent strong convexity and gradient
    Lipschitz constants when known, None otherwise.  ``dim`` is the state
    dimension.
    """

    dim: int
    mu: float | None = None
    lipschitz: float | None = None


class Potential:
    """Interface for the agents' stochastic gradients.

    The drivers call :meth:`draw` once per block of steps and a
    :meth:`kernel`, built once per run, every step.  ``draw`` takes any
    randomness the potential needs (minibatch indices) from agent i's
    :meth:`NoiseModel.stream` and from nowhere else; ``grad_drawn``
    returns all m agents' gradients at once.  A potential states its
    gradient once, in ``grad_drawn``, and defines ``kernel`` only to reuse
    scratch across steps.
    ``num_agents`` is the network size the potential was built for, or
    None when any size will do.
    """

    props: PotentialProps
    num_agents: int | None = None

    def draw(self, noise, steps: int):
        """Every agent's draws for the next ``steps`` steps; entry k goes to
        :meth:`grad_drawn` at the k-th.  A sharded minibatch potential draws
        (steps, m, batch) dataset rows.  By default nothing is drawn."""
        return [None] * steps

    def grad_drawn(self, z: np.ndarray, drawn) -> np.ndarray:
        """(m, d) gradients, row i at agent i's ratio estimate z[i], from
        one step's entry of :meth:`draw`."""
        raise NotImplementedError

    def kernel(self, shape: tuple):
        """``grad(z, drawn, out)``, writing grad_drawn(z, drawn) of a z of
        ``shape`` into ``out`` bit for bit.  This one copies what grad_drawn
        returns.  Override it only to reuse scratch across steps, held by
        the kernel and not the potential, so two runs never share it."""
        return lambda z, drawn, out: np.copyto(out, self.grad_drawn(z, drawn))


class ZeroPotential(Potential):
    """Flat potential; turns the iteration into pure consensus."""

    def __init__(self, dim: int):
        self.props = PotentialProps(dim=dim, mu=0.0, lipschitz=0.0)

    def grad_drawn(self, z: np.ndarray, drawn) -> np.ndarray:
        return np.zeros_like(z)


class _ShardedPotential(Potential):
    """Common minibatch plumbing for data-sharded potentials, one agent per
    shard: ``shards[i]`` holds agent i's dataset rows, as from :func:`partition`.

    Each agent resamples ``batch_size`` rows of its shard with replacement
    every step, from its own :meth:`NoiseModel.stream`; :meth:`draw` takes
    a block of steps' positions in one draw per agent and maps them through
    the agent's shard to dataset rows.  ``batch_size=None`` uses the full
    shard deterministically and consumes no randomness.

    A minibatch potential copies no data: it keeps the dataset's read-only
    arrays and each shard's rows, and every step gathers its (m,
    batch_size, d) features and (m, batch_size) targets from the dataset at
    the drawn rows, as float64.  Full shards are read whole every step, so
    they are gathered once and stored stacked, (m, n_max, d) float64
    features and (m, n_max) targets, and every agent's gradient comes from
    one array expression.  Only this stack is padded: shorter shards get
    zero feature rows and target 1.0, a valid label, which add exactly
    nothing to the regression and logistic sums; the mixture weighs its
    padding 0.
    """

    def __init__(self, ds: Dataset, shards, batch_size):
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size
        self.num_agents = len(shards)
        self._sizes = [len(s) for s in shards]
        rows = np.zeros((len(shards), max(self._sizes)), dtype=np.int64)
        for i, (s, n) in enumerate(zip(shards, self._sizes)):
            rows[i, :n] = s
            if n and not 0 <= rows[i, :n].min() <= rows[i, :n].max() < ds.n:
                raise ValueError(f"shard {i} holds a row outside [0, {ds.n})")
        if batch_size is not None:
            self._features, self._targets = ds.features, ds.targets
            self._shards = [r[:n] for r, n in zip(rows, self._sizes)]
            self._scale = (np.array(self._sizes) / batch_size)[:, None]
            return
        pad = np.arange(rows.shape[1]) >= np.array(self._sizes)[:, None]
        # one gather each, so no shard is ever held twice
        self._features = ds.features[rows].astype(float, copy=False)
        self._features[pad] = 0.0
        self._targets = ds.targets[rows]
        self._targets[pad] = 1.0

    @property
    def shard_targets(self) -> list:
        """Each agent's shard targets, made on every access: views of the
        stacked full shards, or gathered from the dataset for minibatches."""
        if self.batch_size is None:
            return [y[:n] for y, n in zip(self._targets, self._sizes)]
        return [self._targets[s] for s in self._shards]

    def draw(self, noise, steps):
        """(steps, m, batch_size) dataset rows, agent i's from one draw on
        its stream; full shards draw nothing (None per step)."""
        if self.batch_size is None:
            return super().draw(noise, steps)
        if noise is None:
            raise ValueError(f"batch_size={self.batch_size} draws from the noise "
                             "streams; a run without noise needs batch_size=None")
        rows = np.empty((steps, self.num_agents, self.batch_size), dtype=np.int64)
        for i, shard in enumerate(self._shards):  # one agent's draw held at a time
            rows[:, i] = shard[noise.stream(i).integers(0, len(shard), size=rows.shape[::2])]
        return rows

    def grad_drawn(self, z, rows):
        """The subclass's ``_grad(z, feats, targs, scale)`` on the padded
        full shards, or on each agent's dataset rows ``rows[i]``, gathered
        into new arrays: a batch buffer held for the whole run would add to
        the run's peak, which a minibatch run reaches during the gather.
        A row outside the dataset raises IndexError."""
        if self.batch_size is None:
            return self._grad(z, self._features, self._targets, 1.0)
        return self._grad(z, self._features.take(rows, axis=0).astype(float, copy=False),
                          self._targets.take(rows), self._scale)


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

    def _grad(self, z, feats, targs, scale):
        return _grad_linreg(z, feats, targs, self.prior.mean, self._agent_prec, self.sigma,
                            scale)


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
        self._agent_prec = 1.0 / (np.array(self.prior_vars) * len(shards))
        self.props = PotentialProps(dim=2)
        if batch_size is None:
            real = np.arange(self._targets.shape[1]) < np.array(self._sizes)[:, None]
            self._terms, _ = _mixture_terms(self._targets, 1.0, self.sigma_x ** 2,
                                            self._agent_prec, real)
            self._targets = self._terms[1][:, 1]  # held once, as the rows' w x
        else:
            # a batch of zeros gives the terms that no batch moves: a batch's
            # sum x enters the curvature times 0, a zero for finite samples
            self._terms, self._per_x = _mixture_terms(
                np.zeros((len(shards), batch_size)), self._scale, self.sigma_x ** 2,
                self._agent_prec)

    def grad_drawn(self, z, idx):
        return _fresh(self.kernel(np.shape(z)), np.shape(z), z, idx)

    def kernel(self, shape):
        if self.batch_size is None:
            return _mixture_kernel(*self._terms, shape)
        # each step's samples go into row 1 of a copy of the zero batch's
        # rows, and give the offset sum x * gamma (2, 1)
        coef, rows, cmat, offset = self._terms
        rows, offset = rows.copy(), np.empty_like(offset)
        x, xs, total = rows[:, 1], rows[:, 1:], np.empty((len(rows), 1))
        grad = _mixture_kernel(coef, rows, cmat, offset, shape)

        def gather_grad(z, drawn, out):
            self._targets.take(drawn, out=x)
            np.multiply(np.sum(xs, axis=-1, out=total), self._per_x, out=offset)
            grad(z, drawn, out)
        return gather_grad


class LogisticPotential(_ShardedPotential):
    """Sharded logistic-regression potential with a Laplace prior.

    Unlike the Gaussian-prior potentials, every agent applies the full
    sign(w) regularizer: the per-agent gradient formula is fixed that way,
    so the network target carries an m-fold L1 weight.
    """

    def __init__(self, ds: Dataset, shards, batch_size: int | None = 32):
        super().__init__(ds, shards, batch_size)
        _check_labels(np.concatenate(self.shard_targets))
        self.props = PotentialProps(dim=ds.dim)

    _grad = staticmethod(_grad_logistic)


class GaussianPotential(Potential):
    """Quadratic target split evenly across agents.

    The network as a whole targets N(mean, cov), cov checked as
    :class:`GaussianDist` checks it; each agent holds 1/m of the potential,
    so its gradient is the affine map H z - b with H = P/m, P the target
    precision, and b = H mean, and the declared per-agent constants are the
    target curvature extremes divided by m.  Only H and b are kept.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray, num_agents: int):
        mean = np.asarray(mean, dtype=float)
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError("the target must be a single Gaussian, not a stack")
        self.num_agents = operator.index(num_agents)
        if self.num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        precision, eigs = _check_covariance(mean, cov, invert=True)
        self._h = precision / self.num_agents
        self._b = self._h @ mean
        self.props = PotentialProps(dim=len(self._b),
                                    mu=float(eigs.min()) / self.num_agents,
                                    lipschitz=float(eigs.max()) / self.num_agents)

    def grad(self, agent, z, rng):
        return self.grad_drawn(z, None)

    def grad_drawn(self, z, drawn):
        # H z - b as an elementwise product summed over the last axis: it
        # broadcasts over leading axes (a single z included) and computes
        # every row alike whatever their number, so grad and grad_drawn
        # agree bitwise
        return (self._h * z[..., None, :]).sum(axis=-1) - self._b
