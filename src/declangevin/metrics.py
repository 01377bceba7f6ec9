"""Evaluation metrics and theoretical-bound monitors.

Two Gaussian transport distances are provided on purpose.  The first adds
the mean distance to the Frobenius distance of the covariance square roots;
the second is the exact 2-Wasserstein distance between Gaussians.  They
agree when the means match and the covariances commute, and the first upper
bounds the second in general, so both are kept and cross-checked.  Both, and
the fits, take stacks over leading axes, as :func:`roc_auc` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import spectral_bounds
from .models import GaussianDist
from .trace import _CHUNK_BYTES, Trace

__all__ = [
    "w2_gaussian_paper",
    "w2_gaussian_bures",
    "empirical_gaussian",
    "roc_auc",
    "check_lemma4_bound",
    "rate_fit",
]

COV_RIDGE = 1e-9


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square roots of (..., d, d) matrices, clamping at zero."""
    vals, vecs = np.linalg.eigh(mat)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) \
        @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def w2_gaussian_paper(g1: GaussianDist, g2: GaussianDist) -> float | np.ndarray:
    """Mean distance plus Frobenius distance of covariance square roots.

    ||m1 - m2||_2 + ||Sigma1^(1/2) - Sigma2^(1/2)||_F.  This upper-bounds
    the exact Gaussian 2-Wasserstein distance and coincides with it when
    the means match and the covariances commute.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    dist = np.linalg.norm(g1.mean - g2.mean, axis=-1) \
        + np.linalg.norm(_sym_sqrt(g1.cov) - _sym_sqrt(g2.cov), axis=(-2, -1))
    return float(dist) if np.ndim(dist) == 0 else dist


def w2_gaussian_bures(g1: GaussianDist, g2: GaussianDist) -> float | np.ndarray:
    """Exact 2-Wasserstein distance between two Gaussians.

    sqrt(||m1 - m2||^2 + tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2))).
    Eigenvalues of the cross term are clamped at zero before the square
    root so roundoff cannot produce complex output.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    root1 = _sym_sqrt(g1.cov)
    cross = np.linalg.eigvalsh(root1 @ g2.cov @ root1)
    cross_tr = np.sqrt(np.clip(cross, 0.0, None)).sum(axis=-1)
    gap = np.trace(g1.cov, axis1=-2, axis2=-1) \
        + np.trace(g2.cov, axis1=-2, axis2=-1) - 2.0 * cross_tr
    sq = np.sum((g1.mean - g2.mean) ** 2, axis=-1) + gap
    dist = np.sqrt(np.maximum(sq, 0.0))
    return float(dist) if np.ndim(dist) == 0 else dist


def empirical_gaussian(samples: np.ndarray) -> GaussianDist:
    """Gaussian fit of a sample cloud with a stabilizing ridge.

    Uses the sample mean and the unbiased covariance plus 1e-9 on the
    diagonal, so even a constant cloud yields a valid distribution.
    Requires at least dim + 1 samples, (..., n, d) or n 1-d ones.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape[-2:]
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} samples for a {d}-d fit, got {n}")
    mean = samples.mean(axis=-2)
    centred = samples - mean[..., None, :]
    # times the reciprocal, as np.cov does, so that one cloud's fit is np.cov's
    cov = np.swapaxes(centred, -1, -2) @ centred * (1.0 / (n - 1))
    return GaussianDist(mean=mean, cov=cov + COV_RIDGE * np.eye(d))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Area under the ROC curve by the rank-sum formula, ties counted half.

    ``scores`` has shape (..., n): one score per label along its last axis,
    and one scoring of the n examples per leading index.  The result has
    the leading shape, and 1-d scores give a float.  ``labels`` must contain
    both classes of {-1, +1}.  U, the rank sum of the positives less its
    minimum, counts every negative below a positive once and every tie a
    half; it is summed here from integer counts, so it is exact.  A scoring
    with any NaN gives NaN.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if labels.ndim != 1 or scores.shape[-1:] != labels.shape:
        raise ValueError("scores must end in an axis of one score per label")
    pos, neg = _classes(labels)
    rows = scores.reshape(-1, len(labels))
    pos_sorted = np.take(rows, pos, axis=1)
    neg_sorted = np.take(rows, neg, axis=1)
    pos_sorted.sort(axis=1)
    neg_sorted.sort(axis=1)
    auc = _sorted_auc(pos_sorted, neg_sorted)
    return float(auc[0]) if scores.ndim == 1 else auc.reshape(scores.shape[:-1])


def _classes(labels: np.ndarray) -> tuple:
    """Indices of the positive and of the negative labels; refuses a single
    class and labels other than -1 and +1."""
    pos = np.flatnonzero(labels == 1.0)
    neg = np.flatnonzero(labels == -1.0)
    if not (len(pos) and len(neg)):
        raise ValueError("need both classes to compute ROC-AUC")
    if len(pos) + len(neg) != len(labels):
        raise ValueError("labels must be -1 or +1")
    return pos, neg


def _sorted_auc(pos_sorted: np.ndarray, neg_sorted: np.ndarray) -> np.ndarray:
    """Exact AUC of each row of a scoring split by class, the positives'
    and the negatives' scores each sorted ascending along the rows.  NaN
    sorts last, so a row whose last entry in either block is NaN gives NaN."""
    u = []
    for p, q in zip(pos_sorted, neg_sorted):
        below = np.searchsorted(q, p, "left")
        # a positive ties only with negatives equal to q[below]
        tie = q[np.minimum(below, len(q) - 1)] == p
        u.append(2 * below.sum()
                 + (np.searchsorted(q, p[tie], "right") - below[tie]).sum())
    auc = np.array(u) / 2 / (pos_sorted.shape[1] * neg_sorted.shape[1])
    auc[np.isnan(pos_sorted[:, -1]) | np.isnan(neg_sorted[:, -1])] = np.nan
    return auc


@dataclass(frozen=True)
class BoundReport:
    """Outcome of comparing a run against a theoretical deviation bound.

    ``bound`` is the theoretical ceiling at each prefix of the trace's
    ``worst_cum_dev``, ``max_ratio`` the largest deviation/bound ratio
    encountered and ``violated`` whether any prefix exceeded its ceiling.
    """

    bound: np.ndarray
    violated: bool
    max_ratio: float
    delta: float
    lam: float


def check_lemma4_bound(trace: Trace, delta: float | None = None,
                       lam: float | None = None,
                       window_len: int = 1) -> BoundReport:
    """Check the cumulative-deviation bound on a recorded run.

    For every prefix length tau the worst agent's sum of per-step ratio
    deviations is compared against

        (8/delta) * (lam/(1-lam)) * sum_i ||x_i(0)||_1
        + (8/delta) * (D m / (1-lam)) * (1 + sqrt(tau)),

    with D the trace's largest perturbation norm ``max_pert``.  ``delta``
    and ``lam`` default to the closed-form worst-case constants for the
    trace's network size and ``window_len``; a default ``lam`` brings its
    gap 1 - lam from :func:`spectral_bounds`, which stays positive at
    network sizes where ``lam`` itself rounds to 1.0.  Where the bound
    overflows (from about 100 agents at the default constants) it reads
    inf, never NaN: the true bound exceeds every double there, so the
    check is not violated and ``max_ratio`` reads 0.
    """
    m = trace.num_agents
    if delta is None or lam is None:
        sb = spectral_bounds(m, window_len)
        delta = sb.delta_lower if delta is None else delta
    if lam is None:
        lam, gap = sb.lambda_upper, sb.gap
    elif not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")
    else:
        gap = 1.0 - lam
    if not delta > 0:
        raise ValueError("delta must be positive")
    lhs = trace.worst_cum_dev
    x0_l1 = np.abs(trace.states[0]).sum()
    # from about 100 agents (8/delta)(lam/gap) overflows to inf, and with no
    # initial mass inf * 0 would be a NaN that no comparison flags
    first = 0.0 if x0_l1 == 0 else (8.0 / delta) * (lam / gap) * x0_l1
    # in place over tau = 1 .. T-1, and the ratios a chunk at a time, so the
    # bound is the one (T,) float array; a NaN chunk maximum carries through
    bound, width = np.arange(1.0, trace.num_iters), _CHUNK_BYTES // 8
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.sqrt(bound, out=bound)
        bound += 1.0
        bound *= (8.0 / delta) * (trace.max_pert * m / gap)
        bound += first
        ratios = [(lhs[i:i + width] / bound[i:i + width]).max()
                  for i in range(0, len(bound), width)]
        max_ratio = float(np.max(ratios)) if ratios else 0.0
    return BoundReport(bound=bound, violated=bool(np.any(lhs > bound)),
                       max_ratio=max_ratio, delta=float(delta), lam=float(lam))


def rate_fit(w2_series: np.ndarray, ts: np.ndarray) -> float:
    """Log-log decay slope of a distance series over its second half.

    Fits log(w2) against log(1 + t) by least squares on the trailing half
    of the points and returns the slope.  Needs at least 20 points, all
    positive and finite.
    """
    w2 = np.asarray(w2_series, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if w2.shape != ts.shape or w2.ndim != 1:
        raise ValueError("series and times must be matching 1-d arrays")
    if len(w2) < 20:
        raise ValueError("need at least 20 points for a rate fit")
    if not (np.isfinite(w2).all() and (w2 > 0).all()):
        raise ValueError("distance series must be strictly positive and finite")
    half = len(w2) // 2
    slope, _ = np.polyfit(np.log1p(ts[half:]), np.log(w2[half:]), 1)
    return float(slope)

