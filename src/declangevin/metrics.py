"""Evaluation metrics and theoretical-bound monitors.

Two Gaussian transport distances are provided on purpose.  The first adds
the mean distance to the Frobenius distance of the covariance square roots;
the second is the exact 2-Wasserstein distance between Gaussians.  They
agree when the means match and the covariances commute, and the first upper
bounds the second in general, so both are kept and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .graphs import DirectedGraphSequence, spectral_bounds
from .models import GaussianDist
from .trace import Trace

__all__ = [
    "BoundReport",
    "w2_gaussian_paper",
    "w2_gaussian_bures",
    "empirical_gaussian",
    "roc_auc",
    "check_lemma4_bound",
    "z_deviation_bound_series",
    "rate_fit",
    "estimate_delta_lambda",
]

COV_RIDGE = 1e-9


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clamping at zero."""
    vals, vecs = np.linalg.eigh(mat)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (root + root.T)


def w2_gaussian_paper(g1: GaussianDist, g2: GaussianDist) -> float:
    """Mean distance plus Frobenius distance of covariance square roots.

    ||m1 - m2||_2 + ||Sigma1^(1/2) - Sigma2^(1/2)||_F.  This upper-bounds
    the exact Gaussian 2-Wasserstein distance and coincides with it when
    the means match and the covariances commute.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    mean_part = np.linalg.norm(g1.mean - g2.mean)
    cov_part = np.linalg.norm(_sym_sqrt(g1.cov) - _sym_sqrt(g2.cov), ord="fro")
    return float(mean_part + cov_part)


def w2_gaussian_bures(g1: GaussianDist, g2: GaussianDist) -> float:
    """Exact 2-Wasserstein distance between two Gaussians.

    sqrt(||m1 - m2||^2 + tr(S1 + S2 - 2 (S1^(1/2) S2 S1^(1/2))^(1/2))).
    Eigenvalues of the cross term are clamped at zero before the square
    root so roundoff cannot produce complex output.
    """
    if g1.dim != g2.dim:
        raise ValueError("dimension mismatch")
    root1 = _sym_sqrt(g1.cov)
    cross = np.linalg.eigvalsh(root1 @ g2.cov @ root1)
    cross_tr = np.sqrt(np.clip(cross, 0.0, None)).sum()
    gap = np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * cross_tr
    sq = np.sum((g1.mean - g2.mean) ** 2) + gap
    return float(np.sqrt(max(sq, 0.0)))


def empirical_gaussian(samples: np.ndarray) -> GaussianDist:
    """Gaussian fit of a sample cloud with a stabilizing ridge.

    Uses the sample mean and the unbiased covariance plus 1e-9 on the
    diagonal, so even a constant cloud yields a valid distribution.
    Requires at least dim + 1 samples.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, d = samples.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} samples for a {d}-d fit, got {n}")
    mean = samples.mean(axis=0)
    cov = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    return GaussianDist(mean=mean, cov=cov + COV_RIDGE * np.eye(d))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by the rank-sum formula, ties counted half.

    ``labels`` must contain both classes of {-1, +1}.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    pos = labels == 1.0
    neg = labels == -1.0
    if not (pos.any() and neg.any()):
        raise ValueError("need both classes to compute ROC-AUC")
    if not np.all(pos | neg):
        raise ValueError("labels must be -1 or +1")
    ranks = rankdata(scores)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of comparing a run against a theoretical deviation bound.

    ``taus`` are the prefix lengths checked, ``lhs`` the worst-agent
    cumulative deviation at each prefix, ``bound`` the theoretical ceiling,
    ``max_ratio`` the largest lhs/bound encountered and ``violated`` whether
    any prefix exceeded its ceiling.
    """

    taus: np.ndarray
    lhs: np.ndarray
    bound: np.ndarray
    violated: bool
    max_ratio: float
    delta: float
    lam: float
    d_hat: float


def check_lemma4_bound(trace: Trace, delta: float | None = None,
                       lam: float | None = None,
                       d_hat: float | None = None,
                       window_len: int = 1) -> BoundReport:
    """Check the cumulative-deviation bound on a recorded run.

    For every prefix length tau the worst agent's sum of per-step ratio
    deviations is compared against

        (8/delta) * (lam/(1-lam)) * sum_i ||x_i(0)||_1
        + (8/delta) * (D m / (1-lam)) * (1 + sqrt(tau)),

    with D the largest observed perturbation norm unless given.  ``delta``
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
    if delta <= 0:
        raise ValueError("delta must be positive")
    if d_hat is None:
        d_hat = float(trace.pert_norms.max())

    # steps s = 1.. enter the sum; step 0 only feeds the initial-state term
    cum = np.cumsum(trace.z_dev[1:], axis=0)
    lhs = cum.max(axis=1)
    taus = np.arange(1, trace.num_iters)
    x0_l1 = np.abs(trace.states[0]).sum()
    # from about 100 agents (8/delta)(lam/gap) overflows to inf, and with no
    # initial mass inf * 0 would be a NaN that no comparison flags
    first = 0.0 if x0_l1 == 0 else (8.0 / delta) * (lam / gap) * x0_l1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = first \
            + (8.0 / delta) * (d_hat * m / gap) * (1.0 + np.sqrt(taus))
        ratios = lhs / bound
    return BoundReport(taus=taus, lhs=lhs, bound=bound,
                       violated=bool(np.any(lhs > bound)),
                       max_ratio=float(ratios.max()) if len(ratios) else 0.0,
                       delta=float(delta), lam=float(lam), d_hat=float(d_hat))


def z_deviation_bound_series(trace: Trace, delta: float | None = None,
                             lam: float | None = None,
                             window_len: int = 1) -> tuple:
    """Per-step deviation bound alongside the observed worst-agent deviation.

    Returns (lhs, bound) arrays over steps, where lhs[t] is the largest
    ||z_i(t+1) - xbar(t)|| and bound[t] is

        (8/delta) * (lam**(t+1) * sum_i ||x_i(0)||_1
                     + sum_{s<=t} lam**(t-s) * sum_i e_i(s)),

    accumulated with the geometric recursion so long runs stay linear time.
    """
    m = trace.num_agents
    if delta is None or lam is None:
        sb = spectral_bounds(m, window_len)
        delta = sb.delta_lower if delta is None else delta
        lam = sb.lambda_upper if lam is None else lam
    lhs = trace.z_dev.max(axis=1)
    x0_l1 = np.abs(trace.states[0]).sum()
    pert_sums = trace.pert_norms.sum(axis=1)
    bound = np.zeros(trace.num_iters)
    geo = x0_l1
    for t in range(trace.num_iters):
        geo = lam * geo + pert_sums[t]
        bound[t] = (8.0 / delta) * geo
    return lhs, bound


def rate_fit(w2_series: np.ndarray, ts: np.ndarray) -> float:
    """Log-log decay slope of a distance series over its second half.

    Fits log(w2) against log(1 + t) by least squares on the trailing half
    of the points and returns the slope.  Needs at least 20 points, all
    positive.
    """
    w2 = np.asarray(w2_series, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if w2.shape != ts.shape or w2.ndim != 1:
        raise ValueError("series and times must be matching 1-d arrays")
    if len(w2) < 20:
        raise ValueError("need at least 20 points for a rate fit")
    if np.any(w2 <= 0):
        raise ValueError("distance series must be strictly positive")
    half = len(w2) // 2
    slope, _ = np.polyfit(np.log1p(ts[half:]), np.log(w2[half:]), 1)
    return float(slope)


def estimate_delta_lambda(seq: DirectedGraphSequence, horizon: int) -> tuple:
    """Empirical mixing constants from sliding products of mixing matrices.

    Over every window of m * B consecutive iterations inside the horizon,
    multiplies the mixing matrices in application order and records the
    smallest positive entry of the product and its second singular value
    taken to the per-step root (the geometric contraction factor toward the
    rank-one consensus limit).  Returns (delta_emp, lambda_emp): the
    smallest entry seen and the largest contraction factor seen.
    """
    m = seq.num_nodes
    span = m * seq.window_len
    if horizon < span:
        raise ValueError(f"horizon {horizon} is shorter than one product span {span}")
    delta_emp = np.inf
    lambda_emp = 0.0
    for start in range(horizon - span + 1):
        prod = np.eye(m)
        for t in range(start, start + span):
            prod = seq.mixing_at(t).entries @ prod
        positive = prod[prod > 0.0]
        if positive.size:
            delta_emp = min(delta_emp, float(positive.min()))
        if m > 1:
            sv = np.linalg.svd(prod, compute_uv=False)
            lambda_emp = max(lambda_emp, float(sv[1]) ** (1.0 / span))
    return float(delta_emp), float(lambda_emp)
