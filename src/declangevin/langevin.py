"""Decentralized Langevin iteration on top of push-sum mixing.

One iteration mixes the network state, evaluates each agent's stochastic
gradient at its de-biased ratio estimate z_i, and writes

    x_i  <-  w_i - alpha(t+1) * grad_i(z_i) + sqrt(2 alpha(t+1)) * r_i

with r_i an isotropic standard normal draw from the agent's own stream.
Because the mixing matrix is column-stochastic, the network average of x
evolves exactly like a single chain driven by the mean gradient and the
mean injected noise, which is what makes the whole construction sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraphSequence, MixingMatrix
from .pushsum import NetworkState, _mix
from .trace import Trace

__all__ = [
    "StepSchedule",
    "NoiseModel",
    "PotentialProps",
    "Potential",
    "ZeroPotential",
    "DivergenceError",
    "step_size",
    "langevin_step",
    "average_state",
    "run",
    "run_gaussian_ensemble",
]

SCHEDULE_KINDS = ("harmonic", "power")


@dataclass(frozen=True)
class StepSchedule:
    """Decaying step-size schedule alpha(t).

    ``harmonic`` gives alpha0 / (1 + t).  ``power`` gives
    alpha0 / (offset + t) ** exponent with exponent in (0, 1].
    """

    kind: str
    alpha0: float
    offset: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.kind == "power":
            if self.offset <= 0:
                raise ValueError("power schedule offset must be positive")
            if not 0 < self.exponent <= 1:
                raise ValueError("power schedule exponent must lie in (0, 1]")

    def __call__(self, t: int) -> float:
        return step_size(self, t)

    @classmethod
    def power_from_endpoints(cls, alpha_start: float, alpha_end: float,
                             exponent: float, horizon: int) -> "StepSchedule":
        """Power schedule hitting alpha_start at t=0 and alpha_end at t=horizon.

        Solves alpha(t) = a / (b + t)**p for (a, b) given p and the two
        endpoint values.
        """
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0 < alpha_end < alpha_start:
            raise ValueError("need 0 < alpha_end < alpha_start")
        ratio = (alpha_start / alpha_end) ** (1.0 / exponent)
        offset = horizon / (ratio - 1.0)
        alpha0 = alpha_start * offset ** exponent
        return cls(kind="power", alpha0=alpha0, offset=offset, exponent=exponent)


def step_size(sched: StepSchedule, t: int) -> float:
    """Evaluate the schedule at iteration t >= 0."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    if sched.kind == "harmonic":
        return sched.alpha0 / (1.0 + t)
    return sched.alpha0 / (sched.offset + t) ** sched.exponent


class NoiseModel:
    """Per-agent Gaussian injection streams.

    Every agent owns an independent generator seeded from (seed, agent
    index), so results do not depend on the order agents are processed in.
    Within one iteration an agent consumes its stream in a fixed order:
    first any minibatch index draws made by the potential, then the
    isotropic Gaussian vector.  ``sigma_sq`` declares a bound on the
    expected stochastic-gradient error norm; it is only used by config
    validation, which requires sqrt(alpha) <= 1 / sigma_sq when positive.
    """

    def __init__(self, seed: int, num_agents: int, sigma_sq: float = 0.0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        if sigma_sq < 0:
            raise ValueError("sigma_sq must be nonnegative")
        self.seed = int(seed)
        self.num_agents = int(num_agents)
        self.sigma_sq = float(sigma_sq)
        self._rngs = [np.random.default_rng([self.seed, i]) for i in range(num_agents)]

    def stream(self, agent: int) -> np.random.Generator:
        return self._rngs[agent]

    def gaussian(self, agent: int, dim: int) -> np.ndarray:
        return self._rngs[agent].standard_normal(dim)


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
    """Interface for per-agent stochastic gradients.

    Subclasses implement :meth:`grad`; ``rng`` is the calling agent's own
    stream and must be the only randomness consumed.  Deterministic
    potentials simply ignore it.  :meth:`grad_all` is an optional fast path
    that evaluates every agent in one array expression; an override must
    return the rows :meth:`grad` would and consume each agent's stream
    exactly as :meth:`grad` does.
    """

    props: PotentialProps

    def grad(self, agent: int, z: np.ndarray, rng) -> np.ndarray:
        raise NotImplementedError

    def grad_all(self, z: np.ndarray, noise: NoiseModel | None) -> np.ndarray:
        """(m, d) gradients, row i at agent i's ratio estimate z[i].

        ``noise`` owns the per-agent streams; None passes no stream, as in
        a deterministic run.  By default each row is one :meth:`grad` call.
        """
        return np.stack([
            self.grad(i, z[i], noise.stream(i) if noise is not None else None)
            for i in range(z.shape[0])])


class ZeroPotential(Potential):
    """Flat potential; turns the iteration into pure consensus."""

    def __init__(self, dim: int):
        self.props = PotentialProps(dim=dim, mu=0.0, lipschitz=0.0)

    def grad(self, agent: int, z: np.ndarray, rng) -> np.ndarray:
        return np.zeros_like(z)

    def grad_all(self, z: np.ndarray, noise: NoiseModel | None) -> np.ndarray:
        return np.zeros_like(z)


class DivergenceError(RuntimeError):
    """Raised when an agent's state stops being finite."""

    def __init__(self, agent: int, iteration: int):
        super().__init__(f"non-finite state at agent {agent}, iteration {iteration}")
        self.agent = agent
        self.iteration = iteration


def _step(entries: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray,
          z: np.ndarray, t: int, sched: StepSchedule, potential: Potential,
          noise: NoiseModel | None) -> np.ndarray:
    """One iteration in place on agent-major (m, d) buffers.

    Mixes x into (w, y, z), then overwrites x with
    w - alpha g(z) + sqrt(2 alpha) r, alpha = alpha(t+1).  Agent i's stream
    gives its minibatch draws (inside ``potential.grad_all``) before its
    Gaussian r_i.  Returns the mixed weights y.
    """
    _, y, _ = _mix(entries, x, y, t, w=w, z=z)
    alpha = step_size(sched, t + 1)
    np.multiply(potential.grad_all(z, noise), alpha, out=x)
    np.subtract(w, x, out=x)
    if noise is not None:
        m, d = x.shape
        drawn = np.array([noise.gaussian(i, d) for i in range(m)])
        drawn *= np.sqrt(2.0 * alpha)
        x += drawn
    if not np.isfinite(x).all():
        bad = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise DivergenceError(agent=bad, iteration=t + 1)
    return y


def langevin_step(ns: NetworkState, mix: MixingMatrix, sched: StepSchedule,
                  potential: Potential, noise: NoiseModel | None) -> NetworkState:
    """Advance the network by one iteration.

    Mixes (w, y, z), then updates every agent's x with its stochastic
    gradient at z_i and, unless ``noise`` is None, an injected Gaussian
    scaled by sqrt(2 alpha(t+1)).  Runs the same kernel as :func:`run` on
    fresh buffers, so ``ns`` is left untouched.

    Returns the state at t+1.  Raises :class:`DivergenceError` when any
    agent's new x contains non-finite entries, and ``ValueError`` when the
    graph size does not match the state.
    """
    m = ns.num_agents
    if mix.graph.num_nodes != m:
        raise ValueError(f"graph has {mix.graph.num_nodes} nodes but the state has {m} agents")
    x = np.array(ns.x, dtype=float)
    w, z = np.empty_like(x), np.empty_like(x)
    y = _step(mix.entries, x, ns.y, w, z, ns.t, sched, potential, noise)
    return NetworkState(x=x, y=y, w=w, z=z, t=ns.t + 1)


def average_state(ns: NetworkState) -> np.ndarray:
    """Network average xbar of the agent states."""
    return ns.x.mean(axis=0)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row; the arithmetic of np.linalg.norm(v, axis=1)
    without its dispatch."""
    return np.sqrt((v * v).sum(axis=1))


def run(seq: DirectedGraphSequence, sched: StepSchedule, potential: Potential,
        noise: NoiseModel, num_iters: int, stride: int = 1,
        x0: np.ndarray | None = None) -> Trace:
    """Drive the iteration for ``num_iters`` steps and record a trace.

    Parameters
    ----------
    seq : DirectedGraphSequence
        Communication topology per iteration; its node count fixes the
        network size.
    sched : StepSchedule
    potential : Potential
    noise : NoiseModel or None
        Owns the per-agent streams; None runs the deterministic iteration
        (mixing plus drift only).
    num_iters : int
    stride : int
        Snapshot thinning: agent samples (the ratio estimates z) and
        consensus errors are kept at iterations 0, stride, 2*stride, ...
        The per-step deviation and perturbation series are always kept in
        full for the monitors.
    x0 : ndarray, optional
        Initial (m, d) agent states; zeros by default.

    Returns
    -------
    Trace
    """
    if num_iters < 1:
        raise ValueError("num_iters must be at least 1")
    if stride < 1:
        raise ValueError("stride must be at least 1")
    m = seq.num_nodes
    d = potential.props.dim
    if noise is not None and noise.num_agents != m:
        raise ValueError("graph sequence and noise model disagree on the agent count")

    x = np.zeros((m, d))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (m, d):
            raise ValueError("x0 must have shape (num_agents, dim)")
        x[:] = x0
    y = np.ones(m)
    w = np.empty_like(x)
    z = x.copy()

    n_rec = num_iters // stride + 1
    ts = np.zeros(n_rec, dtype=np.int64)
    alphas = np.zeros(n_rec)
    states = np.zeros((n_rec, m, d))
    consensus = np.zeros((n_rec, m))
    zdev = np.zeros((num_iters, m))
    pert = np.zeros((num_iters, m))

    def record(k, t):
        ts[k] = t
        alphas[k] = step_size(sched, t)
        states[k] = z
        consensus[k] = _row_norms(z - xbar)

    xbar = x.sum(axis=0) / m
    record(0, 0)
    for t in range(num_iters):
        y = _step(seq.mixing_at(t).entries, x, y, w, z, t, sched, potential,
                  noise)
        zdev[t] = _row_norms(z - xbar)
        pert[t] = _row_norms(x - w)
        xbar = x.sum(axis=0) / m
        if (t + 1) % stride == 0:
            record((t + 1) // stride, t + 1)

    return Trace(ts=ts, alphas=alphas, states=states, consensus=consensus,
                 z_dev=zdev, pert_norms=pert, num_iters=num_iters, stride=stride)


def run_gaussian_ensemble(seq: DirectedGraphSequence, sched: StepSchedule,
                          target_mean: np.ndarray, target_cov: np.ndarray,
                          num_agents: int, num_iters: int, num_runs: int,
                          seed: int, checkpoints, noise_draw=None) -> np.ndarray:
    """Network-average snapshots over many independent runs, vectorized.

    Runs ``num_runs`` copies of the iteration against the quadratic
    potential of N(target_mean, target_cov) split evenly across agents
    (each agent holds 1/m of the target potential), all copies sharing the
    graph sequence.  This estimates the distribution of the network average
    at chosen iterations, which a single trajectory cannot do.

    The state is agent-major, (m, d, num_runs): row i holds agent i's
    values in every run, so each step mixes all runs with one matrix product
    through the same push-sum kernel as a single run, and the update works
    on contiguous (m, num_runs) columns, one per coordinate.

    Parameters
    ----------
    checkpoints : sequence of int
        Iteration counts at which to snapshot; must be increasing and
        bounded by num_iters.
    noise_draw : callable, optional
        Hook returning the (num_runs, m, d) standard normal block for
        iteration t; by default a single seeded generator supplies all
        runs.  Tests use the hook to replay recorded noise.

    Returns
    -------
    ndarray of shape (len(checkpoints), num_runs, d)
        The network average of every run at every checkpoint.

    Raises
    ------
    DivergenceError
        If any state is non-finite at a checkpoint.  The last iteration is
        always a checkpoint, and mixing cannot make a non-finite value
        finite again, so no divergence goes unreported.
    """
    target_mean = np.asarray(target_mean, dtype=float)
    target_cov = np.asarray(target_cov, dtype=float)
    d = target_mean.shape[0]
    precision = np.linalg.inv(target_cov)
    checkpoints = list(checkpoints)
    if any(c < 1 or c > num_iters for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, num_iters]")
    if sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be increasing")

    rng = np.random.default_rng(seed)
    m, r = num_agents, num_runs
    x = np.zeros((m, d, r))
    w = np.empty_like(x)
    z = np.empty_like(x)
    y = np.ones(m)
    block = np.empty((r, m, d))
    term = np.empty((m, r))
    rows = (m, d * r)
    snaps = np.zeros((len(checkpoints), r, d))
    want = {c: k for k, c in enumerate(checkpoints)}

    for t in range(max(checkpoints)):
        _, y, _ = _mix(seq.mixing_at(t).entries, x.reshape(rows), y, t,
                       w=w.reshape(rows), z=z.reshape(rows))
        alpha = step_size(sched, t + 1)
        scale = np.sqrt(2.0 * alpha)
        drawn = rng.standard_normal(out=block) if noise_draw is None else noise_draw(t)
        # x = w - alpha (z - mean) P^T / m + sqrt(2 alpha) noise, per coordinate
        coef = (alpha / m) * precision
        shift = coef @ target_mean
        for k in range(d):
            xk = x[:, k]
            np.multiply(drawn[:, :, k].T, scale, out=xk)
            xk += w[:, k]
            for l in range(d):
                np.multiply(z[:, l], coef[k, l], out=term)
                xk -= term
            xk += shift[k]
        if t + 1 in want:
            finite = np.isfinite(x).all(axis=(1, 2))
            if not finite.all():
                raise DivergenceError(agent=int(np.argmin(finite)), iteration=t + 1)
            snaps[want[t + 1]] = x.mean(axis=0).T
    return snaps
