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

from dataclasses import dataclass, replace

import numpy as np

from .graphs import DirectedGraphSequence
from .pushsum import (NetworkState, _mix, consensus_error, init_network,
                      pushsum_mix)
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
    potentials simply ignore it.
    """

    props: PotentialProps

    def grad(self, agent: int, z: np.ndarray, rng) -> np.ndarray:
        raise NotImplementedError


class ZeroPotential(Potential):
    """Flat potential; turns the iteration into pure consensus."""

    def __init__(self, dim: int):
        self.props = PotentialProps(dim=dim, mu=0.0, lipschitz=0.0)

    def grad(self, agent: int, z: np.ndarray, rng) -> np.ndarray:
        return np.zeros_like(z)


class DivergenceError(RuntimeError):
    """Raised when an agent's state stops being finite."""

    def __init__(self, agent: int, iteration: int):
        super().__init__(f"non-finite state at agent {agent}, iteration {iteration}")
        self.agent = agent
        self.iteration = iteration


def langevin_step(ns: NetworkState, mix, sched: StepSchedule,
                  potential: Potential, noise: NoiseModel | None) -> NetworkState:
    """Advance the network by one iteration.

    Mixes (w, y, z), then updates every agent's x with its stochastic
    gradient at z_i and, unless ``noise`` is None, an injected Gaussian
    scaled by sqrt(2 alpha(t+1)).

    Returns the state at t+1.  Raises :class:`DivergenceError` when any
    agent's new x contains non-finite entries.
    """
    alpha = step_size(sched, ns.t + 1)
    mixed = pushsum_mix(ns, mix)
    m, d = mixed.w.shape
    scale = np.sqrt(2.0 * alpha)

    x_new = np.empty_like(mixed.w)
    for i in range(m):
        rng = noise.stream(i) if noise is not None else None
        g = potential.grad(i, mixed.z[i], rng)
        if noise is not None:
            x_new[i] = mixed.w[i] - alpha * g + scale * noise.gaussian(i, d)
        else:
            x_new[i] = mixed.w[i] - alpha * g

    finite = np.isfinite(x_new).all(axis=1)
    if not finite.all():
        raise DivergenceError(agent=int(np.argmin(finite)), iteration=ns.t + 1)
    return NetworkState(x=x_new, y=mixed.y, w=mixed.w, z=mixed.z, t=ns.t + 1)


def average_state(ns: NetworkState) -> np.ndarray:
    """Network average xbar of the agent states."""
    return ns.x.mean(axis=0)


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

    ns = init_network(m, d)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (m, d):
            raise ValueError("x0 must have shape (num_agents, dim)")
        ns = replace(ns, x=x0.copy(), z=x0.copy())

    n_rec = num_iters // stride + 1
    ts = np.zeros(n_rec, dtype=np.int64)
    alphas = np.zeros(n_rec)
    states = np.zeros((n_rec, m, d))
    consensus = np.zeros((n_rec, m))
    zdev = np.zeros((num_iters, m))
    pert = np.zeros((num_iters, m))

    def record(k, state):
        ts[k] = state.t
        alphas[k] = step_size(sched, state.t)
        states[k] = state.z
        consensus[k] = consensus_error(state)

    record(0, ns)
    k = 1
    for t in range(num_iters):
        xbar_prev = average_state(ns)
        ns = langevin_step(ns, seq.mixing_at(t), sched, potential, noise)
        zdev[t] = np.linalg.norm(ns.z - xbar_prev, axis=1)
        pert[t] = np.linalg.norm(ns.x - ns.w, axis=1)
        if ns.t % stride == 0:
            record(k, ns)
            k += 1

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
