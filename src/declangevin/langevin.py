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

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

# Most runs one chunk of run_gaussian_ensemble carries.  Chunks run in
# parallel threads, each on its own noise stream, so this constant, unlike
# the thread count, is part of what fixes the ensemble's results.
_CHUNK_RUNS = 4096
# Steps whose mixing matrices run_gaussian_ensemble holds at a time, as
# many as mixing_at caches; the chunks all finish one block of steps
# before the next begins.
_MIXING_BLOCK = 256


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


def _worker_count(chunks: int) -> int:
    """Threads for ``chunks`` ensemble chunks: at most one per usable core."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(chunks, cores)


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

    The runs are split into chunks of at most 4096 runs, near-equal in
    size, and the chunks run in a thread pool with one thread per usable
    core at most; the runs share nothing but the mixing matrices, so the
    chunks never communicate.  The chunks advance together in blocks of
    256 steps, whose mixing matrices the calling thread fills while the
    chunks run through the previous block, so memory does not grow with
    the horizon.  When a chunk raises, or the caller is interrupted, every
    chunk stops at its next step.  Within a chunk the state is agent-major,
    (m, d, runs): row i holds agent i's values in every run of the chunk,
    so each step mixes them with one matrix product through the same
    push-sum kernel as a single run, and the update works on contiguous
    (m, runs) columns, one per coordinate.

    Parameters
    ----------
    num_agents : int
        Must equal the node count of ``seq``.
    num_runs : int
        At least 1.
    checkpoints : sequence of int
        Iteration counts at which to snapshot; must be increasing and
        bounded by num_iters.
    noise_draw : callable, optional
        Hook returning the (num_runs, m, d) standard normal block for
        iteration t; each chunk reads its own rows of that block.  The hook
        is called once per chunk per step, from the worker threads, so it
        must be a pure function of t.  Tests use it to replay recorded
        noise.  By default chunk c draws from its own generator, seeded
        from (seed, c), so the result depends on (seed, num_runs) only,
        never on the number of threads or their scheduling.

    Returns
    -------
    ndarray of shape (len(checkpoints), num_runs, d)
        The network average of every run at every checkpoint.

    Raises
    ------
    DivergenceError
        If any state is non-finite at a checkpoint: the earliest such
        checkpoint over all runs, and there the lowest agent.  The last
        iteration is always a checkpoint, and mixing cannot make a
        non-finite value finite again, so no divergence goes unreported.
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
    if num_agents != seq.num_nodes:
        raise ValueError(f"graph sequence has {seq.num_nodes} nodes but "
                         f"num_agents is {num_agents}")
    if num_runs < 1:
        raise ValueError("num_runs must be at least 1")

    m = num_agents
    horizon = max(checkpoints)
    snaps = np.zeros((len(checkpoints), num_runs, d))
    want = {c: k for k, c in enumerate(checkpoints)}
    # set when a chunk raises or the caller is interrupted; every chunk
    # then stops at its next step
    stop = threading.Event()

    def chunk(c: int, r0: int, r1: int):
        """Runs r0:r1, snapshots written in place.  A generator: each block
        of mixing matrices sent to it advances the runs through those
        steps, after which it yields (iteration, agent) of a divergence,
        or None."""
        r = r1 - r0
        x = np.zeros((m, d, r))
        w = np.empty_like(x)
        z = np.empty_like(x)
        y = np.ones(m)
        term = np.empty((m, r))
        rows = (m, d * r)
        if noise_draw is None:
            rng = np.random.default_rng([seed, c])
            normals = np.empty((r, m, d))
        t, failure = 0, None
        block = yield
        while True:
            for entries in block:
                if stop.is_set():
                    break
                _, y, _ = _mix(entries, x.reshape(rows), y, t,
                               w=w.reshape(rows), z=z.reshape(rows))
                alpha = step_size(sched, t + 1)
                scale = np.sqrt(2.0 * alpha)
                if noise_draw is None:
                    drawn = rng.standard_normal(out=normals)
                else:
                    drawn = noise_draw(t)[r0:r1]
                # x = w - alpha (z - mean) P^T / m + sqrt(2 alpha) noise,
                # per coordinate
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
                t += 1
                if t in want:
                    finite = np.isfinite(x).all(axis=(1, 2))
                    if not finite.all():
                        failure = t, int(np.argmin(finite))
                        break
                    snaps[want[t], r0:r1] = x.mean(axis=0).T
            block = yield failure

    def advance(runs, block):
        try:
            return runs.send(block)
        except BaseException:
            stop.set()
            raise

    parts = np.array_split(np.arange(num_runs), -(-num_runs // _CHUNK_RUNS))
    chunks = [chunk(c, int(p[0]), int(p[-1]) + 1) for c, p in enumerate(parts)]
    for runs in chunks:
        next(runs)
    # two buffers of mixing matrices, filled here and not in the workers
    # (mixing_at's cache is not thread-safe): the next block is filled
    # while the chunks run through the current one
    mixing = np.empty((2, min(_MIXING_BLOCK, horizon), m, m))

    def fill(t0):
        block = mixing[t0 // _MIXING_BLOCK % 2,
                       :min(_MIXING_BLOCK, horizon - t0)]
        for t, entries in enumerate(block, t0):
            entries[:] = seq.mixing_at(t).entries
        return block

    block = fill(0)
    with ThreadPoolExecutor(_worker_count(len(chunks))) as pool:
        for t0 in range(0, horizon, _MIXING_BLOCK):
            # each task runs in a copy of the caller's context, which
            # carries its numpy error state
            futures = [pool.submit(contextvars.copy_context().run, advance,
                                   runs, block) for runs in chunks]
            try:
                if t0 + _MIXING_BLOCK < horizon:
                    block = fill(t0 + _MIXING_BLOCK)
                failures = [f.result() for f in futures]
            except BaseException:
                stop.set()
                raise
            failures = [f for f in failures if f is not None]
            if failures:
                iteration, agent = min(failures)
                raise DivergenceError(agent=agent, iteration=iteration)
    return snaps
