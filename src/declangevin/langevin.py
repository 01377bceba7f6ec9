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
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraphSequence, MixingMatrix
from .pushsum import NetworkState, _weights
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
# Steps whose mixing matrices run and run_gaussian_ensemble fill with one
# fill_mixing call and hold at a time, and whose noise run draws at once;
# the ensemble's chunks all finish one block of steps before the next begins.
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
        for name in ("alpha0", "offset"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not 0 < exponent <= 1:
            raise ValueError("power schedule exponent must lie in (0, 1]")
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
    """Per-agent noise streams.

    Every agent owns two independent generators seeded from (seed, agent
    index), so results do not depend on the order agents are processed in:
    [seed, i] gives agent i's isotropic Gaussians and [seed, i, 1], its
    :meth:`stream`, its potential's draws (minibatch indices).  So each can
    be drawn a block of steps at a time, which on numpy's generators equals
    drawing step by step.
    """

    def __init__(self, seed: int, num_agents: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        if num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        self.seed = int(seed)
        self.num_agents = int(num_agents)
        self._rngs = [np.random.default_rng([self.seed, i]) for i in range(num_agents)]
        self._streams = [np.random.default_rng([self.seed, i, 1]) for i in range(num_agents)]

    def stream(self, agent: int) -> np.random.Generator:
        return self._streams[agent]

    def gaussian_block(self, steps: int, dim: int) -> np.ndarray:
        """(steps, m, dim) standard normals, row [k, i] agent i's vector at
        the k-th of the next ``steps`` steps; one draw per agent."""
        block = np.empty((self.num_agents, steps, dim))
        for rng, rows in zip(self._rngs, block):
            rng.standard_normal(out=rows)
        return block.swapaxes(0, 1)


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

    The drivers call :meth:`draw` once per block of steps and
    :meth:`grad_drawn` every step.  ``draw`` takes any randomness the
    potential needs (minibatch indices) from agent i's
    :meth:`NoiseModel.stream` and from nowhere else; ``grad_drawn``
    returns all m agents' gradients at once.
    ``num_agents`` is the network size the potential was built for, or
    None when any size will do.
    """

    props: PotentialProps
    num_agents: int | None = None

    def draw(self, noise: NoiseModel | None, steps: int):
        """Every agent's draws for the next ``steps`` steps; entry k goes to
        :meth:`grad_drawn` at the k-th.  By default nothing is drawn."""
        return [None] * steps

    def grad_drawn(self, z: np.ndarray, drawn) -> np.ndarray:
        """(m, d) gradients, row i at agent i's ratio estimate z[i], from
        one step's entry of :meth:`draw`."""
        raise NotImplementedError


class ZeroPotential(Potential):
    """Flat potential; turns the iteration into pure consensus."""

    def __init__(self, dim: int):
        self.props = PotentialProps(dim=dim, mu=0.0, lipschitz=0.0)

    def grad_drawn(self, z: np.ndarray, drawn) -> np.ndarray:
        return np.zeros_like(z)


class DivergenceError(RuntimeError):
    """Raised when an agent's state, or a quantity recorded from it, stops
    being finite; ``quantity`` names which."""

    def __init__(self, agent: int, iteration: int, quantity: str = "state"):
        super().__init__(f"non-finite {quantity} at agent {agent}, iteration {iteration}")
        self.agent = agent
        self.iteration = iteration
        self.quantity = quantity


def _check_agents(potential: Potential, m: int) -> None:
    """Refuse a potential built for another network size than m."""
    if potential.num_agents not in (None, m):
        raise ValueError(f"potential is built for {potential.num_agents} "
                         f"agents but the graph has {m} nodes")


def _draws(sched: StepSchedule, potential: Potential,
           noise: NoiseModel | None, t0: int, steps: int, dim: int):
    """Step sizes alpha(t+1), the potential's draws and the injections
    sqrt(2 alpha(t+1)) r_i (None without noise) of steps t0 .. t0+steps-1."""
    alphas = [step_size(sched, t + 1) for t in range(t0, t0 + steps)]
    gauss = [None] * steps
    if noise is not None:
        gauss = noise.gaussian_block(steps, dim)
        gauss *= np.sqrt(2.0 * np.array(alphas))[:, None, None]
    return alphas, potential.draw(noise, steps), gauss


def _step(mixing: np.ndarray, y: np.ndarray, xs: np.ndarray, ws: np.ndarray,
          zs: np.ndarray, t0: int, alphas, potential: Potential, drawn,
          gauss) -> np.ndarray:
    """Steps t0 .. t0+len(mixing)-1 on agent-major (m, d) buffers.

    Step k mixes xs[k] into ws[k], divides it by the push-sum weights into
    zs[k+1] and writes ws[k] - alphas[k] g(zs[k+1]) + gauss[k] into xs[k+1],
    with the entries from :func:`_draws` and ``y`` the weights at t0.
    Returns the weights after each step.  The steps stop before a weight
    underflow, so a divergence before it raises first.
    """
    ys, underflow = _weights(mixing, y, t0)
    for a, x, w, z, out, yk, alpha, dk, g in zip(
            mixing, xs, ws, zs[1:], xs[1:], ys[:, :, None], alphas, drawn, gauss):
        np.matmul(a, x, out=w)
        np.divide(w, yk, out=z)
        np.multiply(potential.grad_drawn(z, dk), alpha, out=out)
        np.subtract(w, out, out=out)
        if g is not None:
            out += g
    # (step, agent) pairs in order: the first is the earliest, lowest agent
    bad = np.argwhere(~np.isfinite(xs[1:len(ys) + 1]).all(axis=2))
    if len(bad):
        raise DivergenceError(agent=int(bad[0, 1]), iteration=t0 + int(bad[0, 0]) + 1)
    if underflow is not None:
        raise underflow
    return ys


def langevin_step(ns: NetworkState, mix: MixingMatrix, sched: StepSchedule,
                  potential: Potential, noise: NoiseModel | None) -> NetworkState:
    """Advance the network by one iteration.

    Mixes (w, y, z), then updates every agent's x with its stochastic
    gradient at z_i and, unless ``noise`` is None, an injected Gaussian
    scaled by sqrt(2 alpha(t+1)).  Runs the same kernel as :func:`run`, on
    a block of one step and fresh buffers, so ``ns`` is left untouched.

    Returns the state at t+1.  Raises :class:`DivergenceError` when any
    agent's new x contains non-finite entries, and ``ValueError`` when the
    graph size does not match the state or the potential, or a minibatch
    potential lacks noise.
    """
    m = ns.num_agents
    if mix.graph.num_nodes != m:
        raise ValueError(f"graph has {mix.graph.num_nodes} nodes but the state has {m} agents")
    _check_agents(potential, m)
    alphas, drawn, gauss = _draws(sched, potential, noise, ns.t, 1, ns.dim)
    xs = np.array([ns.x, ns.x], dtype=float)
    ws, zs = np.empty_like(xs[1:]), np.empty_like(xs)
    ys = _step(mix.entries[None], ns.y, xs, ws, zs, ns.t, alphas, potential,
               drawn, gauss)
    return NetworkState(x=xs[1], y=ys[0], w=ws[0], z=zs[1], t=ns.t + 1)


def average_state(ns: NetworkState) -> np.ndarray:
    """Network average xbar of the agent states."""
    return ns.x.mean(axis=0)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis; the arithmetic of
    np.linalg.norm(v, axis=-1) without its dispatch.  A norm too large for
    a float is inf, without a warning: the caller checks for it."""
    with np.errstate(over="ignore"):
        return np.sqrt((v * v).sum(axis=-1))


def run(seq: DirectedGraphSequence, sched: StepSchedule, potential: Potential,
        noise: NoiseModel, num_iters: int, stride: int = 1,
        x0: np.ndarray | None = None) -> Trace:
    """Drive the iteration for ``num_iters`` steps and record a trace;
    raise :class:`DivergenceError` at the first iteration and agent whose
    state, deviation, perturbation or consensus error is not finite.

    Parameters
    ----------
    seq : DirectedGraphSequence
        Communication topology per iteration; its node count fixes the
        network size.
    sched : StepSchedule
    potential : Potential
        Its ``num_agents``, unless None, must equal the node count.
    noise : NoiseModel or None
        Owns the per-agent streams, drawn once per block of 256 steps; None
        runs the deterministic iteration (mixing plus drift only), which a
        minibatch potential rejects before the first step.
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
    _check_agents(potential, m)

    # one block of steps at a time: step k reads xs[k] and writes ws[k],
    # zs[k+1] and xs[k+1]; xs[0] carries x over from the previous block
    block = min(_MIXING_BLOCK, num_iters)
    xs = np.zeros((block + 1, m, d))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (m, d):
            raise ValueError("x0 must have shape (num_agents, dim)")
        xs[0] = x0
    zs = xs.copy()
    ws = np.empty((block, m, d))
    y = np.ones(m)

    n_rec = num_iters // stride + 1
    ts = np.arange(n_rec, dtype=np.int64) * stride
    alphas = np.array([step_size(sched, t) for t in ts.tolist()])
    states = np.zeros((n_rec, m, d))
    consensus = np.zeros((n_rec, m))
    zdev = np.zeros((num_iters, m))
    pert = np.zeros((num_iters, m))
    states[0] = zs[0]
    consensus[0] = _row_norms(zs[0] - xs[0].sum(axis=0) / m)

    mixing = np.empty((block, m, m))
    for t0 in range(0, num_iters, _MIXING_BLOCK):
        n = min(_MIXING_BLOCK, num_iters - t0)
        alpha, drawn, gauss = _draws(sched, potential, noise, t0, n, d)
        seq.fill_mixing(t0, mixing[:n])
        y = _step(mixing[:n], y, xs, ws, zs, t0, alpha, potential, drawn,
                  gauss)[-1]
        # xbar[k] is the network average at iteration t0 + k
        xbar = xs[:n + 1].sum(axis=1)[:, None] / m
        zdev[t0:t0 + n] = _row_norms(zs[1:n + 1] - xbar[:n])
        pert[t0:t0 + n] = _row_norms(xs[1:n + 1] - ws[:n])
        # records at the multiples of stride in (t0, t0 + n]
        k = np.arange(stride - t0 % stride, n + 1, stride)
        states[(t0 + k) // stride] = zs[k]
        consensus[(t0 + k) // stride] = _row_norms(zs[k] - xbar[k])
        # finite states can still be far enough apart to overflow a norm
        bad = ~np.isfinite(zdev[t0:t0 + n]) | ~np.isfinite(pert[t0:t0 + n])
        bad[k - 1] |= ~np.isfinite(consensus[(t0 + k) // stride])
        if bad.any():
            step, agent = np.argwhere(bad)[0]
            i = t0 + step
            quantity = ("deviation norm" if not np.isfinite(zdev[i, agent]) else
                        "perturbation norm" if not np.isfinite(pert[i, agent]) else
                        "consensus error")
            raise DivergenceError(agent=int(agent), iteration=int(i) + 1,
                                  quantity=quantity)
        xs[0] = xs[n]

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
    core at most; the runs share nothing but the mixing matrices and the
    push-sum weights, so the chunks never communicate.  The chunks advance
    together in blocks of 256 steps: the calling thread fills one block of
    mixing matrices and runs the weight recursion through it once, then
    every chunk runs through it, so memory does not grow with the horizon.
    When a chunk raises, or the caller is interrupted, every chunk stops at
    its next step.  Within a chunk the state is agent-major, (m, d, runs):
    row i holds agent i's values in every run of the chunk, so each step
    mixes them with one matrix product and one division by the weights, as
    a single run does, and the update is one batched product with the
    target's precision matrix.

    Parameters
    ----------
    num_agents : int
        Must equal the node count of ``seq``.
    num_runs : int
        At least 1.
    checkpoints : sequence of int
        Iteration counts at which to snapshot: at least one, strictly
        increasing, in [1, num_iters].
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
    FloatingPointError
        If a push-sum weight underflows before any such checkpoint.
    """
    target_mean = np.asarray(target_mean, dtype=float)
    target_cov = np.asarray(target_cov, dtype=float)
    d = target_mean.shape[0]
    precision = np.linalg.inv(target_cov)
    checkpoints = list(checkpoints)
    if not checkpoints or any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be one or more strictly increasing "
                         "iteration counts")
    if checkpoints[0] < 1 or checkpoints[-1] > num_iters:
        raise ValueError("checkpoints must lie in [1, num_iters]")
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
    parts = np.array_split(np.arange(num_runs), -(-num_runs // _CHUNK_RUNS))
    bounds = [(int(p[0]), int(p[-1]) + 1) for p in parts]
    xs = [np.zeros((m, d, r1 - r0)) for r0, r1 in bounds]
    rngs = [np.random.default_rng([seed, c]) for c in range(len(bounds))]

    def advance(c: int, t0: int, block: np.ndarray, ys: np.ndarray):
        """Runs chunk c through steps t0 .. t0+len(ys)-1, with push-sum
        weights ``ys``, and returns (iteration, agent) of a divergence at a
        checkpoint, or None."""
        try:
            (r0, r1), x = bounds[c], xs[c]
            rows = (m, d * (r1 - r0))
            w, z = np.empty_like(x), np.empty_like(x)
            normals = np.empty((r1 - r0, m, d))
            for t, y in enumerate(ys[:, :, None, None], start=t0):
                if stop.is_set():
                    break
                np.matmul(block[t - t0], x.reshape(rows), out=w.reshape(rows))
                np.divide(w, y, out=z)
                alpha = step_size(sched, t + 1)
                if noise_draw is None:
                    drawn = rngs[c].standard_normal(out=normals)
                else:
                    drawn = noise_draw(t)[r0:r1]
                # x = sqrt(2 alpha) xi + w - (alpha / m) P (z - mean)
                z -= target_mean[:, None]
                np.matmul(precision, z, out=x)
                x *= -alpha / m
                x += w
                np.multiply(drawn.transpose(1, 2, 0), np.sqrt(2.0 * alpha), out=z)
                x += z
                if t + 1 in want:
                    finite = np.isfinite(x).all(axis=(1, 2))
                    if not finite.all():
                        return t + 1, int(np.argmin(finite))
                    snaps[want[t + 1], r0:r1] = x.mean(axis=0).T
            return None
        except BaseException:
            stop.set()
            raise

    # one block of mixing matrices, filled here and not in the workers (the
    # sequence's window memo is not thread-safe) before the chunks run it
    mixing = np.empty((min(_MIXING_BLOCK, horizon), m, m))
    y = np.ones(m)
    with ThreadPoolExecutor(_worker_count(len(bounds))) as pool:
        try:
            for t0 in range(0, horizon, _MIXING_BLOCK):
                block = seq.fill_mixing(t0, mixing[:horizon - t0])
                ys, underflow = _weights(block, y, t0)
                # each task runs in a copy of the caller's context, which
                # carries its numpy error state
                futures = [pool.submit(contextvars.copy_context().run,
                                       advance, c, t0, block, ys)
                           for c in range(len(bounds))]
                failures = [f.result() for f in futures]
                failures = [f for f in failures if f is not None]
                if failures:
                    iteration, agent = min(failures)
                    raise DivergenceError(agent=agent, iteration=iteration)
                if underflow is not None:
                    raise underflow
                y = ys[-1]
        except BaseException:
            stop.set()
            raise
    return snaps
