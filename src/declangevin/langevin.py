"""Decentralized Langevin iteration on top of push-sum mixing.

Each agent carries a value vector x, a scalar weight y, the mixed numerator
w and the ratio estimate z.  One iteration is a push-sum round with the
column-stochastic mixing matrix A, w = A x, y <- A y and z = w / y, which
keeps the total weight at the number of agents and whose ratio corrects the
directional bias of the raw averages; each agent then evaluates its
stochastic gradient at z_i and writes

    x_i  <-  w_i - alpha(t+1) * grad_i(z_i) + sqrt(2 alpha(t+1)) * r_i

with r_i an isotropic standard normal draw from the agent's own stream.
Because the mixing matrix is column-stochastic, the network average of x
evolves exactly like a single chain driven by the mean gradient and the
mean injected noise, which is what makes the whole construction sample.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraphSequence, MixingMatrix
from .models import GaussianPotential, Potential
from .trace import Trace

__all__ = [
    "NetworkState",
    "init_network",
    "StepSchedule",
    "NoiseModel",
    "DivergenceError",
    "step_size",
    "langevin_step",
    "average_state",
    "run",
    "run_gaussian_ensemble",
]

SCHEDULE_KINDS = ("harmonic", "power")

# below this weight the ratio w/y is numerically meaningless
Y_FLOOR = 1e-300

# Most runs one chunk of run_gaussian_ensemble carries.  Chunks run in
# parallel threads, each on its own noise stream, so this constant, unlike
# the thread count, is part of what fixes the ensemble's results.
_CHUNK_RUNS = 4096
# The most steps a block of run and run_gaussian_ensemble holds, a cap that
# _block_steps lowers for large states and networks.
_MIXING_BLOCK = 256
# about the most bytes a block holds of run's four (steps, m, d) state and
# noise buffers, and of (steps, m, m) mixing matrices
_STATE_BYTES, _MIXING_BYTES = 2 << 20, 8 << 20


def _block_steps(m: int, d: int) -> int:
    """Steps per block at m agents in d dimensions: at most _MIXING_BLOCK
    and within both byte budgets, but at least one.  Block length is not
    part of the results."""
    return max(1, min(_MIXING_BLOCK, _STATE_BYTES // (32 * m * d),
                      _MIXING_BYTES // (8 * m * m)))


@dataclass(frozen=True)
class NetworkState:
    """Stacked state of all agents at one iteration.

    Rows index agents: ``x`` and ``w`` are (m, d), ``y`` is (m,), ``z`` is
    (m, d) and ``t`` counts completed iterations, so agent i's state is
    row i of each array.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    t: int

    def __post_init__(self):
        m, d = self.x.shape
        if self.y.shape != (m,) or self.w.shape != (m, d) or self.z.shape != (m, d):
            raise ValueError("inconsistent state array shapes")
        if self.t < 0:
            raise ValueError("iteration counter must be nonnegative")

    @property
    def num_agents(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def init_network(num_agents: int, dim: int) -> NetworkState:
    """Fresh network state: all vectors zero, unit weights, t = 0."""
    if num_agents < 1 or dim < 1:
        raise ValueError("num_agents and dim must be at least 1")
    return NetworkState(
        x=np.zeros((num_agents, dim)),
        y=np.ones(num_agents),
        w=np.zeros((num_agents, dim)),
        z=np.zeros((num_agents, dim)),
        t=0,
    )


@dataclass(frozen=True)
class StepSchedule:
    """Decaying step-size schedule alpha(t) = alpha0 / (offset + t) ** exponent.

    ``harmonic`` is alpha0 / (1 + t) and refuses other offsets and
    exponents; ``power`` takes offset > 0 and exponent in (0, 1].
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
        if self.kind == "harmonic" and (self.offset, self.exponent) != (1.0, 1.0):
            raise ValueError("a harmonic schedule has offset 1 and exponent 1, got "
                             f"{self.offset} and {self.exponent}; use 'power'")
        if self.kind == "power":
            if self.offset <= 0:
                raise ValueError("power schedule offset must be positive")
            if not 0 < self.exponent <= 1:
                raise ValueError("power schedule exponent must lie in (0, 1]")

    @classmethod
    def power_from_endpoints(cls, alpha_start: float, alpha_end: float,
                             exponent: float, horizon: int) -> "StepSchedule":
        """Power schedule hitting alpha_start at t=0 and alpha_end at t=horizon.

        Solves alpha(t) = a / (b + t)**p for (a, b) given p and the two
        endpoint values.
        """
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        for name, value in (("alpha_start", alpha_start), ("alpha_end", alpha_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 < alpha_end < alpha_start:
            raise ValueError("need 0 < alpha_end < alpha_start")
        cls("power", alpha_start, 1.0, exponent)  # refuses the exponent before it is used
        try:
            # the quotient overflows to inf, the power with an OverflowError
            ratio = (alpha_start / alpha_end) ** (1.0 / exponent)
        except OverflowError:
            ratio = math.inf
        if ratio == math.inf:
            raise ValueError(f"alpha_start={alpha_start} and alpha_end={alpha_end} are too far "
                             f"apart for exponent {exponent}: (alpha_start / alpha_end) ** "
                             "(1 / exponent) overflows")
        offset = horizon / (ratio - 1.0)
        alpha0 = alpha_start * offset ** exponent
        return cls(kind="power", alpha0=alpha0, offset=offset, exponent=exponent)


def step_size(sched: StepSchedule, t: int) -> float:
    """Evaluate the schedule at iteration t >= 0."""
    if t < 0:
        raise ValueError("iteration index must be nonnegative")
    return _alphas(sched, (t,))[0]


def _alphas(sched: StepSchedule, ts) -> list:
    """The schedule at each of the iterations ``ts``, in Python floats:
    numpy's power differs in the last bit at some non-integer exponents."""
    a0, off, p = sched.alpha0, sched.offset, sched.exponent
    return [a0 / (off + t) ** p for t in ts]


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
        self.seed, self.num_agents = operator.index(seed), operator.index(num_agents)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        self._rngs = [np.random.default_rng([self.seed, i]) for i in range(self.num_agents)]
        self._streams = [np.random.default_rng([self.seed, i, 1]) for i in range(self.num_agents)]

    def stream(self, agent: int) -> np.random.Generator:
        return self._streams[agent]

    def gaussian_block(self, steps: int, dim: int) -> np.ndarray:
        """(steps, m, dim) standard normals, row [k, i] agent i's vector at
        the k-th of the next ``steps`` steps; one draw per agent."""
        block = np.empty((self.num_agents, steps, dim))
        for rng, rows in zip(self._rngs, block):
            rng.standard_normal(out=rows)
        return block.swapaxes(0, 1)


class DivergenceError(RuntimeError):
    """Raised when an agent's state, or a quantity recorded from it, stops
    being finite; ``quantity`` names which.  The drivers also give the step
    size ``alpha`` = alpha(t) and the least push-sum weight ``min_weight``
    at the failing iteration t (None when not given); the message names
    neither."""

    def __init__(self, agent: int, iteration: int, quantity: str = "state",
                 alpha: float | None = None, min_weight: float | None = None):
        super().__init__(f"non-finite {quantity} at agent {agent}, iteration {iteration}")
        self.agent = agent
        self.iteration = iteration
        self.quantity = quantity
        self.alpha, self.min_weight = alpha, min_weight


def _check_agents(potential: Potential, m: int) -> None:
    """Refuse a potential built for another network size than m."""
    if potential.num_agents not in (None, m):
        raise ValueError(f"potential is built for {potential.num_agents} "
                         f"agents but the graph has {m} nodes")


def _draws(alphas: list, potential: Potential, noise: NoiseModel | None, dim: int):
    """The potential's draws and the injections sqrt(2 alpha) r_i (None
    without noise) of the next steps, one per step size in ``alphas``."""
    gauss = [None] * len(alphas)
    if noise is not None:
        gauss = noise.gaussian_block(len(alphas), dim)
        gauss *= np.sqrt(2.0 * np.array(alphas))[:, None, None]
    return potential.draw(noise, len(alphas)), gauss


def _weights(entries: np.ndarray, y: np.ndarray, t0: int) -> tuple:
    """(ys, error): row k of ys is y(t0+k+1) = A_{t0+k} y(t0+k), from y = y(t0)
    and the (n, m, m) block ``entries``; the weights do not depend on the
    values, so one recursion serves every run over the same graphs.  If a
    weight falls below the floor, ys stops before that step and error is the
    FloatingPointError naming it; otherwise error is None."""
    ys = np.empty((len(entries), len(y)))
    # ndarray.dot skips the dispatch of np.dot and np.matmul, with equal bits
    for a, row in zip(entries, ys):
        y = a.dot(y, row)
    low = (ys < Y_FLOOR).any(axis=1)
    if not low.any():
        return ys, None
    k = int(np.argmax(low))
    bad = int(np.argmin(ys[k]))
    return ys[:k], FloatingPointError(
        f"push-sum weight underflow at agent {bad} (y={ys[k, bad]:.3e}, t={t0 + k})")


def _blocks(seq: DirectedGraphSequence, sched: StepSchedule, horizon: int, size: int):
    """Steps 0 .. horizon-1 in blocks of at most ``size``, as (t0, mixing, ys,
    alphas): the matrices A_t in one reused (size, m, m) buffer, the weights
    y(t+1) from y(0) = 1 (:func:`_weights`) and the step sizes alpha(t+1).  A
    block ends before a weight underflow, which is raised when the next block
    is asked for: a divergence found in the block raises first.  No block is empty."""
    mixing, y = np.empty((size, seq.num_nodes, seq.num_nodes)), np.ones(seq.num_nodes)
    for t0 in range(0, horizon, size):
        ys, underflow = _weights(seq.fill_mixing(t0, mixing[:horizon - t0]), y, t0)
        if len(ys):
            yield t0, mixing[:len(ys)], ys, _alphas(sched, range(t0 + 1, t0 + len(ys) + 1))
        if underflow is not None:
            raise underflow
        y = ys[-1]


def _diverged(t0: int, k, agent, alphas, ys, quantity: str = "state") -> DivergenceError:
    """The DivergenceError of ``agent`` at step t0 + k of a block, with that
    step's size alphas[k] and least push-sum weight min(ys[k])."""
    return DivergenceError(agent=int(agent), iteration=t0 + int(k) + 1, quantity=quantity,
                           alpha=alphas[k], min_weight=float(ys[k].min()))


def _affine_steps(block, ys: np.ndarray, alphas, h, b, out: np.ndarray) -> np.ndarray:
    """[K_t | c_t] of each step, x(t+1) = K_t x(t) + c_t + noise for gradients
    H z - b: K_t[(i,p),(j,q)] = (I - alpha_t H / y_i(t+1))[p,q] A_t[i,j] and
    c_t = alpha_t b, each entry one elementwise product, written into the first
    n = len(ys) rows of ``out``, each (m, d, m d + 1), and viewed (n, m d, m d + 1)."""
    (n, m), d, a = ys.shape, out.shape[2], np.array(alphas)
    k, g = out[:n], np.multiply((a[:, None] / ys)[:, :, None, None], h)
    np.subtract(np.eye(d), g, out=g)
    np.multiply(g[..., None, :], block[:, :, None, :, None],
                out=k[..., :-1].reshape(n, m, d, m, d))
    np.multiply(a[:, None, None], b, out=k[..., -1])
    return k.reshape(n, m * d, m * d + 1)


def _step(mixing: np.ndarray, ys: np.ndarray, xs: np.ndarray, ws: np.ndarray,
          zs: np.ndarray, t0: int, alphas, grad, drawn, gauss) -> None:
    """Steps t0 .. t0+len(mixing)-1 on agent-major (m, d) buffers.

    Step k mixes xs[k] into ws[k], divides it in place by zs[k+1], which
    the block's push-sum weights ``ys`` fill first so that each division's
    operands share one shape, and writes ws[k] - alphas[k] g(zs[k+1]) +
    gauss[k] into xs[k+1], g written there first by the potential's kernel
    ``grad``, with the entries from :func:`_draws`.  An overflow or NaN, in
    the gradients too, warns nowhere: the DivergenceError names it.
    """
    zs[1:len(ys) + 1] = ys[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, x, w, z, out, alpha, dk, g in zip(
                mixing, xs, ws, zs[1:], xs[1:], alphas, drawn, gauss):
            a.dot(x, w)
            np.divide(w, z, z)
            grad(z, dk, out)
            out *= alpha
            np.subtract(w, out, out)
            if g is not None:
                out += g
    # (step, agent) pairs in order: the first is the earliest, lowest agent
    bad = np.argwhere(~np.isfinite(xs[1:len(ys) + 1]).all(axis=2))
    if len(bad):
        raise _diverged(t0, bad[0, 0], bad[0, 1], alphas, ys)


def langevin_step(ns: NetworkState, mix: MixingMatrix, sched: StepSchedule,
                  potential: Potential, noise: NoiseModel | None) -> NetworkState:
    """Advance the network by one iteration.

    Mixes (w, y, z), then updates every agent's x with its stochastic
    gradient at z_i and, unless ``noise`` is None, an injected Gaussian
    scaled by sqrt(2 alpha(t+1)).  Runs the same kernel as :func:`run`, on
    a block of one step and fresh buffers, so ``ns`` is left untouched.
    With :class:`ZeroPotential` and no noise it is a bare push-sum round:
    x = w = A x, y <- A y and z = w / y.  One matrix says nothing of
    B-strong connectivity, so unlike :func:`run` it checks none.

    Returns the state at t+1.  Raises :class:`DivergenceError` when any
    agent's new x contains non-finite entries, ``FloatingPointError`` when
    a push-sum weight falls below a representable floor, and ``ValueError``
    when the mixing matrix's size does not match the state or the potential,
    or a minibatch potential lacks noise.
    """
    m = ns.num_agents
    if len(mix.entries) != m:
        raise ValueError(f"mixing matrix has {len(mix.entries)} nodes but the state has {m} agents")
    _check_agents(potential, m)
    alphas = _alphas(sched, (ns.t + 1,))
    drawn, gauss = _draws(alphas, potential, noise, ns.dim)
    ys, underflow = _weights(mix.entries[None], ns.y, ns.t)
    if underflow is not None:
        raise underflow
    xs = np.array([ns.x, ns.x], dtype=float)
    ws, zs = np.empty_like(xs[1:]), np.empty_like(xs)
    _step(mix.entries[None], ys, xs, ws, zs, ns.t, alphas,
          potential.kernel(ns.x.shape), drawn, gauss)
    return NetworkState(x=xs[1], y=ys[0], w=ws[0], z=zs[1], t=ns.t + 1)


def average_state(ns: NetworkState) -> np.ndarray:
    """Network average xbar of the agent states."""
    return ns.x.mean(axis=0)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis; the arithmetic of
    np.linalg.norm(v, axis=-1) without its dispatch.  ``v`` is squared in
    place, so it must be a temporary or a dead buffer.  A norm too large
    for a float is inf, without a warning: the caller checks for it."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.multiply(v, v, out=v).sum(axis=-1))


def run(seq: DirectedGraphSequence, sched: StepSchedule, potential: Potential,
        noise: NoiseModel, num_iters: int, stride: int = 1,
        x0: np.ndarray | None = None, keep_dev: bool = True) -> Trace:
    """Drive the iteration for ``num_iters`` steps and record a trace;
    raise :class:`DivergenceError` at the first iteration and agent whose
    state, deviation, perturbation or consensus error is not finite, or
    ``FloatingPointError`` at an earlier push-sum weight underflow.

    Parameters
    ----------
    seq : DirectedGraphSequence
        Communication topology per iteration; its node count fixes the
        network size.  One with a window that is not strongly connected
        is refused before anything is drawn (``seq.check_b_connected()``).
    sched : StepSchedule
    potential : Potential
        Its ``num_agents``, unless None, must equal the node count.
    noise : NoiseModel or None
        Owns the per-agent streams, drawn once per block of at most 256
        steps, fewer at large m or d; None runs the deterministic iteration
        (mixing plus drift only), which a minibatch potential rejects
        before the first step.
    num_iters : int
    stride : int
        Snapshot thinning: agent samples (the ratio estimates z) and
        consensus errors are kept at iterations 0, stride, 2*stride, ...,
        with the deviations of the steps into them if ``keep_dev``; the
        other per-step figures are reduced per block to what the monitors
        read.
    x0 : ndarray, optional
        Initial (m, d) agent states, finite; zeros by default.
    keep_dev : bool
        Store the recorded deviations as ``Trace.record_dev``; if False it
        is None.  Every step's deviation is still checked and summed.

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
    seq.check_b_connected()

    # one block of steps at a time: step k reads xs[k] and writes ws[k],
    # zs[k+1] and xs[k+1]; xs[0] carries x over from the previous block
    block = min(_block_steps(m, d), num_iters)
    xs = np.zeros((block + 1, m, d))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (m, d):
            raise ValueError("x0 must have shape (num_agents, dim)")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        xs[0] = x0
    zs = xs.copy()
    ws, grad = np.empty((block, m, d)), potential.kernel((m, d))

    n_rec = num_iters // stride + 1
    alphas = np.array(_alphas(sched, range(0, num_iters + 1, stride)))
    states = np.zeros((n_rec, m, d))
    consensus = np.zeros((n_rec, m))
    record_dev = np.full((n_rec, m), np.nan) if keep_dev else None
    # sums[-1]: each agent's deviations summed over steps 1.. so far (see Trace)
    worst_cum, sums, max_pert = np.empty(num_iters - 1), np.zeros((1, m)), 0.0
    states[0] = zs[0]
    # finite states may sum to inf: no warning, the norms' checks report it
    with np.errstate(over="ignore"):
        consensus[0] = _row_norms(zs[0] - xs[0].sum(axis=0) / m)
    if not np.isfinite(consensus[0]).all():
        raise DivergenceError(agent=int(np.argmin(np.isfinite(consensus[0]))),
                              iteration=0, quantity="consensus error",
                              alpha=float(alphas[0]), min_weight=1.0)

    # a block's windows are filled before its draws, which die with _step's
    # call: no two of these transients are held at once
    for t0, mixing, ys, alpha in _blocks(seq, sched, num_iters, block):
        n = len(ys)
        _step(mixing, ys, xs, ws, zs, t0, alpha, grad, *_draws(alpha, potential, noise, d))
        # records rec at the multiples t0 + k of stride in (t0, t0 + n],
        # reached by steps t0 + kd
        k = slice(stride - t0 % stride, n + 1, stride)
        kd = slice(k.start - 1, n, stride)
        rec = slice((t0 + k.start) // stride, (t0 + n) // stride + 1)
        # xbar[k] is the average at iteration t0 + k; dev[k], pert[k] step
        # t0 + k, formed in ws, dead past _step, and zs, past the records
        with np.errstate(over="ignore"):
            xbar = xs[:n + 1].sum(axis=1)[:, None] / m
            pert = _row_norms(np.subtract(xs[1:n + 1], ws[:n], out=ws[:n]))
            states[rec] = zs[k]
            consensus[rec] = _row_norms(np.subtract(zs[k], xbar[k], out=ws[kd]))
            dev = _row_norms(np.subtract(zs[1:n + 1], xbar[:n], out=zs[1:n + 1]))
            sums = np.cumsum(np.vstack([sums[-1:], dev[1:] if t0 == 0 else dev]), axis=0)
        if keep_dev:
            record_dev[rec] = dev[kd]
        # finite states can still be far enough apart to overflow a norm
        bad = ~np.isfinite(dev) | ~np.isfinite(pert)
        bad[kd] |= ~np.isfinite(consensus[rec])
        if bad.any():
            step, agent = np.argwhere(bad)[0]
            raise _diverged(t0, step, agent, alpha, ys,
                            "deviation norm" if not np.isfinite(dev[step, agent]) else
                            "perturbation norm" if not np.isfinite(pert[step, agent]) else
                            "consensus error")
        worst_cum[max(t0, 1) - 1:t0 + n - 1] = sums[1:].max(axis=1)
        max_pert = max(max_pert, float(pert.max()))
        xs[0] = xs[n]

    return Trace(alphas=alphas, states=states, consensus=consensus,
                 record_dev=record_dev, worst_cum_dev=worst_cum,
                 max_pert=max_pert, num_iters=num_iters, stride=stride)


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
    size, that run in a thread pool with one thread per usable core at
    most.  One step is affine in the stacked state, x(t+1) = K_t x(t) + c_t
    + sqrt(2 alpha) xi, with K_t formed from the mixing matrix, the push-sum
    weights and H; the runs share only these maps, so the chunks never
    communicate.  They advance together in blocks of at most 256 steps,
    fewer at large m or d, of at most about 8 MiB of mixing matrices and
    2 MiB of maps, which the calling thread builds once for every chunk, so
    memory does not grow with the horizon.  When a chunk raises, or the
    caller is interrupted, every chunk stops at its next step.  A chunk's
    state is agent-major, (m d + 1, runs) with a last row of ones, so a
    step is one matrix product with [K_t | c_t] plus the scaled noise.

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
        noise.  By default chunk c draws from its own SFC64 generator,
        seeded from (seed, c), straight into the agent-major (m d, runs)
        rows of its state, so the result depends on (seed, num_runs) only,
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
    TypeError
        If ``num_iters`` or a checkpoint is not an integer.
    ValueError
        If :class:`GaussianPotential` refuses the target, a size is wrong,
        or ``seq`` has a window that is not strongly connected.
    """
    # a float checkpoint would key no step and leave its snapshot zero
    checkpoints = [operator.index(c) for c in checkpoints]
    if not checkpoints or any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be one or more strictly increasing "
                         "iteration counts")
    if checkpoints[0] < 1 or checkpoints[-1] > operator.index(num_iters):
        raise ValueError("checkpoints must lie in [1, num_iters]")
    if num_agents != seq.num_nodes:
        raise ValueError(f"graph sequence has {seq.num_nodes} nodes but "
                         f"num_agents is {num_agents}")
    if num_runs < 1:
        raise ValueError("num_runs must be at least 1")
    seq.check_b_connected()
    # imported here: only the ensemble needs a thread pool
    from concurrent.futures import ThreadPoolExecutor

    target = GaussianPotential(target_mean, target_cov, num_agents)
    h, b = target._h, target._b
    m, d, md = num_agents, len(b), num_agents * len(b)
    horizon = max(checkpoints)
    snaps = np.zeros((len(checkpoints), num_runs, d))
    want = {c: k for k, c in enumerate(checkpoints)}
    # set when a chunk raises or the caller is interrupted; every chunk
    # then stops at its next step
    stop = threading.Event()
    parts = np.array_split(np.arange(num_runs), -(-num_runs // _CHUNK_RUNS))
    bounds = [(int(p[0]), int(p[-1]) + 1) for p in parts]
    xs = [np.vstack([np.zeros((md, r1 - r0)), np.ones(r1 - r0)]) for r0, r1 in bounds]
    rngs = [np.random.Generator(np.random.SFC64([seed, c])) for c in range(len(bounds))]

    def advance(c: int, t0: int, steps: np.ndarray, alphas: list):
        """Runs chunk c through the maps ``steps``, of step sizes ``alphas``, from
        step t0; returns (k, agent) of a divergence at checkpoint t0 + k + 1, or None."""
        try:
            (r0, r1), x = bounds[c], xs[c]
            state, w = x[:-1], np.empty((md, r1 - r0))
            for t, k, alpha in zip(range(t0, t0 + len(steps)), steps, alphas):
                if stop.is_set():
                    break
                # x = K_t x + c_t + sqrt(2 alpha) xi; the draw overwrites x once K_t has read it
                np.matmul(k, x, out=w)
                if noise_draw is None:
                    rngs[c].standard_normal(out=state)
                else:
                    state[...] = noise_draw(t)[r0:r1].reshape(r1 - r0, md).T
                state *= math.sqrt(2.0 * alpha)
                state += w
                if t + 1 in want:
                    finite = np.isfinite(state.reshape(m, -1)).all(axis=1)
                    if not finite.all():
                        return t - t0, int(np.argmin(finite))
                    snaps[want[t + 1], r0:r1] = state.reshape(m, d, -1).mean(axis=0).T
            return None
        except BaseException:
            stop.set()
            raise

    # each block and its maps are built here and not in the workers (the
    # sequence's window memo is not thread-safe) before the chunks run it
    size = min(_block_steps(m, d), max(1, _STATE_BYTES // (8 * md * (md + 1))), horizon)
    maps = np.empty((size, m, d, md + 1))
    # an overflow or NaN warns nowhere: the checkpoint check names it
    with ThreadPoolExecutor(_worker_count(len(bounds))) as pool, \
            np.errstate(over="ignore", invalid="ignore"):
        try:
            for t0, mixing, ys, alphas in _blocks(seq, sched, horizon, size):
                steps = _affine_steps(mixing, ys, alphas, h, b, maps)
                # each task runs in a copy of the caller's context, which
                # carries its numpy error state
                futures = [pool.submit(contextvars.copy_context().run,
                                       advance, c, t0, steps, alphas)
                           for c in range(len(bounds))]
                failures = [f.result() for f in futures]
                failures = [f for f in failures if f is not None]
                if failures:
                    raise _diverged(t0, *min(failures), alphas, ys)
        except BaseException:
            stop.set()
            raise
    return snaps
