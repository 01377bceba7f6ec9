"""Push-sum mixing of weighted agent states.

Each agent carries a value vector x, a scalar weight y, the freshly mixed
numerator w and the ratio estimate z = w / y.  One mixing round is one
product with the column-stochastic mixing matrix A: every agent j splits x_j
and y_j evenly over its out-neighborhood (itself included), so w = A x and
y <- A y.  The ratio z corrects the directional bias of the raw averages, and
the total weight sum stays equal to the number of agents forever.

State is agent-major: row i belongs to agent i, whether it holds one run's
d values or the values of many runs, so a single run and an ensemble of
runs share the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import MixingMatrix

__all__ = [
    "AgentState",
    "NetworkState",
    "init_network",
    "pushsum_mix",
    "consensus_error",
]

# below this weight the ratio w/y is numerically meaningless
Y_FLOOR = 1e-300


@dataclass(frozen=True)
class AgentState:
    """Read-only view of one agent's (x, y, w, z) quadruple."""

    x: np.ndarray
    y: float
    w: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class NetworkState:
    """Stacked state of all agents at one iteration.

    Rows index agents: ``x`` and ``w`` are (m, d), ``y`` is (m,), ``z`` is
    (m, d) and ``t`` counts completed iterations.
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

    def agent(self, i: int) -> AgentState:
        if not 0 <= i < self.num_agents:
            raise ValueError(f"agent {i} out of range")
        return AgentState(x=self.x[i], y=float(self.y[i]), w=self.w[i], z=self.z[i])


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


def _mix(entries: np.ndarray, x: np.ndarray, y: np.ndarray, t: int,
         w: np.ndarray | None = None, z: np.ndarray | None = None) -> tuple:
    """Push-sum round on agent-major state: (w, y, z) = (A x, A y, A x / A y).

    ``x`` has one row per agent, (m, d) for a single run or (m, d*R) for R
    runs; ``w`` and ``z`` are optional output buffers of the same shape.
    ``t`` only labels the underflow error.
    """
    w = np.matmul(entries, x, out=w)
    y = entries @ y
    if np.any(y < Y_FLOOR):
        bad = int(np.argmin(y))
        raise FloatingPointError(
            f"push-sum weight underflow at agent {bad} (y={y[bad]:.3e}, t={t})")
    z = np.divide(w, y[:, None], out=z)
    return w, y, z


def pushsum_mix(ns: NetworkState, mix: MixingMatrix) -> NetworkState:
    """One push-sum round over the given mixing topology.

    Every agent j contributes x_j / d_j and y_j / d_j to each of its
    out-neighbors and to itself, where d_j is j's out-degree including the
    self-loop; the receiver sums are the products w = A x and y <- A y with
    the mixing matrix.  Returns a state with fresh w, y, z; x and t are left
    untouched so the caller decides how to close the loop.

    Raises
    ------
    ValueError
        If the graph size does not match the state.
    FloatingPointError
        If any weight falls below a representable floor, which would make
        the ratio z meaningless.
    """
    m = ns.num_agents
    if mix.graph.num_nodes != m:
        raise ValueError(f"graph has {mix.graph.num_nodes} nodes but the state has {m} agents")
    w, y, z = _mix(mix.entries, ns.x, ns.y, ns.t)
    return replace(ns, w=w, y=y, z=z)


def consensus_error(ns: NetworkState) -> np.ndarray:
    """Per-agent distance ||z_i - xbar||_2 from the network average.

    The ratio estimates z are the agents' working values, so this is the
    disagreement that matters; the raw x_i converge to weighted mass shares
    rather than to the average.  When called right after
    :func:`pushsum_mix`, x still holds the previous iteration's values and
    the result is exactly the deviation the mixing bound controls.
    """
    xbar = ns.x.mean(axis=0)
    return np.linalg.norm(ns.z - xbar, axis=1)
