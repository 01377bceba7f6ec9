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
    "NetworkState",
    "init_network",
    "pushsum_mix",
    "consensus_error",
]

# below this weight the ratio w/y is numerically meaningless
Y_FLOOR = 1e-300


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


def _weights(entries: np.ndarray, y: np.ndarray, t0: int) -> tuple:
    """(ys, error): row k of ys is y(t0+k+1) = A_{t0+k} y(t0+k), from y = y(t0)
    and the (n, m, m) block ``entries``; the weights do not depend on the
    values, so one recursion serves every run over the same graphs.  If a
    weight falls below the floor, ys stops before that step and error is the
    FloatingPointError naming it; otherwise error is None."""
    ys = np.empty((len(entries), len(y)))
    for a, row in zip(entries, ys):
        y = np.matmul(a, y, out=row)
    low = (ys < Y_FLOOR).any(axis=1)
    if not low.any():
        return ys, None
    k = int(np.argmax(low))
    bad = int(np.argmin(ys[k]))
    return ys[:k], FloatingPointError(
        f"push-sum weight underflow at agent {bad} (y={ys[k, bad]:.3e}, t={t0 + k})")


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
        If the mixing matrix's size does not match the state.
    FloatingPointError
        If any weight falls below a representable floor, which would make
        the ratio z meaningless.
    """
    m = ns.num_agents
    if len(mix.entries) != m:
        raise ValueError(f"mixing matrix has {len(mix.entries)} nodes but the state has {m} agents")
    ys, underflow = _weights(mix.entries[None], ns.y, ns.t)
    if underflow is not None:
        raise underflow
    w = mix.entries @ ns.x
    return replace(ns, w=w, y=ys[0], z=w / ys[0][:, None])


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
