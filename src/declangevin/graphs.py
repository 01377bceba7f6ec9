"""Directed communication graphs and their mixing matrices.

Agents exchange values over a directed graph that may change at every
iteration.  Every node always counts itself among its own out-neighbors, so
the out-degree used for mass splitting is the number of out-edges plus one.
A sequence of graphs is B-strongly-connected when the union of the edge sets
over each window [kB, (k+1)B - 1] is strongly connected, which the samplers
require; individual graphs in the window may be arbitrarily sparse.  A
sequence holds its graphs once, as per-step edge lists, and a graph reaches
the sampler only through its column-stochastic mixing matrix, which holds
entries alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectedGraph",
    "DirectedGraphSequence",
    "MixingMatrix",
    "generate_graph_sequence",
    "spectral_bounds",
]

GRAPH_KINDS = ("static", "periodic-list", "seeded-random")

# Steps per block of generated windows.  Part of the seeded-random law: the
# max(1, 256 // B) windows of block k all draw from one generator seeded
# [seed, k], so changing it changes every window.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 0..num_nodes-1 with implicit self-loops.

    Parameters
    ----------
    num_nodes : int
        Number of nodes, at least 1.
    edges : frozenset of (int, int)
        Directed edges (u, v) with u != v.  Self-loops are never stored
        explicitly; every node is always its own neighbor.
    """

    num_nodes: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "num_nodes", operator.index(self.num_nodes))
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        # an int64 cast would truncate 1.7, parse '1' and regroup triples
        pairs = np.array([(operator.index(u), operator.index(v)) for u, v in self.edges],
                         dtype=np.int64).reshape(-1, 2)
        outside = ((pairs < 0) | (pairs >= self.num_nodes)).any(axis=1)
        if outside.any():
            u, v = pairs[outside][0]
            raise ValueError(f"edge ({u}, {v}) out of range for {self.num_nodes} nodes")
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            u = pairs[loops][0, 0]
            raise ValueError(f"explicit self-loop ({u}, {u}) is not allowed")
        object.__setattr__(self, "edges", frozenset(map(tuple, pairs.tolist())))


def _random_windows(m: int, b: int, seed: int, k: int, count: int) -> tuple:
    """Edge lists (starts, cells) of the count seeded-random windows of block k.

    The edges of the block's step s are cells[starts[s]:starts[s + 1]],
    distinct and in increasing order, each the flat index v * m + u of the
    mixing entry [v, u] of an edge from u to v; self-loops are implicit.
    The block draws from one ``np.random.default_rng([seed, k])``: a random
    Hamiltonian cycle per window, each of its edges placed in a random slot
    of the window, then for every slot a random number of extra random
    edges, of which self-loops and repeats are dropped.  Each of the four
    kinds of draw is one call for the whole block.  The seed is
    nonnegative, which the sequence checks once.
    """
    if k >= 1 << 32:
        # past it k takes two 32-bit words of entropy, and [seed, k]
        # collides with the blocks of other seeds
        raise ValueError(f"block index {k} is past 2**32 - 1, "
                         "the last block a graph seed covers")
    # every edge u -> v of step s but the self-loops as one key
    # s * m*m + v * m + u, formed in place with each draw dropped after its
    # last use, then sorted by step, then by cell, and kept once
    mm, rng = m * m, np.random.default_rng([seed, k])
    perms = rng.permuted(np.tile(np.arange(m), (count, 1)), axis=1)
    cyc = (rng.integers(0, b, size=(count, m)) + b * np.arange(count)[:, None]) * mm
    cyc += perms
    perms *= m
    cyc += np.roll(perms, -1, axis=1)  # the edge perms[w, j] -> perms[w, j + 1]
    del perms
    extra = rng.integers(0, m + 1, size=count * b)
    pairs = rng.integers(0, m, size=(extra.sum(), 2))
    ext = np.repeat(np.arange(count * b) * mm, extra) + pairs[:, 1] * m + pairs[:, 0]
    ext = ext[pairs[:, 0] != pairs[:, 1]]
    del pairs
    # a one-node cycle is a self-loop
    key = np.concatenate([cyc.ravel()[:cyc.size * (m > 1)], ext])
    del cyc, ext
    key.sort()
    keep = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    starts = np.searchsorted(key, np.arange(count * b + 1) * mm)
    key %= mm
    return starts, key


def _gather(lists: tuple, rows: np.ndarray) -> tuple:
    """(i, cells) of the edges of step rows[i] of the edge lists ``lists``,
    for every i, in the order of ``rows``."""
    starts, cells = lists
    counts = starts[rows + 1] - starts[rows]
    i = np.repeat(np.arange(len(rows)), counts)
    # an edge's place in the result, moved to its place in its row
    return i, cells[np.arange(len(i)) + (starts[rows] - np.cumsum(counts) + counts)[i]]


def _check_columns(entries: np.ndarray) -> None:
    # written so that NaN sums fail too
    if not np.abs(entries.sum(axis=-2) - 1.0).max() <= 1e-12:
        raise ValueError("mixing matrix columns must sum to 1")


@dataclass(frozen=True)
class MixingMatrix:
    """Column-stochastic (m, m) mixing matrix, the one form in which a graph
    reaches the sampler.

    ``entries[j, i]`` is 1/d_i, with d_i node i's out-degree, when i sends
    to j (or j == i) and 0 otherwise, so each column i spreads node i's mass
    uniformly over its out-neighborhood.  The entries are held as a
    read-only view; they must be square and every column must sum to 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float).view()
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"mixing entries must be square, got shape {entries.shape}")
        _check_columns(entries)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


class DirectedGraphSequence:
    """Time-indexed sequence of directed graphs on ``num_nodes`` nodes.

    ``kind`` is one of three.  ``static`` repeats ``graphs[0]``, or without
    ``graphs`` the first window that ``seed`` generates at window length 1.
    ``periodic-list`` cycles through ``graphs``.  ``seeded-random`` groups
    the windows of ``window_len`` steps (the B of B-strong connectivity)
    into blocks of n = max(1, 256 // window_len) windows and derives block k
    from (seed, k) alone: each window is a random Hamiltonian cycle
    scattered over the window's slots and topped up with random extra
    edges, so every window union, and the generated static graph, is
    strongly connected by construction and any block can be generated
    independently.  Block k takes the draws of one
    ``np.random.default_rng([seed, k])``, so the seed must be nonnegative
    and k below 2**32.

    Every kind holds its graphs once, as per-step edge lists ``(starts,
    cells)``: step s's edges u -> v are the cells v * m + u in
    cells[starts[s]:starts[s + 1]].  Explicit graphs are one list of P
    steps.  Seeded-random windows, about 2.5 m edges a step, are generated
    in blocks of about 256 steps, of which only the last is kept, so a
    reader that goes forward in time generates each block once.  :meth:`fill_mixing` turns
    a block of steps into mixing matrices in one call, writing only their
    diagonals and edges, and :meth:`mixing_at` is that call on a block of
    one step; :meth:`graph_at` rebuilds a single step's graph from the same
    edge lists on every call.
    """

    def __init__(self, kind: str, num_nodes: int, window_len: int = 1,
                 seed: int = 0, graphs=None):
        if kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph sequence kind {kind!r}; expected one of {GRAPH_KINDS}")
        self.kind = kind
        self.num_nodes = operator.index(num_nodes)
        self.window_len = operator.index(window_len)
        self.seed = operator.index(seed)
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.window_len < 1:
            raise ValueError("window_len must be at least 1")
        if self.seed < 0:
            raise ValueError(f"graph seed must be nonnegative, got {seed}")
        if kind == "seeded-random":
            if graphs:
                raise ValueError("seeded-random kind generates its own graphs")
            self._block_windows = max(1, _BLOCK_STEPS // self.window_len)
            self._last = (-1, None)
            return
        m = self.num_nodes
        if kind == "static" and not graphs:
            self._lists = _random_windows(m, 1, self.seed, 0, 1)
            return
        if not graphs:
            raise ValueError(f"kind {kind!r} requires explicit graphs")
        graphs = tuple(graphs)
        if any(g.num_nodes != num_nodes for g in graphs):
            raise ValueError("all graphs must share the node set")
        if kind == "static" and len(graphs) != 1:
            raise ValueError("static kind takes exactly one graph")
        cells = [np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2) @ [1, m]
                 for g in graphs]
        self._lists = (np.cumsum([0] + [len(c) for c in cells]), np.concatenate(cells))

    def _block(self, k: int) -> tuple:
        """Edge lists of the steps of seeded-random block k."""
        if self._last[0] != k:
            # block k - 1 goes before block k is made, not after
            self._last = (-1, None)
            self._last = (k, _random_windows(self.num_nodes, self.window_len,
                                             self.seed, k, self._block_windows))
        return self._last[1]

    def _edges(self, t0: int, n: int) -> tuple:
        """(step, cells) of the edges of steps t0..t0+n-1, each edge's step
        counted from t0; explicit lists repeat, seeded-random steps come
        block by block."""
        if t0 < 0:
            raise ValueError("time index must be nonnegative")
        if self.kind != "seeded-random":
            return _gather(self._lists, np.arange(t0, t0 + n) % (len(self._lists[0]) - 1))
        size, parts = self._block_windows * self.window_len, []
        for k in range(t0 // size, (t0 + n - 1) // size + 1):
            lo = max(t0, k * size)
            i, c = _gather(self._block(k), np.arange(lo, min(t0 + n, (k + 1) * size)) - k * size)
            parts.append((i + (lo - t0), c))
        return tuple(map(np.concatenate, zip(*parts)))

    def fill_mixing(self, t0: int, out: np.ndarray) -> np.ndarray:
        """Write the mixing entries of step t0 + k into ``out[k]``, for every k.

        ``out`` is a float (n, m, m) array; ``out[k]`` gets the
        :class:`MixingMatrix` entries of the graph of step t0 + k, and every
        column is checked to sum to 1.  Returns ``out``, untouched when n
        is 0.
        """
        m = self.num_nodes
        if out.ndim != 3 or out.shape[1:] != (m, m):
            raise ValueError(f"out must have shape (n, {m}, {m})")
        n = len(out)
        if n:
            step, cells = self._edges(t0, n)
            v, u = np.divmod(cells, m)
            # node u of step k keeps 1/d_u and sends 1/d_u along each
            # out-edge, d_u being 1 + its out-edges at that step
            src = step * m + u
            shares = 1.0 / (np.bincount(src, minlength=n * m) + 1.0)
            out[...] = 0.0
            out[:, np.arange(m), np.arange(m)] = shares.reshape(n, m)
            out[step, v, u] = shares[src]
            _check_columns(out)
        return out

    def graph_at(self, t: int) -> DirectedGraph:
        """Graph active at iteration t (t >= 0), rebuilt from its step's
        edge lists on every call."""
        v, u = np.divmod(self._edges(t, 1)[1], self.num_nodes)
        return DirectedGraph(self.num_nodes, frozenset(zip(u.tolist(), v.tolist())))

    def mixing_at(self, t: int) -> MixingMatrix:
        """Mixing matrix of the graph active at iteration t: the block of
        one step that :meth:`fill_mixing` writes."""
        m = self.num_nodes
        return MixingMatrix(self.fill_mixing(t, np.empty((1, m, m)))[0])

    def check_b_connected(self) -> None:
        """Raise a ValueError, naming the first step of the first cut window
        and a node pair with no path, if a window's union is not strongly
        connected.

        Seeded-random windows are connected by construction.  Window k of
        P explicit graphs starts at graph kB mod P, so only the first
        P / gcd(P, B) windows differ, one when B >= P: checking those is
        exact for every horizon.
        """
        if self.kind == "seeded-random":
            return
        m, b, p = self.num_nodes, self.window_len, len(self._lists[0]) - 1
        # window k is steps kB.., so the windows that differ, cut to their
        # first P steps, are steps 0.. in turn
        count = 1 if b >= p else p // math.gcd(p, b)
        step, cells = self._edges(0, count * min(b, p))
        # reach[k, v, u] is 1 when u reaches v in window k's union, squared
        # until it covers paths of m - 1 steps (clipped to 1 after each
        # float32 product, every count is exact)
        reach = np.zeros((count, m, m), dtype=np.float32)
        reach.reshape(-1)[step // b * (m * m) + cells] = 1.0
        reach[:, np.arange(m), np.arange(m)] = 1.0
        for _ in range((m - 2).bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        cut = ~reach.all(axis=(-2, -1))
        if cut.any():
            k = int(np.argmax(cut))
            v, u = np.argwhere(reach[k] == 0)[0]
            raise ValueError(f"graph sequence is not {b}-strongly connected: the "
                             f"window from step {k * b} has no path from node "
                             f"{u} to node {v}")


# the name the experiments and demos build sequences by
generate_graph_sequence = DirectedGraphSequence


@dataclass(frozen=True)
class SpectralBounds:
    """Worst-case mixing constants implied by the network size and window.

    ``delta_lower`` bounds from below every push-sum weight ratio that can
    occur, and ``lambda_upper`` bounds from above the per-step geometric
    contraction factor of the mixing products.  ``gap`` is 1 - lambda_upper
    computed without cancellation: from about 14 nodes on, lambda_upper
    rounds to 1.0 while the gap stays positive.
    """

    num_nodes: int
    window_len: int
    delta_lower: float
    lambda_upper: float
    gap: float


def spectral_bounds(num_nodes: int, window_len: int) -> SpectralBounds:
    """Closed-form mixing bounds for m nodes and window length B.

    delta >= m**(-m*B) and lambda <= (1 - m**(-m*B))**(1/(m*B)).  For a
    single node the mixing is exact: delta = 1 and lambda = 0.  The gap
    1 - lambda is computed in log space, so it stays positive after lambda
    has rounded to 1.0.

    Parameters
    ----------
    num_nodes : int
    window_len : int

    Returns
    -------
    SpectralBounds
    """
    if operator.index(num_nodes) < 1 or operator.index(window_len) < 1:
        raise ValueError("num_nodes and window_len must be at least 1")
    mb = num_nodes * window_len
    delta = float(num_nodes) ** (-mb)
    if delta == 0.0:
        raise ValueError(f"delta = m**(-m*B) underflows to 0 for m={num_nodes}, "
                         f"B={window_len}")
    lam = (1.0 - delta) ** (1.0 / mb)
    gap = 1.0 if delta == 1.0 else -math.expm1(math.log1p(-delta) / mb)
    return SpectralBounds(num_nodes=num_nodes, window_len=window_len,
                          delta_lower=delta, lambda_upper=lam, gap=gap)
