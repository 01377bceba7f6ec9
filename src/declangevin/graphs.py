"""Directed communication graphs and their mixing matrices.

Agents exchange values over a directed graph that may change at every
iteration.  Every node always counts itself among its own out-neighbors, so
the out-degree used for mass splitting is the number of out-edges plus one.
A sequence of graphs is B-strongly-connected when the union of the edge sets
over each window [kB, (k+1)B - 1] is strongly connected; individual graphs in
the window may be arbitrarily sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DirectedGraph",
    "DirectedGraphSequence",
    "MixingMatrix",
    "SpectralBounds",
    "out_degree",
    "build_mixing_matrix",
    "check_b_strong_connectivity",
    "generate_graph_sequence",
    "spectral_bounds",
]

GRAPH_KINDS = ("static", "periodic-list", "seeded-random")


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
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        edges = frozenset((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.num_nodes} nodes")
            if u == v:
                raise ValueError(f"explicit self-loop ({u}, {u}) is not allowed")

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, self-loop included."""
        degs = np.ones(self.num_nodes, dtype=np.int64)
        for u, _ in self.edges:
            degs[u] += 1
        degs.flags.writeable = False
        return degs

    def union(self, other: "DirectedGraph") -> "DirectedGraph":
        if other.num_nodes != self.num_nodes:
            raise ValueError("union requires graphs on the same node set")
        return DirectedGraph(self.num_nodes, self.edges | other.edges)

    def is_strongly_connected(self) -> bool:
        """True when every node reaches every other node along directed edges.

        Checked by one forward reachability sweep per node.
        """
        if self.num_nodes == 1:
            return True
        succ = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            succ[u].append(v)
        for start in range(self.num_nodes):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in succ[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) < self.num_nodes:
                return False
        return True


def out_degree(g: DirectedGraph, node: int) -> int:
    """Out-degree of ``node`` in ``g``, counting the implicit self-loop.

    Parameters
    ----------
    g : DirectedGraph
    node : int
        Node index; must lie in [0, g.num_nodes).

    Returns
    -------
    int
        1 plus the number of out-edges of ``node``.
    """
    if not 0 <= node < g.num_nodes:
        raise ValueError(f"node {node} out of range for {g.num_nodes} nodes")
    return int(g.out_degrees[node])


@dataclass(frozen=True)
class MixingMatrix:
    """Column-stochastic mixing matrix paired with the graph it came from.

    ``entries[j, i]`` is 1/out_degree(i) when i sends to j (or j == i) and 0
    otherwise, so each column i spreads node i's mass uniformly over its
    out-neighborhood.
    """

    entries: np.ndarray
    graph: DirectedGraph

    def __post_init__(self):
        m = self.graph.num_nodes
        if self.entries.shape != (m, m):
            raise ValueError("entries shape does not match the graph")
        # written so that NaN sums fail too
        if not np.abs(self.entries.sum(axis=0) - 1.0).max() <= 1e-12:
            raise ValueError("mixing matrix columns must sum to 1")


def build_mixing_matrix(g: DirectedGraph) -> MixingMatrix:
    """Build the column-stochastic mixing matrix of a directed graph.

    Column i holds 1/d_i at every out-neighbor of i and at i itself, where
    d_i is the out-degree including the self-loop.  Entry (j, i) is nonzero
    exactly when i = j or (i, j) is an edge.

    Parameters
    ----------
    g : DirectedGraph

    Returns
    -------
    MixingMatrix
    """
    m = g.num_nodes
    entries = np.zeros((m, m))
    shares = 1.0 / g.out_degrees
    entries[np.arange(m), np.arange(m)] = shares
    for u, v in g.edges:
        entries[v, u] = shares[u]
    entries.flags.writeable = False
    return MixingMatrix(entries=entries, graph=g)


class DirectedGraphSequence:
    """Time-indexed sequence of directed graphs on a fixed node set.

    Three kinds are supported.  ``static`` repeats a single graph.
    ``periodic-list`` cycles through an explicit list.  ``seeded-random``
    derives window w = t // window_len from (seed, w) alone: a random
    Hamiltonian cycle is scattered over the window's slots and topped up
    with random extra edges, so every window union is strongly connected by
    construction and any time index can be generated independently.
    """

    def __init__(self, kind: str, num_nodes: int, window_len: int = 1,
                 seed: int = 0, graphs=None):
        if kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph sequence kind {kind!r}; expected one of {GRAPH_KINDS}")
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if window_len < 1:
            raise ValueError("window_len must be at least 1")
        self.kind = kind
        self.num_nodes = int(num_nodes)
        self.window_len = int(window_len)
        self.seed = int(seed)
        if kind in ("static", "periodic-list"):
            if not graphs:
                raise ValueError(f"kind {kind!r} requires explicit graphs")
            graphs = tuple(graphs)
            for g in graphs:
                if g.num_nodes != num_nodes:
                    raise ValueError("all graphs must share the node set")
            if kind == "static" and len(graphs) != 1:
                raise ValueError("static kind takes exactly one graph")
            self.graphs = graphs
        else:
            if graphs:
                raise ValueError("seeded-random kind generates its own graphs")
            self.graphs = ()
        self._window_cache: dict = {}
        self._mixing_cache: dict = {}

    def graph_at(self, t: int) -> DirectedGraph:
        """Graph active at iteration t (t >= 0)."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        if self.kind == "static":
            return self.graphs[0]
        if self.kind == "periodic-list":
            return self.graphs[t % len(self.graphs)]
        w, slot = divmod(t, self.window_len)
        if w not in self._window_cache:
            self._window_cache[w] = self._random_window(w)
        return self._window_cache[w][slot]

    def mixing_at(self, t: int) -> MixingMatrix:
        """Mixing matrix of the graph active at iteration t, cached."""
        g = self.graph_at(t)
        key = id(g)
        if key not in self._mixing_cache:
            if len(self._mixing_cache) > 256:
                self._mixing_cache.clear()
            self._mixing_cache[key] = build_mixing_matrix(g)
        return self._mixing_cache[key]

    def _random_window(self, w: int) -> tuple:
        m, b = self.num_nodes, self.window_len
        rng = np.random.default_rng([self.seed, w])
        slot_edges = [set() for _ in range(b)]
        if m > 1:
            perm = rng.permutation(m)
            cycle = [(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)]
            slots = rng.integers(0, b, size=m)
            for edge, s in zip(cycle, slots):
                slot_edges[s].add(edge)
            # sprinkle extra random edges so degrees vary between runs
            for s in range(b):
                for _ in range(int(rng.integers(0, m + 1))):
                    u, v = rng.integers(0, m, size=2)
                    if u != v:
                        slot_edges[s].add((int(u), int(v)))
        return tuple(DirectedGraph(m, frozenset(e)) for e in slot_edges)


def generate_graph_sequence(kind: str, num_nodes: int, window_len: int = 1,
                            seed: int = 0, graphs=None) -> DirectedGraphSequence:
    """Construct a :class:`DirectedGraphSequence`.

    Parameters
    ----------
    kind : {'static', 'periodic-list', 'seeded-random'}
        ``static`` repeats ``graphs[0]`` (a single random strongly connected
        graph is generated from ``seed`` when no graph is given).
        ``periodic-list`` cycles through ``graphs``.  ``seeded-random`` draws
        an independent window of graphs for every block of ``window_len``
        iterations; each window union is strongly connected by construction.
    num_nodes : int
    window_len : int
        Window length B over which unions must be strongly connected.
    seed : int
        Seed for the random kinds; a given (seed, window index) pair always
        yields the same graphs.
    graphs : sequence of DirectedGraph, optional
        Explicit graphs for the static and periodic-list kinds.

    Returns
    -------
    DirectedGraphSequence
    """
    if kind == "static" and not graphs:
        # collapse one random window into a single strongly connected graph
        proto = DirectedGraphSequence("seeded-random", num_nodes, 1, seed)
        graphs = [proto.graph_at(0)]
    return DirectedGraphSequence(kind, num_nodes, window_len, seed, graphs)


def check_b_strong_connectivity(seq: DirectedGraphSequence, horizon: int,
                                window_len: int | None = None) -> bool:
    """Check strong connectivity of every window union inside a horizon.

    The window length defaults to ``seq.window_len``.  Windows are the
    blocks [k*B, (k+1)*B - 1] that fit entirely inside [0, horizon).

    Parameters
    ----------
    seq : DirectedGraphSequence
    horizon : int
        Number of iterations the sequence will be used for; must be at least
        one full window.
    window_len : int, optional
        Override for the window length B.

    Returns
    -------
    bool
        True when every complete window union is strongly connected.
    """
    b = seq.window_len if window_len is None else int(window_len)
    if b < 1:
        raise ValueError("window length must be at least 1")
    if horizon < b:
        raise ValueError(f"horizon {horizon} is shorter than one window of {b}")
    for k in range(horizon // b):
        union = seq.graph_at(k * b)
        for s in range(1, b):
            union = union.union(seq.graph_at(k * b + s))
        if not union.is_strongly_connected():
            return False
    return True


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
    if num_nodes < 1 or window_len < 1:
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
