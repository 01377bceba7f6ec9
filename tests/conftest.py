"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from declangevin import (Dataset, DirectedGraph, GaussianDist,
                         LinRegPotential, LogisticPotential, MixturePotential,
                         NoiseModel, Potential, PotentialProps,
                         empirical_gaussian, generate_graph_sequence,
                         grad_U_linreg, grad_U_logistic, grad_U_mixture,
                         roc_auc, step_size, w2_gaussian_bures,
                         w2_gaussian_paper)

# property tests draw their examples from a fixed seed and have no time
# limit per example, so every run of the suite gives the same verdict
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")

# Six nodes, three edges: 0 -> 1, 2 -> 3, 5 -> 0.  Small enough to write the
# mixing matrix down by hand, ragged enough to exercise unequal out-degrees
# and nodes with no outgoing edge at all.
SIX_NODE_EDGES = frozenset({(0, 1), (2, 3), (5, 0)})

SIX_NODE_MIXING = np.array([
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
    [0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.5, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
])


@pytest.fixture
def six_node_graph():
    return DirectedGraph(6, SIX_NODE_EDGES)


@pytest.fixture
def alternating_pairs_seq():
    """Four nodes talking in disjoint pairs that swap every iteration.

    Neither graph is strongly connected alone; the union over any window of
    two consecutive iterations is.
    """
    even = DirectedGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
    odd = DirectedGraph(4, {(1, 2), (2, 1), (3, 0), (0, 3)})
    return generate_graph_sequence("periodic-list", 4, 2, graphs=[even, odd])


def reference_block(num_nodes, window_len, seed, k, count):
    """The graphs of the count seeded-random windows of block k, built edge
    by edge as sets.

    The block's draws come from one ``default_rng([seed, k])``: every
    window's cycle by its own ``permutation`` call, then every window's
    slots, every slot's number of extra edges and all the extra edges.
    """
    m, b = num_nodes, window_len
    rng = np.random.default_rng([seed, k])
    slot_edges = [set() for _ in range(count * b)]
    if m > 1:
        perms = [rng.permutation(m) for _ in range(count)]
        slots = rng.integers(0, b, size=(count, m))
        extra = rng.integers(0, m + 1, size=count * b)
        pairs = iter(rng.integers(0, m, size=(int(extra.sum()), 2)).tolist())
        for w, perm in enumerate(perms):
            for i in range(m):
                edge = (int(perm[i]), int(perm[(i + 1) % m]))
                slot_edges[w * b + slots[w, i]].add(edge)
        for s, n_extra in enumerate(extra):
            for _ in range(n_extra):
                u, v = next(pairs)
                if u != v:
                    slot_edges[s].add((u, v))
    return tuple(DirectedGraph(m, frozenset(e)) for e in slot_edges)


def reference_window(num_nodes, window_len, seed, w):
    """The graphs of window w under the package's earlier law, one
    ``default_rng([seed, w])`` per window, built edge by edge as sets.

    A static sequence without graphs still takes window 0 of it at B = 1.
    """
    m, b = num_nodes, window_len
    rng = np.random.default_rng([seed, w])
    slot_edges = [set() for _ in range(b)]
    if m > 1:
        perm = rng.permutation(m)
        cycle = [(int(perm[k]), int(perm[(k + 1) % m])) for k in range(m)]
        slots = rng.integers(0, b, size=m)
        for edge, s in zip(cycle, slots):
            slot_edges[s].add(edge)
        for s in range(b):
            for _ in range(int(rng.integers(0, m + 1))):
                u, v = rng.integers(0, m, size=2)
                if u != v:
                    slot_edges[s].add((int(u), int(v)))
    return tuple(DirectedGraph(m, frozenset(e)) for e in slot_edges)


def save_libsvm(ds, path):
    """Write a dataset in the sparse 'label idx:val ...' text format that
    ``load_libsvm`` reads."""
    with open(path, "w") as fh:
        for i in range(ds.n):
            toks = [f"{int(ds.targets[i]):+d}"]
            row = ds.features[i]
            for j in np.nonzero(row)[0]:
                val = row[j]
                toks.append(f"{j + 1}:{int(val) if val == int(val) else repr(float(val))}")
            fh.write(" ".join(toks) + "\n")


def reference_surrogate(n, dim, seed, density=14.0 / 123.0):
    """``make_surrogate_classification`` as the package built it before it
    held features as bytes: one (n, dim) float draw thresholded in place,
    and the logits from one product over all rows."""
    rng = np.random.default_rng(seed)
    feats = rng.random((n, dim))
    np.less(feats, density, out=feats, casting="unsafe")
    hidden = rng.standard_normal(dim)
    logits = feats @ hidden
    logits -= np.median(logits)
    with np.errstate(over="ignore"):
        probs = 1.0 / (1.0 + np.exp(-logits))
    targs = np.where(rng.random(n) < probs, 1.0, -1.0)
    return Dataset(features=feats, targets=targs)


def out_degrees(g):
    """Each node's out-degree d_i, counted edge by edge: itself plus every
    node it sends to."""
    degrees = np.ones(g.num_nodes, dtype=np.int64)
    for u, _ in g.edges:
        degrees[u] += 1
    return degrees


def reference_mixing(g):
    """Mixing entries of a graph, one edge at a time: column i holds 1/d_i
    at i and at every node i sends to."""
    m = g.num_nodes
    entries = np.zeros((m, m))
    shares = 1.0 / out_degrees(g)
    entries[np.arange(m), np.arange(m)] = shares
    for u, v in g.edges:
        entries[v, u] = shares[u]
    return entries


def mixing_of(g):
    """The mixing matrix of one graph: a static sequence's at step 0."""
    return generate_graph_sequence("static", g.num_nodes, graphs=[g]).mixing_at(0)


def reference_strongly_connected(num_nodes, edges):
    """Strong connectivity by one forward sweep per node over an edge set."""
    succ = [[] for _ in range(num_nodes)]
    for u, v in edges:
        succ[u].append(v)
    for start in range(num_nodes):
        seen = {start}
        stack = [start]
        while stack:
            for v in succ[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) < num_nodes:
            return False
    return True


def reference_b_connected(seq, horizon, window_len):
    """Every complete window's edge union, swept node by node."""
    return all(
        reference_strongly_connected(seq.num_nodes, frozenset().union(
            *(seq.graph_at(k * window_len + s).edges
              for s in range(window_len))))
        for k in range(horizon // window_len))


def reference_auc_series(trace, test):
    """Per-agent test ROC-AUC at every record after the first, one state and
    one 1-d ``roc_auc`` call at a time, as the package computed the series
    before it scored states in chunks."""
    aucs = np.zeros((len(trace.ts) - 1, trace.num_agents))
    for k in range(1, len(trace.ts)):
        for i in range(trace.num_agents):
            scores = test.features @ trace.states[k, i]
            aucs[k - 1, i] = roc_auc(scores, test.targets)
    return trace.ts[1:], aucs


def reference_w2_series(trace, posterior):
    """Per-agent W2 distances of trailing-window fits to the posterior, one
    record and one agent at a time, each window refit from its samples by
    ``empirical_gaussian``, as the package computed the series before it
    took the fits from prefix sums."""
    ts, states = trace.ts, trace.states
    n_rec, m, d = states.shape
    paper = np.full((n_rec, m), np.nan)
    bures = np.full((n_rec, m), np.nan)
    for k in range(n_rec):
        t = ts[k]
        window = (ts > t / 2) & (ts <= t)
        if window.sum() < d + 1:
            continue
        for i in range(m):
            fit = empirical_gaussian(states[window, i, :])
            paper[k, i] = w2_gaussian_paper(fit, posterior)
            bures[k, i] = w2_gaussian_bures(fit, posterior)
    return paper, bures


def reference_ula(grad, sched, seed, num_iters, dim):
    """Plain single-chain unadjusted Langevin iteration.

    Written independently of the network code: one state vector, one seeded
    stream, gradient evaluated before the Gaussian draw, step size taken at
    t + 1.  Returns the iterates stacked as (num_iters + 1, dim) starting
    from zero.
    """
    rng = np.random.default_rng([seed, 0])
    x = np.zeros(dim)
    out = np.zeros((num_iters + 1, dim))
    for t in range(num_iters):
        alpha = step_size(sched, t + 1)
        g = grad(x)
        x = x - alpha * g + np.sqrt(2.0 * alpha) * rng.standard_normal(dim)
        out[t + 1] = x
    return out


def reference_no_ratio(grad, mixing, sched, num_iters, num_agents, dim):
    """Push-sum Langevin without the ratio: each agent's gradient taken at
    its mixed numerator w = A x instead of at z = w / y, with no noise.

    One static (m, m) column-stochastic mixing matrix, step size taken at
    t + 1, states from zero.  Returns the (m, dim) states after
    ``num_iters`` steps.
    """
    x = np.zeros((num_agents, dim))
    for t in range(num_iters):
        w = mixing @ x
        x = w - step_size(sched, t + 1) * grad(w)
    return x


def reference_grad_mixture(theta, x, sigma_x, prior_vars, scale=1.0):
    """The mixture gradient as the package computed it before it took the
    responsibilities through tanh and per-shard sums: component 2's
    responsibility is 1 / (1 + exp(-v)) of the log-density difference v,
    and both per-sample terms are summed side by side."""
    theta, x = np.asarray(theta, dtype=float), np.asarray(x, dtype=float)
    s2 = sigma_x ** 2
    a, b = theta[..., :1], theta[..., 1:]
    d1 = x - a
    d2 = d1 - b
    with np.errstate(over="ignore"):
        r2 = 1.0 / (1.0 + np.exp(-(d1 ** 2 - d2 ** 2) / (2.0 * s2)))
    terms = np.empty(r2.shape[:-1] + (2,) + r2.shape[-1:])
    np.subtract(d1, r2 * b, out=terms[..., 0, :])
    np.multiply(r2, d2, out=terms[..., 1, :])
    return -scale * terms.sum(axis=-1) / s2 + theta / np.asarray(prior_vars)


def reference_agent_grads(pot, ds, shards, z, noise):
    """Every agent's gradient at its row of z, one agent at a time.

    This is how the sharded potentials computed gradients before they
    stacked their shards: agent i's batch is ``pot.batch_size`` rows of its
    own shard of ``ds``, drawn by one ``integers`` call on
    ``noise.stream(i)`` (the whole shard without a batch size), rescaled by
    shard over batch size, and its term is the ``grad_U_*`` formula with
    1/m of a Gaussian prior.
    """
    m = len(shards)
    rows = []
    for i, shard in enumerate(shards):
        feats = ds.features[shard]
        targs = ds.targets[shard]
        scale = 1.0
        if pot.batch_size is not None:
            idx = noise.stream(i).integers(0, len(targs), size=pot.batch_size)
            feats, targs = feats[idx], targs[idx]
            scale = len(shard) / pot.batch_size
        if isinstance(pot, LinRegPotential):
            prior = GaussianDist(pot.prior.mean, pot.prior.cov * m)
            rows.append(grad_U_linreg(z[i], feats, targs, prior, pot.sigma,
                                      scale))
        elif isinstance(pot, MixturePotential):
            prior_vars = tuple(v * m for v in pot.prior_vars)
            rows.append(grad_U_mixture(z[i], targs, pot.sigma_x, prior_vars,
                                       scale))
        else:
            assert isinstance(pot, LogisticPotential)
            rows.append(grad_U_logistic(z[i], feats, targs, scale))
    return np.stack(rows)


class RecordingNoise(NoiseModel):
    """Noise model that remembers every Gaussian vector it hands out.

    Each block of draws is appended step by step and, within a step, agent
    0..m-1, so ``stacked(m, d)`` recovers the (num_iters, m, d) block
    structure.
    """

    def __init__(self, seed, num_agents):
        super().__init__(seed, num_agents)
        self.draws = []

    def gaussian_block(self, steps, dim):
        block = super().gaussian_block(steps, dim)
        self.draws.extend(block.reshape(-1, dim).copy())
        return block

    def stacked(self, num_agents, dim):
        return np.asarray(self.draws).reshape(-1, num_agents, dim)


class RecordingPotential(Potential):
    """Wraps a potential and remembers every gradient row it returns, step
    by step and, within a step, agent 0..m-1."""

    def __init__(self, inner):
        self.inner = inner
        self.props = inner.props
        self.num_agents = inner.num_agents
        self.grads = []

    def draw(self, noise, steps):
        return self.inner.draw(noise, steps)

    def grad_drawn(self, z, drawn):
        g = self.inner.grad_drawn(z, drawn)
        self.grads.extend(np.array(g, dtype=float))
        return g

    def stacked(self, num_agents, dim):
        return np.asarray(self.grads).reshape(-1, num_agents, dim)


class AffinePotential(Potential):
    """Agent i holds h_i |z - mu_i|^2 / 2, so the network targets the
    precision-weighted mean sum_i h_i mu_i / sum_i h_i of the mu_i."""

    def __init__(self, h, mu):
        self.h = np.asarray(h, dtype=float)[:, None]
        self.mu = np.asarray(mu, dtype=float)
        self.num_agents, dim = self.mu.shape
        self.props = PotentialProps(dim=dim)

    def grad_drawn(self, z, drawn):
        return self.h * (z - self.mu)


def central_fd(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g
