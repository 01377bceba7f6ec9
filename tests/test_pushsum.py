"""Push-sum mixing: matrix form, mass conservation, ratio consensus.

A bare push-sum round is a step with a flat potential and no noise, so it
leaves x = w.
"""

import numpy as np
import pytest

from declangevin import (NetworkState, StepSchedule, ZeroPotential,
                         generate_graph_sequence, init_network, langevin_step,
                         run)

from conftest import out_degrees


def random_state(rng, m, d):
    ns = init_network(m, d)
    return NetworkState(x=rng.standard_normal((m, d)),
                        y=rng.uniform(0.2, 2.0, size=m),
                        w=ns.w, z=ns.z, t=0)


def pushsum_mix(ns, mix):
    """One push-sum round on ``ns``."""
    return langevin_step(ns, mix, StepSchedule("harmonic", 1.0),
                         ZeroPotential(ns.dim), None)


def neighbour_sum_mix(g, x, y):
    """Reference round in receiver-sum form: each node keeps one share of its
    own mass and every edge (u, v) carries one share of u's mass to v."""
    degs = out_degrees(g)
    share_x, share_y = x / degs[:, None], y / degs
    w, y_new = share_x.copy(), share_y.copy()
    for u, v in g.edges:
        w[v] += share_x[u]
        y_new[v] += share_y[u]
    return w, y_new


class TestNetworkState:
    def test_init_is_zeroed_with_unit_weights(self):
        ns = init_network(3, 2)
        assert ns.x.shape == (3, 2) and not ns.x.any()
        assert np.array_equal(ns.y, np.ones(3))
        assert ns.t == 0
        assert ns.num_agents == 3 and ns.dim == 2

    def test_init_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            init_network(0, 2)
        with pytest.raises(ValueError):
            init_network(2, 0)

    def test_shape_consistency_enforced(self):
        ns = init_network(3, 2)
        with pytest.raises(ValueError):
            NetworkState(x=ns.x, y=np.ones(4), w=ns.w, z=ns.z, t=0)
        with pytest.raises(ValueError):
            NetworkState(x=ns.x, y=ns.y, w=ns.w, z=ns.z, t=-1)

    def test_agent_view(self):
        # agent i's quadruple is row i of every array
        rng = np.random.default_rng(0)
        ns = random_state(rng, 4, 3)
        mixed = pushsum_mix(ns, generate_graph_sequence(
            "seeded-random", 4, 1, seed=0).mixing_at(0))
        for i in range(4):
            assert np.array_equal(mixed.z[i], mixed.w[i] / mixed.y[i])
            assert np.array_equal(mixed.x[i], mixed.w[i])
        with pytest.raises(IndexError):
            ns.x[4]


class TestPushsumMix:
    def test_matches_stacked_matrix_product(self):
        rng = np.random.default_rng(1)
        seq = generate_graph_sequence("seeded-random", 5, 1, seed=7)
        ns = random_state(rng, 5, 3)
        for t in range(6):
            mix = seq.mixing_at(t)
            mixed = pushsum_mix(ns, mix)
            a = mix.entries
            np.testing.assert_allclose(mixed.w, a @ ns.x, atol=1e-12, rtol=0.0)
            np.testing.assert_allclose(mixed.y, a @ ns.y, atol=1e-12, rtol=0.0)
            np.testing.assert_allclose(mixed.z,
                                       mixed.w / mixed.y[:, None],
                                       atol=0.0, rtol=1e-15)
            assert np.array_equal(mixed.x, mixed.w)
            assert mixed.t == ns.t + 1
            ns = mixed

    def test_matches_the_neighbour_sum_reference(self):
        rng = np.random.default_rng(3)
        for m in (1, 3, 7):
            seq = generate_graph_sequence("seeded-random", m, 2, seed=m)
            ns = random_state(rng, m, 4)
            for t in range(8):
                mixed = pushsum_mix(ns, seq.mixing_at(t))
                w, y = neighbour_sum_mix(seq.graph_at(t), ns.x, ns.y)
                np.testing.assert_allclose(mixed.w, w, atol=1e-14, rtol=1e-14)
                np.testing.assert_allclose(mixed.y, y, atol=1e-14, rtol=1e-14)

    def test_total_weight_is_conserved(self):
        seq = generate_graph_sequence("seeded-random", 5, 2, seed=3)
        ns = init_network(5, 2)
        for t in range(500):
            ns = pushsum_mix(ns, seq.mixing_at(t))
            assert abs(ns.y.sum() - 5.0) <= 1e-12
            assert ns.y.min() > 0.0

    def test_consensus_is_a_fixed_point_of_z(self):
        # pure mixing from a shared value: the raw sums w and the weights y
        # drift apart between receivers, but their ratio cancels the uneven
        # mass and every z stays at the shared value
        c = np.array([1.5, -2.0, 0.25])
        ns = init_network(6, 3)
        ns = NetworkState(x=np.tile(c, (6, 1)), y=ns.y, w=ns.w, z=ns.z, t=0)
        seq = generate_graph_sequence("seeded-random", 6, 1, seed=5)
        for t in range(20):
            mixed = pushsum_mix(ns, seq.mixing_at(t))
            np.testing.assert_allclose(mixed.z, np.tile(c, (6, 1)),
                                       atol=1e-13, rtol=0.0)
            assert mixed.y.std() > 0.0 or t == 0
            ns = mixed

    def test_graph_size_mismatch_rejected(self):
        ns = init_network(4, 2)
        seq = generate_graph_sequence("seeded-random", 5, 1, seed=0)
        with pytest.raises(ValueError, match="5 nodes"):
            pushsum_mix(ns, seq.mixing_at(0))

    def test_weight_underflow_raises(self):
        ns = init_network(2, 1)
        ns = NetworkState(x=ns.x, y=np.array([1e-305, 1e-305]), w=ns.w,
                          z=ns.z, t=0)
        mix = generate_graph_sequence("static", 2, seed=1).mixing_at(0)
        with pytest.raises(FloatingPointError, match="underflow"):
            pushsum_mix(ns, mix)


class TestConsensusError:
    """The consensus error a run records: ||z_i - xbar||_2 per agent."""

    def test_zero_when_ratios_sit_at_the_average(self):
        seq = generate_graph_sequence("seeded-random", 5, 1, seed=4)
        x0 = np.tile([0.5, -1.5], (5, 1))
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    None, 10, x0=x0)
        np.testing.assert_allclose(trace.consensus, 0.0, atol=1e-15, rtol=0.0)

    def test_measures_ratio_estimates_not_raw_states(self):
        # x = w mixes to uneven mass shares, the ratios to the average;
        # a flat potential without noise keeps the average of x at x0's
        m, iters = 6, 200
        seq = generate_graph_sequence("seeded-random", m, 2, seed=4)
        x0 = np.random.default_rng(4).standard_normal((m, 2))
        xbar = x0.mean(axis=0)
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    None, iters, x0=x0)
        np.testing.assert_allclose(
            trace.consensus, np.linalg.norm(trace.states - xbar, axis=2),
            atol=1e-12, rtol=0.0)
        ns = NetworkState(x=x0, y=np.ones(m), w=x0, z=x0, t=0)
        for t in range(iters):
            ns = pushsum_mix(ns, seq.mixing_at(t))
        assert trace.consensus[-1].max() < 1e-9
        assert np.linalg.norm(ns.x - xbar, axis=1).max() > 1e-3
