"""Push-sum mixing: matrix form, mass conservation, ratio consensus."""

import numpy as np
import pytest

from declangevin import (NetworkState, build_mixing_matrix, consensus_error,
                         generate_graph_sequence, init_network, pushsum_mix)


def random_state(rng, m, d):
    ns = init_network(m, d)
    return NetworkState(x=rng.standard_normal((m, d)),
                        y=rng.uniform(0.2, 2.0, size=m),
                        w=ns.w, z=ns.z, t=0)


def neighbour_sum_mix(g, x, y):
    """Reference round in receiver-sum form: each node keeps one share of its
    own mass and every edge (u, v) carries one share of u's mass to v."""
    degs = g.out_degrees
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
        rng = np.random.default_rng(0)
        ns = random_state(rng, 4, 3)
        a = ns.agent(2)
        assert np.array_equal(a.x, ns.x[2])
        assert a.y == ns.y[2]
        with pytest.raises(ValueError):
            ns.agent(4)


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
            # close the loop without any perturbation
            ns = NetworkState(x=mixed.w, y=mixed.y, w=mixed.w, z=mixed.z,
                              t=ns.t + 1)

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

    def test_x_and_t_left_untouched(self):
        rng = np.random.default_rng(2)
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=2)
        ns = random_state(rng, 4, 2)
        mixed = pushsum_mix(ns, seq.mixing_at(0))
        assert mixed.x is ns.x
        assert mixed.t == ns.t

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
            ns = NetworkState(x=mixed.w, y=mixed.y, w=mixed.w, z=mixed.z,
                              t=t + 1)

    def test_graph_size_mismatch_rejected(self):
        ns = init_network(4, 2)
        seq = generate_graph_sequence("seeded-random", 5, 1, seed=0)
        with pytest.raises(ValueError, match="5 nodes"):
            pushsum_mix(ns, seq.mixing_at(0))

    def test_weight_underflow_raises(self):
        ns = init_network(2, 1)
        ns = NetworkState(x=ns.x, y=np.array([1e-305, 1e-305]), w=ns.w,
                          z=ns.z, t=0)
        mix = build_mixing_matrix(
            generate_graph_sequence("static", 2, seed=1).graph_at(0))
        with pytest.raises(FloatingPointError, match="underflow"):
            pushsum_mix(ns, mix)


class TestConsensusError:
    def test_zero_when_ratios_sit_at_the_average(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2))
        xbar = x.mean(axis=0)
        ns = NetworkState(x=x, y=np.ones(5), w=x.copy(),
                          z=np.tile(xbar, (5, 1)), t=1)
        np.testing.assert_allclose(consensus_error(ns), 0.0,
                                   atol=1e-15, rtol=0.0)

    def test_measures_ratio_estimates_not_raw_states(self):
        x = np.array([[0.0, 0.0], [2.0, 2.0]])
        z = np.array([[1.0, 1.0], [1.0, 4.0]])
        ns = NetworkState(x=x, y=np.ones(2), w=x.copy(), z=z, t=1)
        # xbar = (1, 1): agent 0 coincides, agent 1 is 3 away in one axis
        np.testing.assert_allclose(consensus_error(ns), [0.0, 3.0],
                                   atol=1e-15, rtol=0.0)
