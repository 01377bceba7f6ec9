"""Directed graphs, mixing matrices, sequences and connectivity checks."""

import numpy as np
import pytest

from declangevin import (DirectedGraph, DirectedGraphSequence, MixingMatrix,
                         build_mixing_matrix, check_b_strong_connectivity,
                         generate_graph_sequence, out_degree, spectral_bounds)

from conftest import SIX_NODE_EDGES, SIX_NODE_MIXING


def random_graph(rng, num_nodes):
    """Arbitrary edge set, possibly disconnected; self-loops filtered."""
    k = int(rng.integers(0, 2 * num_nodes + 1))
    pairs = rng.integers(0, num_nodes, size=(k, 2))
    edges = {(int(u), int(v)) for u, v in pairs if u != v}
    return DirectedGraph(num_nodes, frozenset(edges))


class TestDirectedGraph:
    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            DirectedGraph(0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(3, {(0, 3)})

    def test_rejects_explicit_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(3, {(1, 1)})

    def test_out_degrees_count_self_loop(self, six_node_graph):
        assert six_node_graph.out_degrees.tolist() == [2, 1, 2, 1, 1, 2]
        assert out_degree(six_node_graph, 0) == 2
        assert out_degree(six_node_graph, 4) == 1

    def test_out_degree_rejects_bad_node(self, six_node_graph):
        with pytest.raises(ValueError):
            out_degree(six_node_graph, 6)

    def test_union_merges_edges(self):
        g1 = DirectedGraph(3, {(0, 1)})
        g2 = DirectedGraph(3, {(1, 2)})
        assert g1.union(g2).edges == frozenset({(0, 1), (1, 2)})

    def test_union_rejects_mismatched_node_sets(self):
        with pytest.raises(ValueError):
            DirectedGraph(3).union(DirectedGraph(4))

    def test_ring_is_strongly_connected(self):
        ring = DirectedGraph(4, {(0, 1), (1, 2), (2, 3), (3, 0)})
        assert ring.is_strongly_connected()

    def test_chain_is_not_strongly_connected(self):
        chain = DirectedGraph(4, {(0, 1), (1, 2), (2, 3)})
        assert not chain.is_strongly_connected()

    def test_single_node_is_strongly_connected(self):
        assert DirectedGraph(1).is_strongly_connected()


class TestMixingMatrix:
    def test_six_node_matrix_is_exact(self, six_node_graph):
        mix = build_mixing_matrix(six_node_graph)
        assert np.array_equal(mix.entries, SIX_NODE_MIXING)

    def test_sparsity_pattern_follows_edges(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 7)
        entries = build_mixing_matrix(g).entries
        for i in range(7):
            for j in range(7):
                should = i == j or (i, j) in g.edges
                assert (entries[j, i] != 0.0) == should

    def test_nonzero_entries_split_mass_evenly(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 6)
        entries = build_mixing_matrix(g).entries
        for i in range(6):
            col = entries[:, i]
            np.testing.assert_array_equal(col[col != 0.0],
                                          1.0 / g.out_degrees[i])

    def test_column_sums_one_over_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(1, 9)))
            sums = build_mixing_matrix(g).entries.sum(axis=0)
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_rejects_nonstochastic_entries(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixingMatrix(entries=0.5 * np.eye(3), graph=DirectedGraph(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MixingMatrix(entries=np.eye(2), graph=DirectedGraph(3))


class TestGraphSequences:
    def test_static_repeats_one_graph(self, six_node_graph):
        seq = generate_graph_sequence("static", 6, graphs=[six_node_graph])
        assert seq.graph_at(0) is seq.graph_at(57)

    def test_static_without_graph_generates_connected_one(self):
        seq = generate_graph_sequence("static", 5, seed=3)
        assert seq.graph_at(0).is_strongly_connected()

    def test_static_rejects_multiple_graphs(self, six_node_graph):
        with pytest.raises(ValueError):
            generate_graph_sequence("static", 6,
                                    graphs=[six_node_graph, six_node_graph])

    def test_periodic_list_cycles(self, alternating_pairs_seq):
        seq = alternating_pairs_seq
        assert seq.graph_at(0) is seq.graph_at(2)
        assert seq.graph_at(1) is seq.graph_at(3)
        assert seq.graph_at(0) is not seq.graph_at(1)

    def test_periodic_list_requires_graphs(self):
        with pytest.raises(ValueError):
            DirectedGraphSequence("periodic-list", 4)

    def test_seeded_random_is_deterministic(self):
        a = generate_graph_sequence("seeded-random", 5, 3, seed=9)
        b = generate_graph_sequence("seeded-random", 5, 3, seed=9)
        for t in range(12):
            assert a.graph_at(t).edges == b.graph_at(t).edges

    def test_seeded_random_windows_are_independent_of_visit_order(self):
        a = generate_graph_sequence("seeded-random", 5, 2, seed=4)
        late = a.graph_at(11).edges
        b = generate_graph_sequence("seeded-random", 5, 2, seed=4)
        for t in range(12):
            b.graph_at(t)
        assert b.graph_at(11).edges == late

    def test_seeded_random_rejects_explicit_graphs(self, six_node_graph):
        with pytest.raises(ValueError):
            generate_graph_sequence("seeded-random", 6, graphs=[six_node_graph])

    def test_mixing_at_matches_graph_at(self):
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=0)
        mix = seq.mixing_at(5)
        assert mix.graph is seq.graph_at(5)
        assert np.array_equal(mix.entries,
                              build_mixing_matrix(seq.graph_at(5)).entries)

    def test_negative_time_rejected(self):
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=0)
        with pytest.raises(ValueError):
            seq.graph_at(-1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph sequence kind"):
            DirectedGraphSequence("mesh", 4)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraphSequence("seeded-random", 0)
        with pytest.raises(ValueError):
            DirectedGraphSequence("seeded-random", 4, window_len=0)


class TestBStrongConnectivity:
    def test_seeded_random_windows_connected_by_construction(self):
        for seed in range(5):
            seq = generate_graph_sequence("seeded-random", 6, 3, seed=seed)
            assert check_b_strong_connectivity(seq, 60)

    def test_alternating_pairs_need_the_full_window(self, alternating_pairs_seq):
        assert check_b_strong_connectivity(alternating_pairs_seq, 8)
        assert not check_b_strong_connectivity(alternating_pairs_seq, 8,
                                               window_len=1)

    def test_horizon_shorter_than_window_rejected(self, alternating_pairs_seq):
        with pytest.raises(ValueError, match="shorter than one window"):
            check_b_strong_connectivity(alternating_pairs_seq, 1)


class TestSpectralBounds:
    def test_single_node_mixes_exactly(self):
        sb = spectral_bounds(1, 4)
        assert sb.delta_lower == 1.0
        assert sb.lambda_upper == 0.0
        assert sb.gap == 1.0

    def test_two_node_values(self):
        sb = spectral_bounds(2, 1)
        assert sb.delta_lower == 0.25
        assert sb.lambda_upper == 0.75 ** 0.5

    def test_bounds_lie_in_valid_ranges(self):
        for m in (2, 4, 6):
            for b in (1, 2, 3):
                sb = spectral_bounds(m, b)
                assert 0.0 < sb.delta_lower <= 1.0
                assert 0.0 <= sb.lambda_upper < 1.0

    def test_gap_is_one_minus_lambda(self):
        for m, b in ((2, 1), (3, 2), (4, 2)):
            sb = spectral_bounds(m, b)
            assert sb.gap == pytest.approx(1.0 - sb.lambda_upper, rel=1e-9)

    def test_gap_stays_positive_where_lambda_rounds_to_one(self):
        sb = spectral_bounds(16, 1)
        assert sb.lambda_upper == 1.0
        # 1 - (1 - delta)**(1/mB) = delta / mB to first order
        assert sb.gap > 0.0
        assert sb.gap == pytest.approx(sb.delta_lower / 16, rel=1e-12)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            spectral_bounds(0, 1)
        with pytest.raises(ValueError):
            spectral_bounds(2, 0)
        # delta = m**(-m*B) underflows to 0
        with pytest.raises(ValueError, match="m=200, B=1"):
            spectral_bounds(200, 1)
