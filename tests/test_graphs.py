"""Directed graphs, mixing matrices, sequences and connectivity checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declangevin.graphs as graphs_module
from declangevin import (DirectedGraph, DirectedGraphSequence, MixingMatrix,
                         StepSchedule, ZeroPotential, generate_graph_sequence,
                         run, spectral_bounds)

from conftest import (SIX_NODE_EDGES, SIX_NODE_MIXING, mixing_of, out_degrees,
                      reference_b_connected, reference_block, reference_mixing,
                      reference_strongly_connected, reference_window)

seeds = st.integers(0, 2 ** 32 - 1)


def random_graph(rng, num_nodes):
    """Arbitrary edge set, possibly disconnected; self-loops filtered."""
    k = int(rng.integers(0, 2 * num_nodes + 1))
    pairs = rng.integers(0, num_nodes, size=(k, 2))
    edges = {(int(u), int(v)) for u, v in pairs if u != v}
    return DirectedGraph(num_nodes, frozenset(edges))


def accepted(seq):
    """Whether ``run`` accepts seq; the only refusal it may give is the
    connectivity check's."""
    try:
        run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(1), None, 1)
    except ValueError as exc:
        assert "strongly connected" in str(exc)
        return False
    return True


def strongly_connected(g):
    """Whether ``run`` accepts the static sequence of g, window 1."""
    return accepted(generate_graph_sequence("static", g.num_nodes, graphs=[g]))


class TestDirectedGraph:
    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            DirectedGraph(0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(3, {(0, 3)})

    @pytest.mark.parametrize("num_nodes, edges, error", [
        (3, {(0, 1.7), (1, 2), (2, 0)}, TypeError), (3, {(0, 1.0)}, TypeError),
        (3, {(0, "1")}, TypeError), (3.0, {(0, 1)}, TypeError),
        (3, {(0, 1, 2), (1, 0, 2)}, ValueError), (3, {(0,), (1,)}, ValueError)])
    def test_rejects_edges_that_are_not_integer_pairs(self, num_nodes, edges, error):
        # an int64 cast read (0, 1.7) and (0, '1') as the edge (0, 1), and
        # regrouped two triples into three edges
        with pytest.raises(error):
            DirectedGraph(num_nodes, frozenset(edges))
        g = DirectedGraph(np.int64(3), frozenset({(np.int32(0), np.uint8(1)),
                                                  (np.uint64(1), 2)}))
        assert type(g.num_nodes) is int and g.edges == {(0, 1), (1, 2)}
        assert DirectedGraph(3).edges == frozenset()

    def test_rejects_explicit_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(3, {(1, 1)})

    def test_out_degrees_count_self_loop(self, six_node_graph):
        degrees = out_degrees(six_node_graph)
        assert degrees.tolist() == [2, 1, 2, 1, 1, 2]
        assert degrees[0] == 2
        assert degrees[4] == 1

    def test_ring_is_strongly_connected(self):
        ring = DirectedGraph(4, {(0, 1), (1, 2), (2, 3), (3, 0)})
        assert strongly_connected(ring)

    def test_chain_is_not_strongly_connected(self):
        chain = DirectedGraph(4, {(0, 1), (1, 2), (2, 3)})
        assert not strongly_connected(chain)

    def test_single_node_is_strongly_connected(self):
        assert strongly_connected(DirectedGraph(1))


class TestMixingMatrix:
    def test_six_node_matrix_is_exact(self, six_node_graph):
        mix = mixing_of(six_node_graph)
        assert np.array_equal(mix.entries, SIX_NODE_MIXING)

    def test_sparsity_pattern_follows_edges(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 7)
        entries = mixing_of(g).entries
        for i in range(7):
            for j in range(7):
                should = i == j or (i, j) in g.edges
                assert (entries[j, i] != 0.0) == should

    def test_nonzero_entries_split_mass_evenly(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 6)
        entries = mixing_of(g).entries
        for i in range(6):
            col = entries[:, i]
            np.testing.assert_array_equal(col[col != 0.0],
                                          1.0 / out_degrees(g)[i])

    def test_column_sums_one_over_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(1, 9)))
            sums = mixing_of(g).entries.sum(axis=0)
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_rejects_nonstochastic_entries(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixingMatrix(entries=0.5 * np.eye(3))

    def test_fill_mixing_checks_every_block(self, six_node_graph):
        seq = generate_graph_sequence("static", 6, graphs=[six_node_graph])
        # a list that holds one edge twice: its sender counts it twice in
        # its degree, but the entry is written once
        starts, cells = seq._lists
        seq._lists = (starts + [0, 1], np.append(cells, cells[0]))
        with pytest.raises(ValueError, match="sum to 1"):
            seq.fill_mixing(0, np.empty((3, 6, 6)))

    def test_rejects_shape_mismatch(self):
        # columns that sum to 1, but no square matrix
        with pytest.raises(ValueError, match="square"):
            MixingMatrix(entries=np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="square"):
            MixingMatrix(entries=np.ones(3))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4), (2, 4, 5)])
    def test_fill_mixing_refuses_an_out_of_another_shape(self, shape):
        seq = generate_graph_sequence("seeded-random", 4, seed=0)
        with pytest.raises(ValueError, match=r"out must have shape \(n, 4, 4\)"):
            seq.fill_mixing(0, np.empty(shape))

    def test_entries_are_a_read_only_view(self, six_node_graph):
        entries = SIX_NODE_MIXING.copy()
        mix = MixingMatrix(entries)
        with pytest.raises(ValueError):
            mix.entries[0, 0] = 1.0
        assert entries.flags.writeable
        with pytest.raises(ValueError):
            mixing_of(six_node_graph).entries[0, 0] = 1.0


class TestGraphSequences:
    def test_static_repeats_one_graph(self, six_node_graph):
        seq = generate_graph_sequence("static", 6, graphs=[six_node_graph])
        assert seq.graph_at(0) == seq.graph_at(57)

    def test_static_without_graph_generates_connected_one(self):
        seq = generate_graph_sequence("static", 5, seed=3)
        assert accepted(seq)
        assert strongly_connected(seq.graph_at(0))

    def test_static_rejects_multiple_graphs(self, six_node_graph):
        with pytest.raises(ValueError):
            generate_graph_sequence("static", 6,
                                    graphs=[six_node_graph, six_node_graph])

    def test_periodic_list_cycles(self, alternating_pairs_seq):
        seq = alternating_pairs_seq
        assert seq.graph_at(0) == seq.graph_at(2)
        assert seq.graph_at(1) == seq.graph_at(3)
        assert seq.graph_at(0) != seq.graph_at(1)

    def test_explicit_graphs_must_share_the_node_set(self, six_node_graph):
        with pytest.raises(ValueError, match="all graphs must share the node set"):
            DirectedGraphSequence("periodic-list", 6,
                                  graphs=[six_node_graph, DirectedGraph(5)])

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
        assert np.array_equal(mix.entries, reference_mixing(seq.graph_at(5)))
        assert np.array_equal(mix.entries,
                              mixing_of(seq.graph_at(5)).entries)

    def test_mixing_at_follows_the_position(self, alternating_pairs_seq):
        # one graph object at two positions of a periodic list gives each
        # position its own graph's matrix
        even, odd = alternating_pairs_seq.graph_at(0), alternating_pairs_seq.graph_at(1)
        seq = generate_graph_sequence("periodic-list", 4, 2,
                                      graphs=[even, odd, even])
        assert np.array_equal(seq.mixing_at(0).entries, seq.mixing_at(3).entries)
        assert np.array_equal(seq.mixing_at(2).entries,
                              mixing_of(even).entries)
        static = generate_graph_sequence("static", 4, seed=1)
        assert np.array_equal(static.mixing_at(0).entries,
                              static.mixing_at(7).entries)
        seq = generate_graph_sequence("seeded-random", 4, 3, seed=2)
        for t in range(600):
            mix = seq.mixing_at(t)
            assert np.array_equal(mix.entries, reference_mixing(seq.graph_at(t)))
            assert np.array_equal(mix.entries,
                                  mixing_of(seq.graph_at(t)).entries)

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

    @pytest.mark.parametrize("kwargs", [dict(num_nodes=3.0), dict(window_len=1.5),
                                        dict(seed=1.7)])
    def test_non_integer_sizes_and_seeds_are_refused(self, kwargs):
        # truncating them made every seed in [1, 2) share one stream
        args = dict(num_nodes=3, window_len=1, seed=1) | kwargs
        with pytest.raises(TypeError):
            DirectedGraphSequence("seeded-random", **args)
        seq = DirectedGraphSequence("seeded-random", np.int64(3), np.int32(2),
                                    seed=np.uint8(1))
        assert (seq.num_nodes, seq.window_len, seq.seed) == (3, 2, 1)
        assert type(seq.seed) is int


class TestBStrongConnectivity:
    def test_seeded_random_windows_connected_by_construction(self):
        for seed in range(5):
            seq = generate_graph_sequence("seeded-random", 6, 3, seed=seed)
            assert reference_b_connected(seq, 60, 3)
            assert accepted(seq)

    def test_alternating_pairs_need_the_full_window(self, alternating_pairs_seq):
        assert accepted(alternating_pairs_seq)
        per_step = generate_graph_sequence(
            "periodic-list", 4, 1, graphs=[alternating_pairs_seq.graph_at(0),
                                           alternating_pairs_seq.graph_at(1)])
        with pytest.raises(ValueError, match="not 1-strongly connected: the "
                           "window from step 0 has no path from node 2 to node 0"):
            per_step.check_b_connected()
        assert not accepted(per_step)

    def test_the_first_cut_window_is_named(self):
        # window k of 3 graphs at B = 2 starts at graph 2k mod 3, so the
        # windows hold graphs (0, 1), (2, 0), (1, 2), then the same again.
        # Only graph 1, the ring, links node 2: window 1 is the first cut
        ring = DirectedGraph(3, {(0, 1), (1, 2), (2, 0)})
        pair = DirectedGraph(3, {(0, 1), (1, 0)})
        seq = generate_graph_sequence("periodic-list", 3, 2,
                                      graphs=[pair, ring, pair])
        with pytest.raises(ValueError, match="window from step 2 has no path "
                           "from node 2 to node 0"):
            seq.check_b_connected()
        # a window at least as long as the list unites all of it
        assert accepted(generate_graph_sequence("periodic-list", 3, 3,
                                                graphs=[pair, ring, pair]))


class TestArrayGraphLayer:
    """The edge lists against edge-by-edge references."""

    @settings(max_examples=60)
    @given(m=st.integers(1, 12), b=st.integers(1, 4), seed=seeds,
           w=st.integers(0, 10 ** 6))
    def test_windows_match_the_reference_generator(self, m, b, seed, w):
        seq = generate_graph_sequence("seeded-random", m, b, seed=seed)
        count = 256 // b
        k, i = divmod(w, count)
        window = reference_block(m, b, seed, k, count)[i * b:(i + 1) * b]
        entries = seq.fill_mixing(w * b, np.empty((b, m, m)))
        for s, g in enumerate(window):
            assert seq.graph_at(w * b + s).edges == g.edges
            np.testing.assert_array_equal(entries[s], reference_mixing(g))
        assert np.abs(entries.sum(axis=1) - 1.0).max() <= 1e-12
        assert reference_strongly_connected(
            m, frozenset().union(*(g.edges for g in window)))
        assert reference_b_connected(seq, (w % 50 + 1) * b, b)
        assert accepted(seq)

    @settings(max_examples=40)
    @given(m=st.integers(1, 40), rows=st.integers(0, 256),
           seed=st.integers(0, 2 ** 70))
    def test_permuted_rows_are_successive_permutations(self, m, rows, seed):
        # the block's cycles rely on this numpy behaviour, which numpy does
        # not document: permuting the rows of a tile draws as one
        # permutation(m) call per row, in order
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        tile = np.tile(np.arange(m), (rows, 1))
        expected = np.array([ref.permutation(m) for _ in range(rows)],
                            dtype=tile.dtype).reshape(rows, m)
        np.testing.assert_array_equal(rng.permuted(tile, axis=1), expected)
        assert rng.integers(2 ** 62) == ref.integers(2 ** 62)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_check_agrees_with_the_reference_on_explicit_sequences(self, data):
        # the list repeats its windows after lcm(P, B) steps
        m = data.draw(st.integers(1, 6))
        node = st.integers(0, m - 1)
        graphs = data.draw(st.lists(
            st.frozensets(st.tuples(node, node), max_size=2 * m).map(
                lambda pairs: DirectedGraph(m, frozenset(
                    (u, v) for u, v in pairs if u != v))),
            min_size=1, max_size=5))
        b = data.draw(st.integers(1, 4))
        seq = generate_graph_sequence("periodic-list", m, b, graphs=graphs)
        assert accepted(seq) == reference_b_connected(
            seq, math.lcm(len(graphs), b), b)
        for g in graphs:
            assert strongly_connected(g) == reference_strongly_connected(
                m, g.edges)

    @settings(max_examples=40)
    @given(kind=st.sampled_from(["seeded-random", "static", "periodic-list"]),
           m=st.integers(1, 12), b=st.integers(1, 4), seed=seeds,
           t0=st.integers(0, 800), n=st.integers(1, 600))
    def test_fill_mixing_equals_stacked_views(self, kind, m, b, seed, t0, n):
        # n up to 600 steps crosses windows and blocks of about 256 steps,
        # and the period of a list of 1 to 5 graphs many times over
        rng = np.random.default_rng(seed)
        graphs = ([random_graph(rng, m) for _ in range(seed % 5 + 1)]
                  if kind == "periodic-list" else None)
        seq = generate_graph_sequence(kind, m, b, seed=seed, graphs=graphs)
        block = seq.fill_mixing(t0, np.empty((n, m, m)))
        np.testing.assert_array_equal(
            block, np.stack([seq.mixing_at(t).entries for t in range(t0, t0 + n)]))
        if graphs:
            np.testing.assert_array_equal(block[0], reference_mixing(
                graphs[t0 % len(graphs)]))
        # rows of a wider array, which no reshape to (n, m * m) can view:
        # no entry may land in a copy
        wide = np.full((n, m, m + 1), np.nan)
        seq.fill_mixing(t0, wide[:, :, :m])
        np.testing.assert_array_equal(wide[:, :, :m], block)
        assert np.isnan(wide[:, :, m]).all()

    @settings(max_examples=60)
    @given(m=st.integers(1, 12), b=st.integers(1, 4), seed=seeds,
           k=st.integers(0, 2 ** 32 - 1))
    def test_block_steps_hold_distinct_edges_in_step_order(self, m, b, seed, k):
        # d_u is counted from the lists, so a repeat or a self-loop would
        # weigh in twice
        count = 256 // b
        starts, cells = graphs_module._random_windows(m, b, seed, k, count)
        assert len(starts) == count * b + 1
        assert starts[0] == 0 and starts[-1] == len(cells)
        assert (np.diff(starts) >= 0).all()
        v, u = np.divmod(cells, m)
        assert ((0 <= v) & (v < m) & (u != v)).all()
        for s, g in enumerate(reference_block(m, b, seed, k, count)):
            step = cells[starts[s]:starts[s + 1]]
            assert (np.diff(step) > 0).all()
            assert set(step.tolist()) == {v * m + u for u, v in g.edges}


class TestWindowStore:
    def test_memory_stays_flat_over_a_long_horizon(self):
        # 20 000 steps at m=8 are 1.28 MB as dense adjacency; only the last
        # block of 256 steps, about 13 kB of edge lists, is kept.  A first
        # read outside the traced pass leaves out what numpy allocates
        # once, on its first draws
        seq = generate_graph_sequence("seeded-random", 8, 4, seed=0)
        out = np.empty((256, 8, 8))

        def read_forward(horizon):
            for t0 in range(0, horizon, 256):
                seq.fill_mixing(t0, out)

        read_forward(300)
        tracemalloc.start()
        try:
            read_forward(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20000 * 8 * 8 / 5
        # the first blocks were dropped and come back the same
        fresh = generate_graph_sequence("seeded-random", 8, 4, seed=0)
        np.testing.assert_array_equal(seq.fill_mixing(0, np.empty((300, 8, 8))),
                                      fresh.fill_mixing(0, np.empty((300, 8, 8))))

    def test_a_block_peaks_near_its_edge_lists(self):
        # at m=1024 a block's draws and keys, all held at once, peaked at
        # 5.7 times its 3.2 MB of edge lists
        graphs_module._random_windows(1024, 1, 0, 0, 256)
        tracemalloc.start()
        try:
            starts, cells = graphs_module._random_windows(1024, 1, 0, 1, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (starts.nbytes + cells.nbytes)

    def test_check_then_run_generate_each_block_once_in_order(self, monkeypatch):
        made = []
        generate = graphs_module._random_windows

        def counting(m, b, seed, k, count):
            made.append(k)
            return generate(m, b, seed, k, count)

        monkeypatch.setattr(graphs_module, "_random_windows", counting)
        # 1000 steps of windows of 2 are four blocks of 256 steps; run's
        # check generates none of them
        seq = generate_graph_sequence("seeded-random", 4, 2, seed=3)
        run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2), None, 1000)
        assert made == [0, 1, 2, 3]
        made.clear()
        run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2), None, 1000)
        assert made == [0, 1, 2, 3]
        # a reader of one step at a time too, through the last-block memo
        made.clear()
        for t in range(1000):
            seq.graph_at(t)
        assert made == [0, 1, 2, 3]


class TestWindowSeeding:
    """One ``default_rng([seed, k])`` per block k of windows."""

    def test_window_two_to_the_32_raises(self):
        # at B = 1 a block is 256 windows, so step 256 * 2**32 is block 2**32
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=3)
        seq.fill_mixing(256 * 2 ** 32 - 1, np.empty((1, 4, 4)))
        with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
            seq.fill_mixing(256 * 2 ** 32, np.empty((1, 4, 4)))
        with pytest.raises(ValueError, match=r"2\*\*32 - 1"):
            seq.fill_mixing(256 * 2 ** 32 - 1, np.empty((2, 4, 4)))

    @settings(max_examples=20)
    @given(m=st.integers(1, 12), b=st.integers(1, 4),
           seed=st.integers(2 ** 32, 2 ** 70), w=st.integers(0, 10 ** 6))
    def test_windows_match_the_reference_generator_at_wide_seeds(
            self, m, b, seed, w):
        seq = generate_graph_sequence("seeded-random", m, b, seed=seed)
        count = 256 // b
        k, i = divmod(w, count)
        window = reference_block(m, b, seed, k, count)[i * b:(i + 1) * b]
        for s, g in enumerate(window):
            assert seq.graph_at(w * b + s).edges == g.edges

    @pytest.mark.parametrize("m", [1, 2, 5, 9])
    @pytest.mark.parametrize("seed", [0, 3, 2 ** 32 + 1])
    def test_static_without_graphs_is_window_zero(self, m, seed):
        seq = generate_graph_sequence("static", m, seed=seed)
        assert seq.graph_at(0).edges == reference_window(m, 1, seed, 0)[0].edges

    @pytest.mark.parametrize("kind", ["seeded-random", "static"])
    def test_negative_seeds_are_rejected(self, kind):
        with pytest.raises(ValueError, match="-3"):
            generate_graph_sequence(kind, 4, 1, seed=-3)

    @pytest.mark.parametrize("kind", ["seeded-random", "static"])
    @pytest.mark.parametrize("t0", [0, 5, 256, 300])
    def test_fill_mixing_on_an_empty_block_returns_out(self, kind, t0):
        seq = generate_graph_sequence(kind, 4, 1, seed=2)
        out = np.empty((0, 4, 4))
        assert seq.fill_mixing(t0, out) is out


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
        # a fractional network size has no bounds; 2.5 used to get some
        for sizes in ((2.5, 1), (2, 1.0)):
            with pytest.raises(TypeError):
                spectral_bounds(*sizes)
        # delta = m**(-m*B) underflows to 0
        with pytest.raises(ValueError, match="m=200, B=1"):
            spectral_bounds(200, 1)
