"""Schedules, noise streams, the network update and the ensemble runner."""

import math
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from declangevin import langevin as langevin_module
from declangevin import (DirectedGraph, DivergenceError, GaussianDist, GaussianPotential,
                         LinRegPotential, LogisticPotential, MixturePotential,
                         NetworkState, NoiseModel, Potential, PotentialProps,
                         StepSchedule, ZeroPotential, average_state,
                         generate_graph_sequence,
                         generate_linreg_data, generate_mixture_data,
                         grad_U_linreg, init_network, langevin_step,
                         make_surrogate_classification, partition, run,
                         run_gaussian_ensemble, step_size)

from conftest import (RecordingNoise, RecordingPotential,
                      reference_b_connected, reference_mixing, reference_ula)


def lone_edge_then_back():
    """Two nodes: the edge 0 -> 1 for 1099 steps, then 1 -> 0 once, in one
    window of 1100 steps.

    The window's union is strongly connected, so the samplers accept it.
    Over its first 1099 steps node 0 only sends: it keeps half its weight
    each step and receives nothing.
    """
    return generate_graph_sequence(
        "periodic-list", 2, 1100,
        graphs=[DirectedGraph(2, {(0, 1)})] * 1099 + [DirectedGraph(2, {(1, 0)})])


class ExplodingPotential(Potential):
    def __init__(self, dim):
        self.props = PotentialProps(dim=dim)

    def grad_drawn(self, z, drawn):
        return np.full_like(z, np.inf)


class TestStepSchedule:
    def test_harmonic_values(self):
        sched = StepSchedule("harmonic", alpha0=0.8)
        assert step_size(sched, 0) == 0.8
        assert step_size(sched, 1) == 0.4
        assert step_size(sched, 3) == 0.2

    def test_power_values(self):
        sched = StepSchedule("power", alpha0=2.0, offset=4.0, exponent=0.5)
        assert step_size(sched, 0) == 1.0
        assert step_size(sched, 12) == 0.5

    @pytest.mark.parametrize("fields", [{"offset": 5.0}, {"exponent": 0.5},
                                        {"offset": 5.0, "exponent": 0.5}])
    def test_harmonic_refuses_other_offsets_and_exponents(self, fields):
        with pytest.raises(ValueError, match="harmonic schedule has offset 1"):
            StepSchedule("harmonic", alpha0=0.1, **fields)

    def test_harmonic_is_the_power_formula_at_offset_and_exponent_one(self):
        # alpha0 / (1 + t) ** 1 is alpha0 / (1 + t), bit for bit
        rng = np.random.default_rng(0)
        for alpha0 in [0.1, 0.8, 1.0, 2.0 / 3.0, *rng.uniform(1e-6, 1e3, 6)]:
            sched = StepSchedule("harmonic", alpha0=float(alpha0))
            for t in [*range(2000), 2 ** 31, 10 ** 12, 2 ** 53 - 1]:
                assert step_size(sched, t) == alpha0 / (1.0 + t)

    def test_endpoint_solver_hits_both_endpoints(self):
        sched = StepSchedule.power_from_endpoints(0.008, 0.0005, 0.65, 200)
        assert sched.kind == "power" and sched.exponent == 0.65
        assert abs(step_size(sched, 0) - 0.008) <= 1e-15
        assert abs(step_size(sched, 200) - 0.0005) <= 1e-15

    def test_endpoint_solver_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.power_from_endpoints(0.0005, 0.008, 0.65, 200)
        with pytest.raises(ValueError):
            StepSchedule.power_from_endpoints(0.008, 0.0005, 0.65, 0)

    @pytest.mark.parametrize("exponent", [0.0, -0.5, 1.5, float("nan")])
    def test_endpoint_solver_checks_the_exponent_before_dividing_by_it(
            self, exponent):
        with pytest.raises(ValueError, match=r"exponent must lie in \(0, 1\]"):
            StepSchedule.power_from_endpoints(0.008, 0.0005, exponent, 200)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StepSchedule("geometric", alpha0=0.1)
        with pytest.raises(ValueError):
            StepSchedule("harmonic", alpha0=0.0)
        with pytest.raises(ValueError):
            StepSchedule("power", alpha0=0.1, exponent=1.5)
        with pytest.raises(ValueError):
            StepSchedule("power", alpha0=0.1, offset=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["alpha0", "offset"])
    def test_non_finite_constants_are_rejected(self, field, value):
        for kind in ("harmonic", "power"):
            args = {"alpha0": 0.1, "offset": 2.0, field: value}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                StepSchedule(kind, **args)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            step_size(StepSchedule("harmonic", alpha0=1.0), -1)


class TestNoiseModel:
    def test_streams_are_independent_of_query_order(self):
        # agent i's rows are what its own generator gives when drawn alone,
        # whichever agents come before it, and no two agents share a row
        block = NoiseModel(3, 2).gaussian_block(1, 4)
        for i in (1, 0):
            alone = np.random.default_rng([3, i]).standard_normal(4)
            assert np.array_equal(block[0, i], alone)
        assert not np.array_equal(block[0, 0], block[0, 1])

    def test_stream_advances(self):
        nm = NoiseModel(0, 1)
        assert not np.array_equal(nm.gaussian_block(1, 3), nm.gaussian_block(1, 3))

    def test_block_draws_are_successive_step_draws(self):
        m, d, steps = 3, 4, 5
        blocked, stepped = NoiseModel(11, m), NoiseModel(11, m)
        block = blocked.gaussian_block(steps, d)
        assert block.shape == (steps, m, d)
        rngs = [np.random.default_rng([11, i]) for i in range(m)]
        for k in range(steps):
            step = stepped.gaussian_block(1, d)[0]
            for i in range(m):
                assert np.array_equal(block[k, i], step[i])
                assert np.array_equal(block[k, i], rngs[i].standard_normal(d))

    # run draws a block of steps at once and langevin_step one step at a
    # time; the two agree only because numpy's generators fill an (n, ...)
    # draw as n successive draws, which is its behaviour rather than a
    # documented contract
    @given(n=st.integers(1, 256), d=st.integers(1, 8),
           b=st.sampled_from([1, 3, 5, 32]), k=st.integers(1, 6512),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_numpy_block_draws_equal_successive_draws(self, n, d, b, k, seed):
        def stream():
            return np.random.default_rng([seed, 0])

        step = stream()
        normals = [step.standard_normal(d) for _ in range(n)]
        block = stream()
        filled = np.empty((n, d))
        block.standard_normal(out=filled)
        assert np.array_equal(filled, normals)
        assert block.bit_generator.state == step.bit_generator.state
        block = stream()
        assert np.array_equal(block.standard_normal((n, d)), normals)
        assert block.bit_generator.state == step.bit_generator.state

        step, block = stream(), stream()
        indices = [step.integers(0, k, size=b) for _ in range(n)]
        assert np.array_equal(block.integers(0, k, size=(n, b)), indices)
        assert block.bit_generator.state == step.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-1, 2)
        with pytest.raises(ValueError):
            NoiseModel(0, 0)

    @pytest.mark.parametrize("seed, m", [(1.7, 2), (1.0, 2), (1, 2.0), (1, 2.5)])
    def test_non_integer_seed_or_size_is_refused(self, seed, m):
        # int() made NoiseModel(1.7, 2) share seed 1's streams
        with pytest.raises(TypeError):
            NoiseModel(seed, m)
        noise = NoiseModel(np.int64(1), np.int32(2))
        assert (noise.seed, noise.num_agents) == (1, 2)


class TestLangevinStep:
    def test_noiseless_step_applies_drift_to_mixed_state(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=1)
        sched = StepSchedule("harmonic", alpha0=0.4)
        pot = GaussianPotential(np.zeros(2), np.eye(2), 3)
        rng = np.random.default_rng(8)
        ns = init_network(3, 2)
        ns = NetworkState(x=rng.standard_normal((3, 2)), y=ns.y, w=ns.w,
                          z=ns.z, t=0)
        stepped = langevin_step(ns, seq.mixing_at(0), sched, pot, None)
        a = seq.mixing_at(0).entries
        w = a @ ns.x
        z = w / (a @ ns.y)[:, None]
        expected = w - step_size(sched, 1) * (z / 3)
        np.testing.assert_allclose(stepped.x, expected, atol=1e-13, rtol=0.0)
        assert stepped.t == 1

    def test_gradient_is_evaluated_at_the_fresh_ratio(self):
        # the agent's own x and the mixed z differ; the drift must use z
        seen = []

        class Probe(Potential):
            props = PotentialProps(dim=1)

            def grad_drawn(self, z, drawn):
                seen.append(z.copy())
                return np.zeros_like(z)

        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        ns = init_network(2, 1)
        ns = NetworkState(x=np.array([[1.0], [3.0]]), y=ns.y, w=ns.w, z=ns.z,
                          t=0)
        mixed = langevin_step(ns, seq.mixing_at(0), StepSchedule("harmonic", 0.1),
                              Probe(), None)
        np.testing.assert_array_equal(np.concatenate(seen), mixed.z)

    def test_a_mixing_matrix_of_another_size_is_refused(self):
        mix = generate_graph_sequence("seeded-random", 4, seed=0).mixing_at(0)
        with pytest.raises(ValueError, match="mixing matrix has 4 nodes but "
                                             "the state has 3 agents"):
            langevin_step(init_network(3, 2), mix, StepSchedule("harmonic", 0.1),
                          ZeroPotential(2), None)

    def test_divergence_raises_with_location(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=1)
        ns = init_network(3, 2)
        with pytest.raises(DivergenceError) as err:
            langevin_step(ns, seq.mixing_at(0), StepSchedule("harmonic", 0.1),
                          ExplodingPotential(2), None)
        assert err.value.iteration == 1
        assert 0 <= err.value.agent < 3


class TestRun:
    def test_records_on_the_stride_grid(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=2)
        sched = StepSchedule("harmonic", alpha0=0.2)
        trace = run(seq, sched, ZeroPotential(2), NoiseModel(0, 3), 20,
                    stride=5)
        assert trace.ts.tolist() == [0, 5, 10, 15, 20]
        np.testing.assert_array_equal(
            trace.alphas, [step_size(sched, t) for t in trace.ts])
        assert trace.states.shape == (5, 3, 2)
        assert trace.record_dev.shape == (5, 3)
        assert np.isnan(trace.record_dev[0]).all()
        assert trace.worst_cum_dev.shape == (19,)

    def test_x0_sets_the_first_record(self):
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=3)
        x0 = np.arange(8.0).reshape(4, 2)
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    None, 10, x0=x0)
        np.testing.assert_array_equal(trace.states[0], x0)

    def test_a_non_finite_x0_is_refused(self):
        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        with pytest.raises(ValueError, match="x0"):
            run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2), None, 3,
                x0=[[np.nan, 0.0], [0.0, 0.0]])

    def test_an_overflowing_initial_consensus_error_raises(self):
        # finite rows far enough apart that the squared norm of each one's
        # distance to the average overflows at iteration 0
        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2), None,
                    3, x0=[[1e160, 1e160], [-1e160, -1e160]])
        assert (info.value.agent, info.value.iteration) == (0, 0)
        assert info.value.quantity == "consensus error"

    def test_an_overflowing_network_average_at_iteration_0_raises(self):
        # finite states whose sum, and so the network average, overflows
        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(1), None,
                    3, x0=[[1e308], [1e308]])
        assert (info.value.agent, info.value.iteration) == (0, 0)
        assert info.value.quantity == "consensus error"

    def test_an_overflowing_network_average_in_a_block_raises(self):
        # one finite kick at step 100 takes both states past 1e308: each
        # stays finite, the network average of iteration 101 overflows, and
        # the kick's own norm is reported first, without a warning
        class Kick(Potential):
            props = PotentialProps(dim=1)
            calls = 0

            def grad_drawn(self, z, drawn):
                self.calls += 1
                return np.full_like(z, -1.1e307 if self.calls == 101 else 0.0)

        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", 1000.0), Kick(), None, 200)
        assert (info.value.agent, info.value.iteration) == (0, 101)
        assert info.value.quantity == "perturbation norm"

    def test_an_overflowing_deviation_raises(self):
        # node 0 only sends, so its push-sum weight halves every step and
        # its ratio estimate grows until, at iteration 518, the squared
        # norms of its deviation and consensus error overflow while every
        # state is still finite
        seq = lone_edge_then_back()
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", alpha0=0.1),
                    ZeroPotential(1), NoiseModel(0, 2), 990)
        assert (info.value.agent, info.value.iteration) == (0, 518)

    def test_an_overflowing_deviation_is_named_without_a_warning(self):
        # the same run as above, with every warning an error: the norm's
        # overflow warns nowhere, and the error names the deviation, not
        # the (finite) state
        seq = lone_edge_then_back()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", alpha0=0.1),
                    ZeroPotential(1), NoiseModel(0, 2), 990)
        assert (info.value.agent, info.value.iteration) == (0, 518)
        assert info.value.quantity == "deviation norm"
        assert str(info.value) == \
            "non-finite deviation norm at agent 0, iteration 518"

    def test_an_overflowing_perturbation_is_named(self):
        # one finite but huge gradient step: the new states are finite, the
        # deviation is zero, no consensus error is recorded at stride 2, and
        # the perturbation's norm overflows
        class Kick(Potential):
            props = PotentialProps(dim=2)

            def grad_drawn(self, z, drawn):
                return np.full_like(z, 1e200)

        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="non-finite perturbation norm at agent 0, "
                                     "iteration 1$"):
                run(seq, StepSchedule("harmonic", alpha0=0.1), Kick(), None, 1,
                    stride=2)

    def test_an_overflowing_consensus_error_in_a_block_is_named(self):
        # node 0 keeps half of 2e154 and sends half; a gradient of
        # 1e154 / alpha(1) takes both states to about zero, so the deviation
        # and perturbation norms (about 1e154) stay finite while agent 0's
        # ratio estimate 2e154 is as far from the network average and its
        # squared norm overflows
        class Kick(Potential):
            props = PotentialProps(dim=1)

            def grad_drawn(self, z, drawn):
                return np.full_like(z, 1e154 / 0.1)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="non-finite consensus error at agent 0, "
                                     "iteration 1$"):
                run(lone_edge_then_back(), StepSchedule("harmonic", 0.2),
                    Kick(), None, 1, x0=[[2e154], [0.0]])

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 5), d=st.integers(1, 3), stride=st.integers(1, 700),
           iters=st.integers(1, 600), seed=st.integers(0, 2 ** 16))
    def test_a_run_that_keeps_no_deviations_is_the_same_run(self, m, d, stride,
                                                            iters, seed):
        # every step's deviation is still checked and summed; only the
        # records of it go.  600 steps cross a block boundary
        seq = generate_graph_sequence("seeded-random", m, 2, seed=seed)
        sched = StepSchedule("harmonic", alpha0=0.1)
        pot = GaussianPotential(np.zeros(d), np.eye(d), m)
        kept, dropped = (run(seq, sched, pot, NoiseModel(seed, m), iters, stride,
                             keep_dev=keep) for keep in (True, False))
        assert kept.record_dev.shape == (iters // stride + 1, m)
        assert dropped.record_dev is None
        for name in ("alphas", "states", "consensus", "worst_cum_dev"):
            a, b = getattr(kept, name), getattr(dropped, name)
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
        assert np.float64(kept.max_pert).tobytes() == np.float64(dropped.max_pert).tobytes()

    @pytest.mark.parametrize("stride", [1, 7, 2000])
    @pytest.mark.parametrize("potential, iters, x0, want", [
        (ZeroPotential(1), 990, None, ("deviation norm", 518)),
        (GaussianPotential(np.zeros(1), np.eye(1), 2), 100, [[1e100], [0.0]],
         ("state", 47))], ids=["deviation", "state"])
    def test_a_run_that_keeps_no_deviations_diverges_the_same(self, potential, iters,
                                                               x0, want, stride):
        # the overflows of the lone-edge runs above, at strides that record
        # the diverging step, skip it, or record nothing after iteration 0
        errors = []
        for keep in (True, False):
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
                run(lone_edge_then_back(), StepSchedule("harmonic", alpha0=0.1),
                    potential, NoiseModel(0, 2), iters, stride, x0=x0, keep_dev=keep)
            err = info.value
            errors.append((err.agent, err.iteration, err.quantity, err.alpha,
                           err.min_weight))
        quantity, iteration = want
        assert errors[0] == errors[1] == (0, iteration, quantity, 0.1 / (iteration + 1),
                                          2.0 ** -iteration)

    def test_divergence_error_names_a_state_by_default(self):
        err = DivergenceError(agent=2, iteration=7)
        assert str(err) == "non-finite state at agent 2, iteration 7"
        assert err.quantity == "state"

    def test_a_divergence_carries_the_step_size_and_least_weight(self):
        assert DivergenceError(agent=2, iteration=7).alpha is None
        # node 0 keeps half its weight each step, so y_0(t) = 2^-t exactly;
        # the runs of the overflow tests above and below, and a consensus
        # error that overflows before the first step
        cases = [
            (lambda: run(lone_edge_then_back(), StepSchedule("harmonic", 0.1),
                         GaussianPotential(np.zeros(1), np.eye(1), 2),
                         NoiseModel(0, 2), 100, x0=[[1e100], [0.0]]),
             "state", 47, 0.1 / 48, 2.0 ** -47),
            (lambda: run(lone_edge_then_back(), StepSchedule("harmonic", 0.1),
                         ZeroPotential(1), NoiseModel(0, 2), 990),
             "deviation norm", 518, 0.1 / 519, 2.0 ** -518),
            (lambda: run(lone_edge_then_back(), StepSchedule("harmonic", 0.2),
                         ZeroPotential(1), None, 1, x0=[[1e300], [-1e300]]),
             "consensus error", 0, 0.2, 1.0),
        ]
        for go, quantity, iteration, alpha, weight in cases:
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
                go()
            err = info.value
            assert (err.quantity, err.iteration) == (quantity, iteration)
            assert (err.alpha, err.min_weight) == (alpha, weight)
            assert str(err) == f"non-finite {quantity} at agent 0, iteration {iteration}"
        # the ensemble's first divergent checkpoint, 20, after an inf draw
        seq, y = generate_graph_sequence("seeded-random", 2, 1, seed=0), np.ones(2)
        for t in range(20):
            y = seq.mixing_at(t).entries @ y
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
            run_gaussian_ensemble(seq, StepSchedule("harmonic", 0.1), np.zeros(1), np.eye(1),
                                  2, 20, 3, 0, [20], noise_draw=lambda t: np.full(
                                      (3, 2, 1), np.inf if t == 5 else 0.0))
        assert info.value.iteration == 20
        assert info.value.alpha == 0.1 / 21
        assert info.value.min_weight == pytest.approx(y.min(), rel=1e-12)

    def test_two_runs_of_one_potential_in_two_threads_match_the_runs_in_turn(self):
        # every run builds its own kernel, so two runs of one potential share
        # no scratch: the full-shard mixture's, and the minibatch logistic's
        # gathered batches too
        mix = generate_mixture_data(400, 0.0, 1.0, np.sqrt(2.0), 5)
        bits = make_surrogate_classification(400, 20, 5)
        pots = [MixturePotential(mix, partition(mix, 4, "random", 5), batch_size=None),
                LogisticPotential(bits, partition(bits, 4, "random", 5), batch_size=8)]

        def go(pot, seed):
            seq = generate_graph_sequence("seeded-random", 4, 1, seed=seed)
            return run(seq, StepSchedule("harmonic", 0.01), pot, NoiseModel(seed, 4), 3000)

        for pot in pots:
            in_turn, barrier = [go(pot, 1), go(pot, 2)], threading.Barrier(2, timeout=60)

            def worker(seed):
                barrier.wait()
                return go(pot, seed)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(2) as pool:
                    futures = [pool.submit(worker, seed) for seed in (1, 2)]
                    together = [future.result(timeout=120) for future in futures]
            finally:
                sys.setswitchinterval(interval)
            for got, want in zip(together, in_turn):
                for name in ("states", "consensus", "record_dev", "worst_cum_dev"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.max_pert == want.max_pert

    def test_pure_consensus_contracts_to_the_initial_average(self):
        seq = generate_graph_sequence("seeded-random", 6, 1, seed=4)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((6, 3))
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(3),
                    None, 100, x0=x0)
        gap = np.linalg.norm(trace.states[-1] - x0.mean(axis=0), axis=1)
        assert gap.max() < 1e-4
        # and the deviation series actually decays: record 1 is step 0
        assert trace.record_dev[-1].max() < trace.record_dev[1].max()

    def test_single_agent_is_bitwise_a_plain_chain(self):
        pot = GaussianPotential(np.array([0.4, -0.2]),
                                np.array([[1.0, 0.3], [0.3, 2.0]]), 1)
        sched = StepSchedule("harmonic", alpha0=0.3)
        seq = generate_graph_sequence("seeded-random", 1, 1, seed=7)
        trace = run(seq, sched, pot, NoiseModel(7, 1), 100)
        ref = reference_ula(lambda x: pot.grad(0, x, None), sched, 7, 100, 2)
        # the recorded ratio at iteration t is the chain state after t - 1
        # steps, so compare against the reference shifted by one
        assert np.array_equal(trace.states[1:, 0, :], ref[:-1])

    def test_average_follows_the_mean_field_decomposition(self):
        m, d = 3, 2
        ds = generate_linreg_data(60, d, 1.0, np.array([1.0, -1.0]), seed=5)
        shards = partition(ds, m, "random", 5)
        prior = GaussianDist(np.zeros(d), np.eye(d))
        pot = RecordingPotential(LinRegPotential(ds, shards, prior, 1.0,
                                                 batch_size=1))
        noise = RecordingNoise(5, m)
        sched = StepSchedule("harmonic", alpha0=0.01)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=5)

        ns = init_network(m, d)
        worst = 0.0
        for t in range(200):
            xbar = average_state(ns)
            ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
            alpha = step_size(sched, t + 1)
            decomp = xbar - alpha * np.mean(pot.grads[-m:], axis=0) \
                + np.sqrt(2.0 * alpha) * np.mean(noise.draws[-m:], axis=0)
            worst = max(worst, np.abs(average_state(ns) - decomp).max())
        assert worst <= 1e-12

    def test_ensemble_replays_a_recorded_run(self):
        m, d, iters = 4, 2, 50
        mean = np.array([0.5, -0.5])
        cov = np.array([[1.0, 0.2], [0.2, 0.5]])
        pot = GaussianPotential(mean, cov, m)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=6)
        sched = StepSchedule("harmonic", alpha0=0.5)
        noise = RecordingNoise(6, m)

        ns = init_network(m, d)
        averages = {}
        for t in range(iters):
            ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
            averages[t + 1] = average_state(ns)

        blocks = noise.stacked(m, d)
        checkpoints = [1, 10, 25, 50]
        snaps = run_gaussian_ensemble(seq, sched, mean, cov, m, iters, 1, 0,
                                      checkpoints,
                                      noise_draw=lambda t: blocks[t][None])
        for k, c in enumerate(checkpoints):
            np.testing.assert_allclose(snaps[k, 0], averages[c],
                                       atol=1e-12, rtol=0.0)

    def test_input_validation(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 0.1)
        with pytest.raises(ValueError):
            run(seq, sched, ZeroPotential(2), NoiseModel(0, 3), 0)
        with pytest.raises(ValueError):
            run(seq, sched, ZeroPotential(2), NoiseModel(0, 3), 10, stride=0)
        with pytest.raises(ValueError):
            run(seq, sched, ZeroPotential(2), NoiseModel(0, 4), 10)
        with pytest.raises(ValueError):
            run(seq, sched, ZeroPotential(2), NoiseModel(0, 3), 10,
                x0=np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["linreg", "gaussian"])
    def test_a_potential_for_another_network_size_is_refused(self, kind):
        # one shard on four nodes would hand every agent the whole prior,
        # and a one-agent Gaussian would sample the wrong target
        if kind == "linreg":
            ds = generate_linreg_data(20, 2, 1.0, np.array([1.0, -1.0]), seed=8)
            pot = LinRegPotential(ds, partition(ds, 1), GaussianDist(
                np.zeros(2), np.eye(2)), 1.0, batch_size=1)
        else:
            pot = GaussianPotential(np.zeros(2), np.eye(2), num_agents=1)
        assert pot.num_agents == 1
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=8)
        sched = StepSchedule("harmonic", 0.1)
        noise = RecordingNoise(8, 4)
        before = [noise.stream(i).bit_generator.state for i in range(4)]
        counts = "built for 1 agents but the graph has 4 nodes"
        with pytest.raises(ValueError, match=counts):
            run(seq, sched, pot, noise, 10)
        with pytest.raises(ValueError, match=counts):
            langevin_step(init_network(4, 2), seq.mixing_at(0), sched, pot,
                          noise)
        assert noise.draws == []
        assert [noise.stream(i).bit_generator.state for i in range(4)] == before

    @settings(max_examples=60)
    @given(data=st.data())
    def test_a_cut_explicit_sequence_is_refused_before_any_draw(self, data):
        # the list's windows repeat after lcm(P, B) steps, so the reference
        # over that horizon is the verdict for every horizon
        m = data.draw(st.integers(1, 5))
        node = st.integers(0, m - 1)
        graphs = data.draw(st.lists(
            st.frozensets(st.tuples(node, node), max_size=2 * m).map(
                lambda pairs: DirectedGraph(m, frozenset(
                    (u, v) for u, v in pairs if u != v))),
            min_size=1, max_size=6))
        b = data.draw(st.integers(1, 8))
        seq = generate_graph_sequence("periodic-list", m, b, graphs=graphs)
        ds = generate_linreg_data(4 * m, 2, 1.0, np.array([1.0, -1.0]), seed=8)
        pot = LinRegPotential(ds, partition(ds, m), GaussianDist(
            np.zeros(2), np.eye(2)), 1.0, batch_size=1)
        noise = RecordingNoise(8, m)
        before = [noise.stream(i).bit_generator.state for i in range(m)]
        drawn = []

        def hook(t):
            drawn.append(t)
            return np.zeros((2, m, 1))

        sched = StepSchedule("harmonic", 0.1)
        samplers = (lambda: run(seq, sched, pot, noise, 3),
                    lambda: run_gaussian_ensemble(
                        seq, sched, np.zeros(1), np.eye(1), m, 3, 2, 0, [3],
                        noise_draw=hook))
        if reference_b_connected(seq, math.lcm(len(graphs), b), b):
            for sample in samplers:
                sample()
            assert drawn == [0, 1, 2]
            return
        for sample in samplers:
            with pytest.raises(ValueError, match=f"not {b}-strongly connected: "
                               r"the window from step \d+ has no path"):
                sample()
        assert noise.draws == [] and drawn == []
        assert [noise.stream(i).bit_generator.state for i in range(m)] == before
        # a refused sequence still gives every step's matrix
        for t, g in enumerate(graphs):
            np.testing.assert_array_equal(seq.mixing_at(t).entries,
                                          reference_mixing(g))

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("edges, pair", [
        ({(0, 1), (1, 0)}, "from node 2 to node 0"),  # node 2 is isolated
        ({(0, 1)}, "from node 1 to node 0")])  # node 0 never receives
    def test_a_disconnected_static_graph_is_refused(self, edges, pair, action):
        seq = generate_graph_sequence("static", 3,
                                      graphs=[DirectedGraph(3, edges)])
        sched, noise = StepSchedule("harmonic", 0.1), RecordingNoise(0, 3)
        cut = f"not 1-strongly connected: the window from step 0 has no path {pair}"
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=cut):
                run(seq, sched, GaussianPotential(np.zeros(1), np.eye(1), 3),
                    noise, 2000, x0=[[5.0], [0.0], [-5.0]])
            with pytest.raises(ValueError, match=cut):
                run_gaussian_ensemble(seq, sched, np.zeros(1), np.eye(1), 3,
                                      2000, 4, 0, [2000])
        assert noise.draws == []

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_an_overflow_in_the_kernel_raises_under_every_filter(self, action):
        # node 0's weight halves every step, and its ratio estimate, from
        # 1e100, overflows in the division at iteration 47; no
        # RuntimeWarning escapes the kernel first, whatever the filter
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(DivergenceError) as info:
                run(lone_edge_then_back(), StepSchedule("harmonic", 0.1),
                    GaussianPotential(np.zeros(1), np.eye(1), 2),
                    NoiseModel(0, 2), 100, x0=[[1e100], [0.0]])
        assert str(info.value) == "non-finite state at agent 0, iteration 47"

    def test_memory_is_bounded_in_the_horizon(self):
        # 101 records at either horizon; each of the two (num_iters, m)
        # per-step series a run once kept took 8 m bytes per step, the
        # worst agent's prefix sums take 8
        m = 8

        def peak(iters):
            seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
            tracemalloc.start()
            try:
                run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    NoiseModel(0, m), iters, stride=iters // 100)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)  # first-call allocations stay out of the comparison
        assert peak(20_000) - peak(2_000) <= 16 * 18_000

    def test_memory_follows_the_block_budgets_at_large_m(self):
        # at m=256 a block of 256 steps would hold 134 MB of mixing matrices;
        # a block sized by the budgets holds them, and about as much again
        # goes to temporaries and the graph block being generated, besides
        # the trace's records of z, consensus errors and deviations
        m, d, iters = 256, 2, 512
        seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
        tracemalloc.start()
        try:
            run(seq, StepSchedule("harmonic", 0.1),
                GaussianPotential(np.zeros(d), np.eye(d), m), NoiseModel(0, m),
                iters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budgets = langevin_module._MIXING_BYTES + langevin_module._STATE_BYTES
        assert peak < 2 * budgets + (iters + 1) * m * (d + 2) * 8

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_zero_potential_runs_at_any_network_size(self, m):
        assert ZeroPotential(2).num_agents is None
        seq = generate_graph_sequence("seeded-random", m, 1, seed=m)
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    NoiseModel(m, m), 5)
        assert trace.states.shape == (6, m, 2)


def step_loop(seq, sched, pot, noise, num_iters, stride, x0):
    """Reference driver: a loop of ``langevin_step`` calls on immutable
    network states that keeps every step's deviation and perturbation norms,
    then reduces them to the trace's fields with plain numpy.

    Returns (states, consensus, record_dev, worst_cum_dev, max_pert).
    """
    m, d = x0.shape
    ns = init_network(m, d)
    ns = NetworkState(x=x0.copy(), y=ns.y, w=ns.w, z=x0.copy(), t=0)
    states, zdev, pert = [ns.z], [], []
    consensus = [np.linalg.norm(ns.z - ns.x.mean(axis=0), axis=1)]
    for t in range(num_iters):
        xbar = average_state(ns)
        ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
        zdev.append(np.linalg.norm(ns.z - xbar, axis=1))
        pert.append(np.linalg.norm(ns.x - ns.w, axis=1))
        if ns.t % stride == 0:
            states.append(ns.z)
            consensus.append(np.linalg.norm(ns.z - ns.x.mean(axis=0), axis=1))
    zdev = np.array(zdev)
    record_dev = np.full((len(states), m), np.nan)
    # the step into recorded iteration t is step t - 1
    record_dev[1:] = zdev[stride - 1::stride]
    # steps 1.. enter the bound's sums
    worst_cum_dev = np.cumsum(zdev[1:], axis=0).max(axis=1)
    return (np.array(states), np.array(consensus), record_dev, worst_cum_dev,
            np.max(pert))


class TestDriverEquivalence:
    # 31 rows over 3 agents: shards of 11, 10 and 10 rows, so full-shard
    # gradients run over padded shards
    @pytest.mark.parametrize("model", ["mixture", "logistic"])
    @pytest.mark.parametrize("batch", [None, 4])
    def test_run_matches_a_loop_of_steps(self, model, batch):
        m, iters, stride = 3, 30, 3
        if model == "mixture":
            ds = generate_mixture_data(31, 0.0, 1.0, np.sqrt(2.0), seed=9)
            pot = MixturePotential(ds, partition(ds, m, "random", 9),
                                   batch_size=batch)
        else:
            ds = make_surrogate_classification(31, 5, seed=9, density=0.4)
            pot = LogisticPotential(ds, partition(ds, m, "random", 9),
                                    batch_size=batch)
        d = pot.props.dim
        seq = generate_graph_sequence("seeded-random", m, 2, seed=9)
        sched = StepSchedule("harmonic", alpha0=0.05)
        x0 = np.random.default_rng(9).standard_normal((m, d))

        noise_run, noise_loop = RecordingNoise(9, m), RecordingNoise(9, m)
        trace = run(seq, sched, pot, noise_run, iters, stride, x0=x0)
        self.assert_trace_matches(trace, step_loop(seq, sched, pot, noise_loop,
                                                   iters, stride, x0))
        assert len(noise_run.draws) == len(noise_loop.draws) == iters * m
        for a, b in zip(noise_run.draws, noise_loop.draws):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("start", ["x0", "zeros"])
    def test_run_matches_a_loop_of_steps_across_blocks(self, start):
        # 600 steps are two full blocks of run's steps and a ragged tail,
        # and a stride of 7 puts records at different offsets in each block
        m, iters, stride = 3, 600, 7
        assert iters > 2 * langevin_module._MIXING_BLOCK
        assert langevin_module._MIXING_BLOCK % stride != 0
        assert iters % langevin_module._MIXING_BLOCK != 0
        ds = generate_mixture_data(31, 0.0, 1.0, np.sqrt(2.0), seed=9)
        pot = MixturePotential(ds, partition(ds, m, "random", 9), batch_size=4)
        seq = generate_graph_sequence("seeded-random", m, 2, seed=9)
        sched = StepSchedule("harmonic", alpha0=0.05)
        x0 = np.random.default_rng(9).standard_normal((m, 2))
        if start == "zeros":
            x0_run, x0 = None, np.zeros((m, 2))
        else:
            x0_run = x0

        noise_run, noise_loop = RecordingNoise(9, m), RecordingNoise(9, m)
        trace = run(seq, sched, pot, noise_run, iters, stride, x0=x0_run)

        np.testing.assert_array_equal(trace.ts, np.arange(0, iters + 1, stride))
        assert trace.alphas.tolist() == [step_size(sched, t)
                                         for t in range(0, iters + 1, stride)]
        self.assert_trace_matches(trace, step_loop(seq, sched, pot, noise_loop,
                                                   iters, stride, x0))
        assert len(noise_run.draws) == len(noise_loop.draws) == iters * m
        for a, b in zip(noise_run.draws, noise_loop.draws):
            assert np.array_equal(a, b)

    def test_a_one_step_run_matches_one_step(self):
        m = 3
        ds = generate_mixture_data(31, 0.0, 1.0, np.sqrt(2.0), seed=9)
        pot = MixturePotential(ds, partition(ds, m, "random", 9), batch_size=4)
        seq = generate_graph_sequence("seeded-random", m, 2, seed=9)
        sched = StepSchedule("harmonic", alpha0=0.05)
        x0 = np.random.default_rng(9).standard_normal((m, 2))
        trace = run(seq, sched, pot, NoiseModel(9, m), 1, x0=x0)
        ref = step_loop(seq, sched, pot, NoiseModel(9, m), 1, 1, x0)
        self.assert_trace_matches(trace, ref)
        assert trace.worst_cum_dev.shape == (0,)

    @staticmethod
    def assert_trace_matches(trace, ref):
        states, consensus, record_dev, worst_cum_dev, max_pert = ref
        for got, want in ((trace.states, states),
                          (trace.consensus, consensus),
                          (trace.record_dev, record_dev),
                          (trace.worst_cum_dev, worst_cum_dev),
                          (trace.max_pert, max_pert)):
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_minibatch_indices_and_gaussians_use_separate_streams(self):
        # agent i's indices come from stream [seed, i, 1], its noise from
        # [seed, i]
        m, d, batch, seed = 3, 2, 2, 4
        ds = generate_linreg_data(31, d, 1.0, np.array([1.0, -1.0]), seed=4)
        shards = partition(ds, m, "random", 4)
        prior = GaussianDist(np.zeros(d), np.eye(d))
        pot = LinRegPotential(ds, shards, prior, 1.0, batch_size=batch)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=4)
        sched = StepSchedule("harmonic", alpha0=0.1)
        rng = np.random.default_rng(4)
        ns = NetworkState(x=rng.standard_normal((m, d)),
                          y=rng.uniform(0.5, 1.5, m), w=np.zeros((m, d)),
                          z=np.zeros((m, d)), t=0)

        stepped = langevin_step(ns, seq.mixing_at(0), sched, pot,
                                NoiseModel(seed, m))

        alpha = step_size(sched, 1)
        for i in range(m):
            idx = np.random.default_rng([seed, i, 1]).integers(
                0, len(shards[i]), size=batch)
            rows = shards[i][idx]
            g = grad_U_linreg(stepped.z[i], ds.features[rows], ds.targets[rows],
                              GaussianDist(prior.mean, m * prior.cov), 1.0,
                              len(shards[i]) / batch)
            want = stepped.w[i] - alpha * g + np.sqrt(2.0 * alpha) \
                * np.random.default_rng([seed, i]).standard_normal(d)
            np.testing.assert_allclose(stepped.x[i], want, rtol=0.0,
                                       atol=1e-12)

    def test_full_shard_runs_leave_every_index_stream_untouched(self):
        m, seed = 3, 8
        ds = generate_mixture_data(31, 0.0, 1.0, np.sqrt(2.0), seed=8)
        pot = MixturePotential(ds, partition(ds, m, "random", 8),
                               batch_size=None)
        seq = generate_graph_sequence("seeded-random", m, 2, seed=8)
        noise = NoiseModel(seed, m)
        run(seq, StepSchedule("harmonic", alpha0=0.05), pot, noise, 300)
        for i in range(m):
            assert noise.stream(i).bit_generator.state \
                == np.random.default_rng([seed, i, 1]).bit_generator.state

    def test_minibatch_potentials_need_noise(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("a step ran")

        m = 3
        ds = generate_mixture_data(31, 0.0, 1.0, np.sqrt(2.0), seed=9)
        pot = MixturePotential(ds, partition(ds, m, "random", 9), batch_size=4)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=9)
        sched = StepSchedule("harmonic", alpha0=0.05)
        monkeypatch.setattr(langevin_module, "_step", no_steps)
        with pytest.raises(ValueError, match="batch_size=4"):
            run(seq, sched, pot, None, 10)
        with pytest.raises(ValueError, match="batch_size=4"):
            langevin_step(init_network(m, 2), seq.mixing_at(0), sched, pot,
                          None)

    def test_divergence_is_reported_alike(self):
        # a step far above 2/L overflows after a few dozen iterations
        m = 3
        pot = GaussianPotential(np.zeros(2), 0.001 * np.eye(2), m)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=3)
        sched = StepSchedule("harmonic", alpha0=50.0)
        x0 = np.zeros((m, 2))
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for drive in (run, step_loop):
                with pytest.raises(DivergenceError) as info:
                    drive(seq, sched, pot, NoiseModel(3, m), 400, 1, x0=x0)
                errors.append((info.value.agent, info.value.iteration))
        print(f"both drivers: agent {errors[0][0]}, iteration {errors[0][1]}")
        assert errors[0] == errors[1]
        assert 1 < errors[0][1] < 400


class TestGaussianEnsemble:
    def test_checkpoint_validation(self):
        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        mean, cov = np.zeros(2), np.eye(2)
        with pytest.raises(ValueError):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10, 4, 0, [0, 5])
        with pytest.raises(ValueError):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10, 4, 0, [5, 11])
        with pytest.raises(ValueError):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10, 4, 0, [5, 2])
        # a repeated checkpoint would leave a snapshot row unwritten
        with pytest.raises(ValueError, match="strictly increasing"):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10, 4, 0, [5, 5, 10])
        with pytest.raises(ValueError, match="one or more"):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10, 4, 0, [])
        # a float horizon returned snapshots
        with pytest.raises(TypeError):
            run_gaussian_ensemble(seq, sched, mean, cov, 2, 10.5, 4, 0, [5])

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_an_infinite_draw_raises_a_divergence_under_every_filter(
            self, action):
        # inf noise at t=5 makes inf - inf in the kernel; no RuntimeWarning
        # escapes a chunk before the checkpoint check names the divergence
        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)

        def hook(t):
            return np.full((3, 2, 1), np.inf if t == 5 else 0.0)

        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(DivergenceError) as info:
                run_gaussian_ensemble(seq, StepSchedule("harmonic", 0.1),
                                      np.zeros(1), np.eye(1), 2, 20, 3, 0,
                                      [20], noise_draw=hook)
        assert str(info.value) == "non-finite state at agent 0, iteration 20"

    @pytest.mark.parametrize("first", [5.5, 5.0])
    def test_non_integer_checkpoints_are_refused(self, first):
        # 5.5 keyed no step and left its snapshot row silently zero
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        with pytest.raises(TypeError):
            run_gaussian_ensemble(seq, sched, np.ones(2), np.eye(2), 3, 10, 2,
                                  0, [first, 10])
        # integer arrays, as np.geomspace(...).astype(int) builds them, pass
        snaps = run_gaussian_ensemble(seq, sched, np.ones(2), np.eye(2), 3, 10,
                                      2, 0, np.array([5, 10]))
        assert np.all(snaps != 0.0)

    def test_snapshot_shape_and_determinism(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=1)
        sched = StepSchedule("harmonic", 1.0)
        args = (seq, sched, np.zeros(2), np.eye(2), 3, 30, 8, 42, [10, 30])
        snaps = run_gaussian_ensemble(*args)
        assert snaps.shape == (2, 8, 2)
        np.testing.assert_array_equal(snaps, run_gaussian_ensemble(*args))

    def test_samples_approach_the_target_moments(self):
        # alpha0 = m keeps the average chain's effective step at 1/(1 + t),
        # fast enough to pull the mean all the way over within the horizon
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=2)
        sched = StepSchedule("harmonic", alpha0=4.0)
        mean = np.array([1.0, -2.0])
        snaps = run_gaussian_ensemble(seq, sched, mean, np.eye(2), 4, 2000,
                                      4000, 3, [2000])
        cloud = snaps[0]
        assert np.abs(cloud.mean(axis=0) - mean).max() < 0.1
        assert np.abs(np.cov(cloud, rowvar=False) - np.eye(2)).max() < 0.1

    def test_one_step_from_zero_has_the_exact_law_on_the_default_stream(self):
        # from x = 0, one step puts alpha_1 b + sqrt(2 alpha_1) xi_i on every
        # agent, so the network average is N(alpha_1 b, (2 alpha_1 / m) I).
        # Noise rows shared by the agents would give 2 alpha_1 I, a missing
        # scale I / m, and rows shared by the coordinates off-diagonal mass.
        m, d, runs = 4, 2, 16384
        mean, cov = np.array([1.0, -2.0]), np.array([[1.0, 0.3], [0.3, 0.5]])
        seq = generate_graph_sequence("seeded-random", m, 1, seed=2)
        sched = StepSchedule("harmonic", alpha0=0.2)
        alpha = step_size(sched, 1)
        var = 2.0 * alpha / m
        cloud = run_gaussian_ensemble(seq, sched, mean, cov, m, 1, runs, 0, [1])[0]
        # each agent holds 1/m of the potential, so b_i = cov^-1 mean / m
        b = np.linalg.solve(cov, mean) / m
        # within 5 standard errors: sqrt(var / runs) for the sample mean, and
        # var sqrt(2 / runs) and var / sqrt(runs) for the sample covariance's
        # diagonal and off-diagonal entries
        z_mean = (cloud.mean(axis=0) - alpha * b) / math.sqrt(var / runs)
        se_cov = var * np.where(np.eye(d, dtype=bool), math.sqrt(2.0), 1.0) / math.sqrt(runs)
        z_cov = (np.cov(cloud, rowvar=False) - var * np.eye(d)) / se_cov
        assert np.abs(z_mean).max() < 5.0
        assert np.abs(z_cov).max() < 5.0

    def test_runs_replay_independent_recorded_runs(self):
        # three runs on distinct noise, with m, d and R all different, so a
        # mix-up of the run, agent and coordinate axes cannot go unseen
        m, d, iters, runs = 4, 2, 50, 3
        mean = np.array([0.5, -0.5])
        cov = np.array([[1.0, 0.2], [0.2, 0.5]])
        pot = GaussianPotential(mean, cov, m)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=6)
        sched = StepSchedule("harmonic", alpha0=0.5)
        checkpoints = [1, 10, 25, 50]

        blocks, averages = [], []
        for r in range(runs):
            noise = RecordingNoise(20 + r, m)
            ns = init_network(m, d)
            avg = {}
            for t in range(iters):
                ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
                avg[t + 1] = average_state(ns)
            blocks.append(noise.stacked(m, d))
            averages.append(avg)
        stacked = np.stack(blocks, axis=1)  # (iters, runs, m, d)

        snaps = run_gaussian_ensemble(seq, sched, mean, cov, m, iters, runs, 0,
                                      checkpoints,
                                      noise_draw=lambda t: stacked[t])
        for k, c in enumerate(checkpoints):
            for r in range(runs):
                np.testing.assert_allclose(snaps[k, r], averages[r][c],
                                           atol=1e-12, rtol=0.0)

    def test_divergence_raises_instead_of_returning_nan(self):
        # a step far above 2/L for a stiff target overflows within a few
        # hundred steps; it is reported at the first checkpoint after it
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=0)
        sched = StepSchedule("harmonic", alpha0=50.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite") as info:
                run_gaussian_ensemble(seq, sched, np.zeros(2),
                                      0.001 * np.eye(2), 4, 400, 8, 0,
                                      [100, 200, 400])
        assert 0 <= info.value.agent < 4
        assert info.value.iteration in (100, 200, 400)

    def test_agent_count_must_match_the_graph_sequence(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        with pytest.raises(ValueError, match="3 nodes but num_agents is 2"):
            run_gaussian_ensemble(seq, sched, np.zeros(2), np.eye(2), 2, 10,
                                  4, 0, [5])

    @pytest.mark.parametrize("cov, message", [
        ([[1.0, 0.9], [0.0, 1.0]], "symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        ([[1.0, 0.0], [0.0, np.inf]], "finite"),
        (np.eye(3), "shape")])
    def test_the_target_covariance_is_checked(self, cov, message):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        with pytest.raises(ValueError, match=message):
            run_gaussian_ensemble(seq, sched, np.zeros(2), np.array(cov), 3,
                                  10, 4, 0, [5])

    def test_run_count_must_be_positive(self):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        with pytest.raises(ValueError, match="num_runs"):
            run_gaussian_ensemble(seq, sched, np.zeros(2), np.eye(2), 3, 10,
                                  0, 0, [5])


class TestEnsembleChunks:
    """The ensemble splits its runs into chunks that run in a thread pool."""

    @staticmethod
    def small_chunks(monkeypatch, size, workers):
        monkeypatch.setattr(langevin_module, "_CHUNK_RUNS", size)
        monkeypatch.setattr(langevin_module, "_worker_count",
                            lambda chunks: workers)

    def test_snapshots_do_not_depend_on_the_worker_count(self, monkeypatch):
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=1)
        sched = StepSchedule("harmonic", 1.0)
        args = (seq, sched, np.zeros(2), np.eye(2), 3, 40, 10, 7, [10, 40])
        results = []
        for workers in (1, 3):
            self.small_chunks(monkeypatch, 3, workers)
            # more threads than cores, switching as often as they can: a
            # lost or misplaced snapshot write would show as a difference
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results.append(run_gaussian_ensemble(*args))
            finally:
                sys.setswitchinterval(interval)
        np.testing.assert_array_equal(results[0], results[1])
        # four chunks of 3, 3, 2 and 2 runs, each on a stream of its own
        firsts = results[0][-1, [0, 3, 6, 8]]
        assert len(np.unique(firsts, axis=0)) == 4

    def test_runs_replay_recorded_runs_across_chunk_boundaries(self, monkeypatch):
        # five runs in chunks of 2, 2 and 1: a slip in any chunk's slice of
        # the hook's block would pair a run with another run's noise
        self.small_chunks(monkeypatch, 2, 2)
        m, d, iters, runs = 4, 2, 30, 5
        mean = np.array([0.5, -0.5])
        cov = np.array([[1.0, 0.2], [0.2, 0.5]])
        pot = GaussianPotential(mean, cov, m)
        seq = generate_graph_sequence("seeded-random", m, 1, seed=6)
        sched = StepSchedule("harmonic", alpha0=0.5)
        checkpoints = [1, 15, 30]

        blocks, averages = [], []
        for r in range(runs):
            noise = RecordingNoise(40 + r, m)
            ns = init_network(m, d)
            avg = {}
            for t in range(iters):
                ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
                avg[t + 1] = average_state(ns)
            blocks.append(noise.stacked(m, d))
            averages.append(avg)
        stacked = np.stack(blocks, axis=1)  # (iters, runs, m, d)

        snaps = run_gaussian_ensemble(seq, sched, mean, cov, m, iters, runs, 0,
                                      checkpoints,
                                      noise_draw=lambda t: stacked[t])
        for k, c in enumerate(checkpoints):
            for r in range(runs):
                np.testing.assert_allclose(snaps[k, r], averages[r][c],
                                           atol=1e-12, rtol=0.0)

    def test_divergence_names_the_earliest_checkpoint_of_any_chunk(self, monkeypatch):
        # chunks of runs 0-1, 2-3 and 4-5; the last chunk blows up at agent 2
        # in step 9, the first at agent 1 in step 19, the middle one never
        self.small_chunks(monkeypatch, 2, 3)
        m, d, runs = 4, 2, 6
        seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
        sched = StepSchedule("harmonic", alpha0=0.5)

        def draw(t):
            block = np.zeros((runs, m, d))
            if t == 9:
                block[4:, 2] = np.inf
            if t == 19:
                block[:2, 1] = np.inf
            return block

        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                run_gaussian_ensemble(seq, sched, np.zeros(d), np.eye(d), m,
                                      30, runs, 0, [5, 10, 20, 30],
                                      noise_draw=draw)
        assert (info.value.iteration, info.value.agent) == (10, 2)

    def test_no_worker_thread_outlives_the_call(self, monkeypatch):
        self.small_chunks(monkeypatch, 2, 3)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        sched = StepSchedule("harmonic", 1.0)
        args = (seq, sched, np.zeros(2), np.eye(2), 3, 20, 7, 0, [10, 20])
        before = threading.active_count()
        run_gaussian_ensemble(*args)
        assert threading.active_count() == before

        def failing_draw(t):
            if t == 5:
                raise RuntimeError("recorded noise ran out")
            return np.zeros((7, 3, 2))

        with pytest.raises(RuntimeError, match="ran out"):
            run_gaussian_ensemble(*args, noise_draw=failing_draw)
        assert threading.active_count() == before
        # the caller's numpy error state holds in the worker threads too, so
        # the NaNs the infinite noise makes warn nowhere
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                run_gaussian_ensemble(*args, noise_draw=lambda t: np.full(
                    (7, 3, 2), np.inf))
        assert threading.active_count() == before

    def test_blocks_of_steps_change_nothing_and_stay_in_the_caller(self, monkeypatch):
        # blocks of 7 steps cut between checkpoints and across them
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=2)
        sched = StepSchedule("harmonic", 1.0)
        args = (seq, sched, np.zeros(2), np.eye(2), 3, 40, 10, 5, [6, 7, 8, 40])
        self.small_chunks(monkeypatch, 3, 2)
        whole = run_gaussian_ensemble(*args)
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", 7)
        callers = set()
        lookup = seq.fill_mixing

        def fill_mixing(t0, out):
            callers.add(threading.current_thread())
            return lookup(t0, out)

        monkeypatch.setattr(seq, "fill_mixing", fill_mixing)
        np.testing.assert_array_equal(run_gaussian_ensemble(*args), whole)
        assert callers == {threading.current_thread()}

    def test_mixing_matrices_are_not_held_for_the_whole_horizon(self):
        m, iters = 32, 2000
        seq = generate_graph_sequence("static", m, 1, seed=0)
        tracemalloc.start()
        try:
            run_gaussian_ensemble(seq, StepSchedule("harmonic", 0.1),
                                  np.zeros(2), np.eye(2), m, iters, 1, 0,
                                  [iters])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < iters * m * m * 8 / 2

    def test_a_failing_chunk_stops_the_others(self, monkeypatch):
        # one block for the whole horizon, so only the stop signal can end
        # the first chunk before step 2000 when the second one fails
        self.small_chunks(monkeypatch, 2, 2)
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", 2000)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        calls = []

        class Block:
            def __init__(self, t):
                self.t = t

            def __getitem__(self, rows):
                if rows.start == 0:
                    calls.append(self.t)
                    time.sleep(1e-3)
                elif self.t == 5:
                    raise RuntimeError("recorded noise ran out")
                return np.zeros((4, 3, 2))[rows]

        with pytest.raises(RuntimeError, match="ran out"):
            run_gaussian_ensemble(seq, StepSchedule("harmonic", 1.0),
                                  np.zeros(2), np.eye(2), 3, 2000, 4, 0,
                                  [2000], noise_draw=Block)
        assert max(calls) < 100

    def test_an_interrupt_in_the_caller_stops_every_chunk(self, monkeypatch):
        # a SIGINT reaches the caller while it waits on a block of 1000
        # steps; it must not wait for the chunks to finish that block
        self.small_chunks(monkeypatch, 2, 2)
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", 1000)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        calls = []

        def draw(t):
            calls.append(t)
            if t == 5:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(1e-3)
            return np.zeros((4, 3, 2))

        with pytest.raises(KeyboardInterrupt):
            run_gaussian_ensemble(seq, StepSchedule("harmonic", 1.0),
                                  np.zeros(2), np.eye(2), 3, 2000, 4, 0,
                                  [2000], noise_draw=draw)
        assert max(calls) < 500


class TestAffineSteps:
    """The ensemble's one-step maps [K_t | c_t]."""

    @given(m=st.integers(1, 6), d=st.integers(1, 3), n=st.integers(1, 4),
           shared=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           log_y=st.floats(-6.0, 6.0), log_alpha=st.floats(-8.0, 0.0))
    def test_a_map_is_the_mix_then_the_gradient_step(self, m, d, n, shared,
                                                    seed, log_y, log_alpha):
        # [K | c] [x; 1] = w - alpha (H (w / y) - b) with w = A x, for random
        # column-stochastic A with zeros, y > 0, alpha > 0 and H, b either
        # shared by the agents (as the ensemble passes them) or per agent
        rng = np.random.default_rng(seed)
        a = rng.random((n, m, m)) * (rng.random((n, m, m)) < 0.6)
        a[:, range(m), range(m)] += 0.05
        a /= a.sum(axis=1, keepdims=True)
        ys = np.exp(log_y + rng.uniform(-1.0, 1.0, (n, m)))
        alphas = [math.exp(log_alpha + v) for v in rng.uniform(-1.0, 1.0, n)]
        h = rng.normal(size=(d, d) if shared else (m, d, d))
        b = rng.normal(size=(d,) if shared else (m, d))
        x = rng.normal(size=(m, d, 3))
        maps = langevin_module._affine_steps(a, ys, alphas, h, b,
                                             np.empty((n + 2, m, d, m * d + 1)))
        assert maps.shape == (n, m * d, m * d + 1)
        hs = np.broadcast_to(h, (m, d, d))
        for t in range(n):
            w = np.einsum("ij,jpr->ipr", a[t], x)
            z = w / ys[t][:, None, None]
            hz = np.einsum("ipq,iqr->ipr", hs, z)
            want = w - alphas[t] * (hz - np.broadcast_to(b, (m, d))[:, :, None])
            got = maps[t] @ np.vstack([x.reshape(m * d, 3), np.ones(3)])
            scale = np.abs(w).max() + alphas[t] * (
                np.einsum("ipq,iqr->ipr", np.abs(hs), np.abs(z)).max() + np.abs(b).max())
            assert np.abs(got.reshape(m, d, 3) - want).max() <= 1e-13 * scale

    def test_a_block_of_maps_stays_within_the_state_budget(self):
        # at m=16, d=4 one map takes 8 (md)(md + 1) = 33 kB, so the 256
        # steps _block_steps allows would hold 8.5 MB of maps; the ensemble
        # cuts its blocks to _STATE_BYTES of them, and the mixing matrices,
        # the graph block being generated and the chunk's buffers take far
        # less than that again
        m, d, iters = 16, 4, 600
        seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
        sched = StepSchedule("harmonic", 0.1)
        run_gaussian_ensemble(seq, sched, np.zeros(d), np.eye(d), m, 50, 2, 0, [50])
        tracemalloc.start()
        try:
            run_gaussian_ensemble(seq, sched, np.zeros(d), np.eye(d), m, iters,
                                  2, 0, [iters])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * langevin_module._STATE_BYTES


class DivergingAt(Potential):
    """Zero gradient, except an infinite one at the given step."""

    def __init__(self, dim, step):
        self.props = PotentialProps(dim=dim)
        self.step, self.calls = step, 0

    def grad_drawn(self, z, drawn):
        self.calls += 1
        return np.full_like(z, np.inf if self.calls == self.step + 1 else 0.0)


class TestBlockBookkeeping:
    """The push-sum weights run once per block, ahead of the steps, and the
    finite check once after them; the earliest error still wins."""

    # agent 0 keeps half its weight each step and receives nothing, so its
    # weight 2**-(t+1) falls below the floor at step t = 996: in the middle
    # of the fourth 256-step block, or on the first step of a block at a
    # cap of 996
    UNDERFLOW = r"push-sum weight underflow at agent 0 \(y=7\.466e-301, t=996\)"

    def step_loop(self, pot, num_iters):
        seq, ns = lone_edge_then_back(), init_network(2, 1)
        for t in range(num_iters):
            ns = langevin_step(ns, seq.mixing_at(t), StepSchedule("harmonic", 0.1),
                               pot, None)

    @pytest.mark.parametrize("cap", [256, 996])
    def test_an_underflow_in_the_middle_of_a_block_names_its_step(self, cap, monkeypatch):
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", cap)
        sched = StepSchedule("harmonic", 0.1)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW):
            run(lone_edge_then_back(), sched, ZeroPotential(1), None, 1200)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW):
            self.step_loop(ZeroPotential(1), 1200)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW), \
                np.errstate(over="ignore", invalid="ignore"):
            run_gaussian_ensemble(lone_edge_then_back(), sched, np.zeros(1),
                                  np.eye(1), 2, 1200, 3, 0, [1200])

    @pytest.mark.parametrize("cap, diverge_at, error", [
        (256, 990, DivergenceError), (256, 1000, FloatingPointError),
        (996, 990, DivergenceError), (996, 995, DivergenceError),
        (996, 1000, FloatingPointError)])
    def test_the_earlier_of_a_divergence_and_an_underflow_wins(
            self, cap, diverge_at, error, monkeypatch):
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", cap)
        sched = StepSchedule("harmonic", 0.1)
        with pytest.raises(error) as info, np.errstate(invalid="ignore"):
            run(lone_edge_then_back(), sched, DivergingAt(1, diverge_at), None, 1200)
        with pytest.raises(error) as loop_info:
            self.step_loop(DivergingAt(1, diverge_at), 1200)
        assert str(info.value) == str(loop_info.value)
        if error is DivergenceError:
            assert info.value.iteration == diverge_at + 1

        def noise(t):
            return np.full((3, 2, 1), np.inf if t == diverge_at else 0.0)

        with pytest.raises(error) as ens_info, \
                np.errstate(over="ignore", invalid="ignore"):
            run_gaussian_ensemble(lone_edge_then_back(), sched, np.zeros(1),
                                  np.eye(1), 2, 1200, 3, 0,
                                  [diverge_at + 1, 1200], noise_draw=noise)
        if error is DivergenceError:
            assert ens_info.value.iteration == diverge_at + 1
        else:
            assert ens_info.match(self.UNDERFLOW)

    @pytest.mark.parametrize("chunk_runs", [2, 5, 4096])
    def test_the_ensemble_runs_the_weights_once_per_step_in_the_caller(
            self, chunk_runs, monkeypatch):
        monkeypatch.setattr(langevin_module, "_CHUNK_RUNS", chunk_runs)
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", 16)
        steps, callers, weights = [], set(), langevin_module._weights

        def counted(entries, y, t0):
            steps.extend(range(t0, t0 + len(entries)))
            callers.add(threading.current_thread())
            return weights(entries, y, t0)

        monkeypatch.setattr(langevin_module, "_weights", counted)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=4)
        run_gaussian_ensemble(seq, StepSchedule("harmonic", 1.0), np.zeros(2),
                              np.eye(2), 3, 40, 10, 0, [10, 40])
        assert steps == list(range(40))
        assert callers == {threading.current_thread()}

    def test_run_runs_the_weights_once_per_block(self, monkeypatch):
        calls, weights = [], langevin_module._weights

        def counted(entries, y, t0):
            calls.append((t0, len(entries)))
            return weights(entries, y, t0)

        monkeypatch.setattr(langevin_module, "_weights", counted)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=4)
        run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
            NoiseModel(0, 3), 600)
        assert calls == [(0, 256), (256, 256), (512, 88)]

    def test_a_wide_state_shortens_the_run_blocks(self, monkeypatch):
        # at m=4, d=123 a state buffer of 256 steps takes 1 MB: the state
        # budget cuts the blocks, which still tile the run in order
        calls, weights = [], langevin_module._weights

        def counted(entries, y, t0):
            calls.append((t0, len(entries)))
            return weights(entries, y, t0)

        monkeypatch.setattr(langevin_module, "_weights", counted)
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=4)
        run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(123),
            NoiseModel(0, 4), 600)
        starts, sizes = zip(*calls)
        assert max(sizes) < 256
        assert list(starts) == [0, *np.cumsum(sizes[:-1])]
        assert sum(sizes) == 600

    @pytest.mark.parametrize("m, d, steps", [
        (4, 2, 256), (4, 123, 133), (128, 2, 64), (512, 2, 4), (1024, 2, 1),
        (4096, 2, 1)])
    def test_block_steps_follow_the_cap_and_both_budgets(self, m, d, steps):
        assert langevin_module._block_steps(m, d) == steps

    def test_single_agent_under_a_power_schedule_is_bitwise_a_plain_chain(self):
        # the run's step sizes must be the scalar step_size, bit for bit:
        # a vectorised power differs from it in the last bit at some steps
        pot = GaussianPotential(np.array([0.4, -0.2]),
                                np.array([[1.0, 0.3], [0.3, 2.0]]), 1)
        sched = StepSchedule("power", alpha0=0.37, offset=2.9, exponent=0.55)
        seq = generate_graph_sequence("seeded-random", 1, 1, seed=5)
        trace = run(seq, sched, pot, NoiseModel(5, 1), 600)
        ref = reference_ula(lambda x: pot.grad(0, x, None), sched, 5, 600, 2)
        assert np.array_equal(trace.states[1:, 0, :], ref[:-1])
