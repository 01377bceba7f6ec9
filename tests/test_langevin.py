"""Schedules, noise streams, the network update and the ensemble runner."""

import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given
from hypothesis import strategies as st

from declangevin import langevin as langevin_module
from declangevin import (DirectedGraph, DivergenceError, GaussianDist, GaussianPotential,
                         LinRegPotential, LogisticPotential, MixturePotential,
                         NetworkState, NoiseModel, Potential, PotentialProps,
                         StepSchedule, ZeroPotential, average_state,
                         consensus_error, generate_graph_sequence,
                         generate_linreg_data, generate_mixture_data,
                         grad_U_linreg, init_network, langevin_step,
                         make_surrogate_classification, partition, run,
                         run_gaussian_ensemble, step_size)

from conftest import RecordingNoise, RecordingPotential, reference_ula


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

    def test_schedule_is_callable(self):
        sched = StepSchedule("harmonic", alpha0=1.0)
        assert sched(7) == step_size(sched, 7)

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
        assert trace.z_dev.shape == (20, 3)

    def test_x0_sets_the_first_record(self):
        seq = generate_graph_sequence("seeded-random", 4, 1, seed=3)
        x0 = np.arange(8.0).reshape(4, 2)
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    None, 10, x0=x0)
        np.testing.assert_array_equal(trace.states[0], x0)

    def test_an_overflowing_deviation_raises(self):
        # node 0 only sends, so its push-sum weight halves every step and
        # its ratio estimate grows until, at iteration 518, the squared
        # norms of its deviation and consensus error overflow while every
        # state is still finite
        seq = generate_graph_sequence("static", 2, 1,
                                      graphs=[DirectedGraph(2, {(0, 1)})])
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as info:
                run(seq, StepSchedule("harmonic", alpha0=0.1),
                    ZeroPotential(1), NoiseModel(0, 2), 990)
        assert (info.value.agent, info.value.iteration) == (0, 518)

    def test_an_overflowing_deviation_is_named_without_a_warning(self):
        # the same run as above, with every warning an error: the norm's
        # overflow warns nowhere, and the error names the deviation, not
        # the (finite) state
        seq = generate_graph_sequence("static", 2, 1,
                                      graphs=[DirectedGraph(2, {(0, 1)})])
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

    def test_divergence_error_names_a_state_by_default(self):
        err = DivergenceError(agent=2, iteration=7)
        assert str(err) == "non-finite state at agent 2, iteration 7"
        assert err.quantity == "state"

    def test_pure_consensus_contracts_to_the_initial_average(self):
        seq = generate_graph_sequence("seeded-random", 6, 1, seed=4)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((6, 3))
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(3),
                    None, 100, x0=x0)
        gap = np.linalg.norm(trace.states[-1] - x0.mean(axis=0), axis=1)
        assert gap.max() < 1e-4
        # and the deviation series actually decays
        assert trace.z_dev[-1].max() < trace.z_dev[0].max()

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

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_zero_potential_runs_at_any_network_size(self, m):
        assert ZeroPotential(2).num_agents is None
        seq = generate_graph_sequence("seeded-random", m, 1, seed=m)
        trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2),
                    NoiseModel(m, m), 5)
        assert trace.states.shape == (6, m, 2)


def step_loop(seq, sched, pot, noise, num_iters, stride, x0):
    """Reference driver: ``run``'s record keeping around a loop of
    ``langevin_step`` calls on immutable network states."""
    m, d = x0.shape
    ns = init_network(m, d)
    ns = NetworkState(x=x0.copy(), y=ns.y, w=ns.w, z=x0.copy(), t=0)
    states, consensus, zdev, pert = [ns.z], [consensus_error(ns)], [], []
    for t in range(num_iters):
        xbar = average_state(ns)
        ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
        zdev.append(np.linalg.norm(ns.z - xbar, axis=1))
        pert.append(np.linalg.norm(ns.x - ns.w, axis=1))
        if ns.t % stride == 0:
            states.append(ns.z)
            consensus.append(consensus_error(ns))
    return (np.array(states), np.array(consensus), np.array(zdev),
            np.array(pert))


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
        states, consensus, zdev, pert = step_loop(seq, sched, pot, noise_loop,
                                                  iters, stride, x0)

        for got, want in ((trace.states, states),
                          (trace.consensus, consensus),
                          (trace.z_dev, zdev), (trace.pert_norms, pert)):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
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
        states, consensus, zdev, pert = step_loop(seq, sched, pot, noise_loop,
                                                  iters, stride, x0)

        np.testing.assert_array_equal(trace.ts, np.arange(0, iters + 1, stride))
        assert trace.alphas.tolist() == [step_size(sched, t)
                                         for t in range(0, iters + 1, stride)]
        for got, want in ((trace.states, states),
                          (trace.consensus, consensus),
                          (trace.z_dev, zdev), (trace.pert_norms, pert)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert len(noise_run.draws) == len(noise_loop.draws) == iters * m
        for a, b in zip(noise_run.draws, noise_loop.draws):
            assert np.array_equal(a, b)

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
                0, len(shards[i].indices), size=batch)
            rows = shards[i].indices[idx]
            g = grad_U_linreg(stepped.z[i], ds.features[rows], ds.targets[rows],
                              GaussianDist(prior.mean, m * prior.cov), 1.0,
                              len(shards[i].indices) / batch)
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
    # weight 2**-(t+1) falls below the floor at step t = 996, in the middle
    # of the fourth 256-step block
    UNDERFLOW = r"push-sum weight underflow at agent 0 \(y=7\.466e-301, t=996\)"

    @staticmethod
    def one_edge():
        return generate_graph_sequence("static", 2,
                                       graphs=[DirectedGraph(2, {(0, 1)})])

    def step_loop(self, pot, num_iters):
        seq, ns = self.one_edge(), init_network(2, 1)
        for t in range(num_iters):
            ns = langevin_step(ns, seq.mixing_at(t), StepSchedule("harmonic", 0.1),
                               pot, None)

    def test_an_underflow_in_the_middle_of_a_block_names_its_step(self):
        sched = StepSchedule("harmonic", 0.1)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW):
            run(self.one_edge(), sched, ZeroPotential(1), None, 1200)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW):
            self.step_loop(ZeroPotential(1), 1200)
        with pytest.raises(FloatingPointError, match=self.UNDERFLOW), \
                np.errstate(over="ignore", invalid="ignore"):
            run_gaussian_ensemble(self.one_edge(), sched, np.zeros(1),
                                  np.eye(1), 2, 1200, 3, 0, [1200])

    @pytest.mark.parametrize("diverge_at, error", [
        (990, DivergenceError), (1000, FloatingPointError)])
    def test_the_earlier_of_a_divergence_and_an_underflow_wins(
            self, diverge_at, error):
        sched = StepSchedule("harmonic", 0.1)
        with pytest.raises(error) as info, np.errstate(invalid="ignore"):
            run(self.one_edge(), sched, DivergingAt(1, diverge_at), None, 1200)
        with pytest.raises(error) as loop_info:
            self.step_loop(DivergingAt(1, diverge_at), 1200)
        assert str(info.value) == str(loop_info.value)
        if error is DivergenceError:
            assert info.value.iteration == diverge_at + 1

        def noise(t):
            return np.full((3, 2, 1), np.inf if t == diverge_at else 0.0)

        with pytest.raises(error) as ens_info, \
                np.errstate(over="ignore", invalid="ignore"):
            run_gaussian_ensemble(self.one_edge(), sched, np.zeros(1),
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
