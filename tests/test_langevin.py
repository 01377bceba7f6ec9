"""Schedules, noise streams, the network update and the ensemble runner."""

import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import replace

from declangevin import langevin as langevin_module
from declangevin import (DivergenceError, GaussianDist, GaussianPotential,
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

    def grad(self, agent, z, rng):
        return np.full(self.props.dim, np.inf)


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

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StepSchedule("geometric", alpha0=0.1)
        with pytest.raises(ValueError):
            StepSchedule("harmonic", alpha0=0.0)
        with pytest.raises(ValueError):
            StepSchedule("power", alpha0=0.1, exponent=1.5)
        with pytest.raises(ValueError):
            StepSchedule("power", alpha0=0.1, offset=0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            step_size(StepSchedule("harmonic", alpha0=1.0), -1)


class TestNoiseModel:
    def test_streams_are_independent_of_query_order(self):
        a = NoiseModel(3, 2)
        b = NoiseModel(3, 2)
        a0 = a.gaussian(0, 4)
        a1 = a.gaussian(1, 4)
        b1 = b.gaussian(1, 4)
        b0 = b.gaussian(0, 4)
        assert np.array_equal(a0, b0)
        assert np.array_equal(a1, b1)

    def test_stream_advances(self):
        nm = NoiseModel(0, 1)
        assert not np.array_equal(nm.gaussian(0, 3), nm.gaussian(0, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-1, 2)
        with pytest.raises(ValueError):
            NoiseModel(0, 0)
        with pytest.raises(ValueError):
            NoiseModel(0, 2, sigma_sq=-1.0)


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

            def grad(self, agent, z, rng):
                seen.append(z.copy())
                return np.zeros_like(z)

        seq = generate_graph_sequence("seeded-random", 2, 1, seed=0)
        ns = init_network(2, 1)
        ns = NetworkState(x=np.array([[1.0], [3.0]]), y=ns.y, w=ns.w, z=ns.z,
                          t=0)
        mixed = langevin_step(ns, seq.mixing_at(0), StepSchedule("harmonic", 0.1),
                              Probe(), None)
        np.testing.assert_array_equal(np.concatenate(seen), mixed.z.ravel())

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

    def test_minibatch_draws_precede_the_gaussian(self):
        # agent i's stream [seed, i] gives its batch indices, then its noise
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
            stream = np.random.default_rng([seed, i])
            idx = stream.integers(0, len(shards[i].indices), size=batch)
            rows = shards[i].indices[idx]
            g = grad_U_linreg(stepped.z[i], ds.features[rows], ds.targets[rows],
                              GaussianDist(prior.mean, m * prior.cov), 1.0,
                              len(shards[i].indices) / batch)
            want = stepped.w[i] - alpha * g \
                + np.sqrt(2.0 * alpha) * stream.standard_normal(d)
            np.testing.assert_allclose(stepped.x[i], want, rtol=0.0,
                                       atol=1e-12)

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
        lookup = seq.mixing_at

        def mixing_at(t):
            callers.add(threading.current_thread())
            return lookup(t)

        monkeypatch.setattr(seq, "mixing_at", mixing_at)
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
        # the caller fills the second block while the chunks run the first;
        # an interrupt there must not wait for the chunks to finish it
        self.small_chunks(monkeypatch, 2, 2)
        monkeypatch.setattr(langevin_module, "_MIXING_BLOCK", 1000)
        seq = generate_graph_sequence("seeded-random", 3, 1, seed=0)
        lookup = seq.mixing_at
        calls = []

        def mixing_at(t):
            if t == 1000:
                raise KeyboardInterrupt
            return lookup(t)

        def draw(t):
            calls.append(t)
            time.sleep(1e-3)
            return np.zeros((4, 3, 2))

        monkeypatch.setattr(seq, "mixing_at", mixing_at)
        with pytest.raises(KeyboardInterrupt):
            run_gaussian_ensemble(seq, StepSchedule("harmonic", 1.0),
                                  np.zeros(2), np.eye(2), 3, 2000, 4, 0,
                                  [2000], noise_draw=draw)
        assert max(calls) < 500
