"""End-to-end acceptance runs at the scales the package is meant for.

Each test checks one contract: exact mixing weights, conserved push-sum
mass, consensus and mean-field identities, gradient correctness against
finite differences, the three experiment pipelines, the deviation-bound
monitor, the ensemble convergence rate and byte-reproducible output.
Measured values are printed so a failing threshold can be read off the
log together with the number that missed it.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from declangevin import (DirectedGraph, GaussianDist, GaussianPotential,
                         LinRegPotential, NetworkState, StepSchedule,
                         ZeroPotential, average_state, build_config,
                         check_lemma4_bound,
                         empirical_gaussian, generate_graph_sequence,
                         generate_linreg_data, generate_mixture_data,
                         grad_U_linreg, grad_U_logistic, grad_U_mixture,
                         init_network, langevin_step, linreg_w2_series,
                         logistic_auc_series, main, partition, prepare,
                         rate_fit, run, run_experiment,
                         run_gaussian_ensemble, step_size, w2_gaussian_bures)
from declangevin.langevin import NoiseModel

from conftest import (SIX_NODE_MIXING, AffinePotential, RecordingNoise,
                      RecordingPotential, central_fd, mixing_of,
                      reference_mixing, reference_no_ratio, reference_ula)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def linreg_run():
    cfg = build_config("linreg")
    setup = prepare(cfg)
    start = time.perf_counter()
    trace = run_experiment(cfg, setup)
    return cfg, setup, trace, time.perf_counter() - start


def _logistic_overrides():
    dataset = REPO_ROOT / "data" / "a9a"
    if dataset.exists():
        return {"dataset": str(dataset)}
    return {"dataset": str(dataset), "surrogate": "on"}


@pytest.fixture(scope="module")
def logistic_run():
    cfg = build_config("logistic", _logistic_overrides())
    start = time.perf_counter()
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    return cfg, setup, trace, time.perf_counter() - start


def test_mixing_matrices_are_exact_and_column_stochastic(six_node_graph):
    start = time.perf_counter()
    np.testing.assert_array_equal(mixing_of(six_node_graph).entries,
                                  SIX_NODE_MIXING)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        edges = frozenset((i, j) for i in range(m) for j in range(m)
                          if i != j and rng.random() < 0.3)
        sums = mixing_of(DirectedGraph(m, edges)).entries.sum(axis=0)
        worst = max(worst, np.abs(sums - 1.0).max())
    elapsed = time.perf_counter() - start
    print(f"worst column-sum error over 1000 graphs: {worst:.2e} "
          f"({elapsed:.2f}s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_push_sum_conserves_total_weight_over_long_horizons():
    seq = generate_graph_sequence("seeded-random", 6, 2, seed=1)
    rng = np.random.default_rng(1)
    ns = init_network(6, 3)
    ns = NetworkState(x=rng.standard_normal((6, 3)), y=ns.y, w=ns.w, z=ns.z,
                      t=0)
    # no gradient and no noise: each step is a bare push-sum round
    sched, flat = StepSchedule("harmonic", 1.0), ZeroPotential(3)
    start = time.perf_counter()
    drift = 0.0
    for t in range(10000):
        ns = langevin_step(ns, seq.mixing_at(t), sched, flat, None)
        drift = max(drift, abs(ns.y.sum() - 6.0))
    elapsed = time.perf_counter() - start
    print(f"worst total-weight drift over 10000 steps: {drift:.2e} "
          f"({elapsed:.1f}s)")
    assert drift <= 1e-9
    assert elapsed < 5.0


def test_gradient_free_noise_free_network_reaches_consensus():
    seq = generate_graph_sequence("seeded-random", 6, 1, seed=2)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((6, 2))
    trace = run(seq, StepSchedule("harmonic", 0.1), ZeroPotential(2), None,
                200, x0=x0)
    gap = np.linalg.norm(trace.states[-1] - x0.mean(axis=0), axis=1).max()
    print(f"worst distance to the initial average after 200 steps: {gap:.2e}")
    assert gap < 1e-6


def test_single_agent_run_is_bitwise_plain_langevin():
    pot = GaussianPotential(np.array([0.4, -0.2]),
                            np.array([[1.0, 0.3], [0.3, 2.0]]), 1)
    sched = StepSchedule("harmonic", alpha0=0.3)
    seq = generate_graph_sequence("seeded-random", 1, 1, seed=7)
    trace = run(seq, sched, pot, NoiseModel(7, 1), 1000)
    ref = reference_ula(lambda x: pot.grad(0, x, None), sched, 7, 1000, 2)
    # the recorded ratio at iteration t is the plain chain after t - 1 steps
    assert np.array_equal(trace.states[1:, 0, :], ref[:-1])
    print("1000 iterations bitwise identical to the plain chain")


def test_network_average_follows_the_mean_field_decomposition():
    m, d = 4, 2
    ds = generate_linreg_data(120, d, 1.0, np.array([1.0, -1.0]), seed=5)
    shards = partition(ds, m, "random", 5)
    prior = GaussianDist(np.zeros(d), np.eye(d))
    pot = RecordingPotential(LinRegPotential(ds, shards, prior, 1.0,
                                             batch_size=1))
    noise = RecordingNoise(5, m)
    sched = StepSchedule("harmonic", alpha0=0.01)
    seq = generate_graph_sequence("seeded-random", m, 1, seed=5)

    ns = init_network(m, d)
    worst = 0.0
    for t in range(1000):
        xbar = average_state(ns)
        ns = langevin_step(ns, seq.mixing_at(t), sched, pot, noise)
        alpha = step_size(sched, t + 1)
        decomp = xbar - alpha * np.mean(pot.grads[-m:], axis=0) \
            + np.sqrt(2.0 * alpha) * np.mean(noise.draws[-m:], axis=0)
        worst = max(worst, np.abs(average_state(ns) - decomp).max())
    print(f"worst decomposition residual over 1000 steps: {worst:.2e}")
    assert worst <= 1e-10


def test_the_push_sum_ratio_lets_an_imbalanced_network_reach_its_target():
    # 0 -> 1 -> 2 -> 3 -> 0 plus 0 -> 2 and 0 -> 3: node 0 splits its mass
    # four ways and the others two, so the weights settle at y = (1, 0.5, 1,
    # 1.5).  The gradients are affine and the weights do not depend on the
    # state, so the mean of x(t) follows the noise-free recursion exactly,
    # and its fixed point is the law's mean when the gradient is taken at
    # z = w / y.  Taken at w, the network settles at a multiple of y that
    # biases even its average.
    g = DirectedGraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 3)})
    seq = generate_graph_sequence("static", 4, graphs=[g])
    pot = AffinePotential([0.5, 4.0, 1.0, 2.0], [[-3.0], [-1.0], [1.0], [5.0]])
    target = 11.0 / 15.0  # sum h_i mu_i / sum h_i
    sched = StepSchedule("power", alpha0=0.05, offset=1.0, exponent=0.5)
    start = time.perf_counter()
    trace = run(seq, sched, pot, None, 20000)
    with_ratio = np.abs(trace.states[-1] - target).max()
    without = reference_no_ratio(lambda w: pot.grad_drawn(w, None),
                                 reference_mixing(g), sched, 20000, 4, 1)
    miss = abs(without.mean() - target)
    print(f"ratio: worst agent {with_ratio:.4f} from the target mean; "
          f"no ratio: network average {miss:.4f} from it; "
          f"{time.perf_counter() - start:.2f} s")
    assert with_ratio <= 0.02
    assert miss >= 0.08


def test_analytic_gradients_match_finite_differences():
    def linreg_u(z, feats, targs, prior, sigma):
        gap = z - prior.mean
        resid = feats @ z - targs
        return 0.5 * resid @ resid / sigma ** 2 \
            + 0.5 * gap @ np.linalg.solve(prior.cov, gap)

    def mixture_u(theta, x, sigma_x, prior_vars):
        a, b = theta
        l1 = -((x - a) ** 2) / (2.0 * sigma_x ** 2)
        l2 = -((x - a - b) ** 2) / (2.0 * sigma_x ** 2)
        return -(np.logaddexp(l1, l2) + np.log(0.5)).sum() \
            + a ** 2 / (2 * prior_vars[0]) + b ** 2 / (2 * prior_vars[1])

    def logistic_u(w, feats, targs):
        return np.logaddexp(0.0, -targs * (feats @ w)).sum() \
            + np.abs(w).sum()

    rng = np.random.default_rng(6)
    worst = 0.0

    ds = generate_linreg_data(120, 3, 0.7, np.array([1.0, -1.0, 0.5]), seed=6)
    prior = GaussianDist(0.3 * np.ones(3), 2.0 * np.eye(3))
    for _ in range(10):
        z = rng.standard_normal(3)
        ana = grad_U_linreg(z, ds.features, ds.targets, prior, 0.7)
        fd = central_fd(lambda v: linreg_u(v, ds.features, ds.targets,
                                          prior, 0.7), z)
        worst = max(worst, np.linalg.norm(ana - fd)
                    / max(1.0, np.linalg.norm(fd)))

    mix = generate_mixture_data(150, 0.0, 1.0, np.sqrt(2.0), seed=6)
    for _ in range(10):
        theta = rng.standard_normal(2)
        ana = grad_U_mixture(theta, mix.targets, np.sqrt(2.0), (10.0, 1.0))
        fd = central_fd(lambda v: mixture_u(v, mix.targets, np.sqrt(2.0),
                                            (10.0, 1.0)), theta)
        worst = max(worst, np.linalg.norm(ana - fd)
                    / max(1.0, np.linalg.norm(fd)))

    feats = rng.standard_normal((80, 6))
    targs = np.where(rng.random(80) < 0.5, 1.0, -1.0)
    for _ in range(10):
        # keep every coordinate away from the kink of |w|
        w = rng.standard_normal(6)
        w += 0.3 * np.sign(w)
        ana = grad_U_logistic(w, feats, targs)
        fd = central_fd(lambda v: logistic_u(v, feats, targs), w)
        worst = max(worst, np.linalg.norm(ana - fd)
                    / max(1.0, np.linalg.norm(fd)))

    print(f"worst relative gradient error over 30 points: {worst:.2e}")
    assert worst < 1e-5


def test_linreg_distance_to_the_posterior_drops_tenfold(linreg_run):
    cfg, setup, trace, elapsed = linreg_run
    start = time.perf_counter()
    paper, _ = linreg_w2_series(trace, setup.extras["posterior"])
    series = paper.mean(axis=1)
    finite = series[np.isfinite(series)]
    elapsed += time.perf_counter() - start
    print(f"mean W2 to the posterior: {finite[0]:.4f} at the first full "
          f"window, {finite[-1]:.4f} at t={cfg.iters} ({elapsed:.1f}s)")
    assert elapsed < 10.0
    assert finite[-1] <= 0.1 * finite[0]


def _mixture_ball_masses(x, sigma_x_sq, prior_vars, centres, radius):
    """Exact posterior mass of each ball by quadrature on a 0.02 grid.

    The unnormalised log posterior of the equal-weight location mixture
    N(a, sigma_x^2) / N(a + b, sigma_x^2) under independent zero-mean
    Gaussian priors is summed over the data one point at a time, so memory
    stays at one grid.  The box a in [-2, 3], b in [-3, 3] holds all but a
    negligible share of the mass.
    """
    step = 0.02
    a, b = np.meshgrid(np.arange(-2.0, 3.0 + step / 2, step),
                       np.arange(-3.0, 3.0 + step / 2, step), indexing="ij")
    logp = -a ** 2 / (2.0 * prior_vars[0]) - b ** 2 / (2.0 * prior_vars[1])
    for xi in x:
        logp += np.logaddexp(-(xi - a) ** 2 / (2.0 * sigma_x_sq),
                             -(xi - a - b) ** 2 / (2.0 * sigma_x_sq))
    weights = np.exp(logp - logp.max())
    weights /= weights.sum()
    return np.array([weights[np.hypot(a - c[0], b - c[1]) < radius].sum()
                     for c in centres])


def test_mixture_agents_occupy_both_posterior_modes():
    # 60000 steps at 0.008 -> 0.004 give the network about 60 units of
    # Langevin time (sum of alpha over m) after burn-in; the exact posterior
    # relaxes between its two modes in one to two units
    cfg = build_config("mixture", {"iters": 60000, "alpha_start": 0.008,
                                   "alpha_end": 0.004})
    setup = prepare(cfg)
    start = time.perf_counter()
    trace = run_experiment(cfg, setup)
    elapsed = time.perf_counter() - start
    centres = np.array([[0.0, 1.0], [1.0, -1.0]])
    exact = _mixture_ball_masses(
        np.concatenate(setup.potential.shard_targets), cfg.sigma_x_sq,
        (cfg.prior_var1, cfg.prior_var2), centres, 0.5)
    after = trace.ts > cfg.iters // 5
    post = trace.states[after]
    occ = np.stack([(np.linalg.norm(post - c, axis=2) < 0.5).mean(axis=0)
                    for c in centres])
    low, high = exact / 2.0, exact * 2.0
    for i in range(trace.num_agents):
        print(f"agent {i}: occupancy {occ[0, i]:.3f} near (0, 1) "
              f"(exact {exact[0]:.3f}, bounds {low[0]:.3f}-{high[0]:.3f}), "
              f"{occ[1, i]:.3f} near (1, -1) "
              f"(exact {exact[1]:.3f}, bounds {low[1]:.3f}-{high[1]:.3f})")
    print(f"Langevin time after burn-in: "
          f"{trace.alphas[after].sum() / trace.num_agents:.1f} ({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert np.all(occ >= low[:, None]) and np.all(occ <= high[:, None])


def test_logistic_chains_reach_reference_test_auc(logistic_run):
    _, setup, trace, elapsed = logistic_run
    start = time.perf_counter()
    eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"])
    elapsed += time.perf_counter() - start
    final = float(aucs[-1].mean())
    test_set = setup.extras["test"]
    n_pos = int((test_set.targets == 1.0).sum())
    n_neg = test_set.n - n_pos
    null_se = np.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
    source = "surrogate" if setup.metadata["surrogate"] == "on" else "file"
    print(f"final mean test AUC {final:.4f} on {source} data "
          f"(null AUC se {null_se:.4f}, {elapsed:.1f}s)")
    assert elapsed < 300.0
    if source == "surrogate":
        assert final > 0.5 + 10.0 * null_se
    else:
        assert final >= 0.8336


def test_recorded_runs_respect_the_deviation_bound(linreg_run, logistic_run):
    for name, bundle in (("linreg", linreg_run), ("logistic", logistic_run)):
        report = check_lemma4_bound(bundle[2])
        print(f"{name}: max lhs/bound ratio {report.max_ratio:.2e} "
              f"(delta={report.delta:.3e}, lambda={report.lam:.6f})")
        assert not report.violated


def test_ensemble_distance_to_the_target_decays_polynomially():
    m, d, iters, runs = 4, 2, 10000, 16384
    pot = GaussianPotential(np.zeros(d), np.eye(d), m)
    # largest admissible constant step for the declared curvature bounds
    alpha0 = min(1.0 / (2.0 * pot.props.lipschitz),
                 pot.props.mu / (4.0 * pot.props.lipschitz ** 2))
    seq = generate_graph_sequence("seeded-random", m, 1, seed=0)
    sched = StepSchedule("harmonic", alpha0=alpha0)
    cps = np.unique(np.geomspace(1, iters, 41).astype(int))
    start = time.perf_counter()
    snaps = run_gaussian_ensemble(seq, sched, np.zeros(d), np.eye(d), m,
                                  iters, runs, 125, cps)
    target = GaussianDist(np.zeros(d), np.eye(d))
    w2 = np.array([w2_gaussian_bures(empirical_gaussian(s), target)
                   for s in snaps])
    elapsed = time.perf_counter() - start
    # moments fitted from 16384 runs carry an O(1/sqrt(runs)) floor near
    # 0.01, so the fit stops at t = 1000 where the signal still dominates
    window = (cps >= 10) & (cps <= 1000)
    slope = rate_fit(w2[window], cps[window])
    print(f"log-log slope {slope:.3f} over t in [10, 1000]; "
          f"W2 {w2[cps == 10][0]:.4f} -> {w2[cps == 1000][0]:.4f} "
          f"({elapsed:.0f}s)")
    assert slope <= -0.25


def test_equal_configs_write_byte_identical_results(tmp_path, capsys):
    cases = {
        "linreg": ["linreg", "--n", "120", "--iters", "80", "--seed", "3"],
        "run": ["run", "--iters", "300", "--monitors", "on"],
    }
    for name, flags in cases.items():
        out1 = tmp_path / f"{name}1.csv"
        out2 = tmp_path / f"{name}2.csv"
        assert main(flags + ["--out", str(out1)]) == 0
        assert main(flags + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
    print("repeated linreg and monitored runs wrote identical bytes")


# The output contract across commits: the SHA-256 of each CSV, as written
# with this numpy and BLAS (the bits follow the BLAS kernel).  A change
# that moves a digest on purpose updates it here and says why.
CONTRACT_NUMPY = "2.4.6"
CONTRACT_BLAS = "scipy-openblas 0.3.31.188.0"
CONTRACT_DIGESTS = {
    "linreg": "a846cb365af9a29b0c149d375e46c78975dc2686660898b6238a36ff6865d0b9",
    # re-recorded when the mixture kernel became one contraction per agent,
    # which weighs (b, a + b) by gamma n and by gamma sum t apart instead of
    # by gamma (n + sum t): every state moves in its last bits, at most
    # 6.7e-16 against the tanh kernel before it, and the monitors' lemma4
    # ratio in its 17th digit
    "mixture --iters 2000":
        "c9d20bb85ed51abc1d5db35d44de7e41a34950307242dfd730932a4c519d68fd",
    "mixture --iters 2000 --monitors on":
        "8defc967ba1010864b8ab88f5b8b60e05ad4c4e46c8f96dd5589d9b19c209bce",
    # minibatches of the mixture, gathered every step; re-recorded with the
    # contraction kernel, at most 1.0e-15 from the tanh kernel's CSV
    "mixture --iters 2000 --batch 10":
        "c8f804337f69968332c7b7410d4497ef8a4e2770fb8930824086e35974d19b41",
    # re-recorded, like the 300-step run below, when logistic's stride
    # became its eval_every: the header reads stride=10 for stride=1, and
    # every data row is as before
    "logistic --surrogate on --iters 100":
        "0c1b7a43b4f4550e9b6f0f9603e65bba1ee310b5986251fc4cdd19cec86180ef",
    "run": "1821ba0fa1eb38fc6831b870658ba0e620b28894f0f743a82ebc8ac9220725a6",
    "run --monitors on":
        "51cdd377b9ef51f6ac63075af95a61b9c016d2dbb94758e40ef0f588985e3530",
    "linreg --agents 32 --graph_b 4":
        "570b98c5a1fe313b129f25cb0999ea8702f559c5e4e0f9420e44ebd8a6891449",
    # blocks of fewer than 256 steps, cut by the state budget (d = 123) and
    # by the mixing budget (m = 128); recorded with blocks of 256
    "logistic --surrogate on --iters 300":
        "40c9758b16b49613ddb91f164f174aacdddc3061c5d5e771a0fdea4dca912ae3",
    "run --agents 128 --iters 300":
        "cf0555d5b719f393c3ecd9e22eb88b13ac222a4e3756166487621fa490e8e364",
    # 1,667 rows of 19 float columns: several row chunks and a ragged tail,
    # with the NaN z_dev and lemma4 cells of iteration 0; recorded when the
    # table was stacked whole
    "run --monitors on --iters 5000 --stride 3":
        "c2825638ca7eb1fb5db3f05e00b87321655306c71a1f76ce63b674eeeb05e1e4",
    # the generated static graph, read as an explicit sequence, with its
    # bound monitors and at a window longer than its list of one graph;
    # re-recorded when the agent share 1/6 became a factor of H = P/m
    # instead of a final division (last-bit moves, at most 1.4e-14)
    "run --graph_kind static --agents 6 --monitors on":
        "ec4ebd4a37e82bddc5bf23229c2a5fb5229bbf22e4d4e3a462e8f4a9408ef209",
    "run --graph_kind static --graph_b 3":
        "d892ea9f9d0cf9d6ba817fff39e165644a381d022c82d11eead6d00bb3f80665",
    # full shards, read whole every step, where every other linreg digest
    # draws minibatches
    "linreg --batch 0":
        "7aecf99c2eda9c2e2d67837f91565fa6bb3c0e329a83cc396ae3f515d7e0a9b9",
}


def blas_config():
    """numpy's BLAS library and version, as its build reports them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def test_every_experiment_writes_its_recorded_bytes(tmp_path, monkeypatch,
                                                    capsys):
    # in an empty directory, so that no dataset file replaces the surrogate
    monkeypatch.chdir(tmp_path)
    moved = {}
    for flags, digest in CONTRACT_DIGESTS.items():
        assert main(flags.split() + ["--out", "out.csv"]) == 0
        written = hashlib.sha256(Path("out.csv").read_bytes()).hexdigest()
        if written != digest:
            moved[flags] = f"recorded {digest}, now {written}"
    capsys.readouterr()
    assert not moved, (
        f"{moved} wrote other bytes than recorded, here with numpy "
        f"{np.__version__} and {blas_config()}; the digests were recorded "
        f"with numpy {CONTRACT_NUMPY} and {CONTRACT_BLAS}")
    print(f"{len(CONTRACT_DIGESTS)} experiments wrote their recorded bytes")
