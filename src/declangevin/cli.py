"""Command-line experiments: linreg, mixture, logistic and a generic run.

Configuration is a flat set of key=value fields.  Defaults depend on the
subcommand, a JSON config file (one flat object) overrides them, and any
field can be overridden again by a flag of the same name.  Every run writes
one CSV whose '#' header echoes the resolved configuration, so a result
file is self-describing and two runs with equal configuration and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .graphs import check_b_strong_connectivity, generate_graph_sequence
from .langevin import NoiseModel, StepSchedule, run, step_size
from .metrics import (check_lemma4_bound, empirical_gaussian, roc_auc,
                      w2_gaussian_bures, w2_gaussian_paper)
from .models import (Dataset, GaussianDist, GaussianPotential, LinRegPotential,
                     LogisticPotential, MixturePotential, generate_linreg_data,
                     generate_mixture_data, linreg_posterior, load_libsvm,
                     make_surrogate_classification, partition)
from .trace import write_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_config",
    "prepare",
    "run_experiment",
    "main",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration of one experiment run."""

    experiment: str = "run"
    seed: int = 0
    agents: int = 4
    iters: int = 1000
    out: str = ""
    stride: int = 1
    monitors: str = "off"
    graph_kind: str = "seeded-random"
    graph_b: int = 1
    graph_seed: int | None = None
    schedule: str = "power"
    alpha0: float | None = None
    sched_offset: float | None = None
    sched_p: float = 0.65
    alpha_start: float | None = None
    alpha_end: float | None = None
    batch: int | None = None
    sigma_sq: float = 0.0
    n: int = 800
    dims: int = 2
    data_sigma: float = 1.0
    true_w: str = "1.0,-1.0"
    theta1: float = 0.0
    theta2: float = 1.0
    sigma_x_sq: float = 2.0
    prior_var1: float = 10.0
    prior_var2: float = 1.0
    dataset: str = "data/a9a"
    surrogate: str = "off"
    split_seed: int | None = None
    split_frac: float = 0.8
    eval_every: int = 10
    model: str = "gaussian"
    model_dim: int = 2
    model_kappa: float = 1.0


def _coercion_type(hint) -> type:
    """The type a config value is coerced to: ``X`` for ``X`` or ``X | None``."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


_FIELD_TYPES = {name: _coercion_type(hint)
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}

_EXPERIMENTS = ("linreg", "mixture", "logistic", "run")

_DEFAULTS = {
    "linreg": dict(iters=200, n=800, dims=2, data_sigma=1.0, true_w="1.0,-1.0",
                   schedule="power", alpha_start=0.008, alpha_end=0.0005,
                   sched_p=0.65),
    "mixture": dict(iters=10000, n=800, schedule="power", alpha_start=0.01,
                    alpha_end=0.0001, sched_p=0.65),
    "logistic": dict(iters=1000, n=32561, dims=123, schedule="power",
                     alpha0=0.008, sched_offset=12.0, sched_p=0.45),
    "run": dict(iters=1000, schedule="harmonic"),
}

# batch 0 means the full shard; the mixture gradient uses each node's whole
# sample set, the regression experiments subsample
_DEFAULT_BATCH = {"linreg": 1, "mixture": 0, "logistic": 32, "run": 0}


def build_config(experiment: str, *override_maps) -> ExperimentConfig:
    """Resolve a configuration from experiment defaults plus overrides.

    Later maps win; None values are ignored.  Unknown keys and wrongly
    typed values raise :class:`ConfigError`.
    """
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    merged = {f.name: f.default for f in fields(ExperimentConfig)}
    merged["experiment"] = experiment
    merged.update(_DEFAULTS[experiment])
    for overrides in override_maps:
        for key, value in overrides.items():
            if key == "experiment":
                raise ConfigError("the experiment is set by the subcommand")
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            if value is None:
                continue
            want = _FIELD_TYPES[key]
            try:
                if want is int and isinstance(value, float) and value != int(value):
                    raise ValueError
                merged[key] = want(value)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r} expects {want.__name__}, got {value!r}") from None
    return ExperimentConfig(**merged)


def load_config_file(path) -> dict:
    """Read a flat JSON object of config overrides."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold one flat JSON object")
    for key, value in data.items():
        if isinstance(value, (dict, list)):
            raise ConfigError(f"config key {key!r} must be a scalar")
    return data


@dataclass
class RunSetup:
    """Everything needed to drive one experiment."""

    cfg: ExperimentConfig
    seq: object
    sched: StepSchedule
    noise: NoiseModel
    potential: object
    metadata: dict
    extras: dict


def _build_schedule(cfg: ExperimentConfig) -> StepSchedule:
    endpoints = cfg.alpha_start is not None or cfg.alpha_end is not None
    try:
        if endpoints:
            if cfg.alpha_start is None or cfg.alpha_end is None:
                raise ConfigError("alpha_start and alpha_end must be given together")
            if cfg.schedule != "power":
                raise ConfigError("endpoint-solved schedules require schedule=power")
            return StepSchedule.power_from_endpoints(
                cfg.alpha_start, cfg.alpha_end, cfg.sched_p, cfg.iters)
        if cfg.alpha0 is None:
            if cfg.experiment == "run" and cfg.model == "gaussian":
                # largest step the known per-agent curvature admits
                kappa = cfg.model_kappa
                return StepSchedule("harmonic", alpha0=cfg.agents / (4.0 * kappa))
            raise ConfigError("alpha0 is required without alpha_start/alpha_end")
        if cfg.schedule == "harmonic":
            return StepSchedule("harmonic", alpha0=cfg.alpha0)
        offset = 1.0 if cfg.sched_offset is None else cfg.sched_offset
        return StepSchedule("power", alpha0=cfg.alpha0, offset=offset,
                            exponent=cfg.sched_p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_true_w(cfg: ExperimentConfig) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in cfg.true_w.split(",")])
    except ValueError:
        raise ConfigError(f"true_w {cfg.true_w!r} is not a comma-separated float list") from None
    if vec.shape != (cfg.dims,):
        raise ConfigError(f"true_w needs {cfg.dims} entries, got {vec.shape[0]}")
    return vec


def prepare(cfg: ExperimentConfig) -> RunSetup:
    """Validate a configuration and build the objects it describes."""
    if cfg.agents < 1:
        raise ConfigError("agents must be at least 1")
    if cfg.iters < 1:
        raise ConfigError("iters must be at least 1")
    if cfg.stride < 1:
        raise ConfigError("stride must be at least 1")
    if cfg.monitors not in ("on", "off"):
        raise ConfigError("monitors must be 'on' or 'off'")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.batch is not None and cfg.batch < 0:
        raise ConfigError("batch must be 0 (full shard) or positive")

    sched = _build_schedule(cfg)
    if cfg.sigma_sq > 0 and np.sqrt(step_size(sched, 1)) > 1.0 / cfg.sigma_sq:
        raise ConfigError(
            f"schedule violates sqrt(alpha) <= 1/sigma_sq at the first step "
            f"(sqrt(alpha(1))={np.sqrt(step_size(sched, 1)):.4g}, 1/sigma_sq={1.0 / cfg.sigma_sq:.4g})")

    if cfg.graph_kind == "periodic-list":
        raise ConfigError("periodic-list sequences carry explicit graphs; build them in code")
    graph_seed = cfg.seed if cfg.graph_seed is None else cfg.graph_seed
    try:
        seq = generate_graph_sequence(cfg.graph_kind, cfg.agents, cfg.graph_b, graph_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not check_b_strong_connectivity(seq, max(cfg.iters, cfg.graph_b)):
        raise ConfigError("graph sequence is not B-strongly-connected over the horizon")

    noise = NoiseModel(cfg.seed, cfg.agents, cfg.sigma_sq)
    batch_cfg = _DEFAULT_BATCH[cfg.experiment] if cfg.batch is None else cfg.batch
    batch = None if batch_cfg == 0 else batch_cfg

    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "agents": cfg.agents,
        "iters": cfg.iters,
        "stride": cfg.stride,
        "schedule": sched.kind,
        "alpha0": sched.alpha0,
        "sched_offset": sched.offset,
        "sched_p": sched.exponent,
        "graph_kind": cfg.graph_kind,
        "graph_b": cfg.graph_b,
        "graph_seed": graph_seed,
        "batch": batch_cfg,
        "sigma_sq": cfg.sigma_sq,
    }
    extras: dict = {}

    if cfg.experiment == "linreg":
        true_w = _parse_true_w(cfg)
        if cfg.data_sigma <= 0:
            raise ConfigError("data_sigma must be positive")
        ds = generate_linreg_data(cfg.n, cfg.dims, cfg.data_sigma, true_w, cfg.seed)
        shards = _shard(ds, cfg)
        prior = GaussianDist(np.zeros(cfg.dims), np.eye(cfg.dims))
        potential = LinRegPotential(ds, shards, prior, cfg.data_sigma, batch)
        extras["posterior"] = linreg_posterior(ds, prior, cfg.data_sigma)
        # chains start at prior draws; stream [seed, m] is disjoint from the
        # per-agent noise streams [seed, 0..m-1]
        init_rng = np.random.default_rng([cfg.seed, cfg.agents])
        extras["x0"] = prior.mean + init_rng.standard_normal(
            (cfg.agents, cfg.dims)) @ np.linalg.cholesky(prior.cov).T
        metadata.update(n=cfg.n, dims=cfg.dims, data_sigma=cfg.data_sigma,
                        true_w=cfg.true_w,
                        shard_sizes=_sizes(shards))
    elif cfg.experiment == "mixture":
        if cfg.sigma_x_sq <= 0:
            raise ConfigError("sigma_x_sq must be positive")
        sigma_x = float(np.sqrt(cfg.sigma_x_sq))
        ds = generate_mixture_data(cfg.n, cfg.theta1, cfg.theta2, sigma_x, cfg.seed)
        shards = _shard(ds, cfg)
        potential = MixturePotential(ds, shards, sigma_x,
                                     (cfg.prior_var1, cfg.prior_var2), batch)
        metadata.update(n=cfg.n, theta1=cfg.theta1, theta2=cfg.theta2,
                        sigma_x_sq=cfg.sigma_x_sq, prior_var1=cfg.prior_var1,
                        prior_var2=cfg.prior_var2, shard_sizes=_sizes(shards))
    elif cfg.experiment == "logistic":
        ds = _logistic_data(cfg)
        split_seed = cfg.seed if cfg.split_seed is None else cfg.split_seed
        if not 0.0 < cfg.split_frac < 1.0:
            raise ConfigError("split_frac must lie strictly between 0 and 1")
        order = np.random.default_rng(split_seed).permutation(ds.n)
        n_train = int(round(cfg.split_frac * ds.n))
        if n_train < cfg.agents or ds.n - n_train < 1:
            raise ConfigError("split leaves too few rows for training or testing")
        train = Dataset(ds.features[order[:n_train]], ds.targets[order[:n_train]])
        test = Dataset(ds.features[order[n_train:]], ds.targets[order[n_train:]])
        shards = _shard(train, cfg)
        potential = LogisticPotential(train, shards, batch)
        extras["test"] = test
        metadata.update(n=ds.n, dims=ds.dim, dataset=cfg.dataset,
                        surrogate=cfg.surrogate, split_seed=split_seed,
                        split_frac=cfg.split_frac, eval_every=cfg.eval_every,
                        n_train=n_train, shard_sizes=_sizes(shards))
    else:
        if cfg.model != "gaussian":
            raise ConfigError(f"unknown model {cfg.model!r}; registered: gaussian")
        if cfg.model_kappa <= 0:
            raise ConfigError("model_kappa must be positive")
        potential = GaussianPotential(np.zeros(cfg.model_dim),
                                      np.eye(cfg.model_dim) / cfg.model_kappa,
                                      cfg.agents)
        metadata.update(model=cfg.model, model_dim=cfg.model_dim,
                        model_kappa=cfg.model_kappa)

    metadata["monitors"] = cfg.monitors
    return RunSetup(cfg=cfg, seq=seq, sched=sched, noise=noise,
                    potential=potential, metadata=metadata, extras=extras)


def _shard(ds: Dataset, cfg: ExperimentConfig):
    try:
        return partition(ds, cfg.agents, "random", cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sizes(shards) -> str:
    return "/".join(str(len(s.indices)) for s in shards)


def _logistic_data(cfg: ExperimentConfig) -> Dataset:
    if os.path.exists(cfg.dataset):
        return load_libsvm(cfg.dataset, num_features=cfg.dims)
    if cfg.surrogate == "on":
        return make_surrogate_classification(cfg.n, cfg.dims, cfg.seed)
    raise ConfigError(
        f"dataset file {cfg.dataset!r} not found; place the libsvm file there "
        f"or pass --surrogate on")


def run_experiment(cfg: ExperimentConfig, setup: RunSetup | None = None):
    """Run one configured experiment and return its trace."""
    if setup is None:
        setup = prepare(cfg)
    trace = run(setup.seq, setup.sched, setup.potential, setup.noise,
                cfg.iters, cfg.stride, x0=setup.extras.get("x0"))
    return trace


def linreg_w2_series(trace, posterior: GaussianDist):
    """Per-agent distances between trailing-window fits and the posterior.

    At every recorded iteration t each agent's samples in (t/2, t] are fit
    with a Gaussian once the window holds dim + 1 points; earlier entries
    are NaN.  Returns (paper, bures) arrays of shape (n_records, agents).
    """
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


def logistic_auc_series(trace, test: Dataset, eval_every: int):
    """Per-agent test ROC-AUC at recorded multiples of ``eval_every``.

    The final iteration is always evaluated.  Returns (eval_ts, aucs) with
    aucs of shape (n_evals, agents).
    """
    picks = [k for k, t in enumerate(trace.ts)
             if t > 0 and (t % eval_every == 0 or t == trace.num_iters)]
    aucs = np.zeros((len(picks), trace.num_agents))
    for row, k in enumerate(picks):
        for i in range(trace.num_agents):
            scores = test.features @ trace.states[k, i]
            aucs[row, i] = roc_auc(scores, test.targets)
    return trace.ts[picks], aucs


def _monitor_metadata(trace, metadata: dict) -> None:
    report = check_lemma4_bound(trace)
    metadata.update(lemma4_violated=report.violated,
                    lemma4_max_ratio=report.max_ratio,
                    lemma4_delta=report.delta,
                    lemma4_lambda=report.lam,
                    lemma4_d_hat=report.d_hat)


def cmd_linreg(cfg: ExperimentConfig) -> int:
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    paper, bures = linreg_w2_series(trace, setup.extras["posterior"])
    if cfg.monitors == "on":
        _monitor_metadata(trace, setup.metadata)
    header = ["t", "alpha", "w2_paper", "w2_bures"] + \
        [f"consensus_error_agent_{i}" for i in range(trace.num_agents)]
    rows = []
    for k in range(len(trace.ts)):
        rows.append([int(trace.ts[k]), trace.alphas[k],
                     float(np.mean(paper[k])), float(np.mean(bures[k]))]
                    + [float(c) for c in trace.consensus[k]])
    out = cfg.out or "linreg.csv"
    write_csv(out, setup.metadata, header, rows)
    final = paper[-1]
    print(f"linreg: wrote {out}; final mean W2 {np.mean(final):.4f} "
          f"(paper form), {np.mean(bures[-1]):.4f} (exact)")
    return 0


def cmd_mixture(cfg: ExperimentConfig) -> int:
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    if cfg.monitors == "on":
        _monitor_metadata(trace, setup.metadata)
    m = trace.num_agents
    header = ["t", "alpha"] + \
        [f"theta1_agent_{i}" for i in range(m)] + \
        [f"theta2_agent_{i}" for i in range(m)] + \
        [f"consensus_error_agent_{i}" for i in range(m)]
    rows = []
    for k in range(len(trace.ts)):
        rows.append([int(trace.ts[k]), trace.alphas[k]]
                    + [float(v) for v in trace.states[k, :, 0]]
                    + [float(v) for v in trace.states[k, :, 1]]
                    + [float(c) for c in trace.consensus[k]])
    out = cfg.out or "mixture.csv"
    write_csv(out, setup.metadata, header, rows)
    burn = len(trace.ts) // 5
    post = trace.states[burn:]
    near_a = np.linalg.norm(post - np.array([cfg.theta1, cfg.theta2]), axis=2) < 0.5
    flipped = np.array([cfg.theta1 + cfg.theta2, -cfg.theta2])
    near_b = np.linalg.norm(post - flipped, axis=2) < 0.5
    print(f"mixture: wrote {out}; post-burn-in occupancy near the two modes "
          f"{near_a.mean():.2f} / {near_b.mean():.2f}")
    return 0


def cmd_logistic(cfg: ExperimentConfig) -> int:
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"], cfg.eval_every)
    if cfg.monitors == "on":
        _monitor_metadata(trace, setup.metadata)
    m = trace.num_agents
    header = ["t", "alpha"] + [f"auc_agent_{i}" for i in range(m)] + ["auc_mean"]
    rows = []
    for row, t in enumerate(eval_ts):
        alpha = step_size(setup.sched, int(t))
        rows.append([int(t), alpha] + [float(a) for a in aucs[row]]
                    + [float(np.mean(aucs[row]))])
    out = cfg.out or "logistic.csv"
    write_csv(out, setup.metadata, header, rows)
    print(f"logistic: wrote {out}; final mean test AUC {np.mean(aucs[-1]):.4f}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    report = None
    if cfg.monitors == "on":
        report = check_lemma4_bound(trace)
        _monitor_metadata(trace, setup.metadata)
    m, d = trace.num_agents, trace.dim
    header = ["t", "alpha"]
    for i in range(m):
        header += [f"x_agent_{i}_dim_{j}" for j in range(d)]
    header += [f"consensus_error_agent_{i}" for i in range(m)]
    header += [f"z_dev_agent_{i}" for i in range(m)]
    if report is not None:
        header += ["lemma4_lhs", "lemma4_bound"]
    rows = []
    for k in range(len(trace.ts)):
        t = int(trace.ts[k])
        row = [t, trace.alphas[k]]
        row += [float(v) for v in trace.states[k].ravel()]
        row += [float(c) for c in trace.consensus[k]]
        # step t-1 carried the network into iteration t
        if t >= 1:
            row += [float(v) for v in trace.z_dev[t - 1]]
        else:
            row += [float("nan")] * m
        if report is not None:
            tau = t - 1
            if tau >= 1:
                row += [float(report.lhs[tau - 1]), float(report.bound[tau - 1])]
            else:
                row += [float("nan"), float("nan")]
        rows.append(row)
    out = cfg.out or "run.csv"
    write_csv(out, setup.metadata, header, rows)
    note = ""
    if report is not None:
        note = f"; deviation bound {'VIOLATED' if report.violated else 'held'} " \
               f"(max ratio {report.max_ratio:.2e})"
    print(f"run: wrote {out}{note}")
    return 0


_COMMANDS = {"linreg": cmd_linreg, "mixture": cmd_mixture,
             "logistic": cmd_logistic, "run": cmd_run}

_HELP = {
    "linreg": "Bayesian linear regression against its conjugate posterior",
    "mixture": "bimodal Gaussian-mixture posterior over two location offsets",
    "logistic": "L1-regularized logistic regression scored by test ROC-AUC",
    "run": "generic run of a registered model with optional bound monitors",
}


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    for f in fields(ExperimentConfig):
        if f.name == "experiment":
            continue
        parser.add_argument(f"--{f.name}", type=_FIELD_TYPES[f.name],
                            default=None, metavar=f.name.upper())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="declangevin",
        description="decentralized Langevin sampling experiments over "
                    "directed time-varying graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS:
        _add_flags(sub.add_parser(name, help=_HELP[name]))
    args = parser.parse_args(argv)

    try:
        file_overrides = load_config_file(args.config) if args.config else {}
        cli_overrides = {f.name: getattr(args, f.name)
                         for f in fields(ExperimentConfig) if f.name != "experiment"}
        cfg = build_config(args.command, file_overrides, cli_overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
