"""Command-line experiments: linreg, mixture, logistic and a generic run.

Configuration is a flat set of key=value fields.  Defaults depend on the
subcommand (the minibatch, for one: linreg 1, logistic 32, mixture and run
0, the full shard), a JSON config file (one flat object) overrides them,
and a flag of the same name overrides both.  Each subcommand accepts only
the fields it reads, as flags and as config keys; it refuses the rest.

Every subcommand runs the same path: prepare, sample, check the deviation
bound if monitors are on, write the experiment's table as one CSV and
print one line "<subcommand>: wrote <out>; <summary>".  The CSV's '#'
header echoes the resolved configuration, so a result file is
self-describing and two runs with equal configuration and seed are
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

from .graphs import generate_graph_sequence, spectral_bounds
from .langevin import NoiseModel, StepSchedule, _row_norms, run
from .metrics import (COV_RIDGE, _classes, _sorted_auc, check_lemma4_bound,
                      w2_gaussian_bures, w2_gaussian_paper)
from .models import (Dataset, GaussianDist, GaussianPotential, LinRegPotential,
                     LogisticPotential, MixturePotential,
                     generate_linreg_data, generate_mixture_data,
                     linreg_posterior, load_libsvm,
                     make_surrogate_classification, partition)
from .trace import _CHUNK_BYTES, write_csv

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "build_config",
    "prepare",
    "run_experiment",
    "main",
    "linreg_w2_series",
    "logistic_auc_series",
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
    sched_p: float | None = None
    alpha_start: float | None = None
    alpha_end: float | None = None
    batch: int = 0
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
    model_dim: int = 2
    model_kappa: float = 1.0


def _coercion_type(hint) -> type:
    """The type a config value is coerced to: ``X`` for ``X`` or ``X | None``."""
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


_FIELD_TYPES = {name: _coercion_type(hint)
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}

# Each subcommand's defaults where they differ from ExperimentConfig's.
# batch 0 means the full shard; the mixture gradient uses each node's whole
# sample set, the regression experiments subsample
_DEFAULTS = {
    "linreg": dict(iters=200, alpha_start=0.008, alpha_end=0.0005, batch=1),
    "mixture": dict(iters=10000, alpha_start=0.01, alpha_end=0.0001),
    "logistic": dict(n=32561, dims=123, alpha0=0.008, sched_offset=12.0,
                     sched_p=0.45, batch=32),
    "run": dict(schedule="harmonic"),
}
# Fields that must be positive, and counts that must be at least 1; prepare
# checks them before anything is drawn.  A field its subcommand does not
# read holds its valid default.
_POSITIVE = ("data_sigma", "sigma_x_sq", "prior_var1", "prior_var2",
             "model_kappa")
# eval_every is checked before the stride that logistic derives from it
_AT_LEAST_ONE = ("agents", "iters", "eval_every", "stride", "n", "dims",
                 "model_dim")

# the AUC series' chunk buffer, the only copy of the test scores it holds,
# split by class: about 40 states' scores on a 6512-row test set
_AUC_CHUNK_BYTES = 2 << 20
# test rows cast to float64 at once for those scores; 2 MiB tiles would
# lift logistic's peak by 1.6 MB
_AUC_TILE_BYTES = 256 << 10


def build_config(experiment: str, *override_maps) -> ExperimentConfig:
    """Resolve a configuration from experiment defaults plus overrides.

    Later maps win; None values are ignored.  Unknown keys, keys the
    experiment does not read and mistyped values raise :class:`ConfigError`.
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
            if key not in _READS[experiment]:
                raise ConfigError(f"{experiment} does not read config key {key!r}")
            if value is None:
                continue
            want = _FIELD_TYPES[key]
            try:
                # JSON true and false are not numbers, nor is 1e400 an int
                if isinstance(value, bool) or (want is int and isinstance(value, float)
                                               and not value.is_integer()):
                    raise ValueError
                merged[key] = want(value)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {key!r} expects {want.__name__}, got {value!r}") from None
    if experiment == "logistic":
        # logistic records exactly the iterations it scores
        merged["stride"] = merged["eval_every"]
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
    """The configured schedule; a schedule field set away from its
    subcommand default that the schedule would not read is refused, not
    dropped."""
    endpoints = cfg.alpha_start is not None or cfg.alpha_end is not None
    unread = (("alpha0", "sched_offset") if endpoints else
              ("sched_offset", "sched_p") if cfg.schedule == "harmonic" else ())
    defaults = _DEFAULTS[cfg.experiment]
    given = [name for name in unread
             if getattr(cfg, name) not in (None, defaults.get(name))]
    if given:
        form = "endpoint-solved" if endpoints else "harmonic"
        raise ConfigError(f"{form} schedules do not read {' or '.join(given)}")
    exponent = 0.65 if cfg.sched_p is None else cfg.sched_p
    try:
        if endpoints:
            if cfg.alpha_start is None or cfg.alpha_end is None:
                raise ConfigError("alpha_start and alpha_end must be given together")
            if cfg.schedule != "power":
                raise ConfigError("endpoint-solved schedules require schedule=power")
            return StepSchedule.power_from_endpoints(
                cfg.alpha_start, cfg.alpha_end, exponent, cfg.iters)
        alpha0 = cfg.alpha0
        if alpha0 is None and cfg.schedule == "harmonic" and cfg.experiment == "run":
            # largest step the known per-agent curvature admits
            alpha0 = cfg.agents / (4.0 * cfg.model_kappa)
        if alpha0 is None:
            raise ConfigError("alpha0 is required without alpha_start/alpha_end")
        if cfg.schedule == "harmonic":
            return StepSchedule("harmonic", alpha0=alpha0)
        offset = 1.0 if cfg.sched_offset is None else cfg.sched_offset
        return StepSchedule(cfg.schedule, alpha0=alpha0, offset=offset,
                            exponent=exponent)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_true_w(cfg: ExperimentConfig) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in cfg.true_w.split(",")])
    except ValueError:
        raise ConfigError(f"true_w {cfg.true_w!r} is not a comma-separated float list") from None
    if vec.shape != (cfg.dims,):
        raise ConfigError(f"true_w needs {cfg.dims} entries, got {vec.shape[0]}")
    if not np.isfinite(vec).all():
        raise ConfigError("true_w must be finite")
    return vec


def prepare(cfg: ExperimentConfig) -> RunSetup:
    """Validate a configuration and build the objects it describes."""
    if cfg.experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.experiment == "logistic" and cfg.stride != cfg.eval_every:
        raise ConfigError(f"logistic records the iterations it scores, so "
                          f"stride={cfg.stride} must equal eval_every={cfg.eval_every}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # a field the subcommand does not read holds its default (stride: see above)
        if (value != f.default and f.name not in _READS[cfg.experiment]
                and f.name not in ("experiment", "stride")):
            raise ConfigError(f"{cfg.experiment} does not read {f.name}, set to {value!r}")
        # a line break would split the CSV's metadata lines
        if isinstance(value, str) and ("\r" in value or "\n" in value):
            raise ConfigError(f"{f.name} holds a line break")
    for name in _AT_LEAST_ONE:
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    if cfg.experiment == "logistic" and cfg.eval_every > cfg.iters:
        raise ConfigError(f"eval_every={cfg.eval_every} exceeds iters="
                          f"{cfg.iters}, so no iteration would be scored")
    if cfg.monitors not in ("on", "off"):
        raise ConfigError("monitors must be 'on' or 'off'")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.batch < 0:
        raise ConfigError("batch must be 0 (full shard) or positive")
    # model and data fields, written as "not x > 0" so that NaN fails, and
    # then finite; the automatic step size of run divides by model_kappa
    for name in _POSITIVE:
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive")
    for name in _POSITIVE + ("theta1", "theta2"):
        if not np.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    true_w = _parse_true_w(cfg) if cfg.experiment == "linreg" else None

    sched = _build_schedule(cfg)
    if cfg.graph_kind == "periodic-list":
        raise ConfigError("periodic-list sequences carry explicit graphs; build them in code")
    graph_seed = cfg.seed if cfg.graph_seed is None else cfg.graph_seed
    try:
        seq = generate_graph_sequence(cfg.graph_kind, cfg.agents, cfg.graph_b, graph_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.monitors == "on":
        # the bound monitor needs the closed-form constants; find out
        # before sampling whether they exist
        try:
            spectral_bounds(cfg.agents, cfg.graph_b)
        except ValueError as exc:
            raise ConfigError("--monitors on needs the closed-form mixing "
                              f"bounds, but {exc}") from None

    noise = NoiseModel(cfg.seed, cfg.agents)
    batch = cfg.batch or None

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
    }
    if cfg.experiment == "run":
        # names the target run samples; no option chooses it
        metadata["model"] = "gaussian"
    metadata.update((name, getattr(cfg, name))
                    for name in _EXPERIMENTS[cfg.experiment][1])
    extras: dict = {}

    if cfg.experiment == "linreg":
        ds = generate_linreg_data(cfg.n, cfg.dims, cfg.data_sigma, true_w, cfg.seed)
        shards = _shard(ds, cfg)
        prior = GaussianDist(np.zeros(cfg.dims), np.eye(cfg.dims))
        potential = LinRegPotential(ds, shards, prior, cfg.data_sigma, batch)
        extras["posterior"] = linreg_posterior(ds, prior, cfg.data_sigma)
        # chains start at prior draws; stream [seed, m] is disjoint from the
        # per-agent noise streams [seed, i] and [seed, i, 1], i < m
        init_rng = np.random.default_rng([cfg.seed, cfg.agents])
        extras["x0"] = prior.mean + init_rng.standard_normal(
            (cfg.agents, cfg.dims)) @ np.linalg.cholesky(prior.cov).T
        metadata["shard_sizes"] = _sizes(shards)
    elif cfg.experiment == "mixture":
        sigma_x = float(np.sqrt(cfg.sigma_x_sq))
        ds = generate_mixture_data(cfg.n, cfg.theta1, cfg.theta2, sigma_x, cfg.seed)
        shards = _shard(ds, cfg)
        potential = MixturePotential(ds, shards, sigma_x,
                                     (cfg.prior_var1, cfg.prior_var2), batch)
        metadata["shard_sizes"] = _sizes(shards)
    elif cfg.experiment == "logistic":
        ds = _logistic_data(cfg)
        split_seed = cfg.seed if cfg.split_seed is None else cfg.split_seed
        if not 0.0 < cfg.split_frac < 1.0:
            raise ConfigError("split_frac must lie strictly between 0 and 1")
        order = np.random.default_rng(split_seed).permutation(ds.n)
        n_train = int(round(cfg.split_frac * ds.n))
        if n_train < cfg.agents or ds.n - n_train < 1:
            raise ConfigError("split leaves too few rows for training or testing")
        test = Dataset(ds.features[order[n_train:]], ds.targets[order[n_train:]])
        n_pos = int((test.targets == 1.0).sum())
        if n_pos in (0, test.n):
            raise ConfigError(
                f"the test split holds {n_pos} positive and {test.n - n_pos} "
                f"negative rows; its ROC-AUC needs both classes")
        # the training shards as rows of the full dataset
        shards = [order[:n_train][s] for s in _shard(n_train, cfg)]
        potential = LogisticPotential(ds, shards, batch)
        extras["test"] = test
        # the derived values replace the configured ones in place
        metadata.update(n=ds.n, dims=ds.dim, split_seed=split_seed,
                        n_train=n_train, shard_sizes=_sizes(shards))
    else:
        potential = GaussianPotential(np.zeros(cfg.model_dim),
                                      np.eye(cfg.model_dim) / cfg.model_kappa,
                                      cfg.agents)

    metadata["monitors"] = cfg.monitors
    return RunSetup(cfg=cfg, seq=seq, sched=sched, noise=noise,
                    potential=potential, metadata=metadata, extras=extras)


def _shard(ds: Dataset | int, cfg: ExperimentConfig):
    try:
        return partition(ds, cfg.agents, "random", cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sizes(shards) -> str:
    return "/".join(str(len(s)) for s in shards)


def _logistic_data(cfg: ExperimentConfig) -> Dataset:
    if os.path.exists(cfg.dataset):
        # surrogate fields set away from their defaults are refused, not dropped
        defaults = build_config(cfg.experiment)
        unread = [f"{name}={getattr(cfg, name)}" for name in ("surrogate", "n")
                  if getattr(cfg, name) != getattr(defaults, name)]
        if unread:
            raise ConfigError(f"dataset file {cfg.dataset!r} exists, so "
                              f"{' and '.join(unread)} would not be read")
        return load_libsvm(cfg.dataset, num_features=cfg.dims)
    if cfg.surrogate == "on":
        return make_surrogate_classification(cfg.n, cfg.dims, cfg.seed)
    raise ConfigError(
        f"dataset file {cfg.dataset!r} not found; place the libsvm file there "
        f"or pass --surrogate on")


def run_experiment(cfg: ExperimentConfig, setup: RunSetup | None = None):
    """Run one configured experiment and return its trace; ``setup``, when
    given, must be prepared from ``cfg``.  Only ``run``'s table reads the
    recorded deviations, so only its trace keeps them."""
    if setup is None:
        setup = prepare(cfg)
    elif setup.cfg != cfg:
        raise ValueError("setup was prepared from another configuration")
    return run(setup.seq, setup.sched, setup.potential, setup.noise,
               cfg.iters, cfg.stride, x0=setup.extras.get("x0"),
               keep_dev=cfg.experiment == "run")


def linreg_w2_series(trace, posterior: GaussianDist):
    """Per-agent distances between trailing-window fits and the posterior.

    At every recorded iteration t each agent's samples in (t/2, t] are fit
    with a Gaussian once the window holds dim + 1 points; earlier entries
    are NaN.  The fits are :func:`empirical_gaussian`'s, from prefix sums of
    x - mu and its outer products formed in place, centred on the posterior
    mean mu so that they do not cancel; the windows are fit 64 KiB of
    records at a time.  Returns (paper, bures), each (n_records, agents).
    """
    n_rec, m, d = trace.states.shape
    first = np.pad(trace.states - posterior.mean, [(1, 0), (0, 0), (0, 0)])
    second = first[..., :, None] * first[..., None, :]
    np.cumsum(first, axis=0, out=first)
    np.cumsum(second, axis=0, out=second)
    # record k's window sums are the prefix differences (lo[k], k + 1]
    lo = np.searchsorted(trace.ts, trace.ts / 2, side="right")
    full = np.flatnonzero(np.arange(1, n_rec + 1) - lo > d)
    w2 = np.full((2, n_rec, m), np.nan)
    width = max(1, _CHUNK_BYTES // second[0].nbytes)
    for start in range(0, len(full), width):
        k = full[start:start + width]
        a, b = lo[k], k + 1
        n = (b - a)[:, None, None, None]
        s1 = first[b] - first[a]
        cov = (second[b] - second[a] - s1[..., :, None] * s1[..., None, :] / n) / (n - 1)
        cov += COV_RIDGE * np.eye(d)
        fit = GaussianDist(posterior.mean + s1 / n[..., 0], cov)
        # the posterior first, so that its square root is taken once
        w2[:, k] = w2_gaussian_paper(fit, posterior), w2_gaussian_bures(posterior, fit)
    return tuple(w2)


def logistic_auc_series(trace, test: Dataset):
    """Per-agent test ROC-AUC at every recorded iteration after 0.

    The agent states are scored in chunks into one buffer of about 2 MiB,
    the only copy of the scores: each tile of test rows is gathered in
    label order, positives first, cast to float64 and multiplied straight
    into the chunk's columns, and the two class blocks are sorted in place
    and counted as ``roc_auc`` counts them.  Returns (eval_ts, aucs) with aucs
    of shape (n_records - 1, agents).
    """
    pos, neg = _classes(test.targets)
    lab = np.concatenate([pos, neg])  # the test rows in column order
    m, states = trace.num_agents, trace.states[1:].reshape(-1, trace.dim)
    aucs = np.empty(len(states))
    width = max(1, _AUC_CHUNK_BYTES // (8 * test.n))
    scores = np.empty((min(width, len(states)), test.n))
    tile = max(1, _AUC_TILE_BYTES // (8 * test.dim))
    for start in range(0, len(states), width):
        rows = states[start:start + width]
        out = scores[:len(rows)]
        for lo in range(0, test.n, tile):
            # the gathered tile goes straight to the product: none outlives it
            np.matmul(rows, test.features[lab[lo:lo + tile]].astype(float, copy=False).T,
                      out=out[:, lo:lo + tile])
        out[:, :len(pos)].sort(axis=1)
        out[:, len(pos):].sort(axis=1)
        aucs[start:start + width] = _sorted_auc(out[:, :len(pos)], out[:, len(pos):])
    return trace.ts[1:], aucs.reshape(-1, m)


def _monitor_metadata(trace, setup: RunSetup):
    """Check the deviation bound at the run's window length, record its
    outcome in the metadata and return the report."""
    report = check_lemma4_bound(trace, window_len=setup.seq.window_len)
    setup.metadata.update(lemma4_violated=report.violated,
                          lemma4_max_ratio=report.max_ratio,
                          lemma4_delta=report.delta,
                          lemma4_lambda=report.lam,
                          lemma4_d_hat=trace.max_pert)
    return report


def _per_agent(m: int, *names) -> list:
    """Column names "<name>_agent_<i>", i < m, for each name in turn."""
    return [f"{name}_agent_{i}" for name in names for i in range(m)]


def _linreg_table(trace, setup: RunSetup, report):
    paper, bures = linreg_w2_series(trace, setup.extras["posterior"])
    header = ["t", "alpha", "w2_paper", "w2_bures"] + \
        _per_agent(trace.num_agents, "consensus_error")
    table = (trace.ts, trace.alphas, paper.mean(axis=1), bures.mean(axis=1),
             trace.consensus)
    return header, table, (f"final mean W2 {np.mean(paper[-1]):.4f} (paper "
                           f"form), {np.mean(bures[-1]):.4f} (exact)")


def _mixture_table(trace, setup: RunSetup, report):
    # the unused report is freed; the occupancy of each mode's ball is
    # counted a chunk of records at a time, each distance squared in place
    del report
    cfg, post = setup.cfg, trace.states[len(trace.states) // 5:]
    modes = np.array([[cfg.theta1, cfg.theta2], [cfg.theta1 + cfg.theta2, -cfg.theta2]])
    near = np.zeros(2, dtype=int)
    width = max(1, _CHUNK_BYTES // post[0].nbytes)
    for lo in range(0, len(post), width):
        near += [np.count_nonzero(_row_norms(post[lo:lo + width] - mode) < 0.5)
                 for mode in modes]
    near_a, near_b = near / post[..., 0].size
    summary = (f"post-burn-in occupancy near the two modes "
               f"{near_a:.2f} / {near_b:.2f}")
    header = ["t", "alpha"] + _per_agent(trace.num_agents, "theta1", "theta2",
                                         "consensus_error")
    return header, (trace.ts, trace.alphas, trace.states[:, :, 0],
                    trace.states[:, :, 1], trace.consensus), summary


def _logistic_table(trace, setup: RunSetup, report):
    eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"])
    header = ["t", "alpha"] + _per_agent(trace.num_agents, "auc") + ["auc_mean"]
    table = (eval_ts, trace.alphas[1:], aucs, aucs.mean(axis=1))
    return header, table, f"final mean test AUC {np.mean(aucs[-1]):.4f}"


def _run_table(trace, setup: RunSetup, report):
    m, d = trace.num_agents, trace.dim
    header = ["t", "alpha"] + [f"x_agent_{i}_dim_{j}" for i in range(m)
                               for j in range(d)]
    header += _per_agent(m, "consensus_error", "z_dev")
    ts = trace.ts
    table = [ts, trace.alphas, trace.states.reshape(len(ts), m * d),
             trace.consensus, trace.record_dev]
    if report is None:
        return header, table, ""
    header += ["lemma4_lhs", "lemma4_bound"]
    # the report's prefix tau = t-1 >= 1 sits at its index tau-1 = t-2: the
    # records from the first at t >= 2 on read every stride-th prefix
    first = int(np.searchsorted(ts, 2))
    prefixes = slice(first * trace.stride - 2, None, trace.stride)
    lemma4 = np.full((len(ts), 2), np.nan)
    lemma4[first:, 0] = trace.worst_cum_dev[prefixes]
    lemma4[first:, 1] = report.bound[prefixes]
    table.append(lemma4)
    return header, table, (
        f"deviation bound {'VIOLATED' if report.violated else 'held'} "
        f"(max ratio {report.max_ratio:.2e})")


# subcommand -> (help text, the fields it reads besides the shared ones,
# table).  Its flags, its config keys and its CSV header's echo are these
# fields; a table maps (trace, setup, bound report or None) to the CSV
# header, its columns (ts first) and the summary after "wrote <out>".
_EXPERIMENTS = {
    "linreg": ("Bayesian linear regression against its conjugate posterior",
               ("stride", "batch", "n", "dims", "data_sigma", "true_w"),
               _linreg_table),
    "mixture": ("bimodal Gaussian-mixture posterior over two location offsets",
                ("stride", "batch", "n", "theta1", "theta2", "sigma_x_sq",
                 "prior_var1", "prior_var2"), _mixture_table),
    "logistic": ("L1-regularized logistic regression scored by test ROC-AUC",
                 ("batch", "n", "dims", "dataset", "surrogate", "split_seed",
                  "split_frac", "eval_every"), _logistic_table),
    "run": ("generic run of a Gaussian target with optional bound monitors",
            ("stride", "model_dim", "model_kappa"), _run_table),
}
# the fields every subcommand reads, and all that each one reads, in
# ExperimentConfig's order
_SHARED = tuple(name for name in _FIELD_TYPES if name != "experiment" and
                all(name not in own for _, own, _ in _EXPERIMENTS.values()))
_READS = {name: tuple(f for f in _FIELD_TYPES if f in _SHARED or f in own)
          for name, (_, own, _) in _EXPERIMENTS.items()}


def _command(cfg: ExperimentConfig) -> int:
    """Run one subcommand: prepare, sample, check the bound if monitors are
    on, write the experiment's table and print one line."""
    # refused before any draw; opened only once the table is ready
    out = cfg.out or f"{cfg.experiment}.csv"
    if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"--out {out!r} is a directory or lies in a missing one")
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    # the report goes straight to the table, which alone holds it; the
    # write keeps only the trace arrays that the table holds
    header, table, summary = _EXPERIMENTS[cfg.experiment][2](
        trace, setup, _monitor_metadata(trace, setup) if cfg.monitors == "on" else None)
    del trace
    write_csv(out, setup.metadata, header, *table)
    print(f"{cfg.experiment}: wrote {out}" + (f"; {summary}" if summary else ""))
    return 0


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    for name in names:
        parser.add_argument(f"--{name}", type=_FIELD_TYPES[name],
                            default=None, metavar=name.upper())


def main(argv=None) -> int:
    # no abbreviations: a prefix of one field's flag must not set another
    parser = argparse.ArgumentParser(
        prog="declangevin", allow_abbrev=False,
        description="decentralized Langevin sampling experiments over "
                    "directed time-varying graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _EXPERIMENTS.items():
        _add_flags(sub.add_parser(name, help=help_text, allow_abbrev=False),
                   _READS[name])
    cli_overrides = vars(parser.parse_args(argv))
    experiment, config = cli_overrides.pop("command"), cli_overrides.pop("config")

    try:
        file_overrides = load_config_file(config) if config else {}
        return _command(build_config(experiment, file_overrides, cli_overrides))
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
