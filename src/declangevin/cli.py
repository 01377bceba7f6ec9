"""Command-line experiments: linreg, mixture, logistic and a generic run.

Configuration is a flat set of key=value fields.  Defaults depend on the
subcommand (the minibatch, for one: linreg 1, logistic 32, mixture and run
0, the full shard), a JSON config file (one flat object) overrides them,
and any field can be overridden again by a flag of the same name.

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
import math
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .graphs import (check_b_strong_connectivity, generate_graph_sequence,
                     spectral_bounds)
from .langevin import NoiseModel, StepSchedule, run, step_size
from .metrics import (COV_RIDGE, check_lemma4_bound, roc_auc,
                      w2_gaussian_bures, w2_gaussian_paper)
from .models import (Dataset, GaussianDist, GaussianPotential, LinRegPotential,
                     LogisticPotential, MixturePotential, Shard,
                     generate_linreg_data, generate_mixture_data,
                     linreg_posterior, load_libsvm,
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
    batch: int = 0
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

# batch 0 means the full shard; the mixture gradient uses each node's whole
# sample set, the regression experiments subsample
_DEFAULTS = {
    "linreg": dict(iters=200, n=800, dims=2, data_sigma=1.0, true_w="1.0,-1.0",
                   schedule="power", alpha_start=0.008, alpha_end=0.0005,
                   sched_p=0.65, batch=1),
    "mixture": dict(iters=10000, n=800, schedule="power", alpha_start=0.01,
                    alpha_end=0.0001, sched_p=0.65),
    "logistic": dict(iters=1000, n=32561, dims=123, schedule="power",
                     alpha0=0.008, sched_offset=12.0, sched_p=0.45, batch=32),
    "run": dict(iters=1000, schedule="harmonic"),
}
# Fields of each experiment that must be positive, and counts that must be
# at least 1; prepare checks them before anything is drawn.
_POSITIVE = {"run": ("model_kappa",), "linreg": ("data_sigma",),
             "mixture": ("sigma_x_sq", "prior_var1", "prior_var2")}
_AT_LEAST_ONE = {"run": ("model_dim",), "linreg": ("n",), "mixture": ("n",),
                 "logistic": ("dims",)}

# test scores held at once while the AUC series is computed: about 40
# states' scores on a 6512-row test set
_AUC_CHUNK_BYTES = 2 << 20


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
    # a line break would split the CSV's metadata lines
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, str) and ("\r" in value or "\n" in value):
            raise ConfigError(f"{f.name} holds a line break")
    for name in ("agents", "iters", "stride", "eval_every"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    if cfg.monitors not in ("on", "off"):
        raise ConfigError("monitors must be 'on' or 'off'")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.batch < 0:
        raise ConfigError("batch must be 0 (full shard) or positive")
    if cfg.sigma_sq < 0:
        raise ConfigError("sigma_sq must be nonnegative")
    # model and data fields, written as "not x > 0" so that NaN fails; the
    # automatic step size of run divides by model_kappa
    for name in _POSITIVE.get(cfg.experiment, ()):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive")
    for name in _AT_LEAST_ONE.get(cfg.experiment, ()):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")

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
    if cfg.monitors == "on":
        # the bound monitor needs the closed-form constants; find out
        # before sampling whether they exist
        try:
            spectral_bounds(cfg.agents, cfg.graph_b)
        except ValueError as exc:
            raise ConfigError("--monitors on needs the closed-form mixing "
                              f"bounds, but {exc}") from None
    if not check_b_strong_connectivity(seq, max(cfg.iters, cfg.graph_b)):
        raise ConfigError("graph sequence is not B-strongly-connected over the horizon")

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
        "batch": cfg.batch,
        "sigma_sq": cfg.sigma_sq,
    }
    extras: dict = {}

    if cfg.experiment == "linreg":
        true_w = _parse_true_w(cfg)
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
        metadata.update(n=cfg.n, dims=cfg.dims, data_sigma=cfg.data_sigma,
                        true_w=cfg.true_w,
                        shard_sizes=_sizes(shards))
    elif cfg.experiment == "mixture":
        sigma_x = float(np.sqrt(cfg.sigma_x_sq))
        ds = generate_mixture_data(cfg.n, cfg.theta1, cfg.theta2, sigma_x, cfg.seed)
        shards = _shard(ds, cfg)
        potential = MixturePotential(ds, shards, sigma_x,
                                     (cfg.prior_var1, cfg.prior_var2), batch)
        metadata.update(n=cfg.n, theta1=cfg.theta1, theta2=cfg.theta2,
                        sigma_x_sq=cfg.sigma_x_sq, prior_var1=cfg.prior_var1,
                        prior_var2=cfg.prior_var2, shard_sizes=_sizes(shards))
    elif cfg.experiment == "logistic":
        # the AUC series scores recorded multiples of eval_every and the
        # final iteration if it is recorded
        if cfg.iters % cfg.stride and math.lcm(cfg.stride, cfg.eval_every) > cfg.iters:
            raise ConfigError(
                f"iters={cfg.iters}, stride={cfg.stride} and eval_every="
                f"{cfg.eval_every} leave no evaluation point: no recorded "
                f"iteration is a multiple of eval_every, and the last one "
                f"is not recorded")
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
        # the training shards as rows of the full dataset, which the
        # potential gathers once
        shards = [Shard(s.agent, order[:n_train][s.indices])
                  for s in _shard(n_train, cfg)]
        potential = LogisticPotential(ds, shards, batch)
        extras["test"] = test
        metadata.update(n=ds.n, dims=ds.dim, dataset=cfg.dataset,
                        surrogate=cfg.surrogate, split_seed=split_seed,
                        split_frac=cfg.split_frac, eval_every=cfg.eval_every,
                        n_train=n_train, shard_sizes=_sizes(shards))
    else:
        if cfg.model != "gaussian":
            raise ConfigError(f"unknown model {cfg.model!r}; registered: gaussian")
        potential = GaussianPotential(np.zeros(cfg.model_dim),
                                      np.eye(cfg.model_dim) / cfg.model_kappa,
                                      cfg.agents)
        metadata.update(model=cfg.model, model_dim=cfg.model_dim,
                        model_kappa=cfg.model_kappa)

    metadata["monitors"] = cfg.monitors
    return RunSetup(cfg=cfg, seq=seq, sched=sched, noise=noise,
                    potential=potential, metadata=metadata, extras=extras)


def _shard(ds: Dataset | int, cfg: ExperimentConfig):
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
    return run(setup.seq, setup.sched, setup.potential, setup.noise,
               cfg.iters, cfg.stride, x0=setup.extras.get("x0"))


def linreg_w2_series(trace, posterior: GaussianDist):
    """Per-agent distances between trailing-window fits and the posterior.

    At every recorded iteration t each agent's samples in (t/2, t] are fit
    with a Gaussian once the window holds dim + 1 points; earlier entries
    are NaN.  The fits are :func:`empirical_gaussian`'s, from prefix sums of
    x - mu and its outer products, centred on the posterior mean mu so that
    they do not cancel.  Returns (paper, bures), each (n_records, agents).
    """
    x = np.pad(trace.states - posterior.mean, [(1, 0), (0, 0), (0, 0)])
    first = np.cumsum(x, axis=0)
    second = np.cumsum(x[..., :, None] * x[..., None, :], axis=0)
    lo = np.searchsorted(trace.ts, trace.ts / 2, side="right")
    hi = np.arange(1, len(lo) + 1)
    full = hi - lo > trace.dim
    lo, hi = lo[full], hi[full]
    n = (hi - lo)[:, None, None, None]
    s1 = first[hi] - first[lo]
    cov = (second[hi] - second[lo] - s1[..., :, None] * s1[..., None, :] / n) / (n - 1)
    cov += COV_RIDGE * np.eye(trace.dim)
    mean = posterior.mean + s1 / n[..., 0]
    del x, first, second, s1  # free the sums before the fits are checked
    fit = GaussianDist(mean, cov)
    w2 = np.full((2,) + trace.consensus.shape, np.nan)
    # the posterior first, so that its square root is taken once
    w2[:, full] = w2_gaussian_paper(fit, posterior), w2_gaussian_bures(posterior, fit)
    return tuple(w2)


def logistic_auc_series(trace, test: Dataset, eval_every: int):
    """Per-agent test ROC-AUC at recorded multiples of ``eval_every``.

    The final iteration is evaluated too when it was recorded, that is when
    the stride divides the iteration count.  The picked agent states are
    scored against the test set in chunks of rows, one matrix product and
    one ``roc_auc`` call each, so that at most about 2 MiB of scores are
    held at once.  Returns (eval_ts, aucs) with aucs of shape
    (n_evals, agents).
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    ts = trace.ts
    picks = np.flatnonzero((ts > 0) & ((ts % eval_every == 0)
                                       | (ts == trace.num_iters)))
    states = trace.states[picks].reshape(-1, trace.dim)
    aucs = np.empty(len(states))
    width = max(1, _AUC_CHUNK_BYTES // (8 * test.n))
    for start in range(0, len(states), width):
        rows = states[start:start + width]
        aucs[start:start + width] = roc_auc(rows @ test.features.T,
                                            test.targets)
    return ts[picks], aucs.reshape(len(picks), trace.num_agents)


def _monitor_metadata(trace, setup: RunSetup):
    """Check the deviation bound at the run's window length, record its
    outcome in the metadata and return the report."""
    report = check_lemma4_bound(trace, window_len=setup.cfg.graph_b)
    setup.metadata.update(lemma4_violated=report.violated,
                          lemma4_max_ratio=report.max_ratio,
                          lemma4_delta=report.delta,
                          lemma4_lambda=report.lam,
                          lemma4_d_hat=report.d_hat)
    return report


def _per_agent(m: int, *names) -> list:
    """Column names "<name>_agent_<i>", i < m, for each name in turn."""
    return [f"{name}_agent_{i}" for name in names for i in range(m)]


def _linreg_table(trace, setup: RunSetup, report):
    paper, bures = linreg_w2_series(trace, setup.extras["posterior"])
    header = ["t", "alpha", "w2_paper", "w2_bures"] + \
        _per_agent(trace.num_agents, "consensus_error")
    rows = _rows(trace.ts, trace.alphas, paper.mean(axis=1),
                 bures.mean(axis=1), trace.consensus)
    return header, rows, (f"final mean W2 {np.mean(paper[-1]):.4f} (paper "
                          f"form), {np.mean(bures[-1]):.4f} (exact)")


def _mixture_table(trace, setup: RunSetup, report):
    # free the unused report and count the occupancy before building the
    # table, so that neither is alive at the occupancy's peak memory
    del report
    cfg, post = setup.cfg, trace.states[len(trace.ts) // 5:]
    near_a = np.linalg.norm(post - np.array([cfg.theta1, cfg.theta2]), axis=2) < 0.5
    flipped = np.array([cfg.theta1 + cfg.theta2, -cfg.theta2])
    near_b = np.linalg.norm(post - flipped, axis=2) < 0.5
    summary = (f"post-burn-in occupancy near the two modes "
               f"{near_a.mean():.2f} / {near_b.mean():.2f}")
    header = ["t", "alpha"] + _per_agent(trace.num_agents, "theta1", "theta2",
                                         "consensus_error")
    rows = _rows(trace.ts, trace.alphas, trace.states[:, :, 0],
                 trace.states[:, :, 1], trace.consensus)
    return header, rows, summary


def _logistic_table(trace, setup: RunSetup, report):
    eval_ts, aucs = logistic_auc_series(trace, setup.extras["test"],
                                        setup.cfg.eval_every)
    header = ["t", "alpha"] + _per_agent(trace.num_agents, "auc") + ["auc_mean"]
    alphas = [step_size(setup.sched, t) for t in eval_ts.tolist()]
    rows = _rows(eval_ts, alphas, aucs, aucs.mean(axis=1))
    return header, rows, f"final mean test AUC {np.mean(aucs[-1]):.4f}"


def _run_table(trace, setup: RunSetup, report):
    m, d = trace.num_agents, trace.dim
    header = ["t", "alpha"] + [f"x_agent_{i}_dim_{j}" for i in range(m)
                               for j in range(d)]
    header += _per_agent(m, "consensus_error", "z_dev")
    ts = trace.ts
    # step t-1 carried the network into iteration t
    z_dev = np.full((len(ts), m), np.nan)
    z_dev[1:] = trace.z_dev[ts[1:] - 1]
    columns = [trace.alphas, trace.states.reshape(len(ts), m * d),
               trace.consensus, z_dev]
    if report is None:
        return header, _rows(ts, *columns), ""
    header += ["lemma4_lhs", "lemma4_bound"]
    # the report's prefix tau = t-1 >= 1 sits at its index tau-1
    tau = ts[ts >= 2] - 1
    lemma4 = np.full((len(ts), 2), np.nan)
    lemma4[ts >= 2] = np.column_stack([report.lhs[tau - 1], report.bound[tau - 1]])
    columns.append(lemma4)
    return header, _rows(ts, *columns), (
        f"deviation bound {'VIOLATED' if report.violated else 'held'} "
        f"(max ratio {report.max_ratio:.2e})")


def _rows(ts, *columns):
    """CSV rows, one per iteration t in ``ts``: t, then every column's
    values at t, as plain ints and floats, produced one at a time."""
    table = np.column_stack(columns)
    return ([t] + row.tolist() for t, row in zip(ts.tolist(), table))


# subcommand -> (help text, table); a table maps (trace, setup, bound report
# or None) to the CSV header, its rows and the summary after "wrote <out>"
_EXPERIMENTS = {
    "linreg": ("Bayesian linear regression against its conjugate posterior",
               _linreg_table),
    "mixture": ("bimodal Gaussian-mixture posterior over two location offsets",
                _mixture_table),
    "logistic": ("L1-regularized logistic regression scored by test ROC-AUC",
                 _logistic_table),
    "run": ("generic run of a registered model with optional bound monitors",
            _run_table),
}


def _command(cfg: ExperimentConfig) -> int:
    """Run one subcommand: prepare, sample, check the bound if monitors are
    on, write the experiment's table and print one line."""
    setup = prepare(cfg)
    trace = run_experiment(cfg, setup)
    # the report goes straight to the table, which alone holds it
    header, rows, summary = _EXPERIMENTS[cfg.experiment][1](
        trace, setup, _monitor_metadata(trace, setup) if cfg.monitors == "on" else None)
    out = cfg.out or f"{cfg.experiment}.csv"
    write_csv(out, setup.metadata, header, rows)
    print(f"{cfg.experiment}: wrote {out}" + (f"; {summary}" if summary else ""))
    return 0


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
    for name, (help_text, _) in _EXPERIMENTS.items():
        _add_flags(sub.add_parser(name, help=help_text))
    args = parser.parse_args(argv)

    try:
        file_overrides = load_config_file(args.config) if args.config else {}
        cli_overrides = {f.name: getattr(args, f.name)
                         for f in fields(ExperimentConfig) if f.name != "experiment"}
        return _command(build_config(args.command, file_overrides, cli_overrides))
    except (ValueError, FloatingPointError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
