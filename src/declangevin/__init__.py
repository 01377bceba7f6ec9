"""Decentralized Langevin sampling over directed, time-varying graphs.

Agents hold shards of a dataset and run noisy gradient steps on their local
potentials while mixing weight/mass pairs with a push-sum protocol, so the
network samples from the posterior of the pooled data without any doubly
stochastic or undirected communication assumption.
"""

from __future__ import annotations

from .cli import (ConfigError, ExperimentConfig, build_config,
                  linreg_w2_series, logistic_auc_series, main, prepare,
                  run_experiment)
from .graphs import (DirectedGraph, DirectedGraphSequence, MixingMatrix,
                     build_mixing_matrix, check_b_strong_connectivity,
                     generate_graph_sequence, spectral_bounds)
from .langevin import (DivergenceError, NoiseModel, Potential, PotentialProps,
                       StepSchedule, ZeroPotential, average_state,
                       langevin_step, run, run_gaussian_ensemble, step_size)
from .metrics import (check_lemma4_bound, empirical_gaussian, rate_fit,
                      roc_auc, w2_gaussian_bures, w2_gaussian_paper)
from .models import (Dataset, GaussianDist, GaussianPotential, LinRegPotential,
                     LogisticPotential, MixturePotential, ParseError, Shard,
                     generate_linreg_data, generate_mixture_data,
                     grad_U_linreg, grad_U_logistic, grad_U_mixture,
                     linreg_posterior, load_libsvm,
                     make_surrogate_classification, partition)
from .pushsum import (NetworkState, consensus_error, init_network,
                      pushsum_mix)
from .trace import Trace, write_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DirectedGraph",
    "DirectedGraphSequence",
    "DivergenceError",
    "ExperimentConfig",
    "GaussianDist",
    "GaussianPotential",
    "LinRegPotential",
    "LogisticPotential",
    "MixingMatrix",
    "MixturePotential",
    "NetworkState",
    "NoiseModel",
    "ParseError",
    "Potential",
    "PotentialProps",
    "Shard",
    "StepSchedule",
    "Trace",
    "ZeroPotential",
    "average_state",
    "build_config",
    "build_mixing_matrix",
    "check_b_strong_connectivity",
    "check_lemma4_bound",
    "consensus_error",
    "empirical_gaussian",
    "generate_graph_sequence",
    "generate_linreg_data",
    "generate_mixture_data",
    "grad_U_linreg",
    "grad_U_logistic",
    "grad_U_mixture",
    "init_network",
    "langevin_step",
    "linreg_posterior",
    "linreg_w2_series",
    "load_libsvm",
    "logistic_auc_series",
    "main",
    "make_surrogate_classification",
    "partition",
    "prepare",
    "pushsum_mix",
    "rate_fit",
    "roc_auc",
    "run",
    "run_experiment",
    "run_gaussian_ensemble",
    "spectral_bounds",
    "step_size",
    "w2_gaussian_bures",
    "w2_gaussian_paper",
    "write_csv",
]
