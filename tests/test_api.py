"""The package's export lists name only what its modules define."""

import importlib

import pytest

MODULES = ["declangevin", "declangevin.cli", "declangevin.graphs",
           "declangevin.langevin", "declangevin.metrics",
           "declangevin.models", "declangevin.trace"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    scope = {}
    exec(f"from {name} import *", scope)
    assert set(importlib.import_module(name).__all__) <= set(scope)



# the package's exports at the start of the one-list-per-module layout
PACKAGE_NAMES = {
    "ConfigError", "Dataset", "DirectedGraph", "DirectedGraphSequence",
    "DivergenceError", "ExperimentConfig", "GaussianDist", "GaussianPotential",
    "LinRegPotential", "LogisticPotential", "MixingMatrix", "MixturePotential",
    "NetworkState", "NoiseModel", "ParseError", "Potential", "PotentialProps",
    "StepSchedule", "Trace", "ZeroPotential", "average_state", "build_config",
    "check_lemma4_bound", "empirical_gaussian",
    "generate_graph_sequence", "generate_linreg_data", "generate_mixture_data",
    "grad_U_linreg", "grad_U_logistic", "grad_U_mixture", "init_network",
    "langevin_step", "linreg_posterior", "linreg_w2_series", "load_libsvm",
    "logistic_auc_series", "main", "make_surrogate_classification",
    "partition", "prepare", "rate_fit", "roc_auc", "run", "run_experiment",
    "run_gaussian_ensemble", "spectral_bounds", "step_size",
    "w2_gaussian_bures", "w2_gaussian_paper", "write_csv",
}


def test_each_name_is_listed_once_by_the_module_that_defines_it():
    package = importlib.import_module("declangevin")
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed)) == 50
    # the package adds no name of its own to the modules' lists
    assert package.__all__ == listed
    assert set(package.__all__) == PACKAGE_NAMES
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(obj, "__module__", module.__name__) == module.__name__
            assert getattr(package, name) is obj
