"""Decentralized Langevin sampling over directed, time-varying graphs.

Agents hold shards of a dataset and run noisy gradient steps on their local
potentials while mixing weight/mass pairs with a push-sum protocol, so the
network samples from the posterior of the pooled data without any doubly
stochastic or undirected communication assumption.  Every module's
``__all__`` is exported here, and it alone names the module's public API.
"""

from __future__ import annotations

from . import cli, graphs, langevin, metrics, models, trace
from .cli import *
from .graphs import *
from .langevin import *
from .metrics import *
from .models import *
from .trace import *

__version__ = "0.1.0"

__all__ = [name for module in (cli, graphs, langevin, metrics, models, trace)
           for name in module.__all__]
