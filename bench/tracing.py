"""Spans recorded by wrapping the package's functions where they are called.

A span is installed by name in the namespace that makes the call: the
function ``pushsum_mix`` is looked up by ``declangevin.langevin`` at call
time, so replacing that module attribute times every mix without editing
the package.  Methods are wrapped on their class.  A target that no longer
exists is recorded as absent instead of failing, so the benchmark keeps
running across refactors that remove or rename a function.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written once, by :meth:`Recorder.dump`, when a pass ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# span name -> call sites, as (module, attribute path); "Potential.grad*"
# stands for the ``grad`` of every subclass of Potential that defines one
TARGETS = {
    "cli.prepare": [("declangevin.cli", "prepare")],
    "cli.run_experiment": [("declangevin.cli", "run_experiment")],
    "langevin.run": [("declangevin.cli", "run")],
    "langevin.step": [("declangevin.langevin", "langevin_step")],
    "langevin.noise": [("declangevin.langevin", "NoiseModel.gaussian")],
    "langevin.ensemble": [("declangevin", "run_gaussian_ensemble")],
    "pushsum.mix": [("declangevin.langevin", "pushsum_mix")],
    "pushsum.consensus": [("declangevin.langevin", "consensus_error")],
    "graphs.connectivity": [("declangevin.cli", "check_b_strong_connectivity")],
    "graphs.graph_at": [("declangevin.graphs", "DirectedGraphSequence.graph_at")],
    "graphs.mixing_at": [("declangevin.graphs", "DirectedGraphSequence.mixing_at")],
    "graphs.build_mixing": [("declangevin.graphs", "build_mixing_matrix")],
    "models.data": [("declangevin.cli", name) for name in (
        "generate_linreg_data", "generate_mixture_data",
        "make_surrogate_classification", "load_libsvm", "partition",
        "linreg_posterior")],
    "models.grad": [("declangevin.langevin", "Potential.grad*")],
    "metrics.w2_fit": [("declangevin.cli", "empirical_gaussian"),
                       ("declangevin", "empirical_gaussian")],
    "metrics.w2": [("declangevin.cli", "w2_gaussian_paper"),
                   ("declangevin.cli", "w2_gaussian_bures"),
                   ("declangevin", "w2_gaussian_bures")],
    "metrics.auc": [("declangevin.cli", "roc_auc")],
    "metrics.monitor": [("declangevin.cli", "check_lemma4_bound")],
    "trace.write": [("declangevin.cli", "write_csv")],
}

# the end-to-end boundaries: the set-up call and the sampling call
BOUNDARIES = ("cli.prepare", "cli.run_experiment", "langevin.ensemble")


def _resolve(module: str, path: str):
    """(owner, attribute) pairs a target names; empty when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return []
    *scope, attr = path.split(".")
    for part in scope:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr == "grad*":
        found, todo = [], list(owner.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "grad" in vars(cls):
                found.append((cls, "grad"))
        return found
    return [(owner, attr)] if callable(getattr(owner, attr, None)) else []


class Recorder:
    """Collects spans from installed wrappers and from the benchmark itself."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._saved: list = []
        self.installed: set = set()
        self.absent: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock, stack = time.perf_counter_ns, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, span_names) -> None:
        for name in span_names:
            for module, path in TARGETS[name]:
                sites = _resolve(module, path)
                if not sites:
                    self.absent.append(f"{module}.{path}")
                for owner, attr in sites:
                    original = vars(owner)[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
                    self.installed.add(name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new op."""
        return len(self.start)

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) \
            - np.frombuffer(self.start, dtype=np.int64)
        return ids, np.frombuffer(self.parent, dtype=np.int64), dur

    def table(self):
        """(name ids, durations ns, self times ns) of every span."""
        ids, parents, dur = self._arrays()
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return ids, dur, dur - child

    def durations(self, name: str, since: int = 0):
        """Durations in seconds of the spans called ``name`` from ``since`` on."""
        if name not in self._ids:
            return np.zeros(0)
        ids, _, dur = self._arrays()
        return dur[since:][ids[since:] == self._ids[name]] / 1e9

    def dump(self, path) -> None:
        """Write every span as one CSV row: name, parent index, start, end."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_ns,end_ns\n")
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name_id, self.parent, self.start, self.end)):
                fh.write(f"{i},{self.names[nid]},{parent},{start},{end}\n")
