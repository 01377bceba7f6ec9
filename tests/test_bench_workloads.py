"""The benchmark's workloads still run against the package's API.

``bench/workloads.py`` is loaded from its file and each of its workloads
runs two operations at its smoke size, so a change to a name, option or
output the benchmark reads fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import declangevin

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubRecorder:
    """The one recorder method an operation calls, without the spans."""

    def call(self, name, fn, *args):
        return fn(*args)


@pytest.mark.parametrize("name", sorted(load_workloads().SMOKE))
def test_each_workload_runs_twice_at_its_smoke_size(name, tmp_path):
    work = load_workloads().make(name, declangevin, 11, tmp_path, small=True)
    # the second operation also checks that a repeat gives the same bytes
    for _ in range(2):
        work.op(StubRecorder())
    assert work.digest is not None
