"""The benchmark's workloads and spans still run against the package's API.

``bench/workloads.py`` is loaded from its file and each of its workloads
runs two operations at its smoke size, and ``bench/tracing.py`` is loaded
the same way to check the spans every operation is timed by, so a change to
a name, option or output the benchmark reads fails here rather than in a
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import declangevin

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubRecorder:
    """The one recorder method an operation calls, without the spans."""

    def call(self, name, fn, *args):
        return fn(*args)


@pytest.mark.parametrize("name", sorted(load_bench("workloads").SMOKE))
def test_each_workload_runs_twice_at_its_smoke_size(name, tmp_path):
    work = load_bench("workloads").make(name, declangevin, 11, tmp_path,
                                        small=True)
    # the second operation also checks that a repeat gives the same bytes
    for _ in range(2):
        work.op(StubRecorder())
    assert work.digest is not None


# the spans an end-to-end figure is read from: the set-up and sampling
# boundaries and the CSV write
END_TO_END = ("cli.prepare", "cli.run_experiment", "langevin.ensemble",
              "trace.write")


def test_every_end_to_end_span_target_resolves():
    tracing = load_bench("tracing")
    assert set(tracing.BOUNDARIES) < set(END_TO_END)
    for name in END_TO_END:
        for module, path in tracing.TARGETS[name]:
            assert tracing._resolve(module, path), f"{module}.{path} is gone"


def test_a_cli_operation_times_set_up_sampling_and_write_once(tmp_path):
    # the benchmark refuses an operation whose sampling call is not timed
    # exactly once, so a call that bypassed a module global would fail
    # every operation
    tracing = load_bench("tracing")
    work = load_bench("workloads").make("mixture", declangevin, 11, tmp_path,
                                        small=True)
    with tracing.Recorder() as rec:
        rec.install(END_TO_END)
        work.op(rec)
    for name in ("cli.main", "cli.prepare", "cli.run_experiment",
                 "trace.write"):
        assert len(rec.durations(name)) == 1, name
    assert len(rec.durations("langevin.ensemble")) == 0


def test_the_grad_span_finds_the_potential_interface_through_langevin():
    # the models.grad target names declangevin.langevin.Potential, which
    # resolves only while langevin.py imports the class from models
    from declangevin import langevin, models
    assert langevin.Potential is models.Potential
    tracing = load_bench("tracing")
    for module, path in tracing.TARGETS["models.grad"]:
        assert tracing._resolve(module, path), f"{module}.{path} is gone"
