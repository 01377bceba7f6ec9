"""The demos run as scripts, end to end."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import declangevin

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@functools.cache
def run_demo(name):
    """One run of a demo script, with every RuntimeWarning (an overflow, an
    invalid value) raised as an error."""
    src = str(Path(declangevin.__file__).parents[1])
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(DEMOS / name)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_logistic_demo_prints_a_row_per_batch_size():
    done = run_demo("logistic.py")
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:]
            for line in done.stdout.splitlines() if line.strip()}
    for batch in ("4", "32", "full"):
        # one mean test AUC per checkpoint
        aucs = [float(v) for v in rows[batch]]
        assert len(aucs) == 3 and all(0.5 < a <= 1.0 for a in aucs)


def test_consensus_demo_ends_at_the_average_with_the_weight_conserved():
    done = run_demo("consensus.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()
            if line.split() and line.split()[0].isdigit()]
    t, z_gap, _, total = rows[-1]
    assert t == "120"
    assert float(z_gap) < 1e-12
    assert total == "8.000000"
