"""The demos run as scripts, end to end."""

import os
import subprocess
import sys
from pathlib import Path

import declangevin

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_logistic_demo_prints_a_row_per_batch_size():
    src = str(Path(declangevin.__file__).parents[1])
    done = subprocess.run([sys.executable, str(DEMOS / "logistic.py")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split()[1:]
            for line in done.stdout.splitlines() if line.strip()}
    for batch in ("4", "32", "full"):
        # one mean test AUC per checkpoint
        aucs = [float(v) for v in rows[batch]]
        assert len(aucs) == 3 and all(0.5 < a <= 1.0 for a in aucs)
