"""The four benchmark workloads, one operation each, and their checks.

An operation is one experiment from a resolved configuration to its result:
a CLI run through ``declangevin.cli.main`` that writes a CSV, or an
ensemble run through ``declangevin.run_gaussian_ensemble`` followed by the
snapshot fits.  Every operation is checked; a check that fails raises
:class:`CheckFailed` and the operation counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math

import numpy as np

# why each workload is in the benchmark
WHY = {
    "mixture": "per-agent driver at its most Python-bound; the graph layer "
               "rebuilds a mixing matrix every step; largest CSV",
    "logistic": "per-agent driver with a heavy gradient (32 rows x 123 "
                "features); AUC post-processing dominates",
    "linreg-wide": "network-size axis: 32 agents, B=4; O(m^2) matrix builds "
                   "and the W2-series post-processing",
    "ensemble": "vectorised 16384-run ensemble: one mixing lookup per step "
                "for all runs, no per-agent code",
}

# full size: the subcommand defaults plus these flags
CLI = {
    "mixture": ("mixture", {"monitors": "on"}),
    "logistic": ("logistic", {"surrogate": "on"}),
    "linreg-wide": ("linreg", {"agents": 32, "graph_b": 4, "iters": 1000,
                               "stride": 2}),
}
# the smoke mode and each run's warm-up use these sizes
SMOKE = {
    "mixture": {"iters": 300},
    "logistic": {"n": 2000, "iters": 40},
    "linreg-wide": {"iters": 40},
    "ensemble": {"runs": 512, "iters": 100},
}
ENSEMBLE = {"agents": 4, "dim": 2, "runs": 16384, "iters": 1000}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def make(name: str, dl, seed: int, out_dir, small: bool):
    if name == "ensemble":
        return EnsembleWorkload(dl, seed, small)
    return CliWorkload(name, dl, seed, out_dir, small)


class Workload:
    """An operation is ``run``, which the memory pass measures alone, then
    ``check`` of what it returned."""

    def op(self, rec) -> None:
        self.check(self.run(rec))


class CliWorkload(Workload):
    """One ``declangevin <subcommand>`` run per operation."""

    # spans of the whole operation and of its sampling call
    root, sampling = "cli.main", "cli.run_experiment"

    def __init__(self, name, dl, seed, out_dir, small):
        self.name, self.dl, self.small = name, dl, small
        self.experiment, flags = CLI[name]
        self.overrides = dict(flags, seed=seed, **(SMOKE[name] if small else {}))
        self.out = out_dir / f"{name}-{seed}{'-small' if small else ''}.csv"
        self.argv = [self.experiment] + [
            tok for key, val in self.overrides.items()
            for tok in (f"--{key}", str(val))] + ["--out", str(self.out)]
        cfg = dl.cli.build_config(self.experiment, self.overrides)
        self.iters, self.agents = cfg.iters, cfg.agents
        self.digest = None
        if self.experiment == "logistic" and not small:
            # the AUC check's null standard error needs the test set's class
            # counts; set-up is deterministic per seed, so one call gives them
            targets = dl.cli.prepare(cfg).extras["test"].targets
            self.n_pos = int((targets == 1.0).sum())
            self.n_neg = len(targets) - self.n_pos

    @property
    def agent_steps(self) -> int:
        return self.agents * self.iters

    def setup(self) -> None:
        self.dl.cli.prepare(self.dl.cli.build_config(self.experiment, self.overrides))

    def run(self, rec) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return rec.call("cli.main", self.dl.cli.main, list(self.argv))

    def check(self, code) -> None:
        if code != 0:
            raise CheckFailed(f"declangevin {self.experiment} exited {code}")
        data = self.out.read_bytes()
        self.bytes = len(data)
        self._check_repeat(hashlib.sha256(data).hexdigest())
        meta, header, table = _parse_csv(data.decode())
        self._check_table(meta, header, table)

    def _check_repeat(self, digest: str) -> None:
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("a repeat wrote different bytes")

    def _check_table(self, meta, header, table) -> None:
        iters, stride = int(meta["iters"]), int(meta["stride"])
        if self.experiment == "logistic":
            every = int(meta["eval_every"])
            want = sum(1 for t in range(stride, iters + 1, stride)
                       if t % every == 0 or t == iters)
        else:
            want = iters // stride + 1
        if table.shape != (want, len(header)):
            raise CheckFailed(f"CSV holds {table.shape} values, expected "
                              f"({want}, {len(header)})")
        # W2 columns are NaN until the trailing window holds dim + 1 records
        for col, name in enumerate(header):
            values = table[:, col]
            bad = ~np.isfinite(values)
            if name.startswith("w2_") and bad.any():
                first = int(np.argmin(bad)) if not bad.all() else len(bad)
                bad[:first] = False
            if bad.any():
                raise CheckFailed(f"column {name} holds non-finite values")
        column = dict(zip(header, table.T))
        if self.experiment == "mixture" and meta.get("lemma4_violated") != "false":
            raise CheckFailed(f"lemma4_violated={meta.get('lemma4_violated')}")
        if self.small:
            return
        if self.experiment == "logistic":
            n_pos, n_neg = self.n_pos, self.n_neg
            null_se = math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
            final = column["auc_mean"][-1]
            if not final > 0.5 + 10.0 * null_se:
                raise CheckFailed(f"final mean AUC {final:.4f} is not above "
                                  f"0.5 + 10 x {null_se:.4f}")
        if self.experiment == "linreg":
            w2 = column["w2_paper"][np.isfinite(column["w2_paper"])]
            if not w2[-1] <= 0.25 * w2[0]:
                raise CheckFailed(f"final mean W2 {w2[-1]:.4f} exceeds a quarter "
                                  f"of the first full-window value {w2[0]:.4f}")


class EnsembleWorkload(Workload):
    """``run_gaussian_ensemble`` on the acceptance rate test's problem."""

    name = "ensemble"
    experiment = "run"
    bytes = None
    root, sampling = "bench.ensemble", "langevin.ensemble"

    def __init__(self, dl, seed, small):
        self.dl, self.seed, self.small = dl, seed, small
        size = dict(ENSEMBLE, **(SMOKE["ensemble"] if small else {}))
        self.agents, self.dim = size["agents"], size["dim"]
        self.runs, self.iters = size["runs"], size["iters"]
        self.overrides = {"seed": seed, "agents": self.agents,
                          "model_dim": self.dim, "model_kappa": 1.0,
                          "iters": self.iters}
        grid = np.unique(np.geomspace(1, 10000, 41).astype(int))
        self.checkpoints = grid[grid <= self.iters]
        self.digest = None

    @property
    def agent_steps(self) -> int:
        return self.runs * self.agents * self.iters

    def setup(self):
        return self.dl.cli.prepare(self.dl.cli.build_config("run", self.overrides))

    def run(self, rec):
        return rec.call("bench.ensemble", self._experiment)

    def check(self, result) -> None:
        snaps, w2 = result
        digest = hashlib.sha256(np.ascontiguousarray(snaps).tobytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("a repeat produced different snapshots")
        if not np.isfinite(snaps).all():
            raise CheckFailed("snapshots hold non-finite values")
        if self.small:
            return
        window = (self.checkpoints >= 10) & (self.checkpoints <= 1000)
        slope = self.dl.rate_fit(w2[window], self.checkpoints[window])
        if not slope <= -0.25:
            raise CheckFailed(f"W2 decay slope {slope:.3f} is above -0.25")

    def _experiment(self):
        """Config to snapshot fits: (snapshots, W2 to the target per snapshot)."""
        dl, d = self.dl, self.dim
        setup = self.setup()
        props = setup.potential.props
        # largest admissible constant for the declared curvature bounds
        alpha0 = min(1.0 / (2.0 * props.lipschitz),
                     props.mu / (4.0 * props.lipschitz ** 2))
        sched = dl.StepSchedule("harmonic", alpha0=alpha0)
        snaps = dl.run_gaussian_ensemble(
            setup.seq, sched, np.zeros(d), np.eye(d), self.agents, self.iters,
            self.runs, self.seed, self.checkpoints)
        target = dl.GaussianDist(np.zeros(d), np.eye(d))
        w2 = np.array([dl.w2_gaussian_bures(dl.empirical_gaussian(s), target)
                       for s in snaps])
        return snaps, w2


def _parse_csv(text: str):
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        meta[key] = value
    rows = list(csv.reader(lines))
    if not rows:
        raise CheckFailed("CSV has no header")
    try:
        table = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"CSV does not parse: {exc}") from None
    return meta, rows[0], table.reshape(len(rows) - 1, len(rows[0]))
