"""Run traces and their CSV serialization.

A trace keeps thinned state snapshots plus the per-step reductions the bound
monitors read, so it never grows as the horizon times the network size.  CSV
files start with '#'-prefixed key=value metadata lines followed by a header
row and data rows; all numbers are written with shortest round-trip
precision so identical runs serialize to identical bytes.  Rows stream in:
the CLI stacks a table's columns about 64 KiB of rows at a time, so writing
a trace's table holds no second copy of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = ["Trace", "write_csv"]


@dataclass
class Trace:
    """Recorded history of one sampling run.

    Iterations 0, stride, 2*stride, ... up to num_iters are recorded, and
    :attr:`ts` lists them.  ``alphas`` holds the schedule value at each
    recorded index, ``states`` the (n_rec, m, d) agent samples (the ratio
    estimates z, which are what the agents treat as their draws) and
    ``consensus`` the (n_rec, m) distances of those estimates to the network
    average.  ``record_dev`` holds the (n_rec, m) ratio deviations
    ||z_i(s+1) - xbar(s)|| of the steps s into the recorded iterations, NaN
    at iteration 0.  ``worst_cum_dev[tau-1]``, tau = 1 .. num_iters-1, is the
    worst agent's deviation summed over steps 1 .. tau (step 0 only feeds the
    bound's initial-state term), and ``max_pert`` the largest norm of the
    update an agent applied on top of its mixed value, over all steps.
    """

    alphas: np.ndarray
    states: np.ndarray
    consensus: np.ndarray
    record_dev: np.ndarray
    worst_cum_dev: np.ndarray
    max_pert: float
    num_iters: int
    stride: int

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        n_rec = self.num_iters // self.stride + 1
        if not (len(self.alphas) == len(self.states) == len(self.consensus)
                == len(self.record_dev) == n_rec):
            raise ValueError("record arrays do not hold num_iters // stride + 1 rows")
        if self.worst_cum_dev.shape != (max(self.num_iters - 1, 0),):
            raise ValueError("worst_cum_dev needs a sum per prefix length 1 .. num_iters-1")

    @property
    def ts(self) -> np.ndarray:
        """The recorded iterations: 0, stride, 2*stride, ... up to num_iters."""
        return np.arange(0, self.num_iters + 1, self.stride)

    @property
    def num_agents(self) -> int:
        return self.states.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]


def _format(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, metadata: dict, header, rows) -> None:
    """Write a metadata-plus-table CSV file.

    Parameters
    ----------
    path : str or Path
        Output file, overwritten if present.
    metadata : dict
        Written first as '# key=value' comment lines, in insertion order.
        A key or value that holds a line break raises ValueError before the
        file is opened.  No timestamps belong here: the same inputs must
        produce the same bytes.
    header : sequence of str
        Column names.
    rows : iterable of sequences
        Row values, consumed one row at a time, so a generator streams
        them, for one the CLI's, which stacks them in byte-sized chunks of
        rows; floats are written with repr so they parse back exactly.
        Rows of plain ``int``/``float`` are joined from their reprs, the
        bytes ``csv.writer`` would write for them; other rows go through
        the writer value by value.
    """
    lines = [f"{key}={_format(value)}" for key, value in metadata.items()]
    for key, line in zip(metadata, lines):
        if "\r" in line or "\n" in line:
            raise ValueError(f"metadata entry {key!r} holds a line break")
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(f"# {line}\r\n")
        # a used csv.writer keeps a 128 KiB buffer: only rows that need one make it
        csv.writer(fh).writerow(list(header))
        writer = None
        for row in rows:
            if set(map(type, row)) <= {int, float}:
                fh.write(",".join(map(repr, row)) + "\r\n")
            else:
                writer = writer or csv.writer(fh)
                writer.writerow([_format(v) for v in row])
