"""Run traces and their CSV serialization.

A trace keeps thinned state snapshots plus the per-step reductions the bound
monitors read, so it never grows as the horizon times the network size.  CSV
files start with '#'-prefixed key=value metadata lines followed by a header
row and data rows; all numbers are written with shortest round-trip
precision so identical runs serialize to identical bytes.  A table is its
iterations and numeric columns, which :func:`write_csv` stacks about 64 KiB
of rows at a time, so writing a trace's table holds no second copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Trace", "write_csv"]

# float64 of a table held at once: a chunk of rows while it is written, of
# records while the CLI counts the mixture's occupancy or fits W2 windows
_CHUNK_BYTES = 64 << 10


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
    at iteration 0, or is None for a run that did not keep them.
    ``worst_cum_dev[tau-1]``, tau = 1 .. num_iters-1, is the worst agent's
    deviation summed over steps 1 .. tau (step 0 only feeds the bound's
    initial-state term), and ``max_pert`` the largest norm of the update an
    agent applied on top of its mixed value, over all steps.
    """

    alphas: np.ndarray
    states: np.ndarray
    consensus: np.ndarray
    record_dev: np.ndarray | None
    worst_cum_dev: np.ndarray
    max_pert: float
    num_iters: int
    stride: int

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        n_rec = self.num_iters // self.stride + 1
        dev = () if self.record_dev is None else (self.record_dev,)
        if any(len(a) != n_rec for a in (self.alphas, self.states, self.consensus, *dev)):
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
    value = value.item() if isinstance(value, np.generic) else value
    return str(value).lower() if isinstance(value, bool) else str(value)


def write_csv(path, metadata: dict, header, ts, *columns) -> None:
    """Write '# key=value' metadata lines, in insertion order, then a table.

    ``header`` names the columns: ``ts``, (n,) integers, then each of
    ``columns``, (n,) or (n, k) integers or floats.  They are stacked 64 KiB
    of rows at a time and every value is written with repr, so floats parse
    back exactly and equal inputs give equal bytes.  A line break in the
    metadata, a column name that would need quoting, a column of another
    type and a table of another shape are refused before the file is opened.
    """
    lines = [f"{key}={_format(value)}" for key, value in metadata.items()]
    for key, line in zip(metadata, lines):
        if "\r" in line or "\n" in line:
            raise ValueError(f"metadata entry {key!r} holds a line break")
    for name in header:
        if set(name) & set(',"\r\n'):
            raise ValueError(f"column name {name!r} would need quoting")
    if ts.dtype.kind not in "iu" or any(c.dtype.kind not in "iuf" for c in columns):
        raise TypeError("a table holds integer iterations and integer or float columns")
    width = sum(math.prod(c.shape[1:]) for c in columns)
    if len(header) != 1 + width or any(c.ndim > 2 or len(c) != len(ts) for c in columns):
        raise ValueError(f"{len(header)} names for ts {ts.shape} and columns "
                         f"{[c.shape for c in columns]}")
    columns = columns or (np.empty((len(ts), 0)),)  # a table of ts alone
    step, sep = max(1, _CHUNK_BYTES // (8 * max(width, 1))), "," if width else ""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\r\n" for line in lines)
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ts), step):
            # one generator per chunk, so that no row keeps the last chunk
            # alive while the next one is stacked
            fh.writelines(f"{t}{sep}{','.join(map(repr, row.tolist()))}\r\n"
                          for t, row in zip(ts[lo:lo + step].tolist(), np.column_stack(
                              [c[lo:lo + step] for c in columns])))
