"""CSV emission and run manifests.

Both CSV files are comma-separated with CRLF row ends and one header row.
Every float is written as ``%.17g`` (17 significant digits), so files
round-trip to the exact in-memory values.  Ensemble files carry one mean
and one standard error column per observable.  Per-trajectory files add a
0/1 ``jump`` column: a collapse marks the first recorded row at or after
the end of the step it was decided in, and marks nothing when that step
ends after the last recorded row.
"""

from __future__ import annotations

import csv
import json
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, describe
from .engine import TrajectoryRecord
from .ensemble import EnsembleStatistics

# rows formatted per write: bounds the text held in memory
_BLOCK_ROWS = 1024


def _write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``header`` and one row per index of the equal-length ``columns``,
    each row one ``%`` of a single template: ``%d`` for integer columns,
    ``%.17g`` for the rest."""
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS].tolist() for c in columns]
            fh.write("".join([row % r for r in zip(*block, strict=True)]))


def write_ensemble_csv(path, stats: EnsembleStatistics) -> None:
    header, columns = ["t"], [stats.times]
    for n in stats.observable_names():
        header += [f"{n}_mean", f"{n}_stderr"]
        columns += [stats.mean[n], stats.std_error[n]]
    _write_table(path, header, columns)


def read_ensemble_csv(path):
    """Read a file produced by write_ensemble_csv back into arrays."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = [[float(x) for x in row] for row in r]
    data = np.array(rows)
    out = {name: data[:, i] for i, name in enumerate(header)}
    return out


def write_trajectory_csv(path, rec: TrajectoryRecord) -> None:
    names = tuple(rec.observables.keys())
    times = rec.times
    jump = np.zeros(len(times), dtype=np.int8)
    if len(times) > 1 and rec.jumps:
        rows = np.ceil((np.array(rec.jumps) - times[0]) / (times[1] - times[0]) + 1e-9)
        jump[rows[(rows >= 0) & (rows < len(times))].astype(np.intp)] = 1
    _write_table(path, ["t", *names, "jump"],
                 [times, *(rec.observables[n] for n in names), jump])


def write_manifest(path, config: RunConfig, outputs: list[str],
                   wall_time_s: float, extra: dict | None = None) -> None:
    manifest = {
        "version": __version__,
        "config": describe(config),
        "outputs": outputs,
        "wall_time_s": wall_time_s,
        "created_unix": int(_time.time()),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
