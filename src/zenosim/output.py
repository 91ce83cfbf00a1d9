"""CSV emission and run manifests.

Both CSV files are comma-separated with CRLF row ends and one header row.
Every float is written as ``%.17g`` (17 significant digits), so files
round-trip to the exact in-memory values.  Ensemble files carry one mean
and one standard error column per observable.  Per-trajectory files add a
0/1 ``jump`` column: a collapse marks the first recorded row at or after
the end of the step it was decided in, and marks nothing when that step
ends after the last recorded row.

A run's per-trajectory files share their leading rows: every trajectory
starts in the same state, and until its first jump it holds the same bits
as every other unjumped one.  ``SharedRows`` formats one reference
trajectory's rows once; ``write_trajectory_csv`` given it copies the text of
the leading rows whose cells are bit-equal to the reference's (a float cell
compared through its int64 view, so ``-0.0`` and ``0.0`` or two NaN payloads
differ; ``jump`` by value) and formats only the rows from the first
difference on.  The bytes are those of a file formatted row by row.
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


def _template(columns: list[np.ndarray]) -> str:
    """One row's ``%`` template: ``%d`` for integer columns, ``%.17g`` for
    the rest."""
    return ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\r\n"


def _rows(template: str, columns: list[np.ndarray], start: int, stop: int) -> list[str]:
    block = [c[start:stop].tolist() for c in columns]
    return [template % r for r in zip(*block, strict=True)]


def _write_table(path, header: list[str], columns: list[np.ndarray],
                 leading: list[str] = ()) -> None:
    """Write ``header``, the given text ``leading`` of the first rows, then
    one row per further index of the equal-length ``columns``."""
    row = _template(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(leading))
        for first in range(len(leading), len(columns[0]), _BLOCK_ROWS):
            fh.write("".join(_rows(row, columns, first, first + _BLOCK_ROWS)))


def _cells(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Each column as int64: an integer column's values, a float column's bits."""
    return [c.astype(np.int64) if c.dtype.kind in "iu"
            else np.asarray(c, dtype=np.float64).view(np.int64) for c in columns]


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


def _trajectory_table(rec: TrajectoryRecord) -> tuple[list[str], list[np.ndarray]]:
    names = tuple(rec.observables.keys())
    times = rec.times
    jump = np.zeros(len(times), dtype=np.int8)
    if len(times) > 1 and rec.jumps:
        rows = np.ceil((np.array(rec.jumps) - times[0]) / (times[1] - times[0]) + 1e-9)
        jump[rows[(rows >= 0) & (rows < len(times))].astype(np.intp)] = 1
    return ["t", *names, "jump"], [times, *(rec.observables[n] for n in names), jump]


class SharedRows:
    """A reference trajectory's rows, formatted on first use, for the files
    of one run that begin with the same rows."""

    def __init__(self, rec: TrajectoryRecord):
        self._header, self._columns = _trajectory_table(rec)
        self._template = _template(self._columns)
        self._cells = _cells(self._columns)
        self._text: list[str] | None = None

    def leading(self, header: list[str], columns: list[np.ndarray]) -> list[str]:
        """The text of the leading rows of ``columns`` that are bit-equal to
        the reference's rows."""
        if header != self._header or _template(columns) != self._template:
            return []
        n = min(len(columns[0]), len(self._columns[0]))
        differ = np.zeros(n, dtype=bool)
        for mine, ref in zip(_cells(columns), self._cells, strict=True):
            differ |= mine[:n] != ref[:n]
        k = int(np.argmax(differ)) if differ.any() else n
        if not k:
            return []
        if self._text is None:
            self._text = _rows(self._template, self._columns, 0, len(self._columns[0]))
        return self._text[:k]


def write_trajectory_csv(path, rec: TrajectoryRecord, shared: SharedRows | None = None) -> int:
    """Write ``rec``'s rows; with ``shared``, copy the text of its leading
    rows that are bit-equal to the reference's.  Returns the rows copied."""
    header, columns = _trajectory_table(rec)
    leading = shared.leading(header, columns) if shared is not None else []
    _write_table(path, header, columns, leading)
    return len(leading)


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
