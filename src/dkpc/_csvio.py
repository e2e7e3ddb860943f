"""The one CSV artifact format: an optional ``# comment`` line, a header, rows.

Every CSV the package writes (trajectories, closed-loop traces, sweep,
frontier and winner tables) goes through ``write_csv`` and is read back
through ``read_csv``, which skips ``#`` lines.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comment: str | None = None,
) -> None:
    """Write ``# comment`` (when given), the header and the rows, default csv dialect."""
    with Path(path).open("w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV file, ``#`` lines and empty rows dropped.

    Raises ValueError for a file without a header.
    """
    with Path(path).open(newline="") as fh:
        rows = [row for row in csv.reader(ln for ln in fh if not ln.startswith("#")) if row]
    if not rows:
        raise ValueError(f"no CSV header in {path}")
    return rows[0], rows[1:]
