"""How every CSV and JSON artifact is written.

A CSV cell is written by one rule:

    None            empty
    bool            ``true`` / ``false``
    float           ``repr``: the shortest text that reads back as the same float
    date, datetime  ``isoformat()``
    anything else   ``str``

Rows end in ``\\n`` and a cell is quoted only when it holds a comma, a
quote or a line break.  A JSON artifact is one object with sorted keys,
indented by one space, with a final newline, and holds JSON types only.
Both layouts are byte-stable, so reruns of a command give identical
files.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path
from typing import Iterable, Sequence


def _cell(value: object) -> str:
    if isinstance(value, float):  # the most common cell first
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and then ``rows``, each cell by the rule above."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_json(path: str | Path, payload: dict[str, object]) -> None:
    """Write ``payload`` with sorted keys, a one-space indent and a final newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
