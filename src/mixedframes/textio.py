"""Deterministic text artifacts: CSV tables, metadata and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt(value: float) -> str:
    """Shortest-roundtrip decimal form of a float (at most 17 significant digits)."""
    return repr(float(value))


def write_text_atomic(path: Path, text: str) -> None:
    """Write via a temporary file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def csv_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Comma-separated table with a header row and LF line endings."""
    return "\n".join([",".join(header), *map(",".join, rows), ""])


def columns_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """CSV from parallel float columns of equal length, cells as :func:`fmt` writes them.

    Each column is converted to Python floats once, so ``repr`` formats plain
    floats instead of numpy scalars.
    """
    if len(header) != len(columns):
        raise ValueError("header and columns must have the same length")
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError("every column must have the length of the first")
    cells = (map(repr, np.asarray(column, dtype=float).tolist()) for column in columns)
    return csv_table(header, zip(*cells))


def write_metadata(path: Path, metadata: dict) -> None:
    """Deterministic JSON metadata (sorted keys, two-space indent)."""
    write_text_atomic(path, json.dumps(metadata, indent=2, sort_keys=True) + "\n")
