"""Tidy-data table model: typed cells, CSV ingestion/emission, per-column statistics.

Cells are plain Python values: ``str`` for text, ``float`` for numbers,
``None`` for missing. Numbers are kept finite; anything that would parse to
NaN or an infinity is normalized to missing at ingestion.
"""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import DataError

Cell = str | float | None

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN", "null"})

COLTYPE_NUMERIC = "numeric"
COLTYPE_CATEGORIC = "categoric"
COLTYPE_ALL_MISSING = "all-missing"

# Strict decimal grammar: no inf/nan words, no underscores, no stray whitespace.
_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)


def parse_number(text: str) -> float | None:
    """Parse ``text`` as a finite decimal number, or return None."""
    if not _DECIMAL_RE.match(text):
        return None
    value = float(text)
    if not math.isfinite(value):
        return None
    return value


def format_number(x: float) -> str:
    """Shortest round-trip decimal rendering, integers without trailing '.0'."""
    if x == 0.0:
        return "-0" if math.copysign(1.0, x) < 0 else "0"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def canon_text(cell: Cell) -> str | None:
    """Canonical text form of a cell for categoric treatment (None stays None)."""
    if cell is None:
        return None
    if isinstance(cell, float):
        return format_number(cell)
    return cell


def as_number(cell: Cell) -> float | None:
    """Numeric value of a cell, parsing text strictly; None when not parsable."""
    if cell is None:
        return None
    if isinstance(cell, float):
        return cell
    return parse_number(cell)


@dataclass
class TidyTable:
    """One column per feature, one row per observation.

    Treated as immutable after construction; transforms build new tables.
    """

    headers: list[str]
    columns: list[list[Cell]]

    def __post_init__(self):
        if len(self.headers) != len(self.columns):
            raise DataError("header count does not match column count")
        seen = set()
        for h in self.headers:
            if h in seen:
                raise DataError(f"duplicate header: {h!r}")
            seen.add(h)
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns have unequal lengths")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, header: str) -> list[Cell]:
        try:
            return self.columns[self.headers.index(header)]
        except ValueError:
            raise DataError(f"no such column: {header!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TidyTable):
            return NotImplemented
        return self.headers == other.headers and self.columns == other.columns


def _classify(token: str, missing_tokens: frozenset[str]) -> Cell:
    if token in missing_tokens:
        return None
    num = parse_number(token)
    if num is not None:
        return num
    # Overflowing decimals ("1e999") match the grammar but are non-finite.
    if _DECIMAL_RE.match(token):
        return None
    return token


def load_csv(path, missing_tokens=None) -> TidyTable:
    """Load a headered CSV into a TidyTable.

    Cells matching a missing token become missing; cells that parse fully as a
    finite decimal become numbers; everything else is text.
    """
    tokens = frozenset(missing_tokens) if missing_tokens is not None else DEFAULT_MISSING_TOKENS
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        seen = set()
        for h in headers:
            if h in seen:
                raise DataError(f"{path}: duplicate header {h!r}")
            seen.add(h)
        columns: list[list[Cell]] = [[] for _ in headers]
        for i, row in enumerate(reader, start=1):
            if len(row) != len(headers):
                raise DataError(
                    f"{path}: row {i} has {len(row)} fields, expected {len(headers)}"
                )
            for col, token in zip(columns, row):
                col.append(_classify(token, tokens))
    return TidyTable(headers=headers, columns=columns)


def write_csv(table: TidyTable, path) -> None:
    """Write a TidyTable as UTF-8 CSV with RFC-4180 quoting, missing as empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.headers)
        for i in range(table.row_count):
            writer.writerow([canon_text(col[i]) for col in table.columns])  # None as ""


def distinct_counts(values, weights=None) -> dict[Cell, int]:
    """Occurrence counts keyed by raw value (missing included), in first-seen order.

    ``weights`` gives each value's count, one by default. Both zeros are keyed
    as 0.0, placed last: one key cannot hold both, and keeping whichever came
    first would make every output derived from it depend on row order.
    """
    if weights is None:
        counts = Counter(values)
    else:
        counts = {}
        for value, n in zip(values, weights):
            counts[value] = counts.get(value, 0) + n
    if 0.0 in counts:
        counts[0.0] = counts.pop(0.0)
    return counts


def infer_coltype(col: list[Cell]) -> str:
    """numeric iff every non-missing cell is a number; all-missing iff none present."""
    saw_value = False
    saw_text = False
    for cell in col:
        if cell is None:
            continue
        saw_value = True
        if isinstance(cell, str):
            saw_text = True
    if not saw_value:
        return COLTYPE_ALL_MISSING
    return COLTYPE_CATEGORIC if saw_text else COLTYPE_NUMERIC
