"""Tidy-data table model: typed cells, CSV ingestion/emission, per-column statistics.

Cells are plain Python values: ``str`` for text, ``float`` for numbers,
``None`` for missing. Numbers are kept finite; anything that would parse to
NaN or an infinity is normalized to missing at ingestion.

CSV I/O works column by column over blocks of ``BLOCK_ROWS`` rows:
``load_csv`` classifies each distinct token of a column once and gathers the
cells by token; ``write_csv`` renders each distinct number of an all-number
column once, keyed by bit pattern so -0.0 stays apart from 0.0, and gathers
the text by code. The cells and bytes are those of classifying and rendering
cell by cell.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, count, islice, repeat

import numpy as np

from .errors import DataError

Cell = str | float | None

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN", "null"})

COLTYPE_NUMERIC = "numeric"
COLTYPE_CATEGORIC = "categoric"
COLTYPE_ALL_MISSING = "all-missing"

# Rows per block of CSV reading and writing, so the memory held beyond the
# cells is bounded by a block, not by the file. A block of parsed rows costs
# about 1 KiB a row on an 8-column file.
BLOCK_ROWS = 2**14

_NEG_ZERO_BITS = np.float64(-0.0).view(np.uint64)
_FLOAT_OR_NONE = {float, type(None)}

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


def numbers(values: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
    """``as_number`` of every value as a float64 array, NaN where it is None,
    and the mask of the values where it is not None; a NaN cell is present.

    A list of floats and None without a NaN float converts in one call; any
    other list is converted value by value.
    """
    if set(map(type, values)) <= _FLOAT_OR_NONE:
        array = np.array(values, dtype=np.float64)
        missing = np.isnan(array)  # a None or a NaN cell
        if set(map(values.__getitem__, np.flatnonzero(missing).tolist())) <= {None}:
            return array, ~missing
    parsed = list(map(as_number, values))
    present = np.fromiter(map(operator.is_not, parsed, repeat(None)), bool, len(parsed))
    return np.array(parsed, dtype=np.float64), present


def largest_magnitude(values: np.ndarray) -> float:
    """The largest ``abs`` of non-empty values, a NaN left out unless all are:
    a NaN makes every sum NaN whatever the scale."""
    return float(np.fmax.reduce(np.abs(values)))


def sum_scale_exponent(largest: float, total: int) -> int:
    """Power of two to divide values of magnitude at most ``largest`` by, so
    that sums of ``total`` of them (weights included) and of their deviations
    from their mean stay inside the float range; 0 when they already do.

    Dividing by a power of two is exact unless a value becomes subnormal, and
    data that needs no scaling is not scaled, so its results keep every bit.
    """
    return max(0, math.frexp(largest)[1] + total.bit_length() + 2 - 1024)


def value_order_fsum(terms: np.ndarray, values: np.ndarray,
                     counts: np.ndarray | None = None) -> float:
    """``math.fsum`` of one term per value, as if over the (value, count) pairs
    in ascending order. fsum is correctly rounded in any order while its
    partial sums stay finite, as scaled finite values keep them; an infinite
    term restarts them, so that whether a finite overflow raises then depends
    on the order. Only then are the terms sorted."""
    if np.isinf(values).any():
        terms = terms[np.lexsort((values,) if counts is None else (counts, values))]
    return math.fsum(terms.tolist())


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
        self._position: dict[str, int] = {}  # header -> column position
        for i, h in enumerate(self.headers):
            if self._position.setdefault(h, i) != i:
                raise DataError(f"duplicate header: {h!r}")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns have unequal lengths")

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, header: str) -> list[Cell]:
        try:
            return self.columns[self._position[header]]
        except KeyError:
            raise DataError(f"no such column: {header!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TidyTable):
            return NotImplemented
        return self.headers == other.headers and self.columns == other.columns


def _classify(tokens: set[str], missing_tokens: frozenset[str]) -> dict[str, Cell]:
    """The cell of each distinct token: missing for a missing token, a number
    for a finite decimal, missing for an overflowing one ("1e999"), else text."""
    cells: dict[str, Cell] = dict(zip(tokens, tokens))
    decimals = list(filter(_DECIMAL_RE.match, tokens))
    values = list(map(float, decimals))
    cells.update(zip(decimals, values))
    cells.update(dict.fromkeys(compress(decimals, map(math.isinf, values))))
    cells.update(dict.fromkeys(tokens & missing_tokens))
    return cells


def load_csv(path, missing_tokens=None) -> TidyTable:
    """Load a headered CSV into a TidyTable.

    Cells matching a missing token become missing; cells that parse fully as a
    finite decimal become numbers; everything else is text.
    """
    tokens = frozenset(missing_tokens) if missing_tokens is not None else DEFAULT_MISSING_TOKENS
    with open(path, newline="", encoding="utf-8") as fh:
        # strict: a quoted field must end in a quote and a delimiter or line end.
        reader = csv.reader(fh, strict=True)
        try:
            return _read_columns(path, reader, tokens)
        except csv.Error as exc:  # also a field over csv.field_size_limit()
            raise DataError(f"{path}: malformed CSV at line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x}:"
                            f" {exc.reason}") from None


def _read_columns(path, reader, tokens: frozenset[str]) -> TidyTable:
    """The table of the rows ``reader`` yields, the first of them the header."""
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
    first_row = 1
    while block := list(islice(reader, BLOCK_ROWS)):
        if set(map(len, block)) != {len(headers)}:
            i, row = next((i, row) for i, row in enumerate(block, start=first_row)
                          if len(row) != len(headers))
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, expected {len(headers)}"
            )
        first_row += len(block)
        for col, toks in zip(columns, zip(*block)):
            cells = _classify(set(toks), tokens)
            col.extend(map(cells.__getitem__, toks))
    return TidyTable(headers=headers, columns=columns)


def _render_floats(col: list[float]) -> list[str]:
    """``format_number`` of every cell, computed once per distinct bit pattern
    (so -0.0 stays apart from 0.0) and gathered back by code."""
    bits, codes = np.unique(np.fromiter(col, np.float64, len(col)).view(np.uint64),
                            return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():
        return list(map(format_number, col))  # raises as format_number does
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    text = np.empty(len(values), dtype=object)
    text[integral] = list(map(str, values[integral].astype(np.int64).tolist()))
    text[~integral] = list(map(repr, values[~integral].tolist()))
    text[bits == _NEG_ZERO_BITS] = "-0"
    return text[codes].tolist()


def write_csv(table: TidyTable, path) -> None:
    """Write a TidyTable as UTF-8 CSV with RFC-4180 quoting, missing as empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.headers)
        for start in range(0, table.row_count, BLOCK_ROWS):
            block = [col[start:start + BLOCK_ROWS] for col in table.columns]
            rendered = [_render_floats(col) if set(map(type, col)) == {float}
                        else list(map(canon_text, col))  # None is written as ""
                        for col in block]
            writer.writerows(zip(*rendered))


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


def factorize(values) -> tuple[list[Cell], np.ndarray]:
    """The keys of ``distinct_counts(values)`` in the same order, without the
    counts, and each value's position among them, from one C-level pass."""
    position = defaultdict(count().__next__)
    codes = np.fromiter(map(position.__getitem__, values), np.intp, len(values))
    if 0.0 in position:  # both zeros as one key, 0.0, placed last
        zero = position.pop(0.0)
        codes = np.where(codes == zero, len(position), codes - (codes > zero))
        position[0.0] = len(position)
    return list(position), codes


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
