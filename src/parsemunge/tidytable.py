"""Tidy-data table model: typed cells, CSV ingestion/emission, per-column statistics.

Cells are plain Python values: ``str`` for text, ``float`` for numbers,
``None`` for missing. Numbers are kept finite; anything that would parse to
NaN or an infinity is normalized to missing at ingestion. A column is stored
as a list of cells, or as a float64 array when every cell is a float (the
encoded columns ``fit`` and ``apply`` make); ``TidyTable.columns``,
``column`` and ``==`` read an array column as a list of Python floats.

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
    """Shortest round-trip decimal rendering, integers without trailing '.0'.
    A NaN or an infinity has none: it raises DataError."""
    if x == 0.0:
        return "-0" if math.copysign(1.0, x) < 0 else "0"
    try:
        integral = x == int(x)
    except (ValueError, OverflowError):
        raise DataError(f"the number {x!r} is not finite and has no text form") from None
    if integral and abs(x) < 1e16:
        return str(int(x))
    return float.__repr__(x)  # also for a subclass such as numpy.float64


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


def _as_cells(data: list[Cell] | np.ndarray) -> list[Cell]:
    """A stored column as a list of cells: an array as Python floats, one
    float object per distinct bit pattern, as a gather from distinct values
    shares them."""
    if not isinstance(data, np.ndarray):
        return data
    bits, codes = np.unique(data.view(np.uint64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    return np.fromiter(floats, object, len(floats))[codes].tolist()


def _same_cells(a: list[Cell] | np.ndarray, b: list[Cell] | np.ndarray) -> bool:
    """Whether two stored columns are equal as lists of cells; two arrays
    compare without building them."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    return (a.tolist() if isinstance(a, np.ndarray) else a) == (
        b.tolist() if isinstance(b, np.ndarray) else b)


class TidyTable:
    """One column per feature, one row per observation.

    A column is a list of cells or a one-dimensional float64 array; a list
    is held as given. Treated as immutable after construction; transforms
    build new tables.
    """

    def __init__(self, headers: list[str], columns: list[list[Cell] | np.ndarray]):
        self.headers = headers
        self._data = list(columns)
        if len(self.headers) != len(self._data):
            raise DataError("header count does not match column count")
        self._position: dict[str, int] = {}  # header -> column position
        for i, h in enumerate(self.headers):
            if self._position.setdefault(h, i) != i:
                raise DataError(f"duplicate header: {h!r}")
        for data in self._data:
            if isinstance(data, np.ndarray) and (data.dtype != np.float64 or data.ndim != 1):
                raise DataError(f"an array column must be one-dimensional float64,"
                                f" not {data.ndim}-dimensional {data.dtype}")
        lengths = {len(c) for c in self._data}
        if len(lengths) > 1:
            raise DataError("columns have unequal lengths")

    @property
    def row_count(self) -> int:
        return len(self._data[0]) if self._data else 0

    @property
    def columns(self) -> list[list[Cell]]:
        """Every column as a list of cells; an array column's list is built
        on each read."""
        return list(map(_as_cells, self._data))

    def column(self, header: str) -> list[Cell]:
        return _as_cells(self.column_data(header))

    def column_data(self, header: str) -> list[Cell] | np.ndarray:
        """The column as stored: a list of cells, or a float64 array."""
        try:
            return self._data[self._position[header]]
        except KeyError:
            raise DataError(f"no such column: {header!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TidyTable):
            return NotImplemented
        return self.headers == other.headers and all(map(_same_cells, self._data, other._data))

    def __repr__(self) -> str:
        return f"TidyTable(headers={self.headers!r}, columns={self.columns!r})"


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


def _render_floats(col: np.ndarray) -> list[str]:
    """``format_number`` of every cell, computed once per distinct bit pattern
    (so -0.0 stays apart from 0.0) and gathered back by code."""
    bits, codes = np.unique(col.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():
        format_number(col[~np.isfinite(col)][0].item())  # raises, naming the first one
    integral = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    text = np.empty(len(values), dtype=object)
    text[integral] = list(map(str, values[integral].astype(np.int64).tolist()))
    text[~integral] = list(map(repr, values[~integral].tolist()))
    text[bits == _NEG_ZERO_BITS] = "-0"
    return text[codes].tolist()


def _render(col: list[Cell] | np.ndarray) -> list[str | None]:
    """The text of every cell of a column block; None is written as ""."""
    if isinstance(col, np.ndarray):
        return _render_floats(col)
    if set(map(type, col)) == {float}:
        return _render_floats(np.array(col, np.float64))
    return list(map(canon_text, col))


def write_csv(table: TidyTable, path) -> None:
    """Write a TidyTable as UTF-8 CSV with RFC-4180 quoting, missing as empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.headers)
        for start in range(0, table.row_count, BLOCK_ROWS):
            block = [table.column_data(h)[start:start + BLOCK_ROWS] for h in table.headers]
            writer.writerows(zip(*map(_render, block)))


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
    return _coltype(set(map(type, col)))


def checked_coltype(header: str, col) -> str:
    """``infer_coltype`` of column ``header``, in the same one pass over its
    cells; a cell that is no str, float or None, nor of a subclass of str or
    float, raises DataError naming the column and the type."""
    types = set(map(type, col))
    if bad := sorted(t.__name__ for t in types if not issubclass(t, (str, float, type(None)))):
        raise DataError(f"column {header!r} holds a cell of type {bad[0]};"
                        " a cell is text (str), a number (float) or missing (None)")
    return _coltype(types)


def _coltype(types: set[type]) -> str:
    if not types - {type(None)}:
        return COLTYPE_ALL_MISSING
    return COLTYPE_CATEGORIC if any(issubclass(t, str) for t in types) else COLTYPE_NUMERIC
