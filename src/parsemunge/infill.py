"""Missing-data handling: infill target marking and the stored infill kinds.

Targets are decided against the source column's distinct values by the root
category's rule; fills of the encoded columns use train-basis statistics only.
``FILLS`` is the one table of the kinds an artifact stores, and ``eligible``
decides which columns may take each.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, count, repeat
from math import isinf

import numpy as np

from . import encoders
from .schema import Tagged
from .tidytable import (
    Cell,
    Distinct,
    largest_magnitude,
    numbers,
    sum_scale_exponent,
    value_order_fsum,
)

# Each stored kind: its constant fill, or the type of the train statistic that
# fills it (0.0 where train has none). The engine gathers an adjacent target row
# from a non-target row, so its 0.0 shows only where every row is a target.
FILLS: dict[str, float | type] = {
    "zero": 0.0,
    "one": 1.0,
    "negzero": -0.0,
    "adjacent": 0.0,
    "mean": float,
    "median": float,
    "mode": float | str,
}

# An infill entry holds its kind, and the train statistic of a kind that has one.
ENTRY_SCHEMA = Tagged("kind", {
    kind: {"kind": str} if isinstance(fill, float) else {"kind": str, "value?": fill}
    for kind, fill in FILLS.items()
})

# Config-document spelling of each kind; stdrdinfill stores no kind.
CONFIG_KIND_NAMES = {
    "stdrdinfill": None,
    "zeroinfill": "zero",
    "oneinfill": "one",
    "adjinfill": "adjacent",
    "meaninfill": "mean",
    "medianinfill": "median",
    "modeinfill": "mode",
    "negzeroinfill": "negzero",
}


def eligible(kind: str, behavior: encoders.Behavior) -> bool:
    """Whether a column of the behaviour may take the kind: an NArw column, which
    records missingness, none; a kind with a float statistic only a numeric one."""
    return behavior.name != "NArw" and (
        FILLS[kind] is not float or behavior.coltype_class == encoders.CLASS_NUMERIC)


def mark_targets(view: Distinct, rule: str = "missing_only") -> np.ndarray:
    """Whether each value of the view is an infill target, a bool array: missing
    values always are; numeric rules also target text that does not parse."""
    if rule == "numeric_parse":
        return ~view.numbers[1]
    if rule == "numeric_extract":
        # Extraction finds a number exactly when the text holds an ASCII digit.
        codes, starts = view.code_points
        digit = (codes >= ord("0")) & (codes <= ord("9"))
        return ~np.logical_or.reduceat(digit, starts)  # each text ends in TEXT_END
    return np.fromiter(map(operator.is_, view.values, repeat(None)), bool, len(view.values))


def train_stat(kind: str, values: list[Cell] | np.ndarray,
               counts: np.ndarray) -> float | str | None:
    """Train-basis statistic for a fill kind over non-target cells or floats,
    each counting its entry of ``counts``; None values are left out."""
    if isinstance(FILLS[kind], float):
        return None
    if kind == "mode":  # a Python cell, as the artifact stores it
        return _mode(values.tolist() if isinstance(values, np.ndarray) else values, counts)
    if isinstance(values, list):
        values, present = numbers(values)
        values, counts = values[present], counts[present]
    total = int(counts.sum())
    if not len(values):
        return None
    if kind == "mean":
        # Scaled as in the moments of nmbr, so that the sum cannot overflow.
        exp = sum_scale_exponent(largest_magnitude(values), total)
        scaled = np.ldexp(values, -exp)
        with np.errstate(over="ignore"):  # only beside an infinite value, which sets the sum
            terms = scaled * counts
        return math.ldexp(value_order_fsum(terms, scaled, counts) / total, exp)
    # weighted median over the expanded multiset: the values in order, equal
    # values by count, then in the order given
    order = np.lexsort((counts, values))
    cum = np.cumsum(counts[order])
    lo, hi = values[order[np.searchsorted(cum, [(total - 1) // 2, total // 2], side="right")]]
    lo, hi = float(lo), float(hi)
    middle = lo + hi
    if isinf(middle) and not (isinf(lo) or isinf(hi)):
        return lo / 2.0 + hi / 2.0  # the sum overflows; each half is exact
    return middle / 2.0


def _mode(values: list[Cell], counts: np.ndarray) -> Cell:
    """The value with the largest count; of equal counts the smallest, numbers
    before text, and of equal values the first."""
    counts = np.where(list(map(operator.is_, values, repeat(None))), 0, counts)
    if not len(values) or not counts.max():
        return None
    tied = list(map(values.__getitem__, np.flatnonzero(counts == counts.max()).tolist()))
    floats = [v for v in tied if not isinstance(v, str)]
    return min(floats or tied)


def apply_infill(col: list[Cell] | np.ndarray, mask, kind: str,
                 stat: float | str | None = None) -> list[Cell] | np.ndarray:
    """Replace target cells per kind; non-target cells are never altered. A
    column filled to all floats is a float64 array, as a behaviour stores one:
    an array filled with a float stays one, and a list that a float fill leaves
    all floats becomes one. The fill is the kind's entry of ``FILLS``: its
    constant, or ``stat``."""
    fill = FILLS[kind]
    if not isinstance(fill, float):
        fill = 0.0 if stat is None else stat
    if isinstance(col, np.ndarray) and isinstance(fill, float):
        return np.where(mask, fill, col)
    filled = col.tolist() if isinstance(col, np.ndarray) else list(col)
    for i in compress(count(), mask):
        filled[i] = fill
    if filled and all(type(c) is float for c in filled):
        return np.array(filled)
    return filled
