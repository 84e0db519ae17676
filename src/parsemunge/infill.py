"""Missing-data handling: infill target marking and the standard infill kinds.

Targets are decided against the source column's distinct values by the root
category's rule; fills of the encoded columns use train-basis statistics only.
"""

from __future__ import annotations

import math
import operator
from itertools import compress, count, repeat
from math import isinf

import numpy as np

from .errors import ConfigError
from .tidytable import (
    Cell,
    Distinct,
    largest_magnitude,
    numbers,
    sum_scale_exponent,
    value_order_fsum,
)

KIND_DEFAULT = "default"
KIND_ZERO = "zero"
KIND_ONE = "one"
KIND_ADJACENT = "adjacent"
KIND_MEAN = "mean"
KIND_MEDIAN = "median"
KIND_MODE = "mode"
KIND_NEGZERO = "negzero"

# Config-document spelling of each kind.
CONFIG_KIND_NAMES = {
    "stdrdinfill": KIND_DEFAULT,
    "zeroinfill": KIND_ZERO,
    "oneinfill": KIND_ONE,
    "adjinfill": KIND_ADJACENT,
    "meaninfill": KIND_MEAN,
    "medianinfill": KIND_MEDIAN,
    "modeinfill": KIND_MODE,
    "negzeroinfill": KIND_NEGZERO,
}

NUMERIC_ONLY_KINDS = (KIND_MEAN, KIND_MEDIAN)

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


def _holds_text(values) -> bool:
    return any(issubclass(t, str) for t in set(map(type, values)))


def train_stat(kind: str, values: list[Cell] | np.ndarray,
               counts: np.ndarray) -> float | str | None:
    """Train-basis statistic for a fill kind over non-target cells or floats,
    each counting its entry of ``counts``; None values are left out."""
    if kind not in (KIND_MEAN, KIND_MEDIAN, KIND_MODE):
        return None
    if kind == KIND_MODE:  # a Python cell, as the artifact stores it
        return _mode(values.tolist() if isinstance(values, np.ndarray) else values, counts)
    if isinstance(values, list):
        if _holds_text(values):
            raise ConfigError(f"{kind} infill requires a numeric column")
        values, present = numbers(values)
        values, counts = values[present], counts[present]
    total = int(counts.sum())
    if not len(values):
        return None
    if kind == KIND_MEAN:
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
    all floats becomes one. Adjacent infill fills 0.0: the engine
    gathers a target row from an adjacent non-target row instead, so the fill
    shows only where every row is a target."""
    if kind == KIND_DEFAULT:
        return col.copy() if isinstance(col, np.ndarray) else list(col)
    if (kind in NUMERIC_ONLY_KINDS and isinstance(col, list) and _holds_text(col)
            and _holds_text(compress(col, map(operator.not_, mask)))):  # text at targets is filled
        raise ConfigError(f"{kind} infill requires a numeric column")
    stat = 0.0 if stat is None else stat
    fills = {KIND_ZERO: 0.0, KIND_ADJACENT: 0.0, KIND_ONE: 1.0, KIND_NEGZERO: -0.0,
             KIND_MEAN: stat, KIND_MEDIAN: stat, KIND_MODE: stat}
    try:
        fill = fills[kind]
    except KeyError:
        raise ConfigError(f"unknown infill kind {kind!r}") from None
    if isinstance(col, np.ndarray) and isinstance(fill, float):
        return np.where(mask, fill, col)
    filled = col.tolist() if isinstance(col, np.ndarray) else list(col)
    for i in compress(count(), mask):
        filled[i] = fill
    if filled and all(type(c) is float for c in filled):
        return np.array(filled)
    return filled
