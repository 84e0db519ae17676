"""Missing-data handling: infill target marking and the standard infill kinds.

Targets are decided against the source column's distinct values by the root
category's rule; fills of the encoded columns use train-basis statistics only.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError
from .tidytable import Cell, as_number, canon_text

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

_DIGIT = re.compile("[0-9]")


def is_infill_target(cell: Cell, rule: str) -> bool:
    """Missing cells are always targets; numeric rules also target unparsable text."""
    if cell is None:
        return True
    if rule == "numeric_parse":
        return as_number(cell) is None
    if rule == "numeric_extract":
        # nmcm_extract finds a number exactly when the text holds an ASCII digit.
        return _DIGIT.search(canon_text(cell)) is None
    return False


def mark_targets(col: list[Cell], rule: str = "missing_only") -> list[bool]:
    return [is_infill_target(cell, rule) for cell in col]


def _sort_key(value):
    return (isinstance(value, str), value)


def train_stat(kind: str, pairs: list[tuple]) -> float | None:
    """Train-basis statistic for a fill kind over (value, count) non-target pairs."""
    if kind not in (KIND_MEAN, KIND_MEDIAN, KIND_MODE):
        return None
    pairs = [(v, c) for v, c in pairs if v is not None]
    if not pairs:
        return None
    if kind == KIND_MODE:
        return sorted(pairs, key=lambda vc: (-vc[1], _sort_key(vc[0])))[0][0]
    if any(isinstance(v, str) for v, _ in pairs):
        raise ConfigError(f"{kind} infill requires a numeric column")
    total = sum(c for _, c in pairs)
    if kind == KIND_MEAN:
        return math.fsum(v * c for v, c in sorted(pairs)) / total
    # weighted median over the expanded multiset
    ordered = sorted(pairs)
    lo_pos, hi_pos = (total - 1) // 2, total // 2
    lo = hi = None
    cum = 0
    for v, c in ordered:
        cum += c
        if lo is None and cum > lo_pos:
            lo = v
        if hi is None and cum > hi_pos:
            hi = v
            break
    return (lo + hi) / 2.0


def apply_infill(col: list[Cell], mask: list[bool], kind: str,
                 stat: float | None = None) -> list[Cell]:
    """Replace target cells per kind; non-target cells are never altered.
    Adjacent infill fills 0.0: the engine gathers a target row from an adjacent
    non-target row instead, so the fill shows only where every row is a target."""
    if kind == KIND_DEFAULT:
        return list(col)
    if kind in NUMERIC_ONLY_KINDS and any(
        isinstance(v, str) for v, m in zip(col, mask) if not m
    ):
        raise ConfigError(f"{kind} infill requires a numeric column")
    stat = 0.0 if stat is None else stat
    fills = {KIND_ZERO: 0.0, KIND_ADJACENT: 0.0, KIND_ONE: 1.0, KIND_NEGZERO: -0.0,
             KIND_MEAN: stat, KIND_MEDIAN: stat, KIND_MODE: stat}
    try:
        fill = fills[kind]
    except KeyError:
        raise ConfigError(f"unknown infill kind {kind!r}") from None
    return [fill if m else v for v, m in zip(col, mask)]
