"""Baseline categoric and numeric transforms, plus the automation root heuristic.

Every transform is a Behavior: it fits once against the distinct-value counts
of its train input, then evaluates all the distinct values of an input in one
call on that frozen basis: values in, one list per output column out.
Fit states are plain JSON-able dicts so they can live inside the artifact.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import repeat
from math import isinf

import numpy as np

from . import infill
from .errors import DataError
from .tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_NUMERIC,
    Cell,
    canon_text,
    infer_coltype,
    largest_magnitude,
    numbers,
    sum_scale_exponent,
    value_order_fsum,
)

CLASS_NUMERIC = "numeric"
CLASS_CATEGORIC = "categoric"
CLASS_BOOLEAN = "boolean"
CLASS_PASSTHROUGH = "passthrough"
# 0.0 and 1.0, indexed by a bit or a bool: boolean columns share these two objects.
_BITS = (0.0, 1.0)


class Behavior:
    """One transform: fit on train-basis counts, then evaluation of all the
    distinct values of its input in one call (``apply_distinct``)."""

    name = "?"
    coltype_class = CLASS_CATEGORIC
    target_rule = "missing_only"  # missing_only | numeric_parse | numeric_extract
    inversion_pass = False  # step is transparent on an inversion path (UPCS, excl)
    fit_schema: dict = {}  # schema spec of every fit state; artifacts are checked on it
    param_schema: dict = {}  # schema spec of the transform parameters, every key optional

    def fit(self, counts: dict[Cell, int], params: dict, root_rule: str) -> dict:
        return {}

    def fit_fault(self, state: dict) -> str | None:
        """What is wrong with a fit state that matches ``fit_schema``, for a
        relation the schema cannot state (a length, a range); None if nothing."""
        return None

    def output_tokens(self, state: dict) -> list[str]:
        """Extra header tokens, one per output column; "" means single column."""
        return [""]

    def compile(self, state: dict):
        """Return the apply-ready form of a fit state, which ``apply_distinct``
        takes; built once per step evaluation. The fit state by default."""
        return state

    def apply_distinct(self, compiled, values: list[Cell]) -> list[list]:
        """Values in, columns out: one list per output token, each holding the
        output of every value in order."""
        raise NotImplementedError

    def apply_cell(self, compiled, cell: Cell) -> tuple:
        """The output of one value; the library itself evaluates only columns."""
        return tuple(column[0] for column in self.apply_distinct(compiled, [cell]))

    def decoder(self, state: dict):
        """Return a function mapping one output tuple back to the input cell;
        it raises KeyError or TypeError on a tuple the step cannot output."""
        raise DataError(f"{self.name} is not invertible")

    def decode_column(self, state: dict, values: np.ndarray) -> np.ndarray | None:
        """The decoder's cells of a whole float64 column of a one-column step,
        bit for bit; None where the step decodes pattern by pattern."""
        return None


def text_counts(counts: dict[Cell, int]) -> dict[str, int]:
    """Aggregate raw-cell counts onto canonical text forms, missing excluded."""
    agg: dict[str, int] = {}
    for cell, c in counts.items():
        text = canon_text(cell)
        if text is None:
            continue
        agg[text] = agg.get(text, 0) + c
    return agg


def ranked_entries(agg: dict[str, int]) -> list[str]:
    """Entries sorted by occurrence count descending, then alphabetical."""
    return sorted(agg, key=lambda k: (-agg[k], k))


def sanitize_token(s: str) -> str:
    """CSV/header-safe token: non-alphanumerics hex-escaped, no underscores."""
    base = s.strip() or s
    out = []
    for ch in base:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        else:
            out.append(f"x{ord(ch):02x}")
    return "".join(out) or "x"


class UpcsBehavior(Behavior):
    name = "UPCS"
    coltype_class = CLASS_CATEGORIC
    inversion_pass = True
    fit_schema = {"enabled": bool}
    param_schema = {"enabled?": bool}

    def fit(self, counts, params, root_rule):
        return {"enabled": params.get("enabled", True)}

    def apply_distinct(self, state, values):
        texts = map(canon_text, values)
        if not state["enabled"]:
            return [list(texts)]
        return [[None if text is None else text.upper() for text in texts]]


class NarwBehavior(Behavior):
    name = "NArw"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"rule": str}

    def fit(self, counts, params, root_rule):
        return {"rule": root_rule}

    def apply_distinct(self, state, values):
        return [list(map(_BITS.__getitem__, infill.mark_targets(values, state["rule"])))]


class ExclBehavior(Behavior):
    name = "excl"
    coltype_class = CLASS_PASSTHROUGH
    inversion_pass = True

    def apply_distinct(self, state, values):
        return [list(values)]


class RankedCodeBehavior(Behavior):
    """A code per entry: the fit ranks the entries, entry i has code i + 1, and
    code 0 stands for missing and unseen cells. Subclasses say how codes
    become output columns (``code_columns``); inversion reads that map backwards."""

    fit_schema = {"entries": [str]}

    def fit(self, counts, params, root_rule):
        return {"entries": ranked_entries(text_counts(counts))}

    def code_map(self, state) -> dict[str, int]:
        return {e: i + 1 for i, e in enumerate(state["entries"])}

    def top_code(self, state) -> int:
        return len(state["entries"])

    def size(self, top: int) -> int:
        """Output column count for codes 0 through ``top``."""
        return 1

    def compile(self, state):
        return self.code_map(state), self.size(self.top_code(state))

    def apply_distinct(self, compiled, values):
        codes, size = compiled
        return self.code_columns(list(map(codes.get, map(canon_text, values), repeat(0))), size)

    def code_columns(self, codes: list[int], size: int) -> list[list[float]]:
        """The ``size`` output columns of the codes."""
        raise NotImplementedError

    def decoder(self, state):
        """The code map read backwards; the code-0 pattern reads as missing."""
        compiled = self.compile(state)
        entries = [*compiled[0], None]  # missing last, so that it takes the code-0 pattern
        rows = zip(*self.apply_distinct(compiled, entries)) if compiled[1] else [()] * len(entries)
        return dict(zip(rows, entries)).__getitem__


class Ord3Behavior(RankedCodeBehavior):
    name = "ord3"
    coltype_class = CLASS_CATEGORIC

    def code_columns(self, codes, size):
        return [list(map(float, codes))]


class OnhtBehavior(RankedCodeBehavior):
    name = "onht"
    coltype_class = CLASS_BOOLEAN

    def output_tokens(self, state):
        return [sanitize_token(e) for e in state["entries"]]

    def size(self, top):
        return top

    def code_columns(self, codes, size):
        columns = [[0.0] * len(codes) for _ in range(size)]
        for row, code in enumerate(codes):
            if code:
                columns[code - 1][row] = 1.0
        return columns

    def decoder(self, state):
        """The entry at the row's single 1.0, and missing for all zeros; cells
        compare by ``==``, as in a lookup of every pattern, which would take
        (K + 1) x K cells to build."""
        entries = state["entries"]
        width = len(entries)

        def decode(row):
            if len(row) == width:
                zeros = row.count(0.0)
                if zeros == width:
                    return None
                if zeros == width - 1 and row.count(1.0) == 1:
                    return entries[row.index(1.0)]
            raise KeyError(row)

        return decode


class BnryBehavior(Behavior):
    name = "bnry"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"one": str, "zero": str}

    def fit(self, counts, params, root_rule):
        agg = text_counts(counts)
        if len(agg) != 2:
            raise DataError(f"bnry requires exactly 2 distinct entries, got {len(agg)}")
        one, zero = ranked_entries(agg)
        return {"one": one, "zero": zero}

    def apply_distinct(self, state, values):
        zero = state["zero"]
        # Mode imputation for missing and unseen; NArw carries the signal.
        return [[0.0 if text == zero else 1.0 for text in map(canon_text, values)]]

    def decoder(self, state):
        return {(1.0,): state["one"], (0.0,): state["zero"]}.__getitem__


def binary_width(n: int) -> int:
    """Column count for binary encoding of n entries plus the reserved zero code."""
    return max(1, math.ceil(math.log2(n + 1))) if n else 1


class B1010Behavior(RankedCodeBehavior):
    """Each code as binary_width(top code) bits, so the width follows from the
    code map; missing and unseen cells take the all-zero row."""

    name = "1010"
    coltype_class = CLASS_BOOLEAN
    size = staticmethod(binary_width)

    def output_tokens(self, state):
        return [str(i) for i in range(self.size(self.top_code(state)))]

    def code_columns(self, codes, size):
        """Each code's ``size`` low bits, most significant first."""
        return [[_BITS[(c >> shift) & 1] for c in codes] for shift in range(size - 1, -1, -1)]


def numeric_counts(counts: dict[Cell, int]) -> tuple[np.ndarray, np.ndarray]:
    """The parsable values among the keys of ``counts``, in key order, and
    their counts, as arrays."""
    values, present = numbers(list(counts))
    weights = np.fromiter(counts.values(), np.int64, len(counts))
    return values[present], weights[present]


@np.errstate(over="ignore", invalid="ignore")  # infinite values give inf and NaN, silently
def _weighted_moments(values: np.ndarray, weights: np.ndarray) -> tuple[float, float, float, int]:
    """Population mean/std of values, each counting its weight.

    Returns (mean, shift, std, total) where shift is the residual between the
    rounded mean and the true mean; centering as (v - mean) - shift keeps the
    standardized column's mean at zero even when std << |mean|. Every sum is
    an ``fsum``, correctly rounded in any order, over one term per value.
    """
    total = int(weights.sum())
    if not total:
        return 0.0, 0.0, 0.0, 0
    exp = sum_scale_exponent(largest_magnitude(values), total)
    if exp:
        values = np.ldexp(values, -exp)
    mean = value_order_fsum(values * weights, values, weights) / total
    shift = math.fsum(((values - mean) * weights).tolist()) / total
    std = deviation_std((values - mean) - shift, total, weights)
    return math.ldexp(mean, exp), math.ldexp(shift, exp), math.ldexp(std, exp), total


def deviation_std(deviations: np.ndarray, total: int, counts: np.ndarray | None = None) -> float:
    """sqrt(sum(count * d**2) / total) over the deviations, each counting once
    by default.

    Where the squares would overflow or lose bits as subnormals, every
    deviation is first scaled by the power of two of the largest, which is
    exact. Other data is not scaled, since pow() may round a scaled square
    differently in the last bit. Squares are taken by pow(), which rounds
    some of them differently from d * d.
    """
    largest = largest_magnitude(deviations) if len(deviations) else 0.0
    if largest == 0.0:
        return 0.0
    exp = math.frexp(largest)[1]
    exp = 0 if -400 <= exp <= 400 else max(exp, -1023)  # keeps 2**-exp finite
    squares = map(pow, (deviations * math.ldexp(1.0, -exp)).tolist(), repeat(2))
    if counts is not None:
        squares = map(operator.mul, squares, counts.tolist())
    return math.ldexp(math.sqrt(math.fsum(squares) / total), exp)


class NmbrBehavior(Behavior):
    name = "nmbr"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_parse"
    fit_schema = {"mean": float, "shift": float, "std": float}

    def fit(self, counts, params, root_rule):
        mean, shift, std, _ = _weighted_moments(*numeric_counts(counts))
        if std < sys.float_info.min:
            # A subnormal std is a rounded stand-in for a spread too small to
            # represent; dividing by it does not standardize, so it counts as none.
            std = 0.0
        return {"mean": mean, "shift": shift, "std": std}

    def apply_distinct(self, state, values):
        mean, shift, std = state["mean"], state["shift"], state["std"]
        if std == 0.0:
            return [[0.0] * len(values)]
        v, present = numbers(values)
        with np.errstate(over="ignore", invalid="ignore"):
            d = v - mean
            # Quartering every term is exact for normal floats. Only data spanning
            # more than the float range takes the quartered terms: the rest keeps every bit.
            out = np.where(np.isinf(d), ((v * 0.25 - mean * 0.25) - shift * 0.25) / (std * 0.25),
                           (d - shift) / std)
        return [np.where(present, out, 0.0).tolist()]

    def decoder(self, state):
        mean, shift, std = state["mean"], state["shift"], state["std"]

        def decode(values):
            d = values[0] * std
            if isinf(d):  # as in apply_distinct; dividing by 0.25 overflows to inf, not an error
                return ((values[0] * (std * 0.25) + shift * 0.25) + mean * 0.25) / 0.25
            return (d + shift) + mean

        return decode

    def decode_column(self, state, values):
        mean, shift, std = state["mean"], state["shift"], state["std"]
        with np.errstate(over="ignore", invalid="ignore"):
            d = values * std
            return np.where(np.isinf(d), ((values * (std * 0.25) + shift * 0.25) + mean * 0.25) / 0.25,
                            (d + shift) + mean)


class MnmxBehavior(Behavior):
    name = "mnmx"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_parse"
    fit_schema = {"min": float, "max": float, "mean": float}

    def fit(self, counts, params, root_rule):
        values, weights = numeric_counts(counts)
        mean, shift, _, _ = _weighted_moments(values, weights)
        bits = values.view(np.int64)  # keyed in IEEE total order: -0.0 below 0.0, in any row order
        order = bits ^ ((bits >> 63) & np.iinfo(np.int64).max)
        lo = float(values[order.argmin()]) if len(values) else 0.0
        hi = float(values[order.argmax()]) if len(values) else 0.0
        return {"min": lo, "max": hi, "mean": mean + shift}

    def compile(self, state):
        """(scale, min, span, mean), where min and span are scaled. The scale
        is 1 unless the span exceeds the float range; then, as in
        NmbrBehavior.apply_distinct, every term is quartered."""
        q = 0.25 if isinf(state["max"] - state["min"]) else 1.0
        return q, state["min"] * q, state["max"] * q - state["min"] * q, state["mean"]

    def apply_distinct(self, compiled, values):
        q, lo, span, mean = compiled
        if span == 0.0:
            return [[0.0] * len(values)]
        v, present = numbers(values)
        # A missing value takes the train mean, scaled as the others.
        with np.errstate(over="ignore", invalid="ignore"):
            return [((np.where(present, v, mean) * q - lo) / span).tolist()]

    def decoder(self, state):
        q, lo, span, _ = self.compile(state)
        return lambda values: (values[0] * span + lo) / q

    def decode_column(self, state, values):
        q, lo, span, _ = self.compile(state)
        with np.errstate(over="ignore", invalid="ignore"):
            return (values * span + lo) / q


def auto_root_select(col: list[Cell], threshold: int = 255) -> str:
    """Automation default: pick a root category from column type and
    cardinality. ``col`` may be a column's cells or its distinct values:
    the root is the same."""
    coltype = infer_coltype(col)
    if coltype == COLTYPE_NUMERIC:
        return "nmbr"
    if coltype == COLTYPE_ALL_MISSING:
        return "excl"
    n = len(set(map(canon_text, set(col))) - {None})  # set(col) holds one of the two zeros
    if n == 2:
        return "bnry"
    if n == 3:
        return "onht"
    if n > threshold:
        return "ord3"
    return "1010"  # covers the degenerate n == 1 case as a 1-bit encoding
