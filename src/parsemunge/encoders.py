"""Baseline categoric and numeric transforms, plus the automation root heuristic.

Every transform is a Behavior. At fit and at apply it reads one form of its
input, a ``tidytable.Distinct`` view of its input header's distinct values:
it fits once on the view's values and counts, then evaluates all the values
of a view in one call on that frozen basis, one column per output out: a
float64 array where every cell is a float by construction, else a list. It
converts no value itself but reads the view's ``texts``, ``numbers`` and
``text_counts``, which every step on the header shares. Fit states are plain
JSON-able dicts so they can live inside the artifact.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable
from itertools import repeat
from math import isinf

import numpy as np

from . import infill
from .errors import DataError
from .tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_NUMERIC,
    Cell,
    Distinct,
    coltype_of,
    distinct_counts,
    largest_magnitude,
    sum_scale_exponent,
    value_order_fsum,
)

CLASS_NUMERIC = "numeric"
CLASS_CATEGORIC = "categoric"
CLASS_BOOLEAN = "boolean"
CLASS_PASSTHROUGH = "passthrough"


class Behavior:
    """One transform: fit on the view of its train input, then evaluation of
    all the values of a view in one call (``apply_distinct``)."""

    name = "?"
    coltype_class = CLASS_CATEGORIC
    target_rule = "missing_only"  # missing_only | numeric_parse | numeric_extract
    inversion_pass = False  # step is transparent on an inversion path (UPCS, excl)
    fit_schema: dict = {}  # schema spec of every fit state; artifacts are checked on it
    param_schema: dict = {}  # schema spec of the transform parameters, every key optional

    def fit(self, view: Distinct, params: dict, root_rule: str) -> dict:
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

    def apply_distinct(self, compiled, view: Distinct) -> list[list[Cell] | np.ndarray]:
        """View in, columns out: per output token, the output of every value of the
        view in order, a float64 array where its cells are floats by construction."""
        raise NotImplementedError

    def apply_cell(self, compiled, cell: Cell) -> tuple:
        """The output of one value as Python cells; the library evaluates only columns."""
        return tuple(column[0].item() if isinstance(column, np.ndarray) else column[0]
                     for column in self.apply_distinct(compiled, Distinct([cell])))

    def decode(self, state: dict, columns: Iterable[np.ndarray], rows: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """The input cells of the step's output columns, read as float64 arrays
        of ``rows`` cells (each read once), and the mask of the rows that hold
        a pattern the step outputs."""
        raise DataError(f"{self.name} is not invertible")


def ranked_entries(agg: dict[str, int]) -> list[str]:
    """Entries sorted by occurrence count descending, then alphabetical."""
    return sorted(agg, key=lambda k: (-agg[k], k))


def activations(size: int, n: int, rows, positions) -> list[np.ndarray]:
    """``size`` float64 columns of ``n`` zeros, with 1.0 at each (positions[k], rows[k])."""
    columns = np.zeros((size, n))
    columns[positions, rows] = 1.0
    return list(columns)


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

    def fit(self, view, params, root_rule):
        return {"enabled": params.get("enabled", True)}

    def apply_distinct(self, state, view):
        if not state["enabled"]:
            return [list(view.texts)]
        return [[None if text is None else text.upper() for text in view.texts]]


class NarwBehavior(Behavior):
    name = "NArw"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"rule": str}

    def fit(self, view, params, root_rule):
        return {"rule": root_rule}

    def apply_distinct(self, state, view):
        return [infill.mark_targets(view, state["rule"]).astype(np.float64)]


class ExclBehavior(Behavior):
    name = "excl"
    coltype_class = CLASS_PASSTHROUGH
    inversion_pass = True

    def apply_distinct(self, state, view):
        return [np.array(view.values, np.float64) if view.types == {float} else list(view.values)]


class RankedCodeBehavior(Behavior):
    """A code per entry: the fit ranks the entries, entry i has code i + 1, and
    code 0 stands for missing and unseen cells. Subclasses say how codes
    become output columns (``code_columns``); inversion reads that map backwards."""

    fit_schema = {"entries": [str]}

    def fit(self, view, params, root_rule):
        return {"entries": ranked_entries(view.text_counts)}

    def code_map(self, state) -> dict[str, int]:
        return {e: i + 1 for i, e in enumerate(state["entries"])}

    def top_code(self, state) -> int:
        return len(state["entries"])

    def size(self, top: int) -> int:
        """Output column count for codes 0 through ``top``."""
        return 1

    def compile(self, state):
        return self.code_map(state), self.size(self.top_code(state))

    def apply_distinct(self, compiled, view):
        codes, size = compiled
        return self.code_columns(list(map(codes.get, view.texts, repeat(0))), size)

    def code_columns(self, codes: list[int], size: int) -> list[np.ndarray]:
        """The ``size`` output columns of the codes."""
        raise NotImplementedError

    def decode(self, state, columns, rows):
        """The code map read backwards: code c is entry c - 1, code 0 missing.
        ``read_codes`` reads ``code_columns`` backwards: each row's code, and
        whether the row is one of codes 0 through the top in that form."""
        codes, valid = self.read_codes(columns, rows, self.top_code(state))
        return np.array([None, *state["entries"]], object)[np.where(valid, codes, 0)], valid


class Ord3Behavior(RankedCodeBehavior):
    name = "ord3"
    coltype_class = CLASS_CATEGORIC

    def code_columns(self, codes, size):
        return [np.array(codes, np.float64)]

    def read_codes(self, columns, rows, top):
        [column] = columns
        valid = (column >= 0.0) & (column <= top) & (column == np.trunc(column))
        return np.where(valid, column, 0.0).astype(np.intp), valid


class OnhtBehavior(RankedCodeBehavior):
    name = "onht"
    coltype_class = CLASS_BOOLEAN

    def output_tokens(self, state):
        return [sanitize_token(e) for e in state["entries"]]

    def size(self, top):
        return top

    def code_columns(self, codes, size):
        codes = np.array(codes, np.intp)
        rows = codes.nonzero()[0]
        return activations(size, len(codes), rows, codes[rows] - 1)

    def read_codes(self, columns, rows, top):
        """The position of the row's one 1.0, 0 for all zeros; one column at a
        time, so memory grows with the rows, not with the rows times the width."""
        codes, valid = np.zeros(rows, np.intp), np.ones(rows, bool)
        for code, column in enumerate(columns, 1):
            one = column == 1.0
            valid &= (column == 0.0) | (one & (codes == 0))
            codes[one] = code
        return codes, valid


class BnryBehavior(Behavior):
    name = "bnry"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"one": str, "zero": str}

    def fit(self, view, params, root_rule):
        agg = view.text_counts
        if len(agg) != 2:
            raise DataError(f"bnry requires exactly 2 distinct entries, got {len(agg)}")
        one, zero = ranked_entries(agg)
        return {"one": one, "zero": zero}

    def apply_distinct(self, state, view):
        # Mode imputation for missing and unseen; NArw carries the signal.
        texts = view.texts
        return [np.fromiter(map(operator.ne, texts, repeat(state["zero"])), np.float64, len(texts))]

    def decode(self, state, columns, rows):
        [column] = columns
        one = column == 1.0
        cells = np.array([state["zero"], state["one"]], object)[one.astype(np.intp)]
        return cells, one | (column == 0.0)


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
        """Each code's ``size`` low bits, most significant first: of any size, by its bytes."""
        width = (size + 7) // 8
        data = b"".join(map(int.to_bytes, codes, repeat(width), repeat("big")))
        bits = np.unpackbits(np.frombuffer(data, np.uint8).reshape(len(codes), width), axis=1)
        return list(np.ascontiguousarray(bits[:, 8 * width - size:].T, np.float64))

    def read_codes(self, columns, rows, top):
        codes, valid = np.zeros(rows, np.int64), np.ones(rows, bool)
        for column in columns:
            bit = column == 1.0
            valid &= bit | (column == 0.0)
            codes = 2 * codes + bit
        return codes, valid & (codes <= top)


@np.errstate(over="ignore", invalid="ignore")  # infinite values give inf and NaN, silently
def _weighted_moments(view: Distinct) -> tuple[float, float, float, int]:
    """Population mean/std of the view's parsable values, each counting its count.

    Returns (mean, shift, std, total) where shift is the residual between the
    rounded mean and the true mean; centering as (v - mean) - shift keeps the
    standardized column's mean at zero even when std << |mean|. Every sum is
    an ``fsum``, correctly rounded in any order, over one term per value.
    """
    values, present = view.numbers
    values, weights = values[present], view.counts[present]
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

    def fit(self, view, params, root_rule):
        mean, shift, std, _ = _weighted_moments(view)
        if std < sys.float_info.min:
            # A subnormal std is a rounded stand-in for a spread too small to
            # represent; dividing by it does not standardize, so it counts as none.
            std = 0.0
        return {"mean": mean, "shift": shift, "std": std}

    def apply_distinct(self, state, view):
        mean, shift, std = state["mean"], state["shift"], state["std"]
        if std == 0.0:
            return [np.zeros(len(view.values))]
        v, present = view.numbers
        with np.errstate(over="ignore", invalid="ignore"):
            d = v - mean
            # Quartering every term is exact for normal floats. Only data spanning
            # more than the float range takes the quartered terms: the rest keeps every bit.
            out = np.where(np.isinf(d), ((v * 0.25 - mean * 0.25) - shift * 0.25) / (std * 0.25),
                           (d - shift) / std)
        return [np.where(present, out, 0.0)]

    def decode(self, state, columns, rows):
        """Every number decodes; an infinite product takes the quartered terms,
        as in apply_distinct, and dividing them by 0.25 may overflow to inf."""
        mean, shift, std = state["mean"], state["shift"], state["std"]
        [values] = columns
        with np.errstate(over="ignore", invalid="ignore"):
            d = values * std
            return np.where(np.isinf(d), ((values * (std * 0.25) + shift * 0.25) + mean * 0.25) / 0.25,
                            (d + shift) + mean), np.ones(rows, bool)


class MnmxBehavior(Behavior):
    name = "mnmx"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_parse"
    fit_schema = {"min": float, "max": float, "mean": float}

    def fit(self, view, params, root_rule):
        mean, shift, _, _ = _weighted_moments(view)
        values = view.numbers[0][view.numbers[1]]
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

    def apply_distinct(self, compiled, view):
        q, lo, span, mean = compiled
        if span == 0.0:
            return [np.zeros(len(view.values))]
        v, present = view.numbers
        # A missing value takes the train mean, scaled as the others.
        with np.errstate(over="ignore", invalid="ignore"):
            return [(np.where(present, v, mean) * q - lo) / span]

    def decode(self, state, columns, rows):
        q, lo, span, _ = self.compile(state)
        [values] = columns
        with np.errstate(over="ignore", invalid="ignore"):
            return (values * span + lo) / q, np.ones(rows, bool)


def auto_root_select(col: list[Cell], threshold: int = 255) -> str:
    """Automation default: pick a root category from column type and
    cardinality. ``col`` may be a column's cells or its distinct values:
    the root is the same."""
    return root_of(distinct_counts(col), threshold)


def root_of(view: Distinct, threshold: int) -> str:
    """``auto_root_select`` of the view of a column's distinct values."""
    coltype = coltype_of(view.types)  # the view's cached types, which the engine reads too
    if coltype == COLTYPE_NUMERIC:
        return "nmbr"
    if coltype == COLTYPE_ALL_MISSING:
        return "excl"
    n = len(set(view.texts) - {None})
    if n == 2:
        return "bnry"
    if n == 3:
        return "onht"
    if n > threshold:
        return "ord3"
    return "1010"  # covers the degenerate n == 1 case as a 1-bit encoding
