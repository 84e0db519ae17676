"""Baseline categoric and numeric transforms, plus the automation root heuristic.

Every transform is a Behavior: it fits once against the distinct-value counts
of its train input and then maps cells one at a time on that frozen basis.
Fit states are plain JSON-able dicts so they can live inside the artifact.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import DataError
from .infill import is_infill_target
from .tidytable import (
    COLTYPE_ALL_MISSING,
    COLTYPE_NUMERIC,
    Cell,
    UniqueSetStats,
    as_number,
    canon_text,
    column_stats,
    infer_coltype,
)

CLASS_NUMERIC = "numeric"
CLASS_CATEGORIC = "categoric"
CLASS_BOOLEAN = "boolean"
CLASS_PASSTHROUGH = "passthrough"


class Behavior:
    """One transform: fit on train-basis counts, then per-cell application."""

    name = "?"
    coltype_class = CLASS_CATEGORIC
    target_rule = "missing_only"  # missing_only | numeric_parse | numeric_extract
    invertible = False
    inversion_pass = False  # step is transparent on an inversion path (UPCS, excl)

    def fit(self, counts: dict[Cell, int], params: dict, root_rule: str) -> dict:
        return {}

    def output_tokens(self, state: dict) -> list[str]:
        """Extra header tokens, one per output column; "" means single column."""
        return [""]

    def compile(self, state: dict):
        """Return the apply-ready form of a fit state, which ``apply_cell``
        takes; built once per step evaluation. The fit state by default."""
        return state

    def apply_cell(self, state, cell: Cell) -> tuple:
        raise NotImplementedError

    def decoder(self, state: dict):
        """Return a function mapping one output tuple back to the input cell."""
        raise DataError(f"{self.name} is not invertible")


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

    def fit(self, counts, params, root_rule):
        return {"enabled": bool(params.get("enabled", True))}

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        if text is None:
            return (None,)
        return (text.upper() if state["enabled"] else text,)


class NarwBehavior(Behavior):
    name = "NArw"
    coltype_class = CLASS_BOOLEAN

    def fit(self, counts, params, root_rule):
        return {"rule": root_rule}

    def apply_cell(self, state, cell):
        return (1.0 if is_infill_target(cell, state["rule"]) else 0.0,)


class ExclBehavior(Behavior):
    name = "excl"
    coltype_class = CLASS_PASSTHROUGH
    inversion_pass = True

    def apply_cell(self, state, cell):
        return (cell,)

    def decoder(self, state):
        return lambda values: values[0]


class Ord3Behavior(Behavior):
    name = "ord3"
    coltype_class = CLASS_CATEGORIC
    invertible = True

    def fit(self, counts, params, root_rule):
        agg = text_counts(counts)
        return {"codes": {e: i + 1 for i, e in enumerate(ranked_entries(agg))}}

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        if text is None:
            return (0.0,)
        return (float(state["codes"].get(text, 0)),)

    def decoder(self, state):
        rev = {code: entry for entry, code in state["codes"].items()}

        def decode(values):
            code = int(values[0])
            if code == 0:
                return None
            if code not in rev:
                raise DataError(f"ord3 code {code} not in the stored code map")
            return rev[code]

        return decode


class OnhtBehavior(Behavior):
    name = "onht"
    coltype_class = CLASS_BOOLEAN
    invertible = True

    def fit(self, counts, params, root_rule):
        return {"entries": ranked_entries(text_counts(counts))}

    def output_tokens(self, state):
        return [sanitize_token(e) for e in state["entries"]]

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        return tuple(1.0 if text == e else 0.0 for e in state["entries"])

    def decoder(self, state):
        entries = state["entries"]

        def decode(values):
            hot = [i for i, v in enumerate(values) if v == 1.0]
            if not hot:
                return None
            if len(hot) > 1:
                raise DataError(f"onht row activates {len(hot)} columns, expected one")
            return entries[hot[0]]

        return decode


class BnryBehavior(Behavior):
    name = "bnry"
    coltype_class = CLASS_BOOLEAN
    invertible = True

    def fit(self, counts, params, root_rule):
        agg = text_counts(counts)
        if len(agg) != 2:
            raise DataError(f"bnry requires exactly 2 distinct entries, got {len(agg)}")
        one, zero = ranked_entries(agg)
        return {"one": one, "zero": zero}

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        if text == state["zero"]:
            return (0.0,)
        # Mode imputation for missing and unseen; NArw carries the signal.
        return (1.0,)

    def decoder(self, state):
        return lambda values: state["one"] if values[0] == 1.0 else state["zero"]


def binary_width(n: int) -> int:
    """Column count for binary encoding of n entries plus the reserved zero code."""
    return max(1, math.ceil(math.log2(n + 1))) if n else 1


_BITS = (0.0, 1.0)


def code_bits(code: int, width: int) -> tuple[float, ...]:
    """The code's width low bits, most significant first, as shared 0.0/1.0 objects."""
    return tuple(_BITS[(code >> (width - 1 - i)) & 1] for i in range(width))


class B1010Behavior(Behavior):
    name = "1010"
    coltype_class = CLASS_BOOLEAN
    invertible = True

    def fit(self, counts, params, root_rule):
        entries = ranked_entries(text_counts(counts))
        return {"entries": entries, "width": binary_width(len(entries))}

    def output_tokens(self, state):
        return [str(i) for i in range(state["width"])]

    def compile(self, state):
        return {"codes": {e: i + 1 for i, e in enumerate(state["entries"])},
                "width": state["width"]}

    def apply_cell(self, state, cell):
        # Missing (None) and unseen entries take the reserved zero code.
        return code_bits(state["codes"].get(canon_text(cell), 0), state["width"])

    def decoder(self, state):
        entries, width = state["entries"], state["width"]

        def decode(values):
            code = 0
            for v in values:
                code = (code << 1) | (1 if v == 1.0 else 0)
            if code == 0:
                return None
            if code > len(entries):
                pattern = "".join("1" if v == 1.0 else "0" for v in values)
                raise DataError(f"1010 pattern {pattern} not in the stored code map")
            return entries[code - 1]

        return decode


def _weighted_moments(counts: dict[Cell, int]) -> tuple[float, float, float, int]:
    """Population mean/std over parsable values, weighted by occurrence.

    Returns (mean, shift, std, total) where shift is the residual between the
    rounded mean and the true mean; centering as (v - mean) - shift keeps the
    standardized column's mean at zero even when std << |mean|.
    """
    pairs = sorted(
        (v, c)
        for v, c in ((as_number(cell), c) for cell, c in counts.items())
        if v is not None
    )
    total = sum(c for _, c in pairs)
    if not total:
        return 0.0, 0.0, 0.0, 0
    exp = sum_scale_exponent(max(-pairs[0][0], pairs[-1][0]), total)
    if exp:
        pairs = [(math.ldexp(v, -exp), c) for v, c in pairs]
    mean = math.fsum(v * c for v, c in pairs) / total
    shift = math.fsum((v - mean) * c for v, c in pairs) / total
    std = deviation_std([(v - mean) - shift for v, _ in pairs], total, [c for _, c in pairs])
    return math.ldexp(mean, exp), math.ldexp(shift, exp), math.ldexp(std, exp), total


def sum_scale_exponent(largest: float, total: int) -> int:
    """Power of two to divide values of magnitude at most ``largest`` by, so
    that sums of ``total`` of them (weights included) and of their deviations
    from their mean stay inside the float range; 0 when they already do.

    Dividing by a power of two is exact unless a value becomes subnormal, and
    data that needs no scaling is not scaled, so its results keep every bit.
    """
    return max(0, math.frexp(largest)[1] + total.bit_length() + 2 - 1024)


def deviation_std(deviations: list[float], total: int, counts=None) -> float:
    """sqrt(sum(count * d**2) / total) over deviations in ascending order, each
    counting once by default.

    Where the squares would overflow or lose bits as subnormals, every
    deviation is first scaled by the power of two of the largest, which is
    exact. Other data is not scaled, since pow() may round a scaled square
    differently in the last bit.
    """
    largest = max(-deviations[0], deviations[-1]) if deviations else 0.0
    if largest == 0.0:
        return 0.0
    exp = math.frexp(largest)[1]
    exp = 0 if -400 <= exp <= 400 else max(exp, -1023)  # keeps 2**-exp finite
    scale = math.ldexp(1.0, -exp)
    squares = ((d * scale) ** 2 for d in deviations)
    if counts is not None:
        squares = map(operator.mul, squares, counts)
    return math.ldexp(math.sqrt(math.fsum(squares) / total), exp)


class NmbrBehavior(Behavior):
    name = "nmbr"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_parse"
    invertible = True

    def fit(self, counts, params, root_rule):
        mean, shift, std, _ = _weighted_moments(counts)
        if std < sys.float_info.min:
            # A subnormal std is a rounded stand-in for a spread too small to
            # represent; dividing by it does not standardize, so it counts as none.
            std = 0.0
        return {"mean": mean, "shift": shift, "std": std}

    def apply_cell(self, state, cell):
        v = as_number(cell)
        if v is None or state["std"] == 0.0:
            return (0.0,)
        return (((v - state["mean"]) - state["shift"]) / state["std"],)

    def decoder(self, state):
        return lambda values: (values[0] * state["std"] + state["shift"]) + state["mean"]


class MnmxBehavior(Behavior):
    name = "mnmx"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_parse"
    invertible = True

    def fit(self, counts, params, root_rule):
        mean, shift, _, _ = _weighted_moments(counts)
        values = [v for v in (as_number(c) for c in counts) if v is not None]
        lo = min(values) if values else 0.0
        hi = max(values) if values else 0.0
        return {"min": lo, "max": hi, "mean": mean + shift}

    def apply_cell(self, state, cell):
        span = state["max"] - state["min"]
        v = as_number(cell)
        if v is None:
            v = state["mean"]  # train mean, scaled below
        if span == 0.0:
            return (0.0,)
        return ((v - state["min"]) / span,)

    def decoder(self, state):
        span = state["max"] - state["min"]
        return lambda values: values[0] * span + state["min"]


def auto_root_select(col: list[Cell], stats: UniqueSetStats | None = None,
                     threshold: int = 255) -> str:
    """Automation default: pick a root category from column type and cardinality."""
    coltype = infer_coltype(col)
    if coltype == COLTYPE_NUMERIC:
        return "nmbr"
    if coltype == COLTYPE_ALL_MISSING:
        return "excl"
    if stats is None:
        stats = column_stats(col)
    n = stats.n_unique
    if n == 2:
        return "bnry"
    if n == 3:
        return "onht"
    if n > threshold:
        return "ord3"
    return "1010"  # covers the degenerate n == 1 case as a 1-bit encoding
