"""Transforms for unbounded categoric sets: numeric substring extraction and
user-specified substring search.

Extraction picks the longest format-valid numeric partition of an entry
(earliest occurrence on ties), matching a brute-force enumerate-all-substrings
rule exactly. It works on all the texts of a view at once, over the view's
one array of code points: masks of the ASCII digits, commas, dots and minus
signs give every candidate match and its end, one reduction per text keeps
the longest, and only each winning substring is parsed, by ``float``. Search
works over a view's code points too, upper-cased unless it is case-sensitive:
each term is compared with every window of its length, and a window counts
where it ends inside the text it starts in.
"""

from __future__ import annotations

import sys

import numpy as np

from .encoders import (
    CLASS_BOOLEAN,
    CLASS_NUMERIC,
    Behavior,
    sanitize_token,
)
from .errors import ConfigError
from .tidytable import TEXT_END, Distinct, utf32

# extract_numbers reads the code arrays of views, where TEXT_END follows each
# text: as no match can hold it, none runs from one text into the next.
assert TEXT_END not in "0123456789,.-"


def extract_numbers(view: Distinct, allow_commas: bool = True, allow_decimal: bool = True,
                    allow_negative: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The longest numeric partition of each text of the view as float64 (NaN
    for none), and the mask of the texts that hold one. Ties go to the earliest
    occurrence. A partition beyond the float range saturates to the largest
    finite float of its sign, so every extraction is finite.

    A match starts at a digit that follows no digit, or, when negatives are
    allowed, at a "-" before such a digit. It runs over the digits, then over
    each ",digits" group when commas are allowed, then over one ".digits" when
    decimals are. A start inside a digit run would match a strict suffix of
    the match at the run's start, and a "-" start a longer and earlier match
    than the digit after it, so only these starts are tried.
    """
    codes, starts = view.code_points
    values = np.full(len(starts), np.nan)
    digit = codes - ord("0") < 10  # unsigned: a code below "0" wraps past 9
    edge = digit.copy()
    edge[1:] ^= digit[:-1]
    # Where each digit run starts and where it ends, in turn; the codes end in
    # TEXT_END, so every run ends within its text.
    bounds = edge.nonzero()[0]
    if not len(bounds):
        return values, np.zeros(len(starts), bool)
    first, run_end = bounds[0::2], bounds[1::2]
    # Per run, the code after it, and whether the next run starts right after
    # that code: a digit follows it (past the end, the last code stands in).
    after, touches = codes[run_end], digit.take(run_end + 1, mode="clip")
    last = np.arange(len(first))  # per run, the last run its match covers
    if allow_commas:  # a run that ends in a comma right before the next joins it
        stops = (~(touches & (after == ord(",")))).nonzero()[0]
        last = stops[stops.searchsorted(last)]
    if allow_decimal:  # a "." right before the next run adds that run
        last = last + (touches & (after == ord(".")))[last]
    end = run_end[last]
    if allow_negative:  # for a first code, codes[-1] is TEXT_END
        first = first - (codes[first - 1] == ord("-"))
    # Per text, the largest key: the longest match, then the earliest.
    n = len(codes)
    key = (end - first) * n - first
    owner = starts.searchsorted(first, side="right") - 1
    group = np.concatenate(([True], owner[1:] != owner[:-1])).nonzero()[0]
    best = np.maximum.reduceat(key, group)
    at = -best % n  # where each text's match starts among the codes
    won = owner[group]
    lo = at - starts[won]  # and in its text
    texts, top = view.texts, sys.float_info.max
    values[won] = np.clip([float(texts[i][a:b].replace(",", "")) for i, a, b
                           in zip(won.tolist(), lo.tolist(), (lo + (best + at) // n).tolist())],
                          -top, top)
    return values, ~np.isnan(values)  # no extraction is NaN


def nmcm_extract(entry: str, allow_commas: bool = True, allow_decimal: bool = True,
                 allow_negative: bool = False) -> float | None:
    """Longest numeric partition of one entry as a float, or None when absent:
    ``extract_numbers`` of a view of the entry alone."""
    values, found = extract_numbers(Distinct([entry]), allow_commas, allow_decimal, allow_negative)
    return values[0].item() if found[0] else None


class NmcmBehavior(Behavior):
    """Numeric extraction of every entry, at fit and at apply: an array where every
    text holds a number, else a list with None where one holds none. The nmc7 and
    nmc8 categories are steps of this behaviour under the suffix nmc7."""

    name = "nmcm"
    coltype_class = CLASS_NUMERIC
    target_rule = "numeric_extract"
    fit_schema = {"flags": {"allow_commas": bool, "allow_decimal": bool, "allow_negative": bool}}
    param_schema = {"allow_commas?": bool, "allow_decimal?": bool, "allow_negative?": bool}

    def fit(self, view, params, root_rule):
        return {"flags": {
            "allow_commas": params.get("allow_commas", True),
            "allow_decimal": params.get("allow_decimal", True),
            "allow_negative": params.get("allow_negative", False),
        }}

    def apply_distinct(self, state, view):
        values, found = extract_numbers(view, **state["flags"])
        return [values if found.all() else np.where(found, values, None).tolist()]


class SrchBehavior(Behavior):
    """Boolean column per term group, or a single ordinal column."""

    name = "srch"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"groups": [[str]], "labels": [str], "ordinal": bool, "case_sensitive": bool}
    param_schema = {"search?": [str], "aggregate?": [[str]], "ordinal?": bool,
                    "case_sensitive?": bool}

    def fit(self, view, params, root_rule):
        """One term group per ``aggregate`` entry, else one per ``search`` term,
        each labelled by its first term; upper-cased unless case-sensitive."""
        groups = params.get("aggregate") or [[t] for t in params.get("search", [])]
        if not groups or not all(groups):
            raise ConfigError("srch requires at least one search term")
        if not all(map(all, groups)):
            raise ConfigError("srch terms must be nonempty strings")
        labels = [sanitize_token(g[0]) for g in groups]
        if len(set(labels)) != len(labels):
            raise ConfigError("srch group labels must be unique")
        case_sensitive = params.get("case_sensitive", False)
        return {
            "groups": [list(g) if case_sensitive else [t.upper() for t in g] for g in groups],
            "labels": labels,
            "ordinal": params.get("ordinal", False),
            "case_sensitive": case_sensitive,
        }

    def fit_fault(self, state):
        if len(state["groups"]) != len(state["labels"]):
            return f"has {len(state['groups'])} term groups but {len(state['labels'])} labels"
        return None

    def output_tokens(self, state):
        if state["ordinal"]:
            return [""]
        return list(state["labels"])

    def apply_distinct(self, state, view):
        """Each term is compared with every window of its length over the code
        points of all the texts, and hits each text that holds an equal window;
        a group hits where any of its terms does."""
        texts = view.texts
        if not state["case_sensitive"]:  # str.upper, as fit upper-cases the terms: "ß" becomes "SS"
            view = Distinct([None if t is None else t.upper() for t in texts])
        codes, starts = view.code_points
        ends = np.append(starts[1:], len(codes)) - 1  # where each text's TEXT_END is
        hits = np.zeros((len(state["groups"]), len(texts)), bool)
        for row, group in zip(hits, state["groups"] if texts else ()):  # no text, no window
            for term in group:
                at = np.arange(len(codes) - len(term))  # the windows before the last TEXT_END
                for k, code in enumerate(utf32(term).tolist()):
                    at = at[codes[at + k] == code]
                owner = starts.searchsorted(at, "right") - 1
                row[owner[at + len(term) <= ends[owner]]] = True  # a window within its text
        hits[:, [t is None for t in texts]] = False  # a missing cell hits no term
        if state["ordinal"]:
            column = np.zeros(len(texts))
            for i in range(len(hits), 0, -1):  # the first group that hits writes last
                column[hits[i - 1]] = i
            return [column]
        return list(hits.astype(np.float64))
