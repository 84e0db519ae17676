"""Transforms for unbounded categoric sets: numeric substring extraction and
user-specified substring search.

Extraction picks the longest format-valid numeric partition of an entry
(earliest occurrence on ties), matching a brute-force enumerate-all-substrings
rule exactly. Search looks for each term in all the distinct texts of its
input at once, with ``numpy.strings.find``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.dtypes import StringDType

from .encoders import (
    _BITS,
    CLASS_BOOLEAN,
    CLASS_NUMERIC,
    Behavior,
    sanitize_token,
)
from .errors import ConfigError


@lru_cache(maxsize=None)
def _pattern(allow_commas: bool, allow_decimal: bool, allow_negative: bool):
    """The match at every candidate start, in order: a digit that follows no
    digit, and, when negatives are allowed, a "-" sign. A start inside a digit
    run matches a strict suffix of the match at the run's start."""
    core = r"\d+(?:,\d+)*" if allow_commas else r"\d+"
    if allow_decimal:
        core += r"(?:\.\d+)?"
    starts = rf"(?<!\d){core}"
    if allow_negative:
        starts = f"-{core}|{starts}"
    return re.compile(f"(?=({starts}))", re.ASCII)


def nmcm_extract(entry: str, allow_commas: bool = True, allow_decimal: bool = True,
                 allow_negative: bool = False) -> float | None:
    """Longest numeric partition of entry as a float, or None when absent.

    Every start that can begin a longest match is tried, so partitions
    overlapping a shorter leading match are still found; ties go to the
    earliest occurrence. A partition beyond the float range saturates to the
    largest finite float of its sign, so every extraction is finite.
    """
    found = _pattern(allow_commas, allow_decimal, allow_negative).findall(entry)
    if not found:
        return None
    value = float(max(found, key=len).replace(",", ""))
    return max(-sys.float_info.max, min(value, sys.float_info.max))


class NmcmBehavior(Behavior):
    """Numeric extraction of every entry at apply (scan-at-apply variant)."""

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
        flags = state["flags"]
        return [[None if text is None else nmcm_extract(text, **flags) for text in view.texts]]


class Nmc7Behavior(NmcmBehavior):
    """As nmcm, but fit stores each train entry's extraction: apply parses unseen ones."""

    name = "nmc7"
    fit_schema = {**NmcmBehavior.fit_schema, "lookup": {str: float | None}}

    def fit(self, view, params, root_rule):
        state = super().fit(view, params, root_rule)
        state["lookup"] = {
            entry: nmcm_extract(entry, **state["flags"]) for entry in sorted(view.text_counts)
        }
        return state

    def apply_distinct(self, state, view):
        lookup, flags = state["lookup"], state["flags"]
        return [[None if text is None else lookup[text] if text in lookup
                 else nmcm_extract(text, **flags) for text in view.texts]]


@dataclass
class SearchSpec:
    """Ordered term groups; substrings within a group share one activation."""

    groups: list[list[str]]
    labels: list[str] = field(default_factory=list)
    ordinal: bool = False
    case_sensitive: bool = False

    def __post_init__(self):
        if not self.groups:
            raise ConfigError("srch requires at least one search term")
        for group in self.groups:
            for term in group:
                if not term:
                    raise ConfigError("srch terms must be nonempty strings")
        if not self.labels:
            self.labels = [sanitize_token(g[0]) for g in self.groups]
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("srch group labels must be unique")

    @classmethod
    def from_params(cls, params: dict) -> "SearchSpec":
        aggregate = params.get("aggregate")
        if aggregate:
            groups = [list(g) for g in aggregate]
        else:
            groups = [[t] for t in params.get("search", [])]
        return cls(
            groups=groups,
            ordinal=params.get("ordinal", False),
            case_sensitive=params.get("case_sensitive", False),
        )


class SrchBehavior(Behavior):
    """Boolean column per term group, or a single ordinal column."""

    name = "srch"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"groups": [[str]], "labels": [str], "ordinal": bool, "case_sensitive": bool}
    param_schema = {"search?": [str], "aggregate?": [[str]], "ordinal?": bool,
                    "case_sensitive?": bool}

    def fit(self, view, params, root_rule):
        spec = SearchSpec.from_params(params)
        groups = spec.groups
        if not spec.case_sensitive:
            groups = [[t.upper() for t in g] for g in groups]
        return {
            "groups": groups,
            "labels": spec.labels,
            "ordinal": spec.ordinal,
            "case_sensitive": spec.case_sensitive,
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
        """Each term is looked for in every text at once; a group hits where
        any of its terms does."""
        texts = view.texts
        # Python's str.upper, as fit upper-cases the terms: "ß" becomes "SS".
        probes = ["" if t is None else t if state["case_sensitive"] else t.upper()
                  for t in texts]
        array = np.array(probes, StringDType())
        hits = np.zeros((len(state["groups"]), len(texts)), bool)
        for row, group in zip(hits, state["groups"]):
            for term in group:
                if term.endswith("\0"):  # np.strings.find drops a term's trailing NULs
                    row |= np.fromiter((term in p for p in probes), bool, len(probes))
                else:
                    row |= np.strings.find(array, term) >= 0
        hits[:, [t is None for t in texts]] = False  # a missing cell hits no term
        if state["ordinal"]:
            codes = np.zeros(len(texts))
            for i in range(len(hits), 0, -1):  # the first group that hits writes last
                codes[hits[i - 1]] = i
            return [codes.tolist()]
        return [list(map(_BITS.__getitem__, flags)) for flags in hits.tolist()]
