"""Substring-overlap detection across a column's unique entries, with the
bounded-set encoding variants and their test-efficient counterparts.

The scan walks window lengths from (longest entry - 1) down to a configurable
minimum, comparing every equal-length substring between entries. Complexity is
quadratic in both entry count and entry length, which is acceptable for the
bounded-cardinality columns these transforms target.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

from .encoders import (
    CLASS_BOOLEAN,
    CLASS_CATEGORIC,
    Behavior,
    binary_width,
    code_bits,
    sanitize_token,
    text_counts,
)
from .errors import ConfigError
from .tidytable import canon_text

DEFAULT_MIN_LEN = 5
DEFAULT_PLUG = "zzzplug"
SPACE_AND_PUNCTUATION = frozenset(" " + string.punctuation)


@dataclass(frozen=True)
class OverlapScanConfig:
    min_len: int = DEFAULT_MIN_LEN
    exclude_chars: frozenset[str] = frozenset()
    single_id: bool = True


@dataclass
class OverlapMap:
    """Identified overlaps with their supporting entries, plus per-entry assignments.

    In single-identification mode each entry maps to at most one overlap (the
    longest available, ties broken by smallest string); in multi mode each
    entry maps to the ordered list of overlaps it contains.
    """

    overlaps: dict[str, list[str]] = field(default_factory=dict)
    assignment: dict = field(default_factory=dict)


def config_from_params(params: dict, single_id: bool = True) -> OverlapScanConfig:
    exclude = set(params.get("exclude_chars", ""))
    if params.get("exclude_space_punct", False) or params.get("space_and_punctuation", True) is False:
        exclude |= SPACE_AND_PUNCTUATION
    return OverlapScanConfig(
        min_len=int(params.get("min_len", DEFAULT_MIN_LEN)),
        exclude_chars=frozenset(exclude),
        single_id=single_id,
    )


def _window_set(entry: str, w: int) -> set[str]:
    return {entry[i:i + w] for i in range(len(entry) - w + 1)}


def _clean(s: str, exclude: frozenset[str]) -> bool:
    return not any(ch in exclude for ch in s)


def scan_overlaps(uniques, cfg: OverlapScanConfig) -> OverlapMap:
    """Find character-subset overlaps between the given unique entries."""
    if cfg.min_len < 2:
        raise ConfigError("overlap scan min_len must be at least 2")
    entries = sorted(uniques)
    if not entries:
        return OverlapMap()
    top = max(len(e) for e in entries) - 1
    if cfg.single_id:
        return _scan_single(entries, top, cfg)
    return _scan_multi(entries, top, cfg)


def _scan_single(entries: list[str], top: int, cfg: OverlapScanConfig) -> OverlapMap:
    assignment: dict[str, str] = {}
    for w in range(top, cfg.min_len - 1, -1):
        if len(assignment) == len(entries):
            break
        index: dict[str, set[str]] = {}
        for e in entries:
            for s in _window_set(e, w):
                if _clean(s, cfg.exclude_chars):
                    index.setdefault(s, set()).add(e)
        for e in entries:
            if e in assignment:
                continue
            candidates = [
                s for s in _window_set(e, w)
                if _clean(s, cfg.exclude_chars) and any(o != e for o in index.get(s, ()))
            ]
            if candidates:
                assignment[e] = min(candidates)
    overlaps = {
        s: sorted(e for e in entries if s in e)
        for s in sorted(set(assignment.values()))
    }
    return OverlapMap(overlaps=overlaps, assignment=assignment)


def _scan_multi(entries: list[str], top: int, cfg: OverlapScanConfig) -> OverlapMap:
    # Per pair, keep every common substring at that pair's longest match length.
    pending = {
        (a, b) for i, a in enumerate(entries) for b in entries[i + 1:]
    }
    found: set[str] = set()
    for w in range(top, cfg.min_len - 1, -1):
        if not pending:
            break
        windows = {
            e: {s for s in _window_set(e, w) if _clean(s, cfg.exclude_chars)}
            for e in entries
        }
        done = set()
        for pair in pending:
            a, b = pair
            common = windows[a] & windows[b]
            if common:
                found |= common
                done.add(pair)
        pending -= done
    overlaps = {s: sorted(e for e in entries if s in e) for s in sorted(found)}
    assignment = {}
    for e in entries:
        mine = sorted((s for s in found if s in e), key=lambda s: (-len(s), s))
        if mine:
            assignment[e] = mine
    return OverlapMap(overlaps=overlaps, assignment=assignment)


def _ordered_overlaps(keys) -> list[str]:
    return sorted(keys, key=lambda s: (-len(s), s))


def _resolve_plug(plug: str, overlaps) -> str:
    final, i = plug, 0
    while final in overlaps:
        i += 1
        final = f"{plug}{i}"
    return final


class SpltBehavior(Behavior):
    """Boolean activation column per identified overlap, one per entry."""

    name = "splt"
    coltype_class = CLASS_BOOLEAN

    def fit(self, counts, params, root_rule):
        cfg = config_from_params(params, single_id=True)
        omap = scan_overlaps(text_counts(counts), cfg)
        return {
            "overlaps": _ordered_overlaps(omap.overlaps),
            "assignment": omap.assignment,
        }

    def output_tokens(self, state):
        return [sanitize_token(o) for o in state["overlaps"]]

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        mine = state["assignment"].get(text) if text is not None else None
        return tuple(1.0 if o == mine else 0.0 for o in state["overlaps"])


class Sp15Behavior(Behavior):
    """As splt, but entries may activate several overlaps concurrently."""

    name = "sp15"
    coltype_class = CLASS_BOOLEAN

    def fit(self, counts, params, root_rule):
        cfg = config_from_params(params, single_id=False)
        omap = scan_overlaps(text_counts(counts), cfg)
        return {
            "overlaps": _ordered_overlaps(omap.overlaps),
            "assignment": omap.assignment,
        }

    def output_tokens(self, state):
        return [sanitize_token(o) for o in state["overlaps"]]

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        mine = state["assignment"].get(text, ()) if text is not None else ()
        return tuple(1.0 if o in mine else 0.0 for o in state["overlaps"])


def _match_train_overlap(text: str, overlaps: list[str]) -> str | None:
    """Longest stored overlap contained in text; overlaps are pre-ordered."""
    for o in overlaps:
        if o in text:
            return o
    return None


class Spl2Behavior(Behavior):
    """Replace entries with their identified overlap partition."""

    name = "spl2"
    coltype_class = CLASS_CATEGORIC
    unseen_matches = True  # entries unseen in train are matched against stored overlaps

    def fit(self, counts, params, root_rule):
        cfg = config_from_params(params, single_id=True)
        omap = scan_overlaps(text_counts(counts), cfg)
        return {
            "overlaps": _ordered_overlaps(omap.overlaps),
            "assignment": omap.assignment,
        }

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        if text is None:
            return (None,)
        assigned = state["assignment"].get(text)
        if assigned is None and self.unseen_matches:
            assigned = _match_train_overlap(text, state["overlaps"])
        return (assigned if assigned is not None else self._fallback(state, text),)

    @staticmethod
    def _fallback(state, text):
        return text


class Spl5Behavior(Spl2Behavior):
    """As spl2, but entries without an overlap become an infill plug value."""

    name = "spl5"

    def fit(self, counts, params, root_rule):
        state = super().fit(counts, params, root_rule)
        state["plug"] = _resolve_plug(str(params.get("plug", DEFAULT_PLUG)), state["overlaps"])
        return state

    @staticmethod
    def _fallback(state, text):
        return state["plug"]


class Spl9Behavior(Spl2Behavior):
    """spl2 fit with pure-lookup application (test entries assumed within train)."""

    name = "spl9"
    unseen_matches = False


class Sp10Behavior(Spl5Behavior):
    """spl5 fit with pure-lookup application (test entries assumed within train)."""

    name = "sp10"
    unseen_matches = False


class Sp19Behavior(Behavior):
    """Concurrent activation patterns consolidated by a binary encoding."""

    name = "sp19"
    coltype_class = CLASS_BOOLEAN

    def fit(self, counts, params, root_rule):
        cfg = config_from_params(params, single_id=False)
        agg = text_counts(counts)
        omap = scan_overlaps(agg, cfg)
        overlaps = _ordered_overlaps(omap.overlaps)
        pattern_counts: dict[str, int] = {}
        entry_pattern: dict[str, str] = {}
        for entry, n in agg.items():
            mine = omap.assignment.get(entry, ())
            bits = "".join("1" if o in mine else "0" for o in overlaps)
            if "1" in bits:
                entry_pattern[entry] = bits
                pattern_counts[bits] = pattern_counts.get(bits, 0) + n
        ranked = sorted(pattern_counts, key=lambda p: (-pattern_counts[p], p))
        pattern_code = {p: i + 1 for i, p in enumerate(ranked)}
        return {
            "overlaps": overlaps,
            "codes": {e: pattern_code[p] for e, p in entry_pattern.items()},
            "width": binary_width(len(ranked)),
        }

    def output_tokens(self, state):
        return [str(i) for i in range(state["width"])]

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        code = state["codes"].get(text, 0) if text is not None else 0
        return code_bits(code, state["width"])


class SbstBehavior(Behavior):
    """Whole-entry candidates: an entry activates the longest other entry it contains."""

    name = "sbst"
    coltype_class = CLASS_BOOLEAN

    def fit(self, counts, params, root_rule):
        min_len = int(params.get("min_len", DEFAULT_MIN_LEN))
        if min_len < 1:
            raise ConfigError("sbst min_len must be at least 1")
        cfg = config_from_params(params, single_id=True)
        uniques = sorted(text_counts(counts))
        candidates = [
            b for b in uniques if len(b) >= min_len and _clean(b, cfg.exclude_chars)
        ]
        assignment = {}
        for a in uniques:
            mine = [b for b in candidates if b != a and b in a]
            if mine:
                assignment[a] = sorted(mine, key=lambda b: (-len(b), b))[0]
        columns = [
            b for b in candidates if any(a != b and b in a for a in uniques)
        ]
        return {
            "columns": _ordered_overlaps(columns),
            "assignment": assignment,
        }

    def output_tokens(self, state):
        return [sanitize_token(c) for c in state["columns"]]

    def apply_cell(self, state, cell):
        text = canon_text(cell)
        mine = state["assignment"].get(text) if text is not None else None
        return tuple(1.0 if c == mine else 0.0 for c in state["columns"])
