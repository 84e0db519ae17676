"""Substring-overlap detection across a column's unique entries, with the
bounded-set encoding variants and their test-efficient counterparts.

Single-id mode sorts every suffix of the entries once, as a generalized
suffix array: the entries are split into clean runs at excluded characters,
every suffix of a run with at least ``min_len`` characters is sorted by
prefix doubling over integer ranks (Manber & Myers 1993), and the longest
common prefix of each adjacent pair comes from binary lifting over the same
ranks. A suffix's longest prefix shared with another entry is the running
minimum of those prefixes back to the nearest suffix of another entry on
either side, so one pass gives every entry its widest overlap. The cost grows
with the total characters of the set, times their logarithm.

Entries unseen at fit (``spl2``, ``spl5``) are matched in one call per step
evaluation. The stored overlaps of each length are one sorted array of
fixed-width UTF-32 keys; longest length first, every window of that length of
the texts still unmatched is looked up in it by binary search, and each text
takes the smallest key its windows equal. Keys are compared whole, so a match
is exact.

Multi mode walks window lengths from (longest entry - 1) down to the
minimum. At each width it intersects the window sets of every entry pair not
yet matched, which stays quadratic in the entry count, and each entry's
window set with the overlaps found at that width, which appends them to the
entry's assignment.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .encoders import (
    CLASS_BOOLEAN,
    CLASS_CATEGORIC,
    B1010Behavior,
    Behavior,
    activations,
    ranked_entries,
    sanitize_token,
)
from .errors import ConfigError
from .tidytable import utf32

DEFAULT_MIN_LEN = 5
DEFAULT_PLUG = "zzzplug"
SPACE_AND_PUNCTUATION = frozenset(" " + string.punctuation)
# Texts per block of unseen-entry matching, so that the arrays it holds stay
# small whatever the number of texts; results do not depend on it.
MATCH_BLOCK = 2**11
# The transform parameters that config_from_params reads.
SCAN_PARAMS = {"min_len?": int, "exclude_chars?": str, "space_and_punctuation?": bool}


@dataclass(frozen=True)
class OverlapScanConfig:
    min_len: int = DEFAULT_MIN_LEN
    exclude_chars: frozenset[str] = frozenset()
    single_id: bool = True


@dataclass
class OverlapMap:
    """Identified overlaps, longest first, then smallest (the column order of
    splt, sp15 and sp19), plus per-entry assignments.

    In single-identification mode each entry maps to at most one overlap (the
    longest available, ties broken by smallest string); in multi mode each
    entry maps to the list of overlaps it contains, in the same order.
    """

    overlaps: list[str] = field(default_factory=list)
    assignment: dict = field(default_factory=dict)


def config_from_params(params: dict, single_id: bool = True) -> OverlapScanConfig:
    exclude = set(params.get("exclude_chars", ""))
    if params.get("space_and_punctuation", True) is False:
        exclude |= SPACE_AND_PUNCTUATION
    return OverlapScanConfig(
        min_len=params.get("min_len", DEFAULT_MIN_LEN),
        exclude_chars=frozenset(exclude),
        single_id=single_id,
    )


def _clean(s: str, exclude: frozenset[str]) -> bool:
    return not any(ch in exclude for ch in s)


def _windows(entry: str, w: int, exclude: frozenset[str]) -> set[str]:
    """The entry's distinct substrings of length w free of excluded characters."""
    windows = {entry[i:i + w] for i in range(len(entry) - w + 1)}
    if exclude:
        windows = {s for s in windows if _clean(s, exclude)}
    return windows


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
    """Each entry's longest substring of at least ``min_len`` clean characters
    that another entry holds too (at most ``top`` long), the smallest on a tie;
    the assignment lists the entries widest first, then in entry order."""
    text = "".join(entries)
    if len(text) < cfg.min_len:
        return OverlapMap()
    # The entries as one array of character ranks from 1, each entry followed
    # by a 0 separator; excluded characters are separators too.
    codes = utf32(text)
    low = int(codes.min())
    ranks = codes - np.int64(low - 1)
    if cfg.exclude_chars:
        ranks[np.isin(codes, np.fromiter(map(ord, cfg.exclude_chars), np.uint32))] = 0
    size = np.fromiter(map(len, entries), np.int64, len(entries))
    entry = np.arange(len(entries))
    chars = np.zeros(len(text) + len(entries), np.int64)
    body = np.ones(len(chars), bool)
    body[np.cumsum(size) + entry] = False
    chars[body] = ranks
    # rest[p]: the characters from p to the next separator, the rest of its
    # clean run.
    at = np.arange(len(chars))
    rest = np.minimum.accumulate(np.where(chars == 0, at, len(at))[::-1])[::-1] - at
    longest = int(rest.max())
    if longest < cfg.min_len:
        return OverlapMap()
    keys = _block_keys(chars, int(codes.max()) - low + 2, longest)
    kept = np.flatnonzero(rest >= cfg.min_len)
    sa = kept[np.argsort(keys[-1, kept])]
    owner = np.repeat(entry, size + 1)[sa]
    lcp = np.zeros(len(sa) + 1, np.int64)  # lcp[i]: sa[i - 1] against sa[i], 0 at both ends
    lcp[1:-1] = _adjacent_lcp(keys, rest, sa[:-1], sa[1:])

    # Each suffix's longest prefix shared with another entry: the running
    # minimum of lcp back to the nearest other-owner suffix on either side.
    # Offsetting each block of one owner's suffixes by its block number times
    # ``span`` keeps the running minima of the blocks apart.
    block = np.zeros(len(sa), np.int64)
    np.cumsum(owner[1:] != owner[:-1], out=block[1:])
    span = block * (longest + 1)
    left = np.minimum.accumulate(lcp[:-1] - span) + span
    right = np.minimum.accumulate((lcp[1:] + span)[::-1])[::-1] - span
    shared = np.minimum(np.maximum(left, right), top)

    # Per entry, its first suffix in suffix-array order at its widest share: the
    # prefix of that width is the smallest of the longest overlaps. A stable
    # sort by (owner, widest first) keeps suffix-array order within a tie.
    hit = np.flatnonzero(shared >= cfg.min_len)
    if not len(hit):
        return OverlapMap()
    hit = hit[np.argsort(owner[hit] * (longest + 1) + longest - shared[hit], kind="stable")]
    first = hit[np.concatenate(([True], owner[hit[1:]] != owner[hit[:-1]]))]
    width = shared[first].tolist()
    owners = owner[first].tolist()
    # A position less its entry's index is a position in text, which has no separators.
    names = [text[p:p + w] for p, w in zip((sa[first] - owner[first]).tolist(), width)]
    assignment = {entries[owners[i]]: names[i]
                  for i in sorted(range(len(names)), key=width.__getitem__, reverse=True)}
    return OverlapMap(overlaps=_ordered_overlaps(set(names)), assignment=assignment)


def _block_keys(chars, base: int, longest: int):
    """Row j keys the 2**j characters from each position, so that keys order
    as the blocks do as strings: prefix doubling (Manber & Myers 1993).
    ``chars`` are character ranks below ``base``. Blocks are packed in that
    base while it fits 63 bits, then ranked."""
    keys = np.zeros(((longest - 1).bit_length() + 1, len(chars)), np.int64)
    keys[0] = chars
    for j in range(1, len(keys)):
        b = 1 << (j - 1)
        prev = keys[j - 1]
        if base ** (2 * b) <= 2**63:
            scale = base ** b
        else:
            order = np.argsort(prev)
            ranked = prev[order]
            step = np.ones(len(prev), np.int64)
            step[1:] = ranked[1:] != ranked[:-1]
            prev = np.empty_like(prev)
            prev[order] = np.cumsum(step)  # dense ranks from 1
            scale = len(prev) + 1
        keys[j, :-b] = prev[b:]
        keys[j] += prev * scale
    return keys


def _adjacent_lcp(keys, rest, x, y):
    """Longest common prefix of the suffixes at positions x and y within their
    clean runs: binary lifting over the block keys to their common prefix
    across separators, then cut at the shorter run."""
    lcp = np.zeros(len(x), np.int64)
    for j in range(len(keys) - 1, -1, -1):
        same = keys[j].take(x + lcp, mode="clip") == keys[j].take(y + lcp, mode="clip")
        lcp += same << j
    return np.minimum(lcp, np.minimum(rest[x], rest[y]))


def _scan_multi(entries: list[str], top: int, cfg: OverlapScanConfig) -> OverlapMap:
    # Per pair, keep every common substring at that pair's longest match length.
    pending = {
        (a, b) for i, a in enumerate(entries) for b in entries[i + 1:]
    }
    overlaps: list[str] = []
    mine: dict[str, list[str]] = {e: [] for e in entries}
    for w in range(top, cfg.min_len - 1, -1):
        if not pending:
            break
        windows = {e: _windows(e, w, cfg.exclude_chars) for e in entries}
        found: set[str] = set()
        done = set()
        for pair in pending:
            a, b = pair
            common = windows[a] & windows[b]
            if common:
                found |= common
                done.add(pair)
        pending -= done
        if found:  # widths fall, so every list comes out longest first, then smallest
            overlaps += sorted(found)
            for e, held in windows.items():
                mine[e] += sorted(held & found)
    return OverlapMap(overlaps=overlaps, assignment={e: m for e, m in mine.items() if m})


def _ordered_overlaps(keys) -> list[str]:
    return sorted(keys, key=lambda s: (-len(s), s))


def _resolve_plug(plug: str, overlaps) -> str:
    final, i = plug, 0
    while final in overlaps:
        i += 1
        final = f"{plug}{i}"
    return final


class SpltBehavior(Behavior):
    """Boolean activation column per identified overlap: an entry activates
    its assigned overlap (splt, sbst) or overlaps (sp15)."""

    name = "splt"
    coltype_class = CLASS_BOOLEAN
    fit_schema = {"overlaps": [str], "assignment": {str: str}}  # overlaps name the columns
    param_schema = SCAN_PARAMS
    single_id = True

    def fit(self, view, params, root_rule):
        cfg = config_from_params(params, single_id=self.single_id)
        omap = scan_overlaps(view.text_counts, cfg)
        return {"overlaps": omap.overlaps, "assignment": omap.assignment}

    def output_tokens(self, state):
        return [sanitize_token(o) for o in state["overlaps"]]

    def compile(self, state):
        """Entry -> positions of its active columns, and the column count. An
        assigned name that is no stored overlap activates nothing."""
        column = {o: i for i, o in enumerate(state["overlaps"])}
        active = {}
        for e, mine in state["assignment"].items():
            names = [mine] if isinstance(mine, str) else mine
            active[e] = [column[o] for o in names if o in column]
        return active, len(column)

    def apply_distinct(self, compiled, view):
        active, size = compiled
        mine = list(map(active.get, view.texts, repeat(())))
        rows = np.repeat(np.arange(len(mine)), list(map(len, mine)))
        return activations(size, len(mine), rows, list(chain.from_iterable(mine)))


class Sp15Behavior(SpltBehavior):
    """As splt, but entries may activate several overlaps concurrently."""

    name = "sp15"
    fit_schema = {"overlaps": [str], "assignment": {str: [str]}}
    single_id = False


def _overlap_keys(overlaps) -> list[tuple[int, np.ndarray | None, list[str]]]:
    """The stored overlaps of each length, longest first: in string order, and
    as one array of fixed-width UTF-32 keys, which sort as the strings do."""
    by_length: dict[int, list[str]] = {}
    for o in sorted(set(overlaps)):
        by_length.setdefault(len(o), []).append(o)
    return [(n, utf32("".join(names)).view(f"<U{n}") if n else None, names)
            for n, names in sorted(by_length.items(), reverse=True)]


def _match_train_overlap(texts: list[str], keys) -> list[str | None]:
    """Per text, the longest stored overlap it contains, the smallest on a tie:
    the first in (-len, s) order. ``keys`` come from ``_overlap_keys``."""
    return [m for lo in range(0, len(texts), MATCH_BLOCK)
            for m in _match_block(texts[lo:lo + MATCH_BLOCK], keys)]


def _match_block(texts: list[str], keys) -> list[str | None]:
    """Longest first, the windows of that length of every text still unmatched
    are looked up among the keys of that length at once; a text's match is the
    smallest key any of its windows equals."""
    found: list[str | None] = [None] * len(texts)
    if not keys:
        return found
    codes = utf32("".join(texts))
    size = np.fromiter(map(len, texts), np.int64, len(texts))
    offset = np.cumsum(size) - size
    unmatched = np.ones(len(texts), bool)
    left, longest = len(texts), int(size.max())
    for n, stored, names in keys:
        if n > longest:
            continue
        if n == 0:  # every text holds the empty string
            for i in np.flatnonzero(unmatched).tolist():
                found[i] = names[0]
            break
        # Every window of n characters of the unmatched texts, by text.
        live = np.flatnonzero(unmatched & (size >= n))
        if not len(live):
            continue
        count = size[live] - (n - 1)
        owner = np.repeat(live, count)
        at = np.arange(len(owner)) + np.repeat(offset[live] - (np.cumsum(count) - count), count)
        # The n characters from each position as one fixed-width key, without a copy.
        windows = np.ndarray((len(codes) - n + 1,), stored.dtype, codes, strides=(4,))[at]
        rank = np.searchsorted(stored, windows).clip(max=len(stored) - 1)
        hit = stored[rank] == windows
        if not hit.any():
            continue
        best = np.full(len(texts), len(stored))
        np.minimum.at(best, owner[hit], rank[hit])
        won = np.flatnonzero(best < len(stored))
        for i, r in zip(won.tolist(), best[won].tolist()):
            found[i] = names[r]
        unmatched[won] = False
        left -= len(won)
        if not left:
            break
    return found


class Spl2Behavior(Behavior):
    """Replace entries with their identified overlap partition."""

    name = "spl2"
    coltype_class = CLASS_CATEGORIC
    fit_schema = {"assignment": {str: str}}  # single-id overlaps are exactly the assigned values
    param_schema = SCAN_PARAMS
    unseen_matches = True  # entries unseen in train are matched against stored overlaps

    def fit(self, view, params, root_rule):
        cfg = config_from_params(params, single_id=True)
        return {"assignment": scan_overlaps(view.text_counts, cfg).assignment}

    def compile(self, state):
        if not self.unseen_matches:
            return state
        return {**state, "keys": _overlap_keys(state["assignment"].values())}

    def apply_distinct(self, state, view):
        """Seen entries are looked up; the unseen ones are matched together."""
        texts = view.texts
        found = list(map(state["assignment"].get, texts))
        if self.unseen_matches:
            unseen = [i for i, (t, f) in enumerate(zip(texts, found))
                      if f is None and t is not None]
            if unseen:
                matched = _match_train_overlap([texts[i] for i in unseen], state["keys"])
                for i, m in zip(unseen, matched):
                    found[i] = m
        return [[f if f is not None or t is None else self._fallback(state, t)
                 for t, f in zip(texts, found)]]

    @staticmethod
    def _fallback(state, text):
        return text


class Spl5Behavior(Spl2Behavior):
    """As spl2, but entries without an overlap become an infill plug value."""

    name = "spl5"
    fit_schema = {"assignment": {str: str}, "plug": str}
    param_schema = {**SCAN_PARAMS, "plug?": str}

    def fit(self, view, params, root_rule):
        state = super().fit(view, params, root_rule)
        overlaps = set(state["assignment"].values())
        state["plug"] = _resolve_plug(params.get("plug", DEFAULT_PLUG), overlaps)
        return state

    @staticmethod
    def _fallback(state, text):
        return state["plug"]


class Spl9Behavior(Spl2Behavior):
    """spl2 fit, applied by its stored assignment alone (test entries assumed within train)."""

    name = "spl9"
    unseen_matches = False


class Sp10Behavior(Spl5Behavior):
    """spl5 fit, applied by its stored assignment alone (test entries assumed within train)."""

    name = "sp10"
    unseen_matches = False


class Sp19Behavior(B1010Behavior):
    """Concurrent activation patterns consolidated by a binary encoding: each
    entry's pattern code takes 1010's bits."""

    name = "sp19"
    fit_schema = {"codes": {str: int}}
    param_schema = SCAN_PARAMS

    def fit(self, view, params, root_rule):
        cfg = config_from_params(params, single_id=False)
        omap = scan_overlaps(view.text_counts, cfg)
        pattern_counts: dict[str, int] = {}
        entry_pattern: dict[str, str] = {}
        for entry, n in view.text_counts.items():
            mine = omap.assignment.get(entry, ())
            bits = "".join("1" if o in mine else "0" for o in omap.overlaps)
            if "1" in bits:
                entry_pattern[entry] = bits
                pattern_counts[bits] = pattern_counts.get(bits, 0) + n
        pattern_code = {p: i + 1 for i, p in enumerate(ranked_entries(pattern_counts))}
        return {"codes": {e: pattern_code[p] for e, p in entry_pattern.items()}}

    def fit_fault(self, state):
        if min(state["codes"].values(), default=1) < 1:
            return "holds a pattern code below 1; 0 is the code of unseen entries"
        return None

    def code_map(self, state):
        return state["codes"]

    def top_code(self, state):
        return max(state["codes"].values(), default=0)


class SbstBehavior(SpltBehavior):
    """Whole-entry candidates: an entry activates the longest other entry it contains."""

    name = "sbst"

    def fit(self, view, params, root_rule):
        min_len = params.get("min_len", DEFAULT_MIN_LEN)
        if min_len < 1:
            raise ConfigError("sbst min_len must be at least 1")
        cfg = config_from_params(params, single_id=True)
        uniques = sorted(view.text_counts)
        candidates = [
            b for b in uniques if len(b) >= min_len and _clean(b, cfg.exclude_chars)
        ]
        overlaps, assignment = set(), {}
        for a in uniques:  # the overlaps are the candidates some other entry contains
            if mine := [b for b in candidates if b != a and b in a]:
                overlaps.update(mine)
                assignment[a] = min(mine, key=lambda b: (-len(b), b))
        return {
            "overlaps": _ordered_overlaps(overlaps),
            "assignment": assignment,
        }
