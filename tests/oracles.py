"""Independent brute-force oracles used to verify the production paths.

These deliberately avoid the implementation's suffix-array scan and
regex-match machinery: overlap answers come from a dynamic-programming
longest common substring table plus substring enumeration, and whole
single-id overlap maps from the window-width loop that the suffix-array
scan replaced; unseen-entry matching and search from per-text containment
tests in Python; numeric extraction answers from an enumerate-every-substring
walk with a hand-rolled format validator, the built-in trees' answers from
an argsort-and-cumsum CART with nested-dict nodes, and CSV files from a
reader and writer that classify and render cell by cell, adjacent infill
from a row-by-row forward fill, every behaviour's output from a rule
applied to one value at a time (``REFERENCE_CELLS``), and code-map inversion
from a dict of every output pattern, and the numeric statistics (moments,
infill statistics, target marks, min/max) from loops over sorted
(value, count) pairs, one Python value at a time, and inversion from one
decoder call per row over the encoded columns read as lists.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import re
import sys

import numpy as np

from parsemunge.encoders import binary_width
from parsemunge.errors import ConfigError, DataError
from parsemunge.extract_search import nmcm_extract
from parsemunge.importance import TASK_CLASSIFICATION, PredictorAdapter
from parsemunge.infill import KIND_MEAN, KIND_MEDIAN, KIND_MODE
from parsemunge.registry import BEHAVIORS
from parsemunge.tidytable import (
    _DECIMAL_RE,
    DEFAULT_MISSING_TOKENS,
    Cell,
    TidyTable,
    as_number,
    canon_text,
    parse_number,
    sum_scale_exponent,
)
from parsemunge.stringparse import OverlapMap, OverlapScanConfig, _width_index, _windows


def dp_lcs_length(a: str, b: str) -> int:
    """Classic O(len(a)*len(b)) longest-common-substring DP."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def _substrings_of_len(s: str, length: int) -> set[str]:
    return {s[i:i + length] for i in range(len(s) - length + 1)}


def oracle_single_assignment(uniques, min_len: int = 2,
                             exclude: frozenset = frozenset()) -> dict[str, str]:
    """Expected single-identification assignment: per entry, the longest
    (exclusion-filtered, length >= min_len) common substring with any other
    entry, ties broken by the lexicographically smallest candidate."""
    entries = sorted(uniques)
    assignment = {}
    cap = max((len(e) for e in entries), default=1) - 1
    for a in entries:
        others = [b for b in entries if b != a]
        if not others:
            continue
        for length in range(min(cap, len(a)), min_len - 1, -1):
            candidates = {
                s for s in _substrings_of_len(a, length)
                if not any(ch in exclude for ch in s)
                and any(s in b for b in others)
            }
            if candidates:
                assignment[a] = min(candidates)
                break
    return assignment


def oracle_pair_longest_common(a: str, b: str, min_len: int,
                               exclude: frozenset = frozenset()) -> set[str]:
    """All common substrings of a pair at the pair's longest match length."""
    cap = max(len(a), len(b)) - 1
    for length in range(min(cap, len(a), len(b)), min_len - 1, -1):
        common = {
            s for s in _substrings_of_len(a, length)
            if not any(ch in exclude for ch in s) and s in b
        }
        if common:
            return common
    return set()


def reference_match_train_overlap(text: str, overlaps) -> str | None:
    """The first stored overlap, in (-len, s) order, that text contains."""
    for o in sorted(overlaps, key=lambda s: (-len(s), s)):
        if o in text:
            return o
    return None


def reference_overlap_cell(state: dict, cell, plug: bool = False) -> tuple:
    """One spl2 cell (spl5 with ``plug``) by the scalar rule: the assigned
    overlap of a train entry, else the first stored overlap the text contains,
    else the text itself (the plug)."""
    text = canon_text(cell)
    if text is None:
        return (None,)
    found = state["assignment"].get(text)
    if found is None:
        found = reference_match_train_overlap(text, state["assignment"].values())
    if found is None:
        found = state["plug"] if plug else text
    return (found,)


def reference_srch_cell(state: dict, cell) -> tuple:
    """One srch cell by the scalar rule: each term tested with ``in`` on the
    text, upper-cased by str.upper unless the search is case-sensitive."""
    text = canon_text(cell)
    if text is None:
        hits = [False] * len(state["groups"])
    else:
        probe = text if state["case_sensitive"] else text.upper()
        hits = [any(t in probe for t in g) for g in state["groups"]]
    if state["ordinal"]:
        for i, hit in enumerate(hits):
            if hit:
                return (float(i + 1),)
        return (0.0,)
    return tuple(1.0 if h else 0.0 for h in hits)


def valid_numeric(s: str, allow_commas: bool = True, allow_decimal: bool = True,
                  allow_negative: bool = False) -> bool:
    """Format validator: digits, comma groups in the integer part, one decimal
    point followed by digits, optional leading minus."""
    if not s:
        return False
    i = 0
    if allow_negative and s[0] == "-":
        i = 1
    if i >= len(s) or not ("0" <= s[i] <= "9"):
        return False
    seen_dot = False
    j = i
    while j < len(s):
        ch = s[j]
        if "0" <= ch <= "9":
            j += 1
            continue
        if ch == ",":
            if not allow_commas or seen_dot:
                return False
            if j + 1 >= len(s) or not ("0" <= s[j + 1] <= "9"):
                return False
        elif ch == ".":
            if not allow_decimal or seen_dot:
                return False
            if j + 1 >= len(s) or not ("0" <= s[j + 1] <= "9"):
                return False
            seen_dot = True
        else:
            return False
        j += 1
    return True


def oracle_extract(s: str, allow_commas: bool = True, allow_decimal: bool = True,
                   allow_negative: bool = False) -> float | None:
    """Enumerate every substring, keep format-valid ones, pick the longest
    (earliest start on ties), strip commas, parse; a value beyond the float
    range saturates to the largest finite float of its sign."""
    for length in range(len(s), 0, -1):
        for start in range(len(s) - length + 1):
            piece = s[start:start + length]
            if valid_numeric(piece, allow_commas, allow_decimal, allow_negative):
                value = float(piece.replace(",", ""))
                if math.isinf(value):
                    return math.copysign(sys.float_info.max, value)
                return value
    return None


def _centred(y):
    """Regression targets less the target nearest their mean, which lies within
    one standard deviation of it: sums of squares about it do not cancel when
    the mean is large against the spread, and integer targets stay integers,
    whose sums are exact in any order."""
    return y - y[np.argmin(np.abs(y - y.mean()))]


def _impurity(y, task: str, n_classes: int) -> float:
    if task == TASK_CLASSIFICATION:
        probs = np.bincount(y, minlength=n_classes) / len(y)
        return float(1.0 - (probs ** 2).sum())
    return float(np.var(y))


def _leaf_value(y, task: str) -> float:
    if task == TASK_CLASSIFICATION:
        return float(np.argmax(np.bincount(y)))
    return float(np.mean(y))


def _best_split(X, y, task: str, n_classes: int, parent_imp: float):
    """Per feature: sort the node's rows, cut between unequal neighbours and
    score every cut from cumulative sums in sorted order."""
    n = len(y)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        cuts = np.nonzero(xs[1:] > xs[:-1])[0]
        if len(cuts) == 0:
            continue
        nl = cuts + 1.0
        nr = n - nl
        if task == TASK_CLASSIFICATION:
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), ys] = 1.0
            cum = np.cumsum(onehot, axis=0)
            lc = cum[cuts]
            rc = cum[-1] - lc
            imp_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
            imp_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        else:
            ys = _centred(ys)
            cs = np.cumsum(ys)
            css = np.cumsum(ys.astype(float) ** 2)
            sl, ssl = cs[cuts], css[cuts]
            sr, ssr = cs[-1] - sl, css[-1] - ssl
            imp_l = ssl / nl - (sl / nl) ** 2
            imp_r = ssr / nr - (sr / nr) ** 2
        weighted = (nl * imp_l + nr * imp_r) / n
        k = int(np.argmin(weighted))
        tol = 1e-12 if task == TASK_CLASSIFICATION else 1e-12 * parent_imp
        if weighted[k] < parent_imp - tol and (best is None or weighted[k] < best[0] - tol):
            lower, upper = float(xs[cuts[k]]), float(xs[cuts[k] + 1])
            threshold = (lower + upper) / 2.0
            if not lower <= threshold < upper:  # a midpoint that would empty a child
                threshold = lower
            best = (float(weighted[k]), j, threshold)
    return best


def _grow(X, y, depth, max_depth, task, n_classes):
    if depth >= max_depth or len(y) < 2 or len(np.unique(y)) == 1:
        return {"leaf": _leaf_value(y, task)}
    parent = _impurity(y, task, n_classes)
    split = _best_split(X, y, task, n_classes, parent)
    if split is None:
        return {"leaf": _leaf_value(y, task)}
    _, j, threshold = split
    mask = X[:, j] <= threshold
    return {
        "feature": j,
        "threshold": threshold,
        "left": _grow(X[mask], y[mask], depth + 1, max_depth, task, n_classes),
        "right": _grow(X[~mask], y[~mask], depth + 1, max_depth, task, n_classes),
    }


def _predict_tree(node, X) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if len(idx) == 0:
            continue
        if "leaf" in nd:
            out[idx] = nd["leaf"]
            continue
        mask = X[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


def preorder(node) -> list[tuple]:
    """(feature, threshold) of each split and (leaf value,) of each leaf, in
    preorder."""
    if "leaf" in node:
        return [(node["leaf"],)]
    return [(node["feature"], node["threshold"]), *preorder(node["left"]),
            *preorder(node["right"])]


def reference_tree(task: str, max_depth: int = 8, n_trees: int = 10,
                   seed: int = 0) -> PredictorAdapter:
    """``builtin_tree`` with the reference CART: the same seeded bootstraps
    and the same vote and mean aggregation."""

    def train(X, y):
        X = np.asarray(X, dtype=float)
        if task == TASK_CLASSIFICATION:
            y = np.asarray(y, dtype=int)
            n_classes = int(y.max()) + 1
        else:
            y = np.asarray(y, dtype=float)
            n_classes = 0
        trees = []
        for child in np.random.SeedSequence(seed).spawn(n_trees):
            idx = np.random.default_rng(child).integers(0, len(y), len(y))
            trees.append(_grow(X[idx], y[idx], 0, max_depth, task, n_classes))
        return {"trees": trees, "n_classes": n_classes}

    def predict(model, X):
        X = np.asarray(X, dtype=float)
        preds = np.stack([_predict_tree(t, X) for t in model["trees"]])
        if task == TASK_CLASSIFICATION:
            votes = np.zeros((len(X), max(model["n_classes"], 1)))
            for row in preds.astype(int):
                votes[np.arange(len(X)), row] += 1.0
            return votes.argmax(axis=1)
        return preds.mean(axis=0)

    return PredictorAdapter(train=train, predict=predict, task=task)


def _reference_classify(token: str, missing_tokens: frozenset[str]) -> Cell:
    if token in missing_tokens:
        return None
    num = parse_number(token)
    if num is not None:
        return num
    # Overflowing decimals ("1e999") match the grammar but are non-finite.
    if _DECIMAL_RE.match(token):
        return None
    return token


def reference_load_csv(path, missing_tokens=None) -> TidyTable:
    """``load_csv`` classifying cell by cell, row by row."""
    tokens = frozenset(missing_tokens) if missing_tokens is not None else DEFAULT_MISSING_TOKENS
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        seen = set()
        for h in headers:
            if h in seen:
                raise DataError(f"{path}: duplicate header {h!r}")
            seen.add(h)
        columns: list[list[Cell]] = [[] for _ in headers]
        for i, row in enumerate(reader, start=1):
            if len(row) != len(headers):
                raise DataError(
                    f"{path}: row {i} has {len(row)} fields, expected {len(headers)}"
                )
            for col, token in zip(columns, row):
                col.append(_reference_classify(token, tokens))
    return TidyTable(headers=headers, columns=columns)


def reference_write_csv(table: TidyTable, path) -> None:
    """``write_csv`` rendering cell by cell, row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.headers)
        for i in range(table.row_count):
            writer.writerow([canon_text(col[i]) for col in table.columns])  # None as ""


def reference_scan_single(entries: list[str], top: int, cfg: OverlapScanConfig) -> OverlapMap:
    """The single-id overlap scan as a loop over window widths, longest first,
    with a window index over every entry at each width."""
    assignment: dict[str, str] = {}
    overlaps: dict[str, list[str]] = {}
    exclude = cfg.exclude_chars
    for w in range(top, cfg.min_len - 1, -1):
        if len(assignment) == len(entries):
            break
        index = _width_index((e, _windows(e, w, exclude)) for e in entries)
        for e in entries:
            if e in assignment:
                continue
            candidates = [s for s in _windows(e, w, exclude) if len(index[s]) > 1]
            if candidates:
                s = assignment[e] = min(candidates)
                overlaps[s] = index[s]
    return OverlapMap(overlaps=dict(sorted(overlaps.items())), assignment=assignment)


def reference_adjacent_fill(col: list[Cell], mask: list[bool]) -> list[Cell]:
    """Adjacent infill row by row: a target row takes the value of the previous
    non-target row, leading targets that of the first non-target row, and every
    row is 0.0 when all are targets."""
    first = next((v for v, m in zip(col, mask) if not m), 0.0)
    out, last, seen = [], None, False
    for v, m in zip(col, mask):
        if m:
            out.append(last if seen else first)
        else:
            out.append(v)
            last, seen = v, True
    return out


# The numeric statistics and target marks as they were taken one value at a
# time, before they were taken over float64 arrays (tidytable.numbers).

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


def reference_mark_targets(col: list[Cell], rule: str = "missing_only") -> list[bool]:
    return [is_infill_target(cell, rule) for cell in col]


def _sort_key(value):
    return (isinstance(value, str), value)


def reference_train_stat(kind: str, pairs: list[tuple]) -> float | None:
    """Train-basis statistic for a fill kind over (value, count) non-target
    pairs, as it was before the mean was scaled and the median halved on
    overflow: where the sum overflows, the mean and median read inf."""
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


def reference_weighted_moments(counts: dict[Cell, int]) -> tuple[float, float, float, int]:
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
    std = reference_deviation_std([(v - mean) - shift for v, _ in pairs], total,
                                  [c for _, c in pairs])
    return math.ldexp(mean, exp), math.ldexp(shift, exp), math.ldexp(std, exp), total


def reference_deviation_std(deviations: list[float], total: int, counts=None) -> float:
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


def reference_numeric_source_stats(col: list[Cell]) -> dict:
    """The train-basis statistics of a numeric source column (every cell a
    number or None, at least one number), from its sorted cells."""
    values = sorted(v for v in col if v is not None)
    total = len(values)
    exp = sum_scale_exponent(max(-values[0], values[-1]), total) if total else 0
    if exp:
        values = [math.ldexp(v, -exp) for v in values]
    mean = math.fsum(values) / total if total else 0.0
    std = reference_deviation_std([v - mean for v in values], total)
    return {"coltype": "numeric", "total": total,
            "mean": math.ldexp(mean, exp), "std": math.ldexp(std, exp)}


def reference_categoric_source_stats(col: list[Cell]) -> dict:
    """The train-basis statistics of a source column that holds text or no
    value, counted cell by cell on canonical text; both zeros count as "0"."""
    freq: dict[str, int] = {}
    for cell in col:
        if cell is not None:
            text = "0" if isinstance(cell, float) and cell == 0.0 else canon_text(cell)
            freq[text] = freq.get(text, 0) + 1
    top = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    return {"coltype": "categoric" if freq else "all-missing", "total": sum(freq.values()),
            "top": [list(kv) for kv in top], "uniques": sorted(freq)}


def reference_min_max(counts: dict[Cell, int]) -> tuple[float, float]:
    """mnmx's fitted min and max: the smallest and the largest number among
    the keys, -0.0 below 0.0."""
    values = [v for v in (as_number(c) for c in counts) if v is not None]
    signed = functools.partial(math.copysign, 1.0)
    lo = min(values, key=lambda v: (v, signed(v))) if values else 0.0
    hi = max(values, key=lambda v: (v, signed(v))) if values else 0.0
    return lo, hi


# Each behaviour's output for one value, by the rules the behaviours applied
# one value at a time before they evaluated whole columns. Each takes the fit
# state; what a behaviour compiled from it is rebuilt here.

def reference_upcs_cell(state: dict, cell) -> tuple:
    text = canon_text(cell)
    if text is None:
        return (None,)
    return (text.upper() if state["enabled"] else text,)


def reference_narw_cell(state: dict, cell) -> tuple:
    return (1.0 if is_infill_target(cell, state["rule"]) else 0.0,)


def reference_excl_cell(state: dict, cell) -> tuple:
    return (cell,)


def reference_bnry_cell(state: dict, cell) -> tuple:
    text = canon_text(cell)
    if text == state["zero"]:
        return (0.0,)
    # Mode imputation for missing and unseen; NArw carries the signal.
    return (1.0,)


def code_bits(code: int, width: int) -> tuple[float, ...]:
    """The code's width low bits, most significant first."""
    return tuple(float((code >> (width - 1 - i)) & 1) for i in range(width))


def _one_hot(code: int, size: int) -> tuple:
    out = [0.0] * size
    if code:
        out[code - 1] = 1.0
    return tuple(out)


def reference_code_cell(name: str, state: dict, cell) -> tuple:
    """ord3, onht, 1010 and sp19: the cell's code, 0 when missing or unseen,
    encoded as the behaviour ``name`` encodes one code."""
    if name == "sp19":
        codes = state["codes"]
        top = max(codes.values(), default=0)
    else:
        codes = {e: i + 1 for i, e in enumerate(state["entries"])}
        top = len(state["entries"])
    code = codes.get(canon_text(cell), 0)
    if name == "ord3":
        return (float(code),)
    if name == "onht":
        return _one_hot(code, top)
    return code_bits(code, binary_width(top))


def reference_nmbr_cell(state: dict, cell) -> tuple:
    v = as_number(cell)
    mean, shift, std = state["mean"], state["shift"], state["std"]
    if v is None or std == 0.0:
        return (0.0,)
    if math.isinf(v - mean):
        # Quartering every term is exact for normal floats. Only data
        # spanning more than the float range comes here: the rest keeps every bit.
        v, mean, shift, std = v * 0.25, mean * 0.25, shift * 0.25, std * 0.25
    return (((v - mean) - shift) / std,)


def reference_mnmx_cell(state: dict, cell) -> tuple:
    q = 0.25 if math.isinf(state["max"] - state["min"]) else 1.0
    lo, span, mean = state["min"] * q, state["max"] * q - state["min"] * q, state["mean"]
    v = as_number(cell)
    if v is None:
        v = mean  # train mean, scaled below
    if span == 0.0:
        return (0.0,)
    return ((v * q - lo) / span,)


def reference_nmcm_cell(state: dict, cell) -> tuple:
    text = canon_text(cell)
    if text is None:
        return (None,)
    return (nmcm_extract(text, **state["flags"]),)


def reference_nmc7_cell(state: dict, cell) -> tuple:
    text = canon_text(cell)
    if text is None:
        return (None,)
    lookup = state["lookup"]
    if text in lookup:
        return (lookup[text],)
    return (nmcm_extract(text, **state["flags"]),)


def reference_activation_cell(state: dict, cell) -> tuple:
    """splt, sp15 and sbst: 1.0 in the column of each overlap assigned to the
    cell's text; an assigned name that is no stored overlap activates nothing."""
    column = {o: i for i, o in enumerate(state["overlaps"])}
    mine = state["assignment"].get(canon_text(cell), ())
    out = [0.0] * len(column)
    for o in [mine] if isinstance(mine, str) else mine:
        if o in column:
            out[column[o]] = 1.0
    return tuple(out)


def table_decoder(behavior, state: dict):
    """A code-map step's output rows read backwards through a dict of every
    pattern the step outputs, the code-0 pattern reading as missing."""
    compiled = behavior.compile(state)
    entries = [*compiled[0], None]
    rows = zip(*behavior.apply_distinct(compiled, entries)) if compiled[1] else [()] * len(entries)
    return dict(zip(rows, entries)).__getitem__


def reference_lookup_cell(state: dict, cell, plug: bool = False) -> tuple:
    """spl9 (sp10 with ``plug``): the assigned overlap of a train entry, else
    the text itself (the plug); unseen texts are never matched."""
    text = canon_text(cell)
    if text is None:
        return (None,)
    return (state["assignment"].get(text, state["plug"] if plug else text),)


REFERENCE_CELLS = {
    "UPCS": reference_upcs_cell,
    "NArw": reference_narw_cell,
    "excl": reference_excl_cell,
    "bnry": reference_bnry_cell,
    **{name: functools.partial(reference_code_cell, name)
       for name in ("ord3", "onht", "1010", "sp19")},
    "nmbr": reference_nmbr_cell,
    "mnmx": reference_mnmx_cell,
    "nmcm": reference_nmcm_cell,
    "nmc7": reference_nmc7_cell,
    **dict.fromkeys(("splt", "sp15", "sbst"), reference_activation_cell),
    "spl2": reference_overlap_cell,
    "spl5": functools.partial(reference_overlap_cell, plug=True),
    "spl9": reference_lookup_cell,
    "sp10": functools.partial(reference_lookup_cell, plug=True),
    "srch": reference_srch_cell,
}


_INVERT_PREFERENCE = {"1010": 0, "onht": 1, "bnry": 2, "ord3": 3, "mnmx": 4, "nmbr": 5}


def reference_invert(artifact, encoded: TidyTable,
                     sources: list[str] | None = None) -> tuple[TidyTable, list[str]]:
    """``invert`` as one decoder call per row over the columns as lists."""
    wanted = list(sources) if sources is not None else list(artifact.per_source)
    for h in wanted:
        if h not in artifact.per_source:
            raise DataError(f"unknown source column {h!r}")
    present = set(encoded.headers)
    headers, columns, failed = [], [], []
    for header in wanted:
        clean, candidates, narw = {header}, [], None
        for i, rec in enumerate(artifact.per_source[header].steps):
            if rec.input_header not in clean:
                continue
            if BEHAVIORS[rec.behavior].inversion_pass:
                clean.update(rec.output_headers)
            elif not rec.retained or not present.issuperset(rec.output_headers):
                continue
            elif rec.behavior in _INVERT_PREFERENCE:
                candidates.append((_INVERT_PREFERENCE[rec.behavior], i, rec))
            elif rec.behavior == "NArw" and rec.input_header == header and narw is None:
                narw = encoded.column(rec.output_headers[0])
        if not candidates:
            failed.append(header)
            continue
        rec = min(candidates)[2]
        decode = BEHAVIORS[rec.behavior].decoder(rec.fit)
        cols = [encoded.column(h) for h in rec.output_headers]
        recovered = []
        for flag, *row in zip(narw or [0.0] * encoded.row_count, *cols):
            try:
                recovered.append(None if flag == 1.0 else decode(tuple(row)))
            except (KeyError, TypeError):
                raise DataError(f"cannot invert source {header!r}: step {rec.category!r} "
                                f"columns {rec.output_headers} hold the pattern {row!r},"
                                " which the fitted step never outputs") from None
        headers.append(header)
        columns.append(recovered)
    if sources is not None and failed:
        raise DataError(f"no invertible path for sources: {failed}")
    return TidyTable(headers=headers, columns=columns), failed
