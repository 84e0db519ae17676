"""Shuffle-permutation feature importance with a pluggable predictor and a
built-in bagged decision-tree ensemble.

Metric 1 shuffles every column derived from a source feature jointly and
records base_score - shuffled_score (for the classification accuracy metric,
higher means more important). Metric 2 shuffles all siblings of each derived
column except the column itself and records the raw resulting score (lower
means relatively more important within the feature).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .encoders import CLASS_PASSTHROUGH
from .errors import ConfigError, DataError
from .tidytable import Cell, TidyTable, canon_text, floats, numbers
from .treeengine import FitArtifact, apply

logger = logging.getLogger(__name__)

TASK_CLASSIFICATION = "classification"
TASK_REGRESSION = "regression"


@dataclass
class PredictorAdapter:
    """Opaque model hooks: train on features/labels, predict deterministically."""

    train: callable
    predict: callable
    task: str


@dataclass
class ImportanceReport:
    task: str
    base_score: float
    metric1: dict[str, float]
    metric2: dict[str, float]
    seed: int
    val_fraction: float
    repeats: int = 1

    def to_jsonable(self) -> dict:
        return {
            "task": self.task,
            "base_score": self.base_score,
            "metric1": dict(sorted(self.metric1.items())),
            "metric2": dict(sorted(self.metric2.items())),
            "seed": self.seed,
            "val_fraction": self.val_fraction,
            "repeats": self.repeats,
        }

    def to_json(self) -> bytes:
        return json.dumps(self.to_jsonable(), sort_keys=True, ensure_ascii=False,
                          allow_nan=False, separators=(",", ":")).encode("utf-8")

    def sorted_table(self) -> str:
        """Plain-text rendering, features sorted by metric1 descending."""
        lines = [f"task: {self.task}", f"base_score: {self.base_score:.6f}", ""]
        lines.append("metric1 (source features, higher = more important):")
        for name in sorted(self.metric1, key=lambda k: (-self.metric1[k], k)):
            lines.append(f"  {name}: {self.metric1[name]:+.6f}")
        lines.append("")
        lines.append("metric2 (derived columns, lower = more relative importance):")
        for name in sorted(self.metric2, key=lambda k: (self.metric2[k], k)):
            lines.append(f"  {name}: {self.metric2[name]:.6f}")
        return "\n".join(lines) + "\n"


def _feature_seed(seed: int, name: str, repeat: int) -> int:
    digest = hashlib.sha256(f"{seed}:{repeat}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _feature_matrix(artifact: FitArtifact, encoded: TidyTable):
    """Numeric matrix over non-passthrough derived columns, grouped by source."""
    col_index: dict[str, int] = {}
    groups: dict[str, list[str]] = {}
    arrays = []
    for source, plan in artifact.per_source.items():
        headers = [h for h, b in plan.column_behaviors().items()
                   if b.coltype_class != CLASS_PASSTHROUGH]
        groups[source] = headers
        for h in headers:
            col_index[h] = len(arrays)
            values, number = floats(encoded.column_data(h))
            arrays.append(values if number is None else np.where(number, values, 0.0))
    X = np.column_stack(arrays) if arrays else np.zeros((encoded.row_count, 0))
    return X, col_index, groups


def _score(task: str, predictions: np.ndarray, truth: np.ndarray) -> float:
    if task == TASK_CLASSIFICATION:
        return float(np.mean(predictions == truth))
    p = np.log1p(np.maximum(predictions, 0.0))
    t = np.log1p(np.maximum(truth, 0.0))
    return float(np.mean((p - t) ** 2))


def _encode_labels(labels: list[Cell], task: str):
    """The rows that have a label, and their labels: class codes, or the finite
    numbers of a regression's labels (``numbers``; a NaN or an infinity is none)."""
    if task == TASK_CLASSIFICATION:
        keep = [i for i, v in enumerate(labels) if v is not None]
        texts = [canon_text(labels[i]) for i in keep]
        classes = sorted(set(texts))
        code = {c: i for i, c in enumerate(classes)}
        return keep, np.array([code[t] for t in texts], dtype=int)
    values = numbers(labels)[0]
    kept = np.flatnonzero(np.isfinite(values))
    return kept, values[kept]


def permutation_importance(artifact: FitArtifact, table: TidyTable,
                           labels: list[Cell], adapter: PredictorAdapter,
                           val_fraction: float = 0.2, seed: int = 0,
                           repeats: int = 1) -> ImportanceReport:
    """Seeded split, base score, then per-feature and per-column shuffle metrics."""
    if isinstance(val_fraction, bool) or not isinstance(val_fraction, Real) or not (
            0 < val_fraction < 1):
        raise ConfigError(f"val_fraction must lie strictly between 0 and 1, not {val_fraction!r}")
    seed = _checked_count("seed", seed, 0)
    repeats = _checked_count("repeats", repeats, 1)
    if len(labels) != table.row_count:
        raise DataError("labels length does not match table rows")
    encoded = apply(artifact, table)
    X_all, col_index, groups = _feature_matrix(artifact, encoded)
    keep, y_all = _encode_labels(labels, adapter.task)
    X_all = X_all[keep]

    n = len(y_all)
    val_count = int(round(n * val_fraction))
    if val_count < 5:
        raise DataError("at least 5 validation rows required; grow the data or val_fraction")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:val_count], perm[val_count:]
    if len(train_idx) == 0:
        raise DataError("empty training split")
    y_val = y_all[val_idx]
    if adapter.task == TASK_CLASSIFICATION and len(np.unique(y_val)) < 2:
        raise ConfigError(
            "validation split holds a single class; rerun with another seed"
        )

    model = adapter.train(X_all[train_idx], y_all[train_idx])
    X_val = X_all[val_idx]
    base = _score(adapter.task, adapter.predict(model, X_val), y_val)

    def rescore(shuffle_headers: list[str], feature: str, repeat: int) -> float:
        idxs = [col_index[h] for h in shuffle_headers]
        if not idxs:
            return base
        p = np.random.default_rng(_feature_seed(seed, feature, repeat)).permutation(len(val_idx))
        shuffled = X_val.copy()
        shuffled[:, idxs] = X_val[p][:, idxs]
        return _score(adapter.task, adapter.predict(model, shuffled), y_val)

    metric1: dict[str, float] = {}
    metric2: dict[str, float] = {}
    for source, headers in groups.items():
        deltas = [base - rescore(headers, source, r) for r in range(repeats)]
        metric1[source] = float(np.mean(deltas))
        for target in headers:
            siblings = [h for h in headers if h != target]
            scores = [rescore(siblings, source, r) for r in range(repeats)]
            metric2[target] = float(np.mean(scores))
    return ImportanceReport(
        task=adapter.task,
        base_score=base,
        metric1=metric1,
        metric2=metric2,
        seed=seed,
        val_fraction=val_fraction,
        repeats=repeats,
    )


# Built-in predictor: bagged CART trees, gini for classification and variance
# for regression, seeded bootstraps, majority vote / mean aggregation.
#
# Trees grow one depth at a time with exact histogram splits (the level-wise
# histogram growth of XGBoost's hist method, Chen and Guestrin 2016, and of
# LightGBM, Ke et al. 2017, without the approximation). ``train`` maps every
# feature to the codes of its sorted distinct values once. Every (row,
# feature) of a tree's sample then carries a key naming its (frontier node,
# bin) pair, so one bincount over the keys (and classes) gives every frontier
# node's histograms, and only the pairs present are scored. After a split the
# present pairs are renumbered, and each row's keys move into its child's half
# of twice their number, so the keys stay below twice the rows' cells.
# A cut lies between two adjacent bins present in a node, its threshold is
# their midpoint, and NaN, which sorts last, never offers one. Consecutive
# bootstraps grow together, as many as _FRONTIER_CELLS sample cells (rows
# times features) hold, or one larger tree alone: a frontier's arrays grow
# with its cells, and a larger frontier saved no time but raised peak memory.
# A node's rows keep their order and every sum is per node or per segment, so
# a tree is the same in any group. The forest is one set of flat arrays, which
# ``predict`` walks for every tree together, one level at a time.

_FRONTIER_CELLS = 2 ** 16


class _Bins(NamedTuple):
    """Sorted distinct values of every feature, numbered globally in feature
    order, and the bin of each value of the sample."""

    codes: np.ndarray    # (rows, features): bin of each value
    feature: np.ndarray  # feature of each bin
    value: np.ndarray    # value of each bin
    upper: np.ndarray    # the bin may be the upper side of a cut: not NaN


def _bin(X, dtype=np.int32) -> _Bins:
    codes = np.empty(X.shape, dtype=dtype)
    values = []
    offset = 0
    for j in range(X.shape[1]):
        distinct, inverse = np.unique(X[:, j], return_inverse=True)
        codes[:, j] = inverse.reshape(-1) + offset
        offset += len(distinct)
        values.append(distinct)
    value = np.concatenate(values) if values else np.zeros(0)
    feature = np.repeat(np.arange(len(values)), list(map(len, values)))
    return _Bins(codes, feature, value, ~np.isnan(value))


def _threshold(lower, upper):
    """The midpoint of two adjacent values, or the lower value where the
    midpoint is not in [lower, upper): adjacent floats, a finite value and inf,
    -inf and inf, or an overflowing sum, any of which would empty a child."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lower + upper) / 2.0
    return np.where((lower <= mid) & (mid < upper), mid, lower)


def _segment_sums(values, start):
    """Running sums down the rows of ``values`` that restart at each segment;
    ``start`` holds the first row of every row's segment. Integer sums are one
    cumulative sum less each segment's start, which is exact. Float sums are
    added within their segment only (a Hillis-Steele scan), so a segment keeps
    its precision however large the sums before it."""
    if values.dtype.kind in "iu":
        cum = np.cumsum(values, axis=0)
        return cum - cum[start] + values[start]
    out = values.copy()
    step = 1
    while True:
        within = np.flatnonzero(start[step:] <= np.arange(len(out) - step)) + step
        if len(within) == 0:
            return out
        out[within] += out[within - step]
        step *= 2


def _row_sums(a):
    """``a.sum(axis=1)`` a column at a time, for numpy pays per row to reduce
    across a short row. Integer sums are exact in any order, and two float
    columns have one sum; wider float rows keep numpy's pairwise order."""
    if a.dtype.kind == "f" and a.shape[1] > 2:
        return a.sum(axis=1)
    return functools.reduce(np.add, a.T)


def _node_stats(node, y, m: int, task: str, n_classes: int):
    """Per frontier node: its row count, leaf value, impurity, whether its
    targets differ and its totals (class counts, or the row count and the
    sums of the weights and their squares); and the histogram weight of each
    row: its class, or its target less the target nearest the node mean,
    which lies within one standard deviation of it. Sums of squares about that
    target do not cancel when the mean is large against the spread, and
    integer targets stay integers, whose sums are exact in any order."""
    if task == TASK_CLASSIFICATION:
        per_class = np.bincount(node * n_classes + y, minlength=m * n_classes).reshape(m, -1)
        count = per_class.sum(axis=1)
        impurity = 1.0 - ((per_class / count[:, None]) ** 2).sum(axis=1)
        mixed = np.count_nonzero(per_class, axis=1) > 1
        return count, per_class.argmax(axis=1).astype(float), impurity, mixed, per_class, y
    count = np.bincount(node, minlength=m)
    mean = np.bincount(node, weights=y, minlength=m) / count
    order = np.lexsort((np.abs(y - mean[node]), node))
    nearest = y[order[np.flatnonzero(np.diff(node[order], prepend=-1))]]
    centred = y - nearest[node]
    totals = np.stack([np.bincount(node, weights=w, minlength=m)
                       for w in (None, centred, centred ** 2)], axis=1)
    impurity = totals[:, 2] / count - (totals[:, 1] / count) ** 2
    mixed = np.bincount(node[centred != 0], minlength=m) > 0
    return count, mean, impurity, mixed, totals, centred


def _histograms(keys, n_keys: int, weights, task: str, n_classes: int):
    """The (node, bin) pairs present among ``keys``, every (row, feature)'s
    candidate pair out of ``n_keys``, and the histograms of the present pairs:
    class counts, or the row count and the sums of the weights and their
    squares."""
    if task == TASK_CLASSIFICATION:
        hist = np.bincount((keys * n_classes + weights[:, None]).ravel(),
                           minlength=n_keys * n_classes).reshape(n_keys, n_classes)
        present = np.flatnonzero(_row_sums(hist))
    else:
        spread = np.repeat(weights, keys.shape[1])
        hist = np.stack([np.bincount(keys.ravel(), weights=w, minlength=n_keys)
                         for w in (None, spread, spread ** 2)], axis=1)
        present = np.flatnonzero(hist[:, 0])
    return present, hist[present]


def _best_splits(bins: _Bins, pair_node, pair_bin, hist, totals, count, impurity, task: str):
    """The best cut of every frontier node from the histograms of the present
    (node, bin) pairs, grouped by node and in bin order within it. Per node:
    the feature of its cut (-1 for none), the cut's lower bin and threshold."""
    m = len(count)
    choice, bound, threshold = np.full(m, -1), np.zeros(m, dtype=pair_bin.dtype), np.zeros(m)
    feature = bins.feature[pair_bin]
    new = np.ones(len(pair_bin), dtype=bool)
    new[1:] = (pair_node[1:] != pair_node[:-1]) | (feature[1:] != feature[:-1])
    cuts = np.flatnonzero(~new[1:] & bins.upper[pair_bin[1:]])
    if len(cuts) == 0:
        return choice, bound, threshold
    segment = np.cumsum(new) - 1
    start = np.flatnonzero(new)[segment]
    at = pair_node[cuts]
    n = count[at]
    left = _segment_sums(hist, start)[cuts]
    right = totals[at] - left
    if task == TASK_CLASSIFICATION:
        nl = _row_sums(left).astype(float)
        nr = n - nl
        lc, rc = left.astype(float), right.astype(float)
        imp_l = 1.0 - _row_sums((lc / nl[:, None]) ** 2)
        imp_r = 1.0 - _row_sums((rc / nr[:, None]) ** 2)
    else:
        (nl, sl, ssl), (nr, sr, ssr) = left.T, right.T
        imp_l = ssl / nl - (sl / nl) ** 2
        imp_r = ssr / nr - (sr / nr) ** 2
    weighted = (nl * imp_l + nr * imp_r) / n
    # Each node's first minimum per feature; then, per feature in order, that
    # minimum must beat the parent and the best so far by 1e-12: absolute for
    # Gini, which lies in [0, 1), relative to the parent for variance, which
    # has the targets' scale.
    runs = np.flatnonzero(new[cuts])  # a segment's cuts start at its first bin
    lowest = np.minimum.reduceat(weighted, runs)
    cell = feature[cuts[runs]], at[runs]
    table = np.full((bins.codes.shape[1], m), np.inf)
    table[cell] = np.where(np.isnan(lowest), np.inf, lowest)
    tol = 1e-12 if task == TASK_CLASSIFICATION else 1e-12 * impurity
    limit = impurity - tol
    for j, (scores, lowered) in enumerate(zip(table, table - tol)):
        take = scores < limit
        np.copyto(limit, lowered, where=take)
        np.copyto(choice, j, where=take)
    split = np.flatnonzero(choice >= 0)
    run_of = np.zeros(table.shape, dtype=np.intp)
    run_of[cell] = runs
    at_min = np.flatnonzero(weighted == np.repeat(lowest, np.diff(runs, append=len(cuts))))
    k = cuts[at_min[np.searchsorted(at_min, run_of[choice[split], split])]]
    bound[split] = pair_bin[k]
    threshold[split] = _threshold(bins.value[pair_bin[k]], bins.value[pair_bin[k + 1]])
    return choice, bound, threshold


class _Forest(NamedTuple):
    """The nodes of every tree in flat arrays, each group of trees level by
    level from its roots; a split's children are adjacent, and a leaf is its
    own left and right."""

    root: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int  # the deepest level of any tree


def _grow(bins: _Bins, y, samples, max_depth: int, task: str, n_classes: int) -> _Forest:
    """One tree per sample of row indices. Consecutive trees grow together,
    as many as fit in ``_FRONTIER_CELLS`` sample cells (a larger tree grows
    alone), one depth at a time over the frontier nodes of all of them."""
    n_bins = len(bins.value)
    per_group = max(1, _FRONTIER_CELLS // max(bins.codes.size, 1))
    samples = iter(samples)
    levels = []  # per level: (feature, threshold, left, right, value)
    roots, size, deepest = [], 0, 0
    while group := list(itertools.islice(samples, per_group)):
        m = len(group)
        roots.extend(range(size, size + m))
        sample = np.concatenate(group)
        codes, ys = bins.codes[sample], y[sample]
        rows = np.arange(len(ys))
        node = np.repeat(np.arange(m), list(map(len, group)))
        # Each (row, feature)'s candidate (node, bin) pair; at a root, its bin
        # after the bins of the trees before it.
        keys = codes + (node * n_bins).astype(codes.dtype)[:, None]
        key_node, key_bin = np.divmod(np.arange(m * n_bins), n_bins)
        for depth in range(max_depth + 1):
            count, value, impurity, mixed, totals, weights = _node_stats(
                node, ys[rows], m, task, n_classes)
            live = mixed[node] if depth < max_depth else np.zeros(len(rows), dtype=bool)
            choice, bound, threshold = np.full(m, -1), None, np.zeros(m)
            if live.any():
                if not live.all():
                    rows, node, weights = rows[live], node[live], weights[live]
                    keys = np.compress(live, keys, axis=0)
                present, hist = _histograms(keys, len(key_node), weights, task, n_classes)
                pair_node, pair_bin = key_node[present], key_bin[present]
                choice, bound, threshold = _best_splits(bins, pair_node, pair_bin, hist, totals,
                                                        count, impurity, task)
            split = choice >= 0
            rank_split = np.cumsum(split) - 1
            left = np.where(split, size + m + 2 * rank_split, np.arange(size, size + m))
            levels.append((np.where(split, choice, 0), threshold, left, left + split, value))
            size += m
            deepest = max(deepest, depth)
            if not split.any():
                break
            # Rows of the split nodes move to their children by one gather.
            keep = split[node]
            rows, node = rows[keep], node[keep]
            rank = np.zeros(len(key_node), dtype=keys.dtype)
            rank[present] = np.arange(len(present))
            keys = np.take(rank, np.compress(keep, keys, axis=0))
            right = codes[rows, choice[node]] > bound[node]
            node = 2 * rank_split[node] + right
            keys += (right.astype(keys.dtype) * len(present))[:, None]
            # Pairs of the nodes that did not split are never present again.
            key_node = np.concatenate([2 * rank_split[pair_node], 2 * rank_split[pair_node] + 1])
            key_bin = np.tile(pair_bin, 2)
            m = 2 * int(split.sum())
    feature, threshold, left, right, value = map(np.concatenate, zip(*levels))
    return _Forest(np.array(roots, dtype=np.intp), feature, threshold, left, right, value,
                   deepest)


def _predict(forest: _Forest, X) -> np.ndarray:
    """(trees, rows) leaf values: every row down every tree together, one
    level at a time."""
    X = np.ascontiguousarray(X, dtype=float)
    rows, width = X.shape
    node = np.repeat(forest.root, rows)
    offset = np.tile(np.arange(rows) * width, len(forest.root))
    flat = X.ravel()
    for _ in range(forest.depth):
        go_left = flat[offset + forest.feature[node]] <= forest.threshold[node]
        node = np.where(go_left, forest.left[node], forest.right[node])
    return forest.value[node].reshape(len(forest.root), rows)


def _checked_count(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


def builtin_tree(task: str, max_depth: int = 8, n_trees: int = 10,
                 seed: int = 0) -> PredictorAdapter:
    """Small bagged-CART ensemble; deterministic for a given seed."""
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ConfigError(f"unknown task {task!r}")
    seed = _checked_count("seed", seed, 0)
    max_depth = _checked_count("max_depth", max_depth, 0)
    n_trees = _checked_count("n_trees", n_trees, 1)

    def train(X, y):
        X = np.asarray(X, dtype=float)
        if len(X) == 0:
            raise DataError("empty training set")
        if task == TASK_CLASSIFICATION:
            y = np.asarray(y, dtype=int)
            n_classes = int(y.max()) + 1 if len(y) else 1
        else:
            y = np.asarray(y, dtype=float)
            n_classes = 0
        # Histogram keys stay below 2 * classes * a group's cells, which
        # number _FRONTIER_CELLS at most, or one tree's X.size.
        cells = max(X.size, _FRONTIER_CELLS)
        index = np.int32 if 2 * cells * max(n_classes, 1) < 2 ** 31 else np.intp
        bins = _bin(X, index)
        if task == TASK_CLASSIFICATION:
            y = y.astype(index)
        samples = (np.random.default_rng(child).integers(0, len(y), len(y))
                   for child in np.random.SeedSequence(seed).spawn(n_trees))
        return {"forest": _grow(bins, y, samples, max_depth, task, n_classes),
                "n_classes": n_classes}

    def predict(model, X):
        leaves = _predict(model["forest"], X)
        if task == TASK_CLASSIFICATION:
            classes = max(model["n_classes"], 1)
            rows = leaves.shape[1]
            votes = np.bincount((leaves.astype(np.intp) + classes * np.arange(rows)).ravel(),
                                minlength=rows * classes)
            return votes.reshape(rows, classes).argmax(axis=1)
        return leaves.mean(axis=0)

    return PredictorAdapter(train=train, predict=predict, task=task)
