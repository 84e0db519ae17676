"""Shuffle-permutation feature importance with a pluggable predictor and a
built-in bagged decision-tree ensemble.

Metric 1 shuffles every column derived from a source feature jointly and
records base_score - shuffled_score (for the classification accuracy metric,
higher means more important). Metric 2 shuffles all siblings of each derived
column except the column itself and records the raw resulting score (lower
means relatively more important within the feature).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoders import CLASS_PASSTHROUGH
from .errors import ConfigError, DataError
from .tidytable import Cell, TidyTable, as_number, canon_text
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
            raw = encoded.column(h)
            arrays.append(np.array(
                [v if isinstance(v, float) else 0.0 for v in raw], dtype=float
            ))
    if arrays:
        X = np.column_stack(arrays)
    else:
        X = np.zeros((encoded.row_count, 0))
    return X, col_index, groups


def _score(task: str, predictions: np.ndarray, truth: np.ndarray) -> float:
    if task == TASK_CLASSIFICATION:
        return float(np.mean(predictions == truth))
    p = np.log1p(np.maximum(predictions, 0.0))
    t = np.log1p(np.maximum(truth, 0.0))
    return float(np.mean((p - t) ** 2))


def _encode_labels(labels: list[Cell], task: str):
    keep = [i for i, v in enumerate(labels) if v is not None]
    if task == TASK_CLASSIFICATION:
        texts = [canon_text(labels[i]) for i in keep]
        classes = sorted(set(texts))
        code = {c: i for i, c in enumerate(classes)}
        return keep, np.array([code[t] for t in texts], dtype=int)
    values = []
    kept = []
    for i in keep:
        v = as_number(labels[i])
        if v is not None:
            kept.append(i)
            values.append(v)
    return kept, np.array(values, dtype=float)


def permutation_importance(artifact: FitArtifact, table: TidyTable,
                           labels: list[Cell], adapter: PredictorAdapter,
                           val_fraction: float = 0.2, seed: int = 0,
                           repeats: int = 1) -> ImportanceReport:
    """Seeded split, base score, then per-feature and per-column shuffle metrics."""
    if not 0 < val_fraction < 1:
        raise ConfigError(f"val_fraction must lie strictly between 0 and 1, not {val_fraction!r}")
    if seed < 0:
        raise ConfigError(f"seed must not be negative, not {seed!r}")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, not {repeats!r}")
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
# Splits are exact histogram splits (the histogram split of LightGBM, Ke et al.
# 2017, without the approximation): each tree maps every feature of its
# bootstrap sample to the codes of its sorted distinct values once, and a node
# counts its rows per value in one bincount over all features. A cut lies
# between two adjacent values present in the node, its threshold is their
# midpoint, and NaN, which sorts last, never offers one.


class _Bins(NamedTuple):
    """Sorted distinct values of every feature, numbered globally in feature
    order, and the bin of each value of the sample."""

    codes: np.ndarray    # (rows, features): bin of each value
    feature: np.ndarray  # feature of each bin
    value: np.ndarray    # value of each bin
    upper: np.ndarray    # the bin may be the upper side of a cut: not NaN


def _bin(X) -> _Bins:
    codes = np.empty(X.shape, dtype=np.intp)
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


def _threshold(lower: float, upper: float) -> float:
    """The midpoint of two adjacent values, or the lower value where the
    midpoint is not in [lower, upper): adjacent floats, a finite value and inf,
    -inf and inf, or an overflowing sum, any of which would empty a child."""
    mid = (lower + upper) / 2.0
    return mid if lower <= mid < upper else lower


def _centred(y):
    """Regression targets less the target nearest their mean, which lies within
    one standard deviation of it: sums of squares about it do not cancel when
    the mean is large against the spread, and integer targets stay integers,
    whose sums are exact in any order."""
    return y - y[np.argmin(np.abs(y - y.mean()))]


def _best_split(bins: _Bins, y, rows, task: str, n_classes: int, parent_imp: float):
    """(feature, threshold) of the best cut of the node's ``rows``, or None.
    Every feature has a present bin for every row, so each feature's segment
    of the present bins sums to the node's totals."""
    n = len(rows)
    codes = bins.codes[rows]
    if task == TASK_CLASSIFICATION:
        counts = np.bincount((codes * n_classes + y[rows, None]).ravel(),
                             minlength=len(bins.value) * n_classes).reshape(-1, n_classes)
        present = np.flatnonzero(counts.any(axis=1))
    else:
        counts = np.bincount(codes.ravel(), minlength=len(bins.value))
        present = np.flatnonzero(counts)
    feature = bins.feature[present]
    cuts = np.flatnonzero((feature[1:] == feature[:-1]) & bins.upper[present[1:]])
    if len(cuts) == 0:
        return None
    cut_feature = feature[cuts]
    if task == TASK_CLASSIFICATION:
        # Integer counts: the cumsum less each segment's start is exact.
        totals = np.bincount(y[rows], minlength=n_classes)
        left = np.cumsum(counts[present], axis=0)[cuts] - cut_feature[:, None] * totals
        nl = left.sum(axis=1).astype(float)
        nr = n - nl
        lc = left.astype(float)
        rc = (totals - left).astype(float)
        imp_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        imp_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
    else:
        nl = (np.cumsum(counts[present])[cuts] - cut_feature * n).astype(float)
        nr = n - nl
        ys = np.repeat(_centred(y[rows]), codes.shape[1])
        segments = np.flatnonzero(feature[1:] != feature[:-1]) + 1
        sums = []
        for weights in (ys, ys ** 2):
            per_bin = np.bincount(codes.ravel(), weights=weights, minlength=len(bins.value))
            # Float sums: a cumulative sum per feature, never one across features.
            cum = [np.cumsum(seg) for seg in np.split(per_bin[present], segments)]
            sums.append((np.concatenate(cum)[cuts], np.array([c[-1] for c in cum])[cut_feature]))
        (sl, s_all), (ssl, ss_all) = sums
        sr, ssr = s_all - sl, ss_all - ssl
        imp_l = ssl / nl - (sl / nl) ** 2
        imp_r = ssr / nr - (sr / nr) ** 2
    weighted = (nl * imp_l + nr * imp_r) / n
    # Per feature in order, its first minimum must beat the parent and the
    # best so far by 1e-12: absolute for Gini, which lies in [0, 1), relative
    # to the parent for variance, which has the targets' scale.
    tol = 1e-12 if task == TASK_CLASSIFICATION else 1e-12 * parent_imp
    starts = np.flatnonzero(np.concatenate(([True], cut_feature[1:] != cut_feature[:-1])))
    best = None
    for lo, hi, score in zip(starts.tolist(), [*starts[1:].tolist(), len(cuts)],
                             np.minimum.reduceat(weighted, starts).tolist()):
        if score < parent_imp - tol and (best is None or score < best[0] - tol):
            best = (score, lo, hi)
    if best is None:
        return None
    _, lo, hi = best
    k = cuts[lo + int(np.argmin(weighted[lo:hi]))]
    lower, upper = bins.value[present[k]], bins.value[present[k + 1]]
    return int(feature[k]), _threshold(float(lower), float(upper))


def _impurity(y, task: str, n_classes: int) -> float:
    if task == TASK_CLASSIFICATION:
        probs = np.bincount(y, minlength=n_classes) / len(y)
        return float(1.0 - (probs ** 2).sum())
    return float(np.var(y))


def _leaf_value(y, task: str) -> float:
    if task == TASK_CLASSIFICATION:
        return float(np.argmax(np.bincount(y)))
    return float(np.mean(y))


class _Tree(NamedTuple):
    """Nodes in preorder as flat arrays; a leaf is its own left and right."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int


def _grow_node(nodes: list, bins: _Bins, X, y, rows, depth: int, max_depth: int,
               task: str, n_classes: int) -> int:
    """Append the subtree of ``rows`` to ``nodes`` in preorder; its deepest
    level."""
    me = len(nodes)
    nodes.append(())
    ys = y[rows]
    split = None
    if depth < max_depth and len(ys) >= 2 and len(np.unique(ys)) > 1:
        split = _best_split(bins, y, rows, task, n_classes, _impurity(ys, task, n_classes))
    if split is None:
        nodes[me] = (0, 0.0, me, me, _leaf_value(ys, task))
        return depth
    j, threshold = split
    mask = X[rows, j] <= threshold
    deepest = _grow_node(nodes, bins, X, y, rows[mask], depth + 1, max_depth, task, n_classes)
    right = len(nodes)
    deepest = max(deepest, _grow_node(nodes, bins, X, y, rows[~mask], depth + 1, max_depth,
                                      task, n_classes))
    nodes[me] = (j, threshold, me + 1, right, 0.0)
    return deepest


def _grow(X, y, max_depth: int, task: str, n_classes: int) -> _Tree:
    nodes: list[tuple] = []
    depth = _grow_node(nodes, _bin(X), X, y, np.arange(len(y)), 0, max_depth, task, n_classes)
    feature, threshold, left, right, value = zip(*nodes)
    return _Tree(np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
                 np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                 np.array(value, dtype=float), depth)


def _predict_tree(tree: _Tree, X) -> np.ndarray:
    """Walk every row down the tree together, one level at a time."""
    rows = np.arange(len(X))
    node = np.zeros(len(X), dtype=np.intp)
    for _ in range(tree.depth):
        go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node]


def builtin_tree(task: str, max_depth: int = 8, n_trees: int = 10,
                 seed: int = 0) -> PredictorAdapter:
    """Small bagged-CART ensemble; deterministic for a given seed."""
    if task not in (TASK_CLASSIFICATION, TASK_REGRESSION):
        raise ConfigError(f"unknown task {task!r}")
    if seed < 0:
        raise ConfigError(f"seed must not be negative, not {seed!r}")
    if n_trees < 1:
        raise ConfigError(f"n_trees must be at least 1, not {n_trees!r}")

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
        trees = []
        for child in np.random.SeedSequence(seed).spawn(n_trees):
            rng = np.random.default_rng(child)
            idx = rng.integers(0, len(y), len(y))
            trees.append(_grow(X[idx], y[idx], max_depth, task, n_classes))
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
