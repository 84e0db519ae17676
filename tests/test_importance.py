import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parsemunge as pm
from parsemunge import importance
from parsemunge.errors import ConfigError, DataError
from parsemunge.importance import (
    TASK_CLASSIFICATION,
    TASK_REGRESSION,
    PredictorAdapter,
    _bin,
    _grow,
    _predict,
    builtin_tree,
    permutation_importance,
)
from parsemunge.tidytable import TidyTable

from . import oracles
from .oracles import _impurity, preorder, reference_tree


def _table(**cols) -> TidyTable:
    return TidyTable(headers=list(cols), columns=[list(v) for v in cols.values()])


class TestBuiltinTree:
    def test_threshold_separable(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 1))
        y = (X[:, 0] > 0.1).astype(int)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=3)
        model = adapter.train(X[:300], y[:300])
        acc = float(np.mean(adapter.predict(model, X[300:]) == y[300:]))
        assert acc >= 0.95

    def test_constant_labels(self):
        X = np.zeros((50, 2))
        y = np.ones(50, dtype=int)
        adapter = builtin_tree(TASK_CLASSIFICATION)
        model = adapter.train(X, y)
        assert float(np.mean(adapter.predict(model, X) == y)) == 1.0

    def test_decision_stump(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = np.array([0, 1, 0, 1])
        adapter = builtin_tree(TASK_CLASSIFICATION, max_depth=1, n_trees=1)
        model = adapter.train(X, y)
        assert list(adapter.predict(model, X)) == [0, 1, 0, 1]

    def test_regression_mean_aggregation(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(300, 1))
        y = 3.0 * X[:, 0]
        adapter = builtin_tree(TASK_REGRESSION, seed=1)
        model = adapter.train(X, y)
        preds = adapter.predict(model, X)
        assert float(np.mean(np.abs(preds - y))) < 0.3

    def test_empty_training_set(self):
        adapter = builtin_tree(TASK_CLASSIFICATION)
        with pytest.raises(DataError, match="empty"):
            adapter.train(np.zeros((0, 1)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
    @pytest.mark.parametrize("lower, upper", [
        (1.0 + 2 ** -52, 1.0 + 2 ** -51),
        (5.0, np.inf),
        (-np.inf, np.inf),
        (-1.5e308, -1e308),
        (1e308, 1.5e308),
    ])
    def test_cut_whose_midpoint_leaves_the_gap_splits_at_the_lower_value(self, task, lower, upper):
        # Each midpoint is not in [lower, upper): it rounds onto the upper
        # value, is inf or NaN, or overflows. A cut there would send every
        # row to one side and leave the other child empty. (The seed-0
        # bootstrap of these six rows draws both values.)
        X = np.array([[lower], [upper]] * 3)
        y = np.array([0, 1] * 3)
        adapter = builtin_tree(task, max_depth=1, n_trees=1)
        model = adapter.train(X, y)
        forest = model["forest"]
        assert forest.threshold[forest.root[0]] == lower
        assert list(adapter.predict(model, X)) == [0, 1] * 3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(100, 3))
        y = (X[:, 1] > 0).astype(int)
        a1, a2 = builtin_tree(TASK_CLASSIFICATION, seed=9), builtin_tree(TASK_CLASSIFICATION, seed=9)
        p1 = a1.predict(a1.train(X, y), X)
        p2 = a2.predict(a2.train(X, y), X)
        assert np.array_equal(p1, p2)


def _labelled_table(rows: int, seed: int) -> tuple[TidyTable, list]:
    rnd = random.Random(seed)
    informative, noise, labels = [], [], []
    for _ in range(rows):
        a = rnd.choice(["red", "green", "blue", "gray"])
        informative.append(a)
        noise.append(rnd.choice(["n1", "n2", "n3", "n4", "n5"]))
        labels.append("hot" if a in ("red", "green") else "cold")
    return _table(informative=informative, noise=noise), labels


class TestPermutationImportance:
    def test_informative_outranks_noise(self):
        table, labels = _labelled_table(600, 11)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=11)
        report = permutation_importance(artifact, table, labels, adapter, seed=11)
        assert report.metric1["informative"] > report.metric1["noise"]
        assert report.metric1["informative"] > 0.1
        assert abs(report.metric1["noise"]) < 0.1

    def test_passthrough_feature_delta_zero(self):
        table, labels = _labelled_table(200, 3)
        extra = TidyTable(headers=table.headers + ["keep"],
                          columns=table.columns + [["k"] * 200])
        _, artifact = pm.fit(extra, {"keep": "excl"})
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=3)
        report = permutation_importance(artifact, extra, labels, adapter, seed=3)
        assert report.metric1["keep"] == 0.0

    def test_reproducible_reports(self):
        table, labels = _labelled_table(300, 7)
        _, artifact = pm.fit(table)
        reports = [
            permutation_importance(table=table, labels=labels, artifact=artifact,
                                   adapter=builtin_tree(TASK_CLASSIFICATION, seed=7),
                                   seed=7).to_json()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_metric2_keys_are_derived_columns(self):
        table, labels = _labelled_table(200, 5)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=5)
        report = permutation_importance(artifact, table, labels, adapter, seed=5)
        derived = set(artifact.output_order)
        assert set(report.metric2) <= derived
        assert all(h.startswith(("informative", "noise")) for h in report.metric2)

    def test_shuffle_preserves_multisets(self):
        table, labels = _labelled_table(200, 9)
        _, artifact = pm.fit(table)
        seen: list[np.ndarray] = []
        base = builtin_tree(TASK_CLASSIFICATION, seed=9)

        def capture_predict(model, X):
            seen.append(np.array(X, copy=True))
            return base.predict(model, X)

        adapter = PredictorAdapter(train=base.train, predict=capture_predict,
                                   task=TASK_CLASSIFICATION)
        permutation_importance(artifact, table, labels, adapter, seed=9)
        reference = seen[0]
        for shuffled in seen[1:]:
            assert shuffled.shape == reference.shape
            for j in range(reference.shape[1]):
                assert np.array_equal(np.sort(shuffled[:, j]), np.sort(reference[:, j]))

    def test_single_class_validation_rejected(self):
        table = _table(a=["x", "y"] * 20)
        labels = ["same"] * 40
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=1)
        with pytest.raises(ConfigError, match="seed"):
            permutation_importance(artifact, table, labels, adapter, seed=1)

    @pytest.mark.parametrize("val_fraction, seed", [
        (0, 0), (1.0, 0), (1e308, 0), (0.2, -1),
        (None, 0), (2.5, 0), (True, 0), ("1", 0), (0.2, None), (0.2, 2.5), (0.2, True), (0.2, "1"),
    ])
    def test_out_of_range_argument_rejected(self, val_fraction, seed):
        table, labels = _labelled_table(50, 1)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION)
        with pytest.raises(ConfigError, match="val_fraction" if seed == 0 else "seed"):
            permutation_importance(artifact, table, labels, adapter, val_fraction, seed)

    def test_negative_tree_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            builtin_tree(TASK_CLASSIFICATION, seed=-1)

    @pytest.mark.parametrize("seed", [None, 2.5, True, "1"])
    def test_tree_seed_other_than_an_integer_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            builtin_tree(TASK_CLASSIFICATION, seed=seed)

    def test_zero_trees_rejected(self):
        with pytest.raises(ConfigError, match="n_trees"):
            builtin_tree(TASK_CLASSIFICATION, n_trees=0)

    @pytest.mark.parametrize("n_trees", [-3, 2.5, True, None, "10"])
    def test_n_trees_other_than_a_positive_integer_rejected(self, n_trees):
        with pytest.raises(ConfigError, match="n_trees"):
            builtin_tree(TASK_CLASSIFICATION, n_trees=n_trees)

    @pytest.mark.parametrize("max_depth", [-1, None, True, False, 2.5, "8"])
    def test_max_depth_other_than_a_non_negative_integer_rejected(self, max_depth):
        with pytest.raises(ConfigError, match="max_depth"):
            builtin_tree(TASK_CLASSIFICATION, max_depth=max_depth)

    def test_depth_zero_and_numpy_integers_accepted(self):
        X = np.array([[0.0], [1.0]] * 5)
        y = np.array([0, 1] * 5)
        adapter = builtin_tree(TASK_CLASSIFICATION, max_depth=np.int64(0), n_trees=np.int32(2))
        forest = adapter.train(X, y)["forest"]
        assert len(forest.root) == 2 and forest.depth == 0

    def test_zero_repeats_rejected(self):
        table, labels = _labelled_table(50, 1)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION)
        with pytest.raises(ConfigError, match="repeats"):
            permutation_importance(artifact, table, labels, adapter, repeats=0)

    @pytest.mark.parametrize("repeats", [None, 2.5, True, "1"])
    def test_repeats_other_than_a_positive_integer_rejected(self, repeats):
        table, labels = _labelled_table(50, 1)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION)
        with pytest.raises(ConfigError, match="repeats"):
            permutation_importance(artifact, table, labels, adapter, repeats=repeats)

    def test_too_few_validation_rows(self):
        table = _table(a=["x", "y", "x", "y"])
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION)
        with pytest.raises(DataError, match="validation"):
            permutation_importance(artifact, table, ["p", "q", "p", "q"], adapter)

    def test_regression_msle_zero_on_constant(self):
        rnd = random.Random(1)
        rows = 50
        table = _table(a=[float(rnd.randint(0, 5)) for _ in range(rows)])
        labels = [7.0] * rows
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_REGRESSION, seed=1)
        report = permutation_importance(artifact, table, labels, adapter, seed=1)
        assert report.base_score == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_regression_label_is_dropped_as_a_missing_one(self, bad):
        rnd = random.Random(4)
        rows = 60
        table = _table(a=[float(rnd.randint(0, 5)) for _ in range(rows)],
                       b=[rnd.choice(["p", "q", "r"]) for _ in range(rows)])
        labels = [float(rnd.randint(0, 9)) for _ in range(rows)]
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_REGRESSION, seed=4)
        reports = [permutation_importance(artifact, table, labels[:7] + [cell] + labels[8:],
                                          adapter, seed=4).to_json() for cell in (None, bad)]
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["base_score"] >= 0.0

    def test_sorted_table_renders(self):
        table, labels = _labelled_table(200, 13)
        _, artifact = pm.fit(table)
        adapter = builtin_tree(TASK_CLASSIFICATION, seed=13)
        report = permutation_importance(artifact, table, labels, adapter, seed=13)
        text = report.sorted_table()
        assert "metric1" in text and "informative" in text


# Few-valued pool: signed zeros, infinities and NaN, which sorts last.
_POOL = [-np.inf, -1.5, -0.0, 0.0, 0.5, 1.0, 1.0 + 2 ** -52, 3.0, np.inf, np.nan]


@st.composite
def _matrices(draw, rows: int):
    """A feature matrix of few-valued, constant, many-valued and repeated
    columns, and a second matrix of the same columns' values to predict on."""
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["few", "constant", "many", "repeat"]))
        if kind == "repeat" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
            continue
        if kind == "many":
            values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=1, max_size=2 * rows))
        elif kind == "constant":
            values = [draw(st.sampled_from(_POOL))]
        else:
            values = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=5))
        columns.append([draw(st.sampled_from(values)) for _ in range(2 * rows)])
    X = np.array(columns, dtype=float).T
    return X[:rows], X[rows:]


def _tree(X, y, max_depth, task, n_classes):
    """One tree grown on every row of X, without a bootstrap."""
    return _grow(_bin(X), y, [np.arange(len(y))], max_depth, task, n_classes)


def _nodes(forest, tree: int = 0) -> list[tuple]:
    """(feature, threshold) of each split and (leaf value,) of each leaf of one
    tree of the forest, in preorder."""
    out, stack = [], [forest.root[tree]]
    while stack:
        i = stack.pop()
        if forest.left[i] == i:
            out.append((forest.value[i],))
        else:
            out.append((int(forest.feature[i]), float(forest.threshold[i])))
            stack += [forest.right[i], forest.left[i]]
    return out


def _root_split(X, y):
    """(feature, threshold) of the root cut of a depth-1 regression tree, or None."""
    forest = _tree(X, y, 1, TASK_REGRESSION, 0)
    return None if forest.left[0] == 0 else (int(forest.feature[0]), float(forest.threshold[0]))


def _assert_same_trees(task, X, y, X_other, depth, n_trees, seed):
    fast = builtin_tree(task, max_depth=depth, n_trees=n_trees, seed=seed)
    slow = reference_tree(task, max_depth=depth, n_trees=n_trees, seed=seed)
    fast_model, slow_model = fast.train(X, y), slow.train(X, y)
    assert [_nodes(fast_model["forest"], t) for t in range(n_trees)] == \
        [preorder(t) for t in slow_model["trees"]]
    for data in (X, X_other):
        assert np.array_equal(fast.predict(fast_model, data), slow.predict(slow_model, data))


class TestHistogramTreeMatchesReference:
    """The histogram CART chooses the reference argsort CART's splits, so its
    trees and predictions are identical: exactly for classes and
    integer-valued regression targets, whose sums are exact in any order."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), rows=st.integers(2, 40), n_classes=st.integers(2, 12),
           depth=st.integers(1, 8), n_trees=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_classification(self, data, rows, n_classes, depth, n_trees, seed):
        X, X_other = data.draw(_matrices(rows))
        y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                        min_size=rows, max_size=rows)))
        _assert_same_trees(TASK_CLASSIFICATION, X, y, X_other, depth, n_trees, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(2, 40), depth=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16))
    def test_integer_valued_regression(self, data, rows, depth, seed):
        X, X_other = data.draw(_matrices(rows))
        y = np.array(data.draw(st.lists(st.integers(-1000, 1000), min_size=rows,
                                        max_size=rows)), dtype=float)
        _assert_same_trees(TASK_REGRESSION, X, y, X_other, depth, 2, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(2, 40))
    def test_float_regression_split_scores_within_rounding(self, data, rows):
        """Float targets are summed per value first, so a split may differ
        from the reference's, but only between cuts whose scores agree to
        rounding: 1e-9 of the targets' mean square."""
        X, _ = data.draw(_matrices(rows))
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows)))
        parent = _impurity(y, TASK_REGRESSION, 0)
        tolerance = 1e-9 * (1.0 + float(np.mean(y ** 2)))

        def score(split):
            if split is None:
                return parent
            mask = X[:, split[0]] <= split[1]
            return (mask.sum() * np.var(y[mask]) + (~mask).sum() * np.var(y[~mask])) / rows

        fast = _root_split(X, y)
        slow = oracles._best_split(X, y, TASK_REGRESSION, 0, parent)
        assert abs(score(fast) - score(slow and slow[1:])) <= tolerance

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n_classes=st.integers(2, 10), seed=st.integers(0, 2 ** 16))
    def test_permutation_importance_json(self, data, n_classes, seed):
        rows = 60
        text = st.sampled_from(["a", "b", "c", "d", None])
        number = st.sampled_from([-0.0, 0.0, 1.0, 2.5, -3.0, None])
        table = _table(
            t=data.draw(st.lists(text, min_size=rows, max_size=rows)),
            u=data.draw(st.lists(st.text("xyz", max_size=3), min_size=rows, max_size=rows)),
            v=data.draw(st.lists(number, min_size=rows, max_size=rows)),
        )
        labels = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=rows, max_size=rows))
        _, artifact = pm.fit(table)
        reports = []
        for make in (builtin_tree, reference_tree):
            try:
                reports.append(permutation_importance(
                    artifact, table, labels, make(TASK_CLASSIFICATION, seed=seed),
                    seed=seed).to_json())
            except ConfigError:  # a single-class validation split
                reports.append(None)
        assume(reports[0] is not None)
        assert reports[0] == reports[1]

    def test_first_minimum_among_cuts_that_tie_only_as_rounded(self):
        # Eight classes, two rows each. The cut after 0 leaves class counts
        # c | 2 - c and the cut after 1 leaves 2 - s | s, where s permutes c:
        # equal impurities in exact arithmetic. Under numpy's pairwise sum of
        # the eight class terms they tie as floats too, and the first is kept;
        # a left-to-right sum rounds them apart.
        per_value = [[0, 1, 1, 1, 1, 1, 1, 0], [2, 0, 1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 1, 1, 1, 1]]
        X = np.repeat([0.0, 1.0, 2.0], [sum(c) for c in per_value])[:, None]
        y = np.concatenate([np.repeat(np.arange(8), c) for c in per_value])
        assert _nodes(_tree(X, y, 1, TASK_CLASSIFICATION, 8)) == preorder(
            oracles._grow(X, y, 0, 1, TASK_CLASSIFICATION, 8))

    def test_later_feature_must_win_by_the_tolerance(self):
        # Ten classes, five rows each. Feature 1's cut leaves a permutation of
        # feature 0's class counts on each side, and its impurity rounds one
        # ulp lower, which is inside the 1e-12 tolerance: feature 0 is kept.
        left = [[1, 1, 2, 2, 1, 0, 2, 1, 2, 1], [0, 1, 1, 2, 2, 1, 2, 1, 1, 2]]
        X = np.array([[float(i >= n) for n in counts for i in range(5)] for counts in left]).T
        y = np.repeat(np.arange(10), 5)
        tree = _tree(X, y, 1, TASK_CLASSIFICATION, 10)
        assert tree.feature[0] == 0
        assert _nodes(tree) == preorder(oracles._grow(X, y, 0, 1, TASK_CLASSIFICATION, 10))


class TestGroupedGrowth:
    """Trees grown together in a group of any size are the trees grown one at
    a time, bit for bit: every node, and every prediction on held-out rows."""

    # Leaves of a depth-4 tree over 200 rows sum about a dozen float targets
    # each, so a change in their order shows in the last bits.
    ROWS, FEATURES = 200, 4

    @classmethod
    def _grown(cls, monkeypatch, cells, task, n_classes):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 6, (2 * cls.ROWS, cls.FEATURES)) * 0.25
        if task == TASK_CLASSIFICATION:
            y = (X[:, 0] * 4 + rng.integers(0, 2, len(X))).astype(int) % n_classes
        else:
            y = 0.37 * X.sum(axis=1) + rng.normal(0.0, 1.0, len(X))
        X[rng.random(X.shape) < 0.1] = np.nan
        X, y, held_out = X[:cls.ROWS], y[:cls.ROWS], X[cls.ROWS:]
        samples = [rng.integers(0, cls.ROWS, cls.ROWS) for _ in range(7)]
        # Every row of one label: that tree stops at depth 0 beside deeper ones.
        samples.insert(2, np.resize(np.flatnonzero(y == y[0]), cls.ROWS))
        monkeypatch.setattr(importance, "_FRONTIER_CELLS", cells)
        forest = _grow(_bin(X), y, samples, 4, task, n_classes)
        return [_nodes(forest, t) for t in range(len(samples))], _predict(forest, held_out)

    @pytest.mark.parametrize("task, n_classes", [(TASK_CLASSIFICATION, 3), (TASK_REGRESSION, 0)])
    def test_any_group_size_grows_the_same_trees(self, monkeypatch, task, n_classes):
        cells = self.ROWS * self.FEATURES
        trees, predictions = self._grown(monkeypatch, 1, task, n_classes)
        assert len(trees[2]) == 1 and max(map(len, trees)) > 5
        for budget in (3 * cells, 2 ** 40):  # groups of 3, 3 and 2; one group of 8
            grouped, grouped_predictions = self._grown(monkeypatch, budget, task, n_classes)
            assert repr(grouped) == repr(trees)  # repr tells every float bit apart
            assert grouped_predictions.tobytes() == predictions.tobytes()


class TestHistogramTreeMatchesReferenceAtScale:
    """Thousands of rows give frontiers of many nodes at one depth, with many
    present bins each, which the few-row property tests above barely reach."""

    @staticmethod
    def _data(task):
        rng = np.random.default_rng(17)
        rows = 2_400  # 2,000 to train on, 400 held out
        columns = [rng.integers(0, k, rows) * 0.5 - 3.0 for k in (2, 6, 31, 50, 250)]
        special = [np.nan, -np.inf, np.inf, -1.0, 0.0, 2.5]
        columns.append(rng.choice(special, rows, p=[0.1, 0.1, 0.1, 0.3, 0.2, 0.2]))
        X = np.column_stack(columns)
        noise = rng.integers(0, 4, rows)
        if task == TASK_CLASSIFICATION:
            y = (np.floor(X[:, 4] / 20) + 2 * X[:, 1] + noise
                 + np.isinf(X[:, 5])).astype(int) % 3
        else:
            y = np.floor(4 * X[:, 2] - X[:, 3] + 3 * np.isnan(X[:, 5])) + noise
        return X[:2_000], y[:2_000], X[2_000:]

    @pytest.mark.parametrize("task", [TASK_CLASSIFICATION, TASK_REGRESSION])
    def test_trees_and_held_out_predictions_match(self, task):
        X, y, held_out = self._data(task)
        # Trees of 2,000 x 6 cells grow five to a group: 3 trees grow in one
        # group, 6 in a group of five and a group of one.
        assert importance._FRONTIER_CELLS // X.size == 5
        for n_trees in (3, 6):
            _assert_same_trees(task, X, y, held_out, 8, n_trees, 5)


class TestRegressionSplitsOnLargeTargets:
    """Variance splits are scored about a target near the node mean, with a
    tolerance relative to the parent's variance, so a mean far above the
    spread neither invents nor hides a split."""

    @staticmethod
    def _data(seed=0, rows=200):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(rows, 3)).astype(float)
        return X, 1e8 + rng.normal(0.0, 1e-3, rows)

    # At seeds 17 and 130, scoring about the raw targets with an absolute
    # tolerance accepted a split that leaves the variance where it was.
    @pytest.mark.parametrize("seed", [0, 1, 2, 17, 130])
    def test_every_split_lowers_the_children_variance(self, seed):
        X, y = self._data(seed)
        tree = _tree(X, y, 8, TASK_REGRESSION, 0)
        splits = 0
        stack = [(0, np.arange(len(y)))]
        while stack:
            node, rows = stack.pop()
            if tree.left[node] == node:
                continue
            mask = X[rows, tree.feature[node]] <= tree.threshold[node]
            left, right = rows[mask], rows[~mask]
            weighted = (len(left) * np.var(y[left]) + len(right) * np.var(y[right])) / len(rows)
            assert weighted < np.var(y[rows])
            splits += 1
            stack += [(tree.left[node], left), (tree.right[node], right)]
        assert splits > 0

    def test_root_split_matches_the_shifted_targets(self):
        # The same features over the spread alone choose the same root cut.
        X, y = self._data()
        assert _root_split(X, y) == _root_split(X, y - 1e8)

    @pytest.mark.parametrize("value", [0.0, 1e8, -3.5])
    def test_constant_targets_give_a_single_leaf(self, value):
        X, _ = self._data()
        y = np.full(len(X), value)
        assert _nodes(_tree(X, y, 8, TASK_REGRESSION, 0)) == [(value,)]
        assert _root_split(X, y) is None
