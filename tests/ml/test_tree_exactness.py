"""Array-based tree prediction is bitwise the node-by-node walk.

``DecisionTreeRegressor.predict`` traverses flattened node arrays level by
level.  The forest and the boosted ensemble each descend all their trees at
once; boosting then sums the stages with ``np.add.accumulate``.  The per-row walk over the linked
``_Node`` tree, which ``predict`` used to run, lives on here as the
reference; every comparison is ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.serialize import dumps_model, loads_model
from repro.ml.tree import DecisionTreeRegressor, NodeArrays


def walk(tree, X):
    """Reference: route each row from the root through ``_Node`` links."""
    out = np.empty(len(X))
    for i, row in enumerate(np.asarray(X, dtype=float)):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.prediction
    return out


def boosted_walk(model, X):
    """Reference stages: ``init + lr * tree_t`` added in tree order."""
    out = np.full(len(X), model._init_)
    stages = []
    for tree in model._trees:
        out = out + model.learning_rate * walk(tree, X)
        stages.append(out.copy())
    return stages


def thresholds(tree):
    found = []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            found.append((node.feature, node.threshold))
            stack.extend((node.left, node.right))
    return found


def queries(trees, d, rng, n=64):
    """Random rows plus rows sitting exactly on every split threshold."""
    X = rng.uniform(-0.2, 1.2, size=(n, d))
    on_split = []
    for tree in trees:
        for feature, threshold in thresholds(tree):
            row = rng.uniform(size=d)
            row[feature] = threshold
            on_split.append(row)
    return np.vstack([X] + on_split) if on_split else X


@pytest.fixture
def data(rng):
    X = rng.uniform(size=(150, 4))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - X[:, 2] * X[:, 3]
    return X, y


@pytest.fixture
def tied_data(rng):
    """Few distinct feature values, so many rows tie on every threshold."""
    X = rng.integers(0, 4, size=(120, 3)).astype(float)
    y = X[:, 0] * 2.0 - X[:, 1] + rng.normal(0.0, 0.1, size=120)
    return X, y


class TestDecisionTreeExactness:
    @pytest.mark.parametrize("kwargs", [
        {},
        {"max_depth": None, "min_samples_leaf": 1},
        {"max_depth": 1},
        {"max_depth": 4, "min_samples_leaf": 3},
        {"max_features": 2, "seed": 7},
    ], ids=["default", "unbounded", "stump", "depth4", "subsampled"])
    def test_matches_node_walk(self, data, rng, kwargs):
        X, y = data
        tree = DecisionTreeRegressor(**kwargs).fit(X, y)
        Xq = queries([tree], X.shape[1], rng)
        assert np.array_equal(tree.predict(Xq), walk(tree, Xq))
        assert np.array_equal(tree.predict(X), walk(tree, X))

    def test_stump_has_one_split(self, data):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.depth() == 1
        assert tree.node_arrays().depth == 1

    def test_tied_thresholds(self, tied_data, rng):
        X, y = tied_data
        tree = DecisionTreeRegressor().fit(X, y)
        Xq = np.vstack([X, queries([tree], X.shape[1], rng)])
        assert np.array_equal(tree.predict(Xq), walk(tree, Xq))

    def test_single_leaf_tree(self, rng):
        X = rng.uniform(size=(20, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(20, 7.0))
        arrays = tree.node_arrays()
        assert arrays.depth == 0 and len(arrays.value) == 1
        Xq = rng.uniform(size=(5, 3))
        assert np.array_equal(tree.predict(Xq), walk(tree, Xq))
        assert np.array_equal(tree.predict(Xq), np.full(5, 7.0))

    def test_leaves_point_to_themselves(self, data):
        X, y = data
        arrays = DecisionTreeRegressor(max_depth=3).fit(X, y).node_arrays()
        leaves = np.flatnonzero(arrays.left == np.arange(len(arrays.left)))
        assert len(leaves) > 0
        assert np.array_equal(arrays.right[leaves], leaves)
        assert np.all(arrays.feature[leaves] == 0)

    def test_refit_same_object_on_new_data(self, data, tied_data, rng):
        tree = DecisionTreeRegressor(max_depth=5)
        X1, y1 = data
        tree.fit(X1, y1).predict(X1)  # flattens the first fit
        X2, y2 = tied_data
        tree.fit(X2, y2)
        Xq = queries([tree], X2.shape[1], rng)
        assert np.array_equal(tree.predict(Xq), walk(tree, Xq))
        assert np.array_equal(
            tree.predict(Xq), DecisionTreeRegressor(max_depth=5).fit(X2, y2).predict(Xq)
        )

    def test_serialize_round_trip(self, data, rng):
        X, y = data
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        restored = loads_model(dumps_model(tree))
        Xq = queries([tree], X.shape[1], rng)
        assert np.array_equal(restored.predict(Xq), walk(tree, Xq))
        assert np.array_equal(restored.predict(Xq), tree.predict(Xq))

    def test_single_row_and_1d_input(self, data):
        X, y = data
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.array_equal(tree.predict(X[3]), walk(tree, X[3:4]))


class TestStackedArrays:
    def test_roots_and_depth(self, data):
        X, y = data
        trees = [DecisionTreeRegressor(max_depth=d).fit(X, y) for d in (0, 1, 3)]
        stacked = NodeArrays.from_roots([t._root for t in trees])
        assert stacked.n_trees == 3 and stacked.depth == 3
        # Tree t's root is node t.
        assert list(stacked.value[:3]) == [t._root.prediction for t in trees]
        assert list(stacked.threshold[:3]) == [t._root.threshold for t in trees]
        leaves = stacked.leaves(X)
        for t, tree in enumerate(trees):
            assert np.array_equal(leaves[t], walk(tree, X))


class TestGradientBoostingExactness:
    @pytest.mark.parametrize("kwargs", [
        {"n_estimators": 80, "learning_rate": 0.1, "max_depth": 4, "min_samples_leaf": 3},
        {"n_estimators": 25, "max_depth": 1},
        {"n_estimators": 20, "subsample": 0.7, "max_features": 2},
        {"n_estimators": 1, "learning_rate": 1e-9},
    ], ids=["baseline", "stumps", "subsampled", "one_tree"])
    def test_predict_and_staged_match_tree_loop(self, data, rng, kwargs):
        X, y = data
        model = GradientBoostingRegressor(seed=3, **kwargs).fit(X, y)
        Xq = queries(model._trees, X.shape[1], rng)
        reference = boosted_walk(model, Xq)
        assert np.array_equal(model.predict(Xq), reference[-1])
        staged = list(model.staged_predict(Xq))
        assert len(staged) == len(reference)
        for got, expected in zip(staged, reference):
            assert np.array_equal(got, expected)

    def test_tied_thresholds(self, tied_data, rng):
        X, y = tied_data
        model = GradientBoostingRegressor(n_estimators=30, seed=0).fit(X, y)
        Xq = np.vstack([X, queries(model._trees, X.shape[1], rng)])
        assert np.array_equal(model.predict(Xq), boosted_walk(model, Xq)[-1])

    def test_refit_same_object_on_new_data(self, data, tied_data, rng):
        model = GradientBoostingRegressor(n_estimators=15, seed=1)
        X1, y1 = data
        model.fit(X1, y1).predict(X1)  # stacks the first fit's trees
        X2, y2 = tied_data
        model.fit(X2, y2)
        Xq = queries(model._trees, X2.shape[1], rng)
        assert np.array_equal(model.predict(Xq), boosted_walk(model, Xq)[-1])

    def test_serialize_round_trip(self, data, rng):
        X, y = data
        model = GradientBoostingRegressor(n_estimators=40, max_depth=3, seed=2).fit(X, y)
        Xq = queries(model._trees, X.shape[1], rng)
        expected = model.predict(Xq)
        restored = loads_model(dumps_model(model))
        assert np.array_equal(restored.predict(Xq), expected)
        assert np.array_equal(restored.predict(Xq), boosted_walk(restored, Xq)[-1])
        for got, ref in zip(restored.staged_predict(Xq), boosted_walk(model, Xq)):
            assert np.array_equal(got, ref)


class TestRandomForestExactness:
    @pytest.mark.parametrize("max_depth", [None, 1, 4])
    def test_predict_matches_tree_loop(self, data, rng, max_depth):
        X, y = data
        model = RandomForestRegressor(n_estimators=12, max_depth=max_depth, seed=4).fit(X, y)
        Xq = queries(model._trees, X.shape[1], rng)
        per_tree = np.array([walk(t, Xq) for t in model._trees])
        assert np.array_equal(model._all_tree_predictions(Xq), per_tree)
        mean, std = model.predict_with_std(Xq)
        assert np.array_equal(model.predict(Xq), per_tree.mean(axis=0))
        assert np.array_equal(mean, per_tree.mean(axis=0))
        assert np.array_equal(std, per_tree.std(axis=0) + 1e-12)

    def test_one_row_queries(self, data, rng):
        # The app-level scorers predict one candidate row at a time.
        X, y = data
        model = RandomForestRegressor(n_estimators=20, seed=6).fit(X, y)
        for row in queries(model._trees, X.shape[1], rng, n=8)[:40]:
            per_tree = np.array([walk(t, row[None, :]) for t in model._trees])
            assert np.array_equal(model.predict(row[None, :]), per_tree.mean(axis=0))
            assert np.array_equal(model.predict(row), per_tree.mean(axis=0))

    def test_refit_same_object_on_new_data(self, data, tied_data, rng):
        model = RandomForestRegressor(n_estimators=10, seed=8)
        X1, y1 = data
        model.fit(X1, y1).predict(X1)  # stacks the first fit's trees
        X2, y2 = tied_data
        model.fit(X2, y2)
        Xq = queries(model._trees, X2.shape[1], rng)
        per_tree = np.array([walk(t, Xq) for t in model._trees])
        assert np.array_equal(model.predict(Xq), per_tree.mean(axis=0))

    def test_serialize_round_trip(self, tied_data, rng):
        X, y = tied_data
        model = RandomForestRegressor(n_estimators=8, seed=5).fit(X, y)
        restored = loads_model(dumps_model(model))
        Xq = queries(model._trees, X.shape[1], rng)
        assert np.array_equal(restored.predict(Xq), model.predict(Xq))
        per_tree = np.array([walk(t, Xq) for t in restored._trees])
        assert np.array_equal(restored.predict(Xq), per_tree.mean(axis=0))
