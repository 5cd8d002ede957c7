"""Tree fitting and array-based prediction are bitwise their old loops.

``DecisionTreeRegressor.predict`` traverses flattened node arrays level by
level.  The forest and the boosted ensemble each descend all their trees at
once; boosting then sums the stages with ``np.add.accumulate``.  The per-row walk over the linked
``_Node`` tree, which ``predict`` used to run, lives on here as the
reference.  So does the per-feature split search, ``loop_best_split``,
which fitting used to run before ``_best_split`` scored all candidate
features in one pass.  Every comparison is ``np.array_equal`` or bit
equality, not a tolerance.
"""

import numpy as np
import pytest

import repro.ml.tree as tree_module
from repro.embedding.embedder import WorkloadEmbedder
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.serialize import dumps_model, loads_model
from repro.ml.tree import DecisionTreeRegressor, NodeArrays, _best_split
from repro.offline.etl import build_training_table
from repro.offline.flighting import FlightingConfig, FlightingPipeline
from repro.sparksim.configs import query_level_space


def loop_best_split(X, y, feature_indices, min_samples_leaf):
    """Reference: the feature-by-feature split search fitting used to run."""
    n = len(y)
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best = (-1, 0.0, 0.0)
    if n < 2 * min_samples_leaf:
        return best
    for j in feature_indices:
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys * ys)
        total, total_sq = csum[-1], csum_sq[-1]
        # Candidate split puts rows [0, i) left and [i, n) right.
        i = np.arange(1, n)
        left_sum, left_sq = csum[:-1], csum_sq[:-1]
        right_sum, right_sq = total - left_sum, total_sq - left_sq
        sse = (left_sq - left_sum * left_sum / i) + (
            right_sq - right_sum * right_sum / (n - i)
        )
        valid = (xs[1:] != xs[:-1]) & (i >= min_samples_leaf) & (n - i >= min_samples_leaf)
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        k = int(np.argmin(sse))
        gain = parent_sse - float(sse[k])
        if gain > best[2]:
            best = (int(j), float(0.5 * (xs[k + 1] + xs[k])), gain)
    return best


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


def bits(values):
    """Float bit patterns, so equality is bit equality (-0.0 != 0.0)."""
    return np.asarray(values, dtype=float).view(np.uint64)


def node_bits(tree):
    """Preorder features and (threshold, prediction) bits; -1 marks a leaf."""
    features, values = [], []
    stack = [tree._root]
    while stack:
        node = stack.pop()
        features.append(node.feature)
        values.append((node.threshold, node.prediction))
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return np.array(features), bits(values)


def random_node(rng):
    """One node's split inputs: ties, duplicate and constant columns, any subset."""
    n = int(rng.integers(1, 40))
    d = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, d))
    if d > 1 and rng.random() < 0.4:
        X[:, rng.integers(1, d)] = X[:, 0]          # equal gains on two features
    if rng.random() < 0.2:
        X[:, rng.integers(0, d)] = rng.uniform()    # a constant column
    y = rng.normal(size=n)
    if rng.random() < 0.3:
        y = np.round(y)                              # tied targets
    features = rng.permutation(d)[: int(rng.integers(0, d + 1))]
    return X, y, features, int(rng.integers(1, 6))


class TestSplitSearchExactness:
    def test_random_nodes_match_loop(self):
        rng = np.random.default_rng(0)
        splits = 0
        for _ in range(500):
            X, y, features, min_leaf = random_node(rng)
            got = _best_split(X, y, features, min_leaf)
            want = loop_best_split(X, y, features, min_leaf)
            assert got[0] == want[0]
            assert np.array_equal(bits(got[1:]), bits(want[1:]))
            splits += got[0] >= 0
        assert 100 < splits < 500  # both outcomes are exercised

    @pytest.mark.parametrize("features", [[0, 2, 1], [2, 0, 1], [1, 2, 0]])
    def test_equal_gains_pick_first_listed_feature(self, data, features):
        X, _ = data
        X = np.column_stack([X[:, 0], X[:, 1], X[:, 0]])  # column 2 copies 0
        y = 3.0 * X[:, 0] + 0.1 * X[:, 1]                 # 0 and 2 split best
        got = _best_split(X, y, np.array(features), 1)
        assert got == loop_best_split(X, y, np.array(features), 1)
        assert got[0] == [f for f in features if f in (0, 2)][0]

    def test_no_split_cases(self, data):
        X, y = data
        empty = np.array([], dtype=np.intp)
        for args in [(X, y, empty, 1), (X[:5], y[:5], np.arange(4), 3)]:
            assert _best_split(*args) == loop_best_split(*args) == (-1, 0.0, 0.0)


def fit_both(monkeypatch, make, X, y):
    """Fit ``make()`` as is and with ``loop_best_split`` finding its splits."""
    calls = []

    def reference(*args):
        calls.append(1)
        return loop_best_split(*args)

    real = make().fit(X, y)
    with monkeypatch.context() as patch:
        patch.setattr(tree_module, "_best_split", reference)
        ref = make().fit(X, y)
    return real, ref, len(calls)


def assert_same_fit(real, ref, X):
    trees_real = getattr(real, "_trees", [real])
    trees_ref = getattr(ref, "_trees", [ref])
    assert len(trees_real) == len(trees_ref)
    for a, b in zip(trees_real, trees_ref):
        for got, want in zip(node_bits(a), node_bits(b)):
            assert np.array_equal(got, want)
    assert np.array_equal(bits(real.predict(X)), bits(ref.predict(X)))


@pytest.fixture
def constant_column_data(rng):
    X = rng.uniform(size=(90, 3))
    X[:, 1] = 0.25
    return X, X[:, 0] - 2.0 * X[:, 2] ** 2


FITS = [
    pytest.param("data", lambda: DecisionTreeRegressor(), id="tree_default"),
    pytest.param("data", lambda: DecisionTreeRegressor(max_depth=3), id="tree_depth3"),
    pytest.param("data", lambda: DecisionTreeRegressor(min_samples_leaf=75),
                 id="tree_half_leaf"),
    pytest.param("tied_data", lambda: DecisionTreeRegressor(min_samples_leaf=60),
                 id="tree_half_leaf_tied"),
    pytest.param("data", lambda: DecisionTreeRegressor(max_features=1, seed=2),
                 id="tree_features1"),
    pytest.param("tied_data", lambda: DecisionTreeRegressor(max_features=2, seed=3),
                 id="tree_features2"),
    pytest.param("data", lambda: DecisionTreeRegressor(max_features=9, seed=4),
                 id="tree_features9"),
    pytest.param("tied_data", lambda: DecisionTreeRegressor(), id="tree_tied"),
    pytest.param("constant_column_data", lambda: DecisionTreeRegressor(),
                 id="tree_constant_column"),
    pytest.param("data", lambda: GradientBoostingRegressor(
        n_estimators=30, max_depth=4, min_samples_leaf=3, seed=0), id="boost_baseline"),
    pytest.param("data", lambda: GradientBoostingRegressor(
        n_estimators=20, subsample=0.7, seed=1), id="boost_subsample"),
    pytest.param("tied_data", lambda: GradientBoostingRegressor(
        n_estimators=20, max_features=2, seed=2), id="boost_max_features"),
    pytest.param("constant_column_data", lambda: GradientBoostingRegressor(
        n_estimators=20, subsample=0.7, max_features=2, seed=3),
        id="boost_subsample_max_features"),
    pytest.param("data", lambda: RandomForestRegressor(
        n_estimators=8, max_features="sqrt", seed=4), id="forest_sqrt"),
    pytest.param("tied_data", lambda: RandomForestRegressor(
        n_estimators=8, max_features="third", seed=5), id="forest_third"),
    pytest.param("constant_column_data", lambda: RandomForestRegressor(
        n_estimators=8, max_features=None, max_depth=5, seed=6), id="forest_all"),
]


class TestFitExactness:
    @pytest.mark.parametrize("dataset,make", FITS)
    def test_fit_matches_loop_split_fit(self, monkeypatch, request, dataset, make):
        X, y = request.getfixturevalue(dataset)
        real, ref, calls = fit_both(monkeypatch, make, X, y)
        assert calls > 0
        assert_same_fit(real, ref, X)

    def test_no_candidate_feature_gives_one_leaf(self, monkeypatch, data):
        # max_features=0: the split search gets an empty feature subset.
        X, y = data
        real, ref, _ = fit_both(
            monkeypatch, lambda: DecisionTreeRegressor(max_features=0, seed=0), X, y
        )
        assert real.depth() == 0
        assert real._root.prediction == y.mean()
        assert_same_fit(real, ref, X)

    def test_constant_target(self, monkeypatch, rng):
        X = rng.uniform(size=(40, 3))
        y = np.full(40, 3.5)
        for make in (
            lambda: DecisionTreeRegressor(),
            lambda: GradientBoostingRegressor(n_estimators=5, subsample=0.7, seed=0),
            lambda: RandomForestRegressor(n_estimators=4, seed=0),
        ):
            real, ref, _ = fit_both(monkeypatch, make, X, y)
            assert_same_fit(real, ref, X)
            assert np.array_equal(real.predict(X), y)


@pytest.fixture(scope="module")
def flighting_table():
    """The ``session_scalar`` offline table: 24 TPC-DS queries at SF 10 and
    100, 12 configs each, seed 1 -> 576 rows x 126 features."""
    space = query_level_space()
    events = FlightingPipeline(
        FlightingConfig(
            benchmark="tpcds", query_ids=list(range(1, 25)),
            scale_factors=[10.0, 100.0], n_configs=12, seed=1,
        ),
        space=space,
        embedder=WorkloadEmbedder(),
    ).execute()
    return build_training_table(events, space)


def test_baseline_on_flighting_table_matches_loop_split_fit(monkeypatch, flighting_table):
    X, y = flighting_table.X, flighting_table.y
    assert X.shape == (576, 126)
    # The default baseline learner, cut from 80 trees to 8.
    real, ref, calls = fit_both(monkeypatch, lambda: GradientBoostingRegressor(
        n_estimators=8, learning_rate=0.1, max_depth=4, min_samples_leaf=3, seed=0
    ), X, y)
    assert calls > 8 * 4
    assert_same_fit(real, ref, X)
