"""CART regression trees (variance-reduction splits), numpy-vectorized.

Fitting builds a linked :class:`_Node` tree (the form ``ml.serialize``
round-trips).  Each node's split search scores every candidate feature
at once (see :func:`_best_split`), with the same arithmetic per element as
a feature-by-feature loop, so every fitted tree is bitwise that loop's.
Prediction runs on :class:`NodeArrays`, the same tree
flattened into node arrays and traversed for all rows at once, one tree
level per step; an ensemble flattens all its trees into one
:class:`NodeArrays` and descends them together.  Leaves are reached by
the same ``x[feature] <= threshold`` tests as a node-by-node walk, so
predictions are bitwise those of the linked tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .base import check_X, check_X_y

__all__ = ["DecisionTreeRegressor", "NodeArrays"]


@dataclass
class _Node:
    prediction: float
    feature: int = -1            # -1 marks a leaf
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass(frozen=True)
class NodeArrays:
    """One or more fitted trees as flat node arrays.

    Node ``i`` sends a row left when ``x[feature[i]] <= threshold[i]``.  A
    leaf points to itself on both sides and tests feature 0, so a row that
    reached its leaf stays there while deeper trees keep descending.
    Tree *t*'s root is node *t* for ``t < n_trees``; ``depth`` is the
    longest root-to-leaf path over all of them.
    """

    feature: np.ndarray     # (nodes,) intp
    threshold: np.ndarray   # (nodes,)
    left: np.ndarray        # (nodes,) intp
    right: np.ndarray       # (nodes,) intp
    value: np.ndarray       # (nodes,) node predictions
    n_trees: int
    depth: int

    @classmethod
    def from_roots(cls, roots: Sequence[_Node]) -> "NodeArrays":
        """Flatten linked trees breadth first; tree *t*'s root is node *t*."""
        feature, threshold, left, right, value = [], [], [], [], []
        queue, depths = list(roots), [0] * len(roots)
        i = 0
        while i < len(queue):
            node = queue[i]
            value.append(node.prediction)
            if node.is_leaf:
                feature.append(0)
                threshold.append(0.0)
                left.append(i)
                right.append(i)
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                left.append(len(queue))
                right.append(len(queue) + 1)
                queue.extend((node.left, node.right))
                depths.extend((depths[i] + 1, depths[i] + 1))
            i += 1
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=float),
            n_trees=len(roots),
            depth=max(depths),
        )

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """``(T, n)`` leaf values: what tree *t* predicts for row *j*."""
        rows = np.arange(X.shape[0])
        idx = np.repeat(np.arange(self.n_trees)[:, None], X.shape[0], axis=1)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[idx]] <= self.threshold[idx]
            idx = np.where(go_left, self.left[idx], self.right[idx])
        return self.value[idx]


def _best_split(X, y, feature_indices, min_samples_leaf):
    """Return (feature, threshold, gain) of the best variance-reducing split.

    One pass over all candidate features: a stable argsort of their
    ``(F, n)`` value rows, prefix sums along each row giving every split's
    SSE, and a per-row minimum.  The winner is the first feature, in
    ``feature_indices`` order, whose gain is the largest and strictly
    positive: a loop keeping ``gain > best`` from 0 picks the same one.
    Every element sees the same operations in the same order as in that
    per-feature loop, which ``tests/ml/test_tree_exactness.py`` keeps as
    the reference, so the result is bitwise the loop's.
    """
    n = len(y)
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    if n < 2 * min_samples_leaf or len(feature_indices) == 0:
        return (-1, 0.0, 0.0)
    rows = X.T[feature_indices]
    order = np.argsort(rows, axis=1, kind="stable")
    xs = np.take_along_axis(rows, order, axis=1)
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    csum_sq = np.cumsum(ys * ys, axis=1)
    # Column k = i - 1 puts sorted rows [0, i) left and [i, n) right.
    i = np.arange(1, n)
    left_sum, left_sq = csum[:, :-1], csum_sq[:, :-1]
    right_sum, right_sq = csum[:, -1:] - left_sum, csum_sq[:, -1:] - left_sq
    sse = (left_sq - left_sum * left_sum / i) + (
        right_sq - right_sum * right_sum / (n - i)
    )
    valid = (xs[:, 1:] != xs[:, :-1]) & (i >= min_samples_leaf) & (n - i >= min_samples_leaf)
    sse[~valid] = np.inf  # a feature with no valid split gets gain -inf
    gain = parent_sse - sse.min(axis=1)
    f = int(np.argmax(gain))
    if not gain[f] > 0:
        return (-1, 0.0, 0.0)
    k = int(np.argmin(sse[f]))
    threshold = float(0.5 * (xs[f, k + 1] + xs[f, k]))
    return (int(feature_indices[f]), threshold, float(gain[f]))


class DecisionTreeRegressor:
    """A regression tree with depth / leaf-size / feature-subsampling controls.

    Args:
        max_depth: maximum tree depth (``None`` = unbounded).
        min_samples_leaf: minimum samples per leaf.
        min_samples_split: minimum samples to attempt a split.
        max_features: per-split feature subsample count (``None`` = all) —
            used by the random forest.
        seed: RNG seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        max_features: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = max(min_samples_split, 2 * min_samples_leaf)
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)
        self._root: Optional[_Node] = None
        self._arrays: Optional[NodeArrays] = None
        self.n_features_: int = 0

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(y.mean()))
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y == y[0])
        ):
            return node
        d = X.shape[1]
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(d, size=self.max_features, replace=False)
        else:
            features = np.arange(d)
        feature, threshold, gain = _best_split(X, y, features, self.min_samples_leaf)
        if feature < 0 or gain <= 1e-12:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self._root = self._build(X, y, depth=0)
        self._arrays = None
        return self

    def node_arrays(self) -> NodeArrays:
        """The fitted tree as :class:`NodeArrays`, flattened once per fit.

        Built from ``_root``, so a tree restored by ``ml.serialize`` (which
        sets ``_root`` on a fresh estimator) flattens on first use.
        """
        if self._root is None:
            raise RuntimeError("DecisionTreeRegressor is not fitted")
        if self._arrays is None:
            self._arrays = NodeArrays.from_roots([self._root])
        return self._arrays

    def predict(self, X: np.ndarray) -> np.ndarray:
        arrays = self.node_arrays()
        return arrays.leaves(check_X(X))[0]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        return self.node_arrays().depth
