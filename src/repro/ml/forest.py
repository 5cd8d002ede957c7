"""Random forest regression (bagged CART trees)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import check_X, check_X_y
from .tree import DecisionTreeRegressor, NodeArrays

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees.

    The ensemble spread across trees doubles as a (crude) uncertainty
    estimate via :meth:`predict_with_std`, which lets the forest serve as a
    baseline-model surrogate with an acquisition function.

    Prediction flattens the fitted trees into one :class:`NodeArrays` (once
    per fit, or on first use after ``ml.serialize.loads_model``) and
    descends all of them together; its ``(T, n)`` leaf values are bitwise
    the per-tree predictions stacked in tree order.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 2,
        max_features: Optional[str] = "sqrt",
        seed: Optional[int] = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)
        self._trees: List[DecisionTreeRegressor] = []
        self._stacked: Optional[NodeArrays] = None

    def _resolve_max_features(self, d: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if self.max_features == "third":
            return max(1, d // 3)
        if isinstance(self.max_features, int):
            return min(d, self.max_features)
        raise ValueError(f"unknown max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        n, d = X.shape
        max_features = self._resolve_max_features(d)
        self._trees = []
        self._stacked = None
        for _ in range(self.n_estimators):
            idx = self._rng.integers(0, n, size=n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], y[idx])
            self._trees.append(tree)
        return self

    def _all_tree_predictions(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("RandomForestRegressor is not fitted")
        X = check_X(X)
        if self._stacked is None:
            self._stacked = NodeArrays.from_roots([t._root for t in self._trees])
        return self._stacked.leaves(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._all_tree_predictions(X).mean(axis=0)

    def predict_with_std(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        preds = self._all_tree_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0) + 1e-12
