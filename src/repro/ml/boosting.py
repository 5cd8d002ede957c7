"""Gradient-boosted regression trees (squared loss)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import check_X, check_X_y
from .tree import DecisionTreeRegressor, NodeArrays

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Classic least-squares gradient boosting with shrinkage + subsampling.

    Used as an alternative baseline-model learner in the offline phase; the
    Fabric deployment trains with "Scikit-learn, NimbusML" (Sec. 3.1), for
    which boosted trees are the workhorse tabular learner.

    Prediction flattens the fitted trees into one :class:`NodeArrays` (once
    per fit, or on first use after ``ml.serialize.loads_model``) and
    descends all of them together.  The stage sums then run through
    ``np.add.accumulate`` down the tree axis, which adds
    ``learning_rate * leaves[t]`` in tree order, so every stage is bitwise
    the sum a tree-by-tree loop would build.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        max_features: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)
        self._trees: List[DecisionTreeRegressor] = []
        self._stacked: Optional[NodeArrays] = None
        self._init_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        n = len(X)
        self._init_ = float(y.mean())
        residual = y - self._init_
        self._trees = []
        self._stacked = None
        for _ in range(self.n_estimators):
            if self.subsample < 1.0:
                m = min(n, max(2 * self.min_samples_leaf, int(self.subsample * n)))
                idx = self._rng.choice(n, size=m, replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[idx], residual[idx])
            update = tree.predict(X)
            residual -= self.learning_rate * update
            self._trees.append(tree)
        return self

    def _stages(self, X: np.ndarray) -> np.ndarray:
        """``(T + 1, n)`` running sums: row *t* is the prediction after *t* trees."""
        if not self._trees:
            raise RuntimeError("GradientBoostingRegressor is not fitted")
        X = check_X(X)
        if self._stacked is None:
            self._stacked = NodeArrays.from_roots([t._root for t in self._trees])
        terms = np.empty((len(self._trees) + 1, len(X)))
        terms[0] = self._init_
        terms[1:] = self.learning_rate * self._stacked.leaves(X)
        return np.add.accumulate(terms, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._stages(X)[-1]

    def staged_predict(self, X: np.ndarray):
        """Yield predictions after each boosting stage (for early-stop tests)."""
        for stage in self._stages(X)[1:]:
            yield stage.copy()
