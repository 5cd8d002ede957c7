"""Linear models: ordinary least squares and ridge regression.

The Centroid Learning update (Sec. 4.3) fits "a linear surface ... to
approximate the small region explored" to obtain a noise-robust gradient
sign; these are the models backing that step and the guardrail regression.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import check_X, check_X_y

__all__ = [
    "LinearRegression",
    "RidgeRegression",
    "PolynomialFeatures",
    "polynomial_features_batch",
]


class LinearRegression:
    """Ordinary least squares via ``numpy.linalg.lstsq`` (rank-robust)."""

    def __init__(self, fit_intercept: bool = True):
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            A = np.column_stack([np.ones(len(X)), X])
        else:
            A = X
        beta, *_ = np.linalg.lstsq(A, y, rcond=None)
        if self.fit_intercept:
            self.intercept_ = float(beta[0])
            self.coef_ = beta[1:]
        else:
            self.intercept_ = 0.0
            self.coef_ = beta
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearRegression is not fitted")
        X = check_X(X)
        return X @ self.coef_ + self.intercept_


class RidgeRegression:
    """L2-regularized least squares (closed form, intercept unpenalized)."""

    def __init__(self, alpha: float = 1.0, fit_intercept: bool = True):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            Xc, yc = X, y
        d = X.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(d)
        self.coef_ = np.linalg.solve(gram, Xc.T @ yc)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("RidgeRegression is not fitted")
        X = check_X(X)
        return X @ self.coef_ + self.intercept_


def polynomial_features_batch(X: np.ndarray, degree: int = 2,
                              interaction_only: bool = False) -> np.ndarray:
    """Degree-≤2 polynomial expansion over the trailing axis.

    The one expansion behind :class:`PolynomialFeatures` and the batched
    window models (:mod:`repro.ml.batched`): original columns first, then
    ``x_i · x_j`` for ``j >= i`` (``j > i`` with ``interaction_only``),
    applied to arrays with any number of leading batch axes.  Degree 1
    returns ``X`` itself.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if degree == 1:
        return X
    d = X.shape[-1]
    pairs = [(i, j) for i in range(d)
             for j in range(i + 1 if interaction_only else i, d)]
    out = np.empty(X.shape[:-1] + (d + len(pairs),), dtype=X.dtype)
    out[..., :d] = X
    # Each product goes straight into its column: no per-pair temporaries
    # and no concatenation, which is the cost at the lock-step (K, n, f)
    # stacks as well as at the scalar (n, f) windows.
    for col, (i, j) in enumerate(pairs, start=d):
        np.multiply(X[..., i], X[..., j], out=out[..., col])
    return out


class PolynomialFeatures:
    """Degree-2 polynomial expansion (optionally interactions only).

    Used by the offline baseline model to add "interactions and
    permutations to the feature set" (Sec. 3.1).
    """

    def __init__(self, degree: int = 2, interaction_only: bool = False):
        if degree not in (1, 2):
            raise ValueError("only degree 1 or 2 is supported")
        self.degree = degree
        self.interaction_only = interaction_only

    def fit(self, X: np.ndarray) -> "PolynomialFeatures":
        check_X(X)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X)
        if self.degree == 1:
            return X.copy()
        return polynomial_features_batch(X, 2, self.interaction_only)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)
