"""Batched (struct-of-arrays) twins of the scalar model-fitting paths.

The lock-step session engine (:mod:`repro.experiments.lockstep`) runs K
independent tuning sessions one *step* at a time, which requires fitting K
window models and K guardrail trend lines per step.  Doing that with K
Python-level scalar fits would erase the batching win, so this module
re-implements the exact arithmetic of the scalar paths over a leading batch
axis:

* :func:`fit_ridge_pipeline` / :class:`BatchedRidgePipeline` — the default
  ``StandardScaler → PolynomialFeatures → RidgeRegression`` window model
  (:mod:`repro.ml.scaler`, :mod:`repro.ml.linear`), fitted for K sessions at
  once.  Both paths expand features with the one
  :func:`repro.ml.linear.polynomial_features_batch`.
* :func:`ols_predict` — a deterministic ordinary-least-squares predictor
  (standardized normal equations): the trend solve of the scalar
  :class:`repro.core.guardrail.Guardrail` check, and the one stacked solve
  lock-step makes for all of a step's due guardrail checks.

**Bit-identity contract.**  Every batched operation here is implemented in a
form whose per-slice results are bitwise identical to the scalar NumPy
calls they replace: ``mean``/``std`` reductions along the sample axis,
stacked ``swapaxes(X, 1, 2) @ X`` Gram products, stacked
``np.linalg.solve``, and matmul-shaped dot products
``(m[:, None, :] @ coef[..., None])[:, 0, 0]``.  (Notably,
``np.einsum("kf,kf->k", ...)`` is *not* bitwise equal to per-slice dots and
is deliberately avoided.)  ``tests/ml/test_batched.py`` pins the contract
per primitive; :func:`repro.verify.diff.diff_lockstep_sequential` pins it
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear import polynomial_features_batch

__all__ = [
    "BatchedRidgePipeline",
    "fit_ridge_pipeline",
    "ols_predict",
    "polynomial_features_batch",
]


@dataclass
class BatchedRidgePipeline:
    """K fitted ``scale → poly → ridge`` window models in SoA form.

    Attributes:
        mean: per-session feature means, shape ``(K, f)``.
        scale: per-session feature scales (zeros replaced by 1), ``(K, f)``.
        coef: per-session ridge coefficients over expanded features,
            ``(K, F)``.
        intercept: per-session intercepts, ``(K,)``.
        degree / interaction_only: the polynomial expansion used at fit
            time (replayed at predict time).
    """

    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray
    intercept: np.ndarray
    degree: int = 2
    interaction_only: bool = False

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Predict at ``queries`` of shape ``(K, m, f)`` → ``(K, m)``."""
        qs = (queries - self.mean[:, None, :]) / self.scale[:, None, :]
        expanded = polynomial_features_batch(qs, self.degree, self.interaction_only)
        return (expanded @ self.coef[..., None])[..., 0] + self.intercept[:, None]

    def scatter_into(self, other: "BatchedRidgePipeline", idx: np.ndarray) -> None:
        """Write this model's K rows into ``other`` at positions ``idx``."""
        other.mean[idx] = self.mean
        other.scale[idx] = self.scale
        other.coef[idx] = self.coef
        other.intercept[idx] = self.intercept


def fit_ridge_pipeline(X: np.ndarray, y: np.ndarray, alphas: np.ndarray,
                       degree: int = 2,
                       interaction_only: bool = False) -> BatchedRidgePipeline:
    """Fit K ridge-pipeline window models at once.

    Args:
        X: design matrices, shape ``(K, n, f)`` — per-session window rows.
        y: targets, shape ``(K, n)``.
        alphas: per-session ridge regularization strengths, shape ``(K,)``.

    Returns a :class:`BatchedRidgePipeline` whose slice ``k`` is bitwise
    identical to ``Pipeline([StandardScaler(), PolynomialFeatures(degree),
    RidgeRegression(alphas[k])]).fit(X[k], y[k])``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    # StandardScaler.fit / transform.
    mean = X.mean(axis=1)
    scale = X.std(axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (X - mean[:, None, :]) / scale[:, None, :]
    # PolynomialFeatures.
    expanded = polynomial_features_batch(xs, degree, interaction_only)
    # RidgeRegression.fit (centered normal equations).
    n_features = expanded.shape[-1]
    x_mean = expanded.mean(axis=1)
    y_mean = y.mean(axis=1)
    xc = expanded - x_mean[:, None, :]
    yc = y - y_mean[:, None]
    gram = np.swapaxes(xc, 1, 2) @ xc + alphas[:, None, None] * np.eye(n_features)
    rhs = np.swapaxes(xc, 1, 2) @ yc[..., None]
    coef = np.linalg.solve(gram, rhs)[..., 0]
    intercept = y_mean - (x_mean[:, None, :] @ coef[..., None])[:, 0, 0]
    return BatchedRidgePipeline(
        mean=mean, scale=scale, coef=coef, intercept=intercept,
        degree=degree, interaction_only=interaction_only,
    )


def ols_predict(X: np.ndarray, y: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Deterministic OLS-with-intercept predictions via standardized normal
    equations.

    Accepts 2-D inputs (``X (n, f)``, ``y (n,)``, ``queries (q, f)`` →
    ``(q,)``) or stacked 3-D inputs with a leading batch axis.  Both shapes
    run through the *same* batched code path, so a scalar call is bitwise
    identical to the matching slice of a batched call — this is the solver
    shared by :meth:`repro.core.guardrail.Guardrail.update` and lock-step's
    stacked solve over its due guardrail checks.

    Degenerate (constant) feature columns get a zero coefficient: their
    centered values vanish from the Gram matrix, which is padded with an
    identity entry on those diagonals to stay non-singular.  Predictions at
    queries sharing the constant value are unaffected.  A tiny ridge term
    (1e-9 relative to the Gram diagonal) keeps exactly collinear columns —
    e.g. a data size that is an affine function of the iteration number —
    solvable; as the ridge weight vanishes the solution converges to the
    minimum-norm least-squares answer ``lstsq`` would return.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    queries = np.asarray(queries, dtype=float)
    scalar = X.ndim == 2
    if scalar:
        X, y, queries = X[None], y[None], queries[None]
    mean = X.mean(axis=1)
    std = X.std(axis=1)
    degenerate = std == 0.0
    std = np.where(degenerate, 1.0, std)
    xs = (X - mean[:, None, :]) / std[:, None, :]
    y_mean = y.mean(axis=1)
    yc = y - y_mean[:, None]
    n_features = X.shape[-1]
    gram = np.swapaxes(xs, 1, 2) @ xs
    # Standardized columns give Gram diagonals ~= n, so this ridge weight is
    # ~1e-9 relative — far below observation noise, large enough to solve
    # exactly collinear designs.
    ridge = 1e-9 * X.shape[1]
    gram = gram + np.eye(n_features) * (degenerate.astype(float) + ridge)[:, None, :]
    rhs = np.swapaxes(xs, 1, 2) @ yc[..., None]
    coef = np.linalg.solve(gram, rhs)[..., 0]
    qs = (queries - mean[:, None, :]) / std[:, None, :]
    out = (qs @ coef[..., None])[..., 0] + y_mean[:, None]
    return out[0] if scalar else out
