"""One Centroid-Learning step for K sessions at once, in struct-of-arrays form.

The lock-step engine (:mod:`repro.experiments.lockstep`) and the sharded
service's drains (:mod:`repro.service.batch_exec`) both call this kernel;
the scalar :class:`~repro.core.centroid.CentroidLearning` path stays the
reference both are checked against.  It holds the shape rule
(:func:`batch_profile_for`), window-model fits and stacking, candidate
scoring (:func:`window_means` then :func:`acquisition_scores`; the pick is
the row-wise ``argmax``), and the Alg.-1 update (:func:`centroid_step`).

Every function is pure array arithmetic — no RNG draws, no telemetry, no
optimizer state — arranged so that row ``k`` is bitwise equal to the scalar
path for session ``k``.  Callers own RNG streams, guardrails, detectors,
gates, counters and spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..ml.acquisition import (
    AcquisitionFunction,
    ExpectedImprovement,
    LowerConfidenceBound,
    MeanMinimizer,
    ProbabilityOfImprovement,
)
from ..ml.batched import BatchedRidgePipeline, fit_ridge_pipeline
from ..ml.linear import PolynomialFeatures, RidgeRegression
from ..ml.scaler import Pipeline, StandardScaler
from .centroid import CentroidLearning
from .find_best import FindBestMode
from .gradient import _MAX_ENUM_DIM, _candidate_deltas
from .selectors import SurrogateSelector

__all__ = [
    "BatchProfile",
    "acquisition_scores",
    "batch_profile_for",
    "centroid_step",
    "fit_window_models",
    "stack_models",
    "window_means",
]

# Scores elementwise in (mean, std, best), so a (K, m) call is bitwise
# equal to K scalar (m,) calls.
_ELEMENTWISE_ACQUISITIONS = (
    MeanMinimizer,
    ExpectedImprovement,
    ProbabilityOfImprovement,
    LowerConfidenceBound,
)
_WINDOW_MODEL_STEPS = [StandardScaler, PolynomialFeatures, RidgeRegression]
_GEOMETRY_ATTR = "_batched_step_geometry"


@dataclass
class BatchProfile:
    """One session's shape, as the batched step needs it.

    ``bounds_low``, ``bounds_high``, ``span`` and ``deltas`` (the Eq.-7 sign
    set) are read-only arrays shared by every profile of one space object.
    """

    alpha: float  # the window model's ridge strength
    degree: int
    interaction_only: bool
    dim: int
    find_best_mode: FindBestMode
    probe: str
    acquisition: AcquisitionFunction
    bounds_low: np.ndarray
    bounds_high: np.ndarray
    span: np.ndarray
    deltas: np.ndarray

    @property
    def key(self) -> tuple:
        """Sessions whose keys match (and whose windows or candidate sets
        have one length) can share one stacked call: the same space object,
        window-model shape, FIND_BEST mode and probe.  Ridge strengths and
        acquisitions may differ."""
        return (
            id(self.span), self.degree, self.interaction_only,
            self.find_best_mode, self.probe,
        )


def _geometry(space) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(low, high, span, deltas)`` of ``space``, built once per space object."""
    geometry = space.__dict__.get(_GEOMETRY_ATTR)
    if geometry is None:
        bounds = space.internal_bounds
        low, high = bounds[:, 0].copy(), bounds[:, 1].copy()
        geometry = (low, high, high - low, _candidate_deltas(space.dim))
        for array in geometry:
            array.flags.writeable = False
        space.__dict__[_GEOMETRY_ATTR] = geometry
    return geometry


def batch_profile_for(optimizer) -> Union[BatchProfile, str]:
    """The session's :class:`BatchProfile`, or why it is out of shape.

    The shape: an exact-type :class:`CentroidLearning` with the ``"ml"``
    gradient, a ``"span"`` or ``"multiplicative"`` probe and at most
    ``_MAX_ENUM_DIM`` knobs; an exact-type :class:`SurrogateSelector` with no
    baseline, the optimizer's model factory and an elementwise acquisition;
    an exact ``StandardScaler → PolynomialFeatures →
    RidgeRegression(fit_intercept=True)`` window model.  Exact types, since
    a subclass may override what is replayed here.  The reason is a label:
    ``"optimizer"``, ``"gradient"``, ``"dim"``, ``"selector"`` or ``"model"``.
    """
    if type(optimizer) is not CentroidLearning:
        return "optimizer"
    if optimizer.gradient_mode != "ml" or optimizer.probe not in (
        "span", "multiplicative",
    ):
        return "gradient"
    space = optimizer.space
    if space.dim > _MAX_ENUM_DIM:
        return "dim"
    selector = optimizer.selector
    if (
        type(selector) is not SurrogateSelector
        or selector.baseline is not None
        or selector.model_factory is not optimizer.model_factory
        or type(selector.acquisition) not in _ELEMENTWISE_ACQUISITIONS
    ):
        return "selector"
    try:
        model = optimizer.model_factory()
    except Exception:  # noqa: BLE001 — an exploding factory is "not batchable"
        return "model"
    steps = [step for _, step in model.steps] if type(model) is Pipeline else []
    if [type(s) for s in steps] != _WINDOW_MODEL_STEPS or not steps[2].fit_intercept:
        return "model"
    _, poly, ridge = steps
    low, high, span, deltas = _geometry(space)
    return BatchProfile(
        alpha=float(ridge.alpha),
        degree=int(poly.degree),
        interaction_only=bool(poly.interaction_only),
        dim=space.dim,
        find_best_mode=optimizer.find_best_mode,
        probe=optimizer.probe,
        acquisition=selector.acquisition,
        bounds_low=low,
        bounds_high=high,
        span=span,
        deltas=deltas,
    )


# -- window models -------------------------------------------------------------


def fit_window_models(
    configs: np.ndarray,
    sizes: np.ndarray,
    perfs: np.ndarray,
    ridge_alphas: np.ndarray,
    profile: BatchProfile,
) -> BatchedRidgePipeline:
    """Fit ``H(c, p)`` (Eq. 4) on K ``(n, d)`` windows of one model shape."""
    k, n, d = configs.shape
    X = np.empty((k, n, d + 1))
    X[:, :, :d] = configs
    X[:, :, d] = sizes
    return fit_ridge_pipeline(
        X, perfs, ridge_alphas,
        degree=profile.degree, interaction_only=profile.interaction_only,
    )


def stack_models(
    parts: Sequence[Tuple[BatchedRidgePipeline, int]],
) -> BatchedRidgePipeline:
    """One model stack from ``(fitted stack, row)`` pairs of one shape, in order."""
    first = parts[0][0]
    return BatchedRidgePipeline(
        mean=np.stack([model.mean[j] for model, j in parts]),
        scale=np.stack([model.scale[j] for model, j in parts]),
        coef=np.stack([model.coef[j] for model, j in parts]),
        intercept=np.array([model.intercept[j] for model, j in parts]),
        degree=first.degree,
        interaction_only=first.interaction_only,
    )


def window_means(
    model: BatchedRidgePipeline, points: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """``H`` at ``(K, m, d)`` points, each session at its own data size
    ``sizes[k]``: the ``(K, m)`` predicted times."""
    k, m, d = points.shape
    rows = np.empty((k, m, d + 1))
    rows[:, :, :d] = points
    rows[:, :, d] = sizes[:, None]
    return model.predict(rows)


# -- Alg. 1 --------------------------------------------------------------------


def acquisition_scores(
    acquisition: AcquisitionFunction, means: np.ndarray, best
) -> np.ndarray:
    """Candidate scores at the scalar selector's std of 1e-9 (the window
    model has no predictive std).  ``best``, the window's fastest time,
    broadcasts against ``means``: a float for one session's row, ``(K, 1)``
    for a stack."""
    return acquisition(means, np.full(means.shape, 1e-9), best)


def centroid_step(
    model: BatchedRidgePipeline,
    configs: np.ndarray,
    sizes: np.ndarray,
    perfs: np.ndarray,
    alphas: np.ndarray,
    profile: BatchProfile,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alg. 1 steps 4–6 for K sessions whose profiles share one key.

    ``configs``/``sizes``/``perfs`` are the ``(K, n, d)``/``(K, n)``/``(K, n)``
    windows; FIND_BEST (MODEL mode) and the probes predict at the latest
    size, ``sizes[:, -1]``.  ``alphas`` are the sessions' current steps.
    Returns ``(c_star, delta, centroid)``, each ``(K, d)``: the FIND_BEST
    configuration, the Eq.-6 sign gradient and the clipped new centroid.
    """
    latest = sizes[:, -1]
    mode = profile.find_best_mode
    if mode is FindBestMode.MODEL:
        ranks = window_means(model, configs, latest)
    elif mode is FindBestMode.RAW:
        ranks = perfs
    elif mode is FindBestMode.NORMALIZED:
        ranks = perfs / sizes
    else:
        raise ValueError(f"unknown FindBestMode: {mode}")
    c_star = configs[np.arange(len(configs)), np.argmin(ranks, axis=1)]

    deltas = profile.deltas
    steps = alphas[:, None, None] * deltas[None]
    if profile.probe == "multiplicative":
        points = c_star[:, None, :] * (1.0 - steps)
    else:
        points = c_star[:, None, :] - steps * profile.span
    np.clip(points, profile.bounds_low, profile.bounds_high, out=points)
    delta = deltas[np.argmin(window_means(model, points, latest), axis=1)]

    if profile.probe == "multiplicative":
        centroid = c_star * (1.0 - alphas[:, None] * delta)
    else:
        centroid = c_star - alphas[:, None] * delta * profile.span
    return c_star, delta, np.clip(centroid, profile.bounds_low, profile.bounds_high)
