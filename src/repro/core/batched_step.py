"""One Centroid-Learning step for K sessions at once, in struct-of-arrays form.

Every engine calls this kernel: the scalar
:class:`~repro.core.centroid.CentroidLearning` update at K=1, the lock-step
engine (:mod:`repro.experiments.lockstep`) and the sharded service's drains
(:mod:`repro.service.batch_exec`).  It holds the shape rule
(:func:`update_profile`, the update half, and :func:`batch_profile_for`, the
whole rule), candidate scoring (:func:`window_means` then
:func:`acquisition_scores`; the pick is the row-wise ``argmax``), and the
Alg.-1 update (:func:`centroid_step`).  The window-model fits, stacking and
memo are :mod:`repro.core.find_best`'s, re-exported here.

Every function is pure array arithmetic — no RNG draws, no telemetry, no
optimizer state — arranged so that row ``k`` is bitwise equal to the
generic path (a fitted ``Pipeline``, :func:`~repro.core.find_best.find_best`
and :func:`~repro.core.gradient.ml_sign_gradient`) for session ``k``.
Callers own RNG streams, guardrails, counters and spans.  Sessions with a
task-switch detector or a safe-exploration gate are out of the batched
engines' shape: :mod:`repro.core.switch` is their only implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..ml.acquisition import (
    AcquisitionFunction,
    ExpectedImprovement,
    LowerConfidenceBound,
    MeanMinimizer,
    ProbabilityOfImprovement,
)
from ..ml.batched import BatchedRidgePipeline
from ..ml.linear import PolynomialFeatures, RidgeRegression
from ..ml.scaler import Pipeline, StandardScaler
from .find_best import FindBestMode, fit_window_models, stack_models, window_means
from .gradient import _MAX_ENUM_DIM, _candidate_deltas

__all__ = [
    "BatchProfile",
    "acquisition_scores",
    "batch_profile_for",
    "centroid_step",
    "fit_window_models",
    "stack_models",
    "update_profile",
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
    """One session's shape, as the batched update needs it.

    ``bounds_low``, ``bounds_high``, ``span`` and ``deltas`` (the Eq.-7 sign
    set) are read-only arrays shared by every profile of one space object.
    """

    alpha: float  # the window model's ridge strength
    degree: int
    interaction_only: bool
    dim: int
    find_best_mode: FindBestMode
    probe: str
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


def update_profile(optimizer) -> Union[BatchProfile, str]:
    """The update half of the shape rule: the profile, or why it fails.

    The ``"ml"`` gradient, a ``"span"`` or ``"multiplicative"`` probe, at
    most ``_MAX_ENUM_DIM`` knobs, and an exact ``StandardScaler →
    PolynomialFeatures → RidgeRegression(fit_intercept=True)`` window model
    — exact types, since a subclass may override what is replayed here.
    The reason is ``"gradient"``, ``"dim"`` or ``"model"``, checked in that
    order.  The caller checks the optimizer's own type: this probe calls
    the model factory once, so :class:`~repro.core.centroid.CentroidLearning`
    runs it at its first fit and keeps the answer.
    """
    if optimizer.gradient_mode != "ml" or optimizer.probe not in (
        "span", "multiplicative",
    ):
        return "gradient"
    space = optimizer.space
    if space.dim > _MAX_ENUM_DIM:
        return "dim"
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
        bounds_low=low,
        bounds_high=high,
        span=span,
        deltas=deltas,
    )


def batch_profile_for(optimizer) -> Union[BatchProfile, str]:
    """The session's :class:`BatchProfile` under the whole shape rule, or
    why it is out of shape.

    The update half (:func:`update_profile`) on an exact-type
    :class:`CentroidLearning`, read from the optimizer so that it is probed
    once, then the serving half: an exact-type :class:`SurrogateSelector`
    with no baseline, the optimizer's model factory and an elementwise
    acquisition; no switch detector and no safe gate (their re-anchors and
    candidate masks run only in the scalar classes).  Any guardrail passes:
    every engine runs the session's own
    :class:`~repro.core.guardrail.Guardrail` — the drains call its
    ``update``, lock-step its two halves around one stacked trend solve (so
    lock-step alone asks for uniform, non-robust guardrails).

    The reason is a label, in the order checked: ``"optimizer"``,
    ``"gradient"``, ``"dim"``, ``"model"``, ``"selector"``,
    ``"switch_detector"`` or ``"safe_gate"`` — the ``reason`` of the
    drains' ``service.batch.fallback_sessions`` counter and of lock-step's
    refusal.
    """
    # Both classes call this module's kernels, so they import it first.
    from .centroid import CentroidLearning
    from .selectors import SurrogateSelector

    if type(optimizer) is not CentroidLearning:
        return "optimizer"
    profile = optimizer.update_profile
    if not isinstance(profile, BatchProfile):
        return profile
    selector = optimizer.selector
    if (
        type(selector) is not SurrogateSelector
        or selector.baseline is not None
        or selector.model_factory is not optimizer.model_factory
        or type(selector.acquisition) not in _ELEMENTWISE_ACQUISITIONS
    ):
        return "selector"
    if optimizer.switch_detector is not None:
        return "switch_detector"
    if optimizer.safe_gate is not None:
        return "safe_gate"
    return profile


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
