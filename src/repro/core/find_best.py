"""FIND_BEST — the three refinements described in Sec. 4.3.

Given the latest-N window Ω, pick the best-performing *observed*
configuration, accounting for the fact that observations ran over different
input sizes:

* **v1 (RAW)** — minimum raw execution time.  Biased toward whichever run
  happened to see the least data.
* **v2 (NORMALIZED)** — minimum ``r_i / p_i`` (Eq. 3).  Still biased because
  ``r/p`` tends to fall as ``p`` grows (fixed overheads amortize).
* **v3 (MODEL)** — fit ``r = H(c, p)`` (Eq. 4) and rank configurations by
  their predicted time at one *fixed* data size (Eq. 5).  The default.

The window model ``H`` lives here too: its generic fit
(:func:`fit_window_model`), its kernels over K windows of the default
``scale → poly → ridge`` shape (:func:`fit_window_models`,
:func:`window_means`), and the one memo every engine reads and writes.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..ml.base import Regressor
from ..ml.batched import BatchedRidgePipeline, fit_ridge_pipeline
from .observation import Observation, ObservationWindow

__all__ = [
    "FindBestMode",
    "find_best",
    "fit_window_model",
    "fit_window_models",
    "memoize_window_model",
    "memoized_window_model",
    "predict_window_model",
    "stack_models",
    "window_means",
    "window_model",
]

# The window-model memo: ``window.__dict__[_MEMO_ATTR]`` maps a factory's
# id to ``(window version, factory, model, row)``.  ``row`` is None for a
# fitted Regressor and the session's row of a kernel stack otherwise.
_MEMO_ATTR = "_window_model_cache"


class FindBestMode(enum.Enum):
    """Which FIND_BEST refinement to use."""

    RAW = "raw"
    NORMALIZED = "normalized"
    MODEL = "model"


# -- the window-model memo -----------------------------------------------------


def memoized_window_model(
    window: ObservationWindow, model_factory: Callable[[], Regressor]
) -> Optional[Tuple[object, Optional[int]]]:
    """``(model, row)`` fitted by ``model_factory`` on the window as it is
    now, or None.

    One memo serves every engine: within one step the selector, the safe
    gate and the centroid update need ``H`` over the *same* observations,
    so the first fit is the only one.  An entry is valid for the exact
    factory object and the window's append version, so a fresh fit happens
    as soon as an observation lands.
    """
    cache = window.__dict__.get(_MEMO_ATTR)
    entry = None if cache is None else cache.get(id(model_factory))
    if (
        entry is None
        or entry[0] != getattr(window, "version", None)
        or entry[1] is not model_factory
    ):
        return None
    return entry[2], entry[3]


def memoize_window_model(
    window: ObservationWindow,
    model_factory: Callable[[], Regressor],
    model,
    row: Optional[int] = None,
) -> None:
    """Keep ``model`` (a Regressor, or row ``row`` of a kernel stack) as
    ``model_factory``'s fit at the window's version; entries from older
    versions go, so the memo holds at most one generation per factory."""
    version = getattr(window, "version", None)
    if version is None:
        return
    cache = window.__dict__.setdefault(_MEMO_ATTR, {})
    for key in [k for k, v in cache.items() if v[0] != version]:
        del cache[key]
    cache[id(model_factory)] = (version, model_factory, model, row)


def fit_window_model(
    window: ObservationWindow, model_factory: Callable[[], Regressor]
) -> Regressor:
    """Fit ``H`` on the window's ``[c_i, p_i] → r_i`` pairs (Eq. 4), memoized.

    The generic path: any factory, always a fitted Regressor.  A memoized
    kernel fit is not one, so it is refit here; both fits are bitwise equal.
    """
    hit = memoized_window_model(window, model_factory)
    if hit is not None and hit[1] is None:
        return hit[0]
    model = model_factory()
    model.fit(window.design_matrix(), window.performances())
    memoize_window_model(window, model_factory, model)
    return model


def window_model(
    window: ObservationWindow,
    model_factory: Callable[[], Regressor],
    fit: Optional[Callable[[], object]] = None,
):
    """The memoized ``H`` of either kind — a Regressor or a K=1 kernel
    stack — else ``fit()`` (by default the generic fit).  The selector and
    the safe gate score with this."""
    hit = memoized_window_model(window, model_factory)
    if hit is None:
        return fit_window_model(window, model_factory) if fit is None else fit()
    model, row = hit
    if row is None or len(model.intercept) == 1:
        return model
    return stack_models([(model, row)])


def predict_window_model(model, points: np.ndarray, data_size: float) -> np.ndarray:
    """``H`` at ``(m, d)`` points, all at ``data_size``: the ``(m,)`` times.

    ``model`` is a fitted Regressor or a K=1 kernel stack; the two give
    bitwise equal times.
    """
    if isinstance(model, BatchedRidgePipeline):
        if not np.isfinite(data_size):  # the generic predict's input check
            raise ValueError("X contains NaN or infinite values")
        return window_means(model, points[None], np.array([float(data_size)]))[0]
    rows = np.column_stack([points, np.full(len(points), data_size)])
    return model.predict(rows)


# -- the window-model kernels (K sessions, one model shape) --------------------


def fit_window_models(
    configs: np.ndarray,
    sizes: np.ndarray,
    perfs: np.ndarray,
    ridge_alphas: np.ndarray,
    profile,
) -> BatchedRidgePipeline:
    """Fit ``H(c, p)`` (Eq. 4) on K ``(n, d)`` windows of one model shape:
    ``profile``'s degree and ``interaction_only`` (a
    :class:`~repro.core.batched_step.BatchProfile`)."""
    k, n, d = configs.shape
    X = np.empty((k, n, d + 1))
    X[:, :, :d] = configs
    X[:, :, d] = sizes
    # The generic fit's input checks, once for the stack.
    if not (np.isfinite(X).all() and np.isfinite(perfs).all()):
        raise ValueError("window contains NaN or infinite values")
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


def find_best(
    window: ObservationWindow,
    mode: FindBestMode = FindBestMode.MODEL,
    model: Optional[Regressor] = None,
    model_factory: Optional[Callable[[], Regressor]] = None,
    fixed_data_size: Optional[float] = None,
) -> Observation:
    """Return the best observation ``c*`` in the window under ``mode``.

    Args:
        window: the Ω(t, N) window.
        mode: selection strategy.
        model: an already-fitted ``H`` (saves a refit when the caller also
            needs it for FIND_GRADIENT).
        model_factory: used to fit ``H`` when ``model`` is not given
            (MODEL mode only).
        fixed_data_size: the uniform data size ``p`` used for MODEL-mode
            ranking; defaults to the latest observation's size ``p_t``.
    """
    obs = list(window.window)
    if not obs:
        raise ValueError("cannot FIND_BEST over an empty window")

    if mode is FindBestMode.RAW:
        return min(obs, key=lambda o: o.performance)

    if mode is FindBestMode.NORMALIZED:
        return min(obs, key=lambda o: o.performance / o.data_size)

    if mode is FindBestMode.MODEL:
        if len(obs) < 2:
            return obs[0]
        if model is None:
            if model_factory is None:
                raise ValueError("MODEL mode needs a fitted model or a model_factory")
            model = fit_window_model(window, model_factory)
        p = fixed_data_size if fixed_data_size is not None else obs[-1].data_size
        # Single (N, dim+1) assembly instead of N per-row concatenations.
        rows = np.column_stack(
            [np.stack([o.config for o in obs]), np.full(len(obs), p)]
        )
        predictions = model.predict(rows)
        return obs[int(np.argmin(predictions))]

    raise ValueError(f"unknown FindBestMode: {mode}")
