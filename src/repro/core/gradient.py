"""FIND_GRADIENT — statistically robust descent *directions* (Sec. 4.3).

The gradient here "indicates only the direction of change (increase or
decrease), not the magnitude"; the step-size parameter ``α`` controls the
scale.  Two estimators are provided:

* **linear** — fit a linear surface ``r ≈ wᵀ[c, p] + b`` on the window and
  take the sign of the configuration coefficients.  Fitting over the latest
  N observations (rather than the last two, as hill-climbing/FLOW2 do) is
  the de-noising mechanism.
* **ml (Eq. 6–7)** — reuse the fitted window model ``H`` and search the sign
  set ``D = {−1, +1}^d`` for the probe point
  ``c* ⊖ α·δ`` with the lowest predicted time.  Captures non-linear
  data-size effects that the linear surface misses.

Probe geometry: the paper writes probes multiplicatively, ``c*(1 − αδ)``
(Eq. 6).  On internal axes that include values near zero the multiplicative
step degenerates, so the default is the equivalent *span-relative* step
``c* − α·δ·span`` (``span`` = per-dimension internal width); the literal
multiplicative form is available via ``probe="multiplicative"``.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..ml.base import Regressor
from ..ml.linear import LinearRegression
from .config_space import ConfigSpace
from .observation import ObservationWindow

__all__ = ["linear_sign_gradient", "ml_sign_gradient", "probe_points"]

# Beyond this many dimensions the 2^d sign enumeration is replaced by a
# coordinate-wise search (2·d probes instead of 2^d).
_MAX_ENUM_DIM = 12


def linear_sign_gradient(window: ObservationWindow) -> np.ndarray:
    """Sign of ∂r/∂c from a linear fit on the window (data size included).

    Returns a vector in {−1, 0, +1}^d: +1 where increasing the knob is
    predicted to *slow down* the query (so the centroid should decrease it),
    0 where the window shows no variation in that knob.
    """
    X = window.design_matrix()
    y = window.performances()
    if len(y) < 2:
        return np.zeros(X.shape[1] - 1)
    config_cols = X[:, :-1]
    varying = config_cols.std(axis=0) > 1e-12
    model = LinearRegression()
    model.fit(X, y)
    signs = np.sign(model.coef_[:-1])
    signs[~varying] = 0.0
    return signs


def probe_points(
    space: ConfigSpace,
    c_star: np.ndarray,
    deltas: np.ndarray,
    alpha: float,
    probe: str = "span",
) -> np.ndarray:
    """Probe configurations for the candidate gradients ``deltas``.

    ``probe="span"``:           ``clip(c* − α·δ·span)``
    ``probe="multiplicative"``: ``clip(c*·(1 − α·δ))`` (Eq. 6 literal)
    """
    c_star = np.asarray(c_star, dtype=float)
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    bounds = space.internal_bounds
    if probe == "span":
        span = bounds[:, 1] - bounds[:, 0]
        points = c_star[None, :] - alpha * deltas * span[None, :]
    elif probe == "multiplicative":
        points = c_star[None, :] * (1.0 - alpha * deltas)
    else:
        raise ValueError(f"unknown probe geometry {probe!r}")
    return np.clip(points, bounds[:, 0], bounds[:, 1])


def _candidate_deltas(dim: int) -> np.ndarray:
    """The sign set D (Eq. 7), or a coordinate-wise basis for large d."""
    if dim <= _MAX_ENUM_DIM:
        return np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    # Coordinate-wise: ±e_j for every dimension; the best per-dimension signs
    # are combined afterwards.
    eye = np.eye(dim)
    return np.vstack([eye, -eye])


def ml_sign_gradient(
    space: ConfigSpace,
    model: Regressor,
    c_star: np.ndarray,
    data_size: float,
    alpha: float,
    probe: str = "span",
) -> np.ndarray:
    """Eq. 6: ``Δ = argmin_{δ∈D} H(probe(c*, δ), p)``.

    Args:
        space: configuration space (for spans and clipping).
        model: the fitted window model ``H`` over ``[c, p]`` features.
        c_star: the FIND_BEST configuration (internal axes).
        data_size: ``p_{t+1}``, the data size to predict at.
        alpha: step-size scale of the probes.
        probe: probe geometry (see :func:`probe_points`).

    Returns:
        The winning sign vector ``Δ ∈ {−1, +1}^d`` (or a combined
        coordinate-wise vector for ``d > 12``).
    """
    dim = space.dim
    deltas = _candidate_deltas(dim)
    points = probe_points(space, c_star, deltas, alpha, probe)
    rows = np.column_stack([points, np.full(len(points), data_size)])
    predictions = model.predict(rows)

    if dim <= _MAX_ENUM_DIM:
        return deltas[int(np.argmin(predictions))]

    # Coordinate-wise combination: for each dim pick the sign whose single-
    # coordinate probe predicted lower time.
    plus = predictions[:dim]
    minus = predictions[dim:]
    return np.where(plus <= minus, 1.0, -1.0)
