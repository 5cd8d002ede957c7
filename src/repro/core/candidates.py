"""Candidate generation in the neighborhood of a centroid (Alg. 1, step β).

Centroid Learning "restricts exploration to a smaller region defined by the
step size β" (Sec. 4.3): candidates are sampled inside a box of half-width
``β × span`` around the centroid, clipped to the space bounds.  The centroid
itself is always included so the algorithm can stand still when nothing in
the neighborhood looks better.

Step β is written once, as the K-session kernel :func:`draw_candidates`.
The scalar path (:func:`generate_candidates`, which ``CentroidLearning``
and Algorithm 2 call), the lock-step engine and the shard drains all call
it; row ``k`` of a K-session call is bitwise the K=1 call for session
``k`` and draws exactly as much of that session's stream.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .config_space import ConfigSpace

__all__ = ["draw_candidates", "generate_candidates"]


def draw_candidates(
    centroids: np.ndarray,
    betas: np.ndarray,
    n_candidates: int,
    randoms: Sequence[Callable[..., np.ndarray]],
    low: np.ndarray,
    high: np.ndarray,
    span: np.ndarray,
) -> np.ndarray:
    """Step β for K sessions that share one space and one candidate count.

    Args:
        centroids: ``(K, dim)`` internal-axis anchors, clipped here.
        betas: ``(K,)`` neighborhood half-widths (fractions of ``span``);
            unchecked — ``CentroidLearning`` validates its own.
        n_candidates: ``m``, candidates per session, centroid included.
        randoms: each session's own ``Generator.random``, in row order.
        low, high, span: the space's internal bounds and ``high - low``.

    Returns:
        ``(K, m, dim)``: row 0 of each session is its clipped centroid; the
        other ``m - 1`` rows are ``lo + (hi - lo) * random((m - 1, dim))``
        over the β-box ``[lo, hi]`` clipped to the bounds — bitwise
        ``Generator.uniform(lo, hi, (m - 1, dim))``, from the same doubles
        of the same stream.  ``m = 1`` draws nothing.
    """
    cents = np.clip(centroids, low, high)
    reach = betas[:, None] * span
    lo = np.maximum(cents - reach, low)
    hi = np.minimum(cents + reach, high)
    out = np.empty((len(cents), n_candidates, cents.shape[1]))
    out[:, 0] = cents
    if n_candidates > 1:
        rest = out[:, 1:]
        for row, random in zip(rest, randoms):
            random(out=row)  # each row is C-contiguous: filled in draw order
        rest *= (hi - lo)[:, None, :]
        rest += lo[:, None, :]
    return out


def generate_candidates(
    space: ConfigSpace,
    centroid: np.ndarray,
    beta: float,
    n_candidates: int,
    rng: np.random.Generator,
    include_centroid: bool = True,
) -> np.ndarray:
    """Sample ``n_candidates`` internal vectors around ``centroid``.

    The K=1 call of :func:`draw_candidates`.

    Args:
        space: configuration space.
        centroid: internal-axis anchor ``e_t``.
        beta: neighborhood half-width as a fraction of each parameter's
            internal span (``0 < beta <= 1``).
        n_candidates: number of candidates returned (including the centroid
            when ``include_centroid``).
        rng: random generator.
        include_centroid: prepend the (clipped) centroid itself.

    Returns:
        ``(n_candidates, dim)`` array of clipped internal vectors.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    bounds = space.internal_bounds
    low, high = bounds[:, 0], bounds[:, 1]
    m = n_candidates + (0 if include_centroid else 1)
    candidates = draw_candidates(
        np.asarray(centroid, dtype=float)[None, :], np.array([beta]), m,
        (rng.random,), low, high, high - low,
    )[0]
    return candidates if include_centroid else candidates[1:]
