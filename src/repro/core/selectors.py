"""Candidate selection policies for the Centroid Learning loop.

Algorithm 1's step "use surrogate model to select the best candidate:
c_{t+1} = argmax_{c∈C} f(c)" is factored into :class:`CandidateSelector`
implementations:

* :class:`SurrogateSelector` — fit a model on the window (plus, before any
  query-specific data exists, score with the offline *baseline model*) and
  pick via an acquisition function.
* :class:`PseudoSurrogateSelector` — the Fig.-9 instrument: a model of
  controllable accuracy that deterministically picks the candidate at the
  ``10·X``-th percentile of *true* performance.
* :class:`RandomSelector` — ablation control.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

import numpy as np

from .. import telemetry
from ..ml.acquisition import AcquisitionFunction, MeanMinimizer
from ..ml.base import Regressor
from ..ml.batched import BatchedRidgePipeline
from .find_best import predict_window_model, window_model
from .observation import ObservationWindow

__all__ = [
    "CandidateSelector",
    "SurrogateSelector",
    "PseudoSurrogateSelector",
    "RandomSelector",
    "BaselineModelAdapter",
]


class CandidateSelector(Protocol):
    """Picks the index of the next candidate to execute."""

    def select(
        self,
        candidates: np.ndarray,
        window: ObservationWindow,
        data_size: float,
        embedding: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> int: ...


class BaselineModelAdapter:
    """Wraps an offline baseline model over ``[embedding, config, data_size]``.

    The baseline model (Sec. 4.2) provides iteration-0 predictions before any
    query-specific observation exists.
    """

    def __init__(self, model: Regressor, embedding_dim: int):
        self.model = model
        self.embedding_dim = embedding_dim

    def predict(
        self, candidates: np.ndarray, data_size: float, embedding: Optional[np.ndarray]
    ) -> np.ndarray:
        if embedding is None:
            emb = np.zeros(self.embedding_dim)
        else:
            emb = np.asarray(embedding, dtype=float)
            if emb.shape != (self.embedding_dim,):
                raise ValueError(
                    f"embedding has shape {emb.shape}, expected ({self.embedding_dim},)"
                )
        rows = np.array([
            np.concatenate([emb, c, [data_size]]) for c in candidates
        ])
        return self.model.predict(rows)


class SurrogateSelector:
    """Window-model (+ optional baseline warm start) acquisition selection.

    Args:
        model_factory: constructor of the per-query surrogate ``H`` fit on
            the window's ``[c, p] → r`` pairs.
        acquisition: scoring rule (default: pure exploitation, the deployed
            system's conservative choice).
        baseline: offline baseline adapter used while the window holds fewer
            than ``min_observations`` points.
        min_observations: window size needed before ``H`` is trusted.
    """

    def __init__(
        self,
        model_factory: Callable[[], Regressor],
        acquisition: Optional[AcquisitionFunction] = None,
        baseline: Optional[BaselineModelAdapter] = None,
        min_observations: int = 3,
    ):
        if min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        self.model_factory = model_factory
        self.acquisition = acquisition or MeanMinimizer()
        self.baseline = baseline
        self.min_observations = min_observations

    def select(self, candidates, window, data_size, embedding, rng) -> int:
        n_window = len(window.window)
        if n_window < self.min_observations:
            if self.baseline is not None:
                predictions = self.baseline.predict(candidates, data_size, embedding)
                return int(np.argmin(predictions))
            # Cold start without a baseline: explore the neighborhood.
            return int(rng.integers(0, len(candidates)))

        # The centroid update's fit when it made one at this window version
        # (a K=1 kernel stack in its shape), else a fit of this factory.
        model = window_model(window, self.model_factory)
        if isinstance(model, BatchedRidgePipeline):
            mean = predict_window_model(model, candidates, data_size)
            std = np.full(len(candidates), 1e-9)
        else:
            rows = np.column_stack([candidates, np.full(len(candidates), data_size)])
            try:
                mean, std = model.predict_with_std(rows)  # type: ignore[union-attr]
            except (AttributeError, NotImplementedError):
                mean = model.predict(rows)
                std = np.full(len(candidates), 1e-9)
        best = float(np.min(window.performances()))
        scores = self.acquisition(mean, std, best)
        chosen = int(np.argmax(scores))
        if telemetry.enabled():
            tspan = telemetry.current_span()
            tspan.set_attr("candidate_scores", np.asarray(scores, dtype=float).tolist())
            tspan.set_attr("candidate_chosen_score", float(scores[chosen]))
            tspan.set_attr("candidate_mean_prediction", float(np.mean(mean)))
        return chosen


class PseudoSurrogateSelector:
    """A "Level X" pseudo-surrogate (Sec. 6.1).

    Ranks candidates by *true* (noiseless) performance and returns the one at
    the ``10·level``-th percentile: level 1 ≈ top decile (accurate model),
    level 9 ≈ 90th percentile (badly mis-ranking model).

    Args:
        true_fn: ``true_fn(vector, data_size) -> noiseless time``.
        level: accuracy level ``X`` in 1..9.
    """

    def __init__(self, true_fn: Callable[[np.ndarray, float], float], level: int):
        if not 1 <= level <= 9:
            raise ValueError(f"level must be in 1..9, got {level}")
        self.true_fn = true_fn
        self.level = level

    def select(self, candidates, window, data_size, embedding, rng) -> int:
        values = np.array([self.true_fn(c, data_size) for c in candidates])
        order = np.argsort(values)
        rank = int(round(0.10 * self.level * (len(candidates) - 1)))
        return int(order[rank])


class RandomSelector:
    """Uniform-random candidate choice (no model guidance at all)."""

    def select(self, candidates, window, data_size, embedding, rng) -> int:
        return int(rng.integers(0, len(candidates)))
