"""Online tuning sessions: glue between an optimizer and a workload.

A :class:`TuningSession` drives one recurrent query through the online phase
of Fig. 5: suggest → execute on the simulator → record → update.  It tracks
a :class:`TuningTrace` with both observed (noisy) and true (noiseless)
times, which the experiment harness turns into the paper's convergence plots
and speed-up numbers.

An :class:`ApplicationSession` drives a recurrent multi-query *application*:
per-query optimizers over the query-level knobs, a shared app-level
configuration read from the :class:`~repro.core.app_level.AppCache` at
startup, and an Algorithm-2 joint optimization refreshing that cache when
the run completes (Sec. 4.4's lifecycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import telemetry
from ..embedding.embedder import WorkloadEmbedder
from ..sparksim.executor import SparkSimulator
from ..sparksim.plan import PhysicalPlan
from .app_level import AppCache, AppCacheEntry, QueryTuningContext, optimize_app_config
from .centroid import CentroidLearning, default_window_model_factory
from .config_space import ConfigSpace
from .find_best import fit_window_model
from .observation import Observation
from .optimizer_base import Optimizer

__all__ = ["IterationRecord", "TuningTrace", "TuningSession", "ApplicationSession"]


@dataclass(frozen=True)
class IterationRecord:
    """One step of a tuning session."""

    iteration: int
    config: Dict[str, float]
    observed_seconds: float
    true_seconds: float
    data_size: float
    tuning_active: bool = True


@dataclass
class TuningTrace:
    """The full record of a tuning session."""

    records: List[IterationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    @property
    def observed(self) -> np.ndarray:
        return np.array([r.observed_seconds for r in self.records])

    @property
    def true(self) -> np.ndarray:
        return np.array([r.true_seconds for r in self.records])

    @property
    def data_sizes(self) -> np.ndarray:
        return np.array([r.data_size for r in self.records])

    def best_true_so_far(self) -> np.ndarray:
        """Running minimum of the true times (convergence view)."""
        return np.minimum.accumulate(self.true)

    def normalized_true(self) -> np.ndarray:
        """True time divided by data size — the 'normed performance' view
        used for dynamic workloads (Fig. 11a/11c)."""
        return self.true / self.data_sizes

    def speedup_vs(self, reference_seconds: float, tail: int = 5) -> float:
        """Relative speed-up of the mean of the last ``tail`` true times
        against a reference time: ``reference / measured − 1``."""
        if not self.records:
            raise ValueError("empty trace")
        measured = float(self.true[-tail:].mean())
        return reference_seconds / measured - 1.0


class TuningSession:
    """Runs one recurrent query's online tuning loop on the simulator.

    Args:
        plan: the recurrent query's physical plan.
        simulator: the execution substrate.
        optimizer: any :class:`~repro.optimizers.base.Optimizer`.
        embedder: computes the workload-embedding "context" per iteration
            (``None`` disables embeddings).
        scale_fn: iteration → relative input-data scale (default constant 1);
            models production input drift.
        fallback_to_default: the session-level escape hatch mirroring
            ``spark.autotune.query.enabled``: when the optimizer's suggest
            or observe raises, run the default configuration for that
            iteration (counted in :attr:`fallback_count`) instead of
            failing the query.  Off by default — research harnesses want
            the exception.
        observe_transform: optional ``(iteration, observed_seconds) ->
            observed_seconds`` hook applied to the simulator's observed time
            before the optimizer sees it and before it is recorded — the
            place configuration-independent pathologies (fig15's variance
            and drift multipliers) enter the loop.  ``true_seconds`` is
            untouched.

    The remaining extension hooks live on the *optimizer*, not the session
    (the session reads them through the ``Optimizer`` surface):

    * ``optimizer.switch_detector`` — a
      :class:`~repro.core.switch.TaskSwitchDetector` consulted per
      observation; when it declares a regime change the optimizer
      re-anchors and :attr:`switch_count` reflects it here.
    * ``optimizer.switch_warm_start`` — ``(Observation) ->
      Optional[vector]`` consulted on a declared switch for a
      post-re-anchor starting point (the retrieval corpus plugs in here,
      and :meth:`repro.core.importance.ImportanceTracker.attach` chains a
      deterministic knob re-rank onto it).
    * ``optimizer.safe_gate`` — a
      :class:`~repro.core.switch.SafeExplorationGate` clamping post-switch
      exploration.
    * ``optimizer.space`` — any :class:`~repro.core.config_space.ConfigSpace`,
      including a :class:`~repro.core.importance.PrunedSpace`: the
      session's single per-step ``space.to_dict(vector)`` call is the
      decode point, so a pruned optimizer still materializes full-space
      configs (dropped knobs pinned) for the simulator and the trace.

    The tier map for everything above is in ``docs/testing.md``.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        simulator: SparkSimulator,
        optimizer: Optimizer,
        embedder: Optional[WorkloadEmbedder] = None,
        scale_fn: Optional[Callable[[int], float]] = None,
        fallback_to_default: bool = False,
        observe_transform: Optional[Callable[[int, float], float]] = None,
    ):
        self.plan = plan
        self.simulator = simulator
        self.optimizer = optimizer
        self.embedder = embedder
        self.scale_fn = scale_fn or (lambda t: 1.0)
        self.observe_transform = observe_transform
        self.fallback_to_default = fallback_to_default
        self.fallback_count = 0
        self.trace = TuningTrace()
        # The last (plan, embedding) pair: a session that does not drift
        # runs one plan object every step, so it embeds once.
        self._embedded: Optional[tuple] = None

    def default_true_time(self, scale: float = 1.0) -> float:
        """Noiseless time of the space's default configuration."""
        default = self.optimizer.space.default_dict()
        return self.simulator.true_time(self.plan, default, data_scale=scale)

    @property
    def switch_count(self) -> int:
        """Task switches the optimizer's detector has declared (0 without one)."""
        detector = getattr(self.optimizer, "switch_detector", None)
        return detector.switch_count if detector is not None else 0

    def step(self) -> IterationRecord:
        """Run one suggest → execute → observe iteration."""
        t = len(self.trace)
        with telemetry.span("session.step", iteration=t) as tspan:
            scale = self.scale_fn(t)
            scaled_plan = self.plan.scaled(scale) if scale != 1.0 else self.plan
            embedding = self._embed(scaled_plan) if self.embedder else None
            # The compile-time cardinality estimate stands in for the (unknown)
            # actual input size when scoring candidates.
            estimated_size = max(scaled_plan.total_leaf_cardinality, 1.0)

            try:
                vector = self.optimizer.suggest(
                    data_size=estimated_size, embedding=embedding
                )
            except Exception:  # noqa: BLE001 — escape hatch, see fallback_to_default
                if not self.fallback_to_default:
                    raise
                self.fallback_count += 1
                telemetry.counter("session.fallbacks", stage="suggest").inc()
                vector = self.optimizer.space.default_vector()
            config = self.optimizer.space.to_dict(vector)
            result = self.simulator.run(self.plan, config, data_scale=scale)
            observed = result.elapsed_seconds
            if self.observe_transform is not None:
                observed = self.observe_transform(t, observed)

            try:
                self.optimizer.observe(
                    Observation(
                        config=vector,
                        data_size=result.data_size,
                        performance=observed,
                        iteration=t,
                        embedding=embedding,
                    )
                )
            except Exception:  # noqa: BLE001 — a lost observation beats a lost query
                if not self.fallback_to_default:
                    raise
                self.fallback_count += 1
                telemetry.counter("session.fallbacks", stage="observe").inc()
            active = getattr(self.optimizer, "tuning_active", True)
            record = IterationRecord(
                iteration=t,
                config=config,
                observed_seconds=observed,
                true_seconds=result.true_seconds,
                data_size=result.data_size,
                tuning_active=active,
            )
            self.trace.append(record)
            telemetry.counter("session.steps").inc()
            if telemetry.enabled():
                tspan.set_attr("observed_seconds", observed)
                tspan.set_attr("true_seconds", result.true_seconds)
                tspan.set_attr("data_size", result.data_size)
                tspan.set_attr("tuning_active", active)
                detector = getattr(self.optimizer, "switch_detector", None)
                if detector is not None:
                    tspan.set_attr("switch_count", detector.switch_count)
                    tspan.set_attr("switch_statistic", detector.statistic)
            return record

    def _embed(self, plan: PhysicalPlan) -> np.ndarray:
        """``plan``'s embedding, computed once per plan object.

        A drifting session builds a new scaled copy each step, so it embeds
        each step.  The array is read-only: every observation shares it.
        """
        if self._embedded is None or self._embedded[0] is not plan:
            embedding = np.array(self.embedder.embed(plan), dtype=float)
            embedding.flags.writeable = False
            self._embedded = (plan, embedding)
        return self._embedded[1]

    def run(self, n_iterations: int) -> TuningTrace:
        """Run ``n_iterations`` steps and return the trace."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        for _ in range(n_iterations):
            self.step()
        return self.trace


class ApplicationSession:
    """Tunes a recurrent multi-query application (Sec. 4.4 lifecycle).

    Each :meth:`run_application` call models one submission of the same
    recurrent artifact:

    1. the app-level configuration comes from the :class:`AppCache` (or the
       defaults on the first run);
    2. every query runs once with its own query-level suggestion from a
       per-query :class:`CentroidLearning` state (persistent across runs);
    3. at application end, Algorithm 2 re-computes the app-level
       configuration from the per-query windows and refreshes the cache.

    Args:
        artifact_id: recurrent-application identity (the app_cache key).
        plans: the queries the application executes per run.
        simulator: execution substrate.
        query_space: query-level knobs.
        app_space: app-level knobs.
        app_cache: shared cache (create one per test/production store).
        optimizer_factory: per-query optimizer constructor
            ``(query_space, seed) -> CentroidLearning``.
        seed: RNG seed.
    """

    def __init__(
        self,
        artifact_id: str,
        plans: List[PhysicalPlan],
        simulator: SparkSimulator,
        query_space: ConfigSpace,
        app_space: ConfigSpace,
        app_cache: Optional[AppCache] = None,
        optimizer_factory: Optional[Callable[[ConfigSpace, int], CentroidLearning]] = None,
        seed: int = 0,
    ):
        if not plans:
            raise ValueError("an application needs at least one query")
        self.artifact_id = artifact_id
        self.plans = list(plans)
        self.simulator = simulator
        self.query_space = query_space
        self.app_space = app_space
        self.app_cache = app_cache if app_cache is not None else AppCache()
        factory = optimizer_factory or (
            lambda space, s: CentroidLearning(space, seed=s)
        )
        self._optimizers = [factory(query_space, seed + i) for i in range(len(plans))]
        self._rng = np.random.default_rng(seed)
        self._iteration = 0
        self.run_history: List[Dict[str, float]] = []

    @property
    def iteration(self) -> int:
        """Number of completed application runs."""
        return self._iteration

    def current_app_config(self) -> Dict[str, float]:
        """The app-level knobs this run would start with."""
        cached = self.app_cache.get(self.artifact_id)
        if cached is not None:
            merged = self.app_space.default_dict()
            merged.update({k: v for k, v in cached.config.items() if k in self.app_space})
            return merged
        return self.app_space.default_dict()

    def run_application(self) -> Dict[str, float]:
        """Execute one full application run; returns summary metrics."""
        app_config = self.current_app_config()
        total_observed = 0.0
        total_true = 0.0
        for plan, optimizer in zip(self.plans, self._optimizers):
            estimated = max(plan.total_leaf_cardinality, 1.0)
            vector = optimizer.suggest(data_size=estimated)
            config = {**app_config, **self.query_space.to_dict(vector)}
            result = self.simulator.run(plan, config)
            optimizer.observe(Observation(
                config=vector, data_size=result.data_size,
                performance=result.elapsed_seconds, iteration=self._iteration,
            ))
            total_observed += result.elapsed_seconds
            total_true += result.true_seconds
        self._refresh_app_cache(app_config)
        self._iteration += 1
        summary = {
            "iteration": float(self._iteration),
            "total_observed_seconds": total_observed,
            "total_true_seconds": total_true,
        }
        self.run_history.append(summary)
        return summary

    def run(self, n_runs: int) -> List[Dict[str, float]]:
        """Execute ``n_runs`` application submissions."""
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        return [self.run_application() for _ in range(n_runs)]

    # -- Algorithm 2 refresh -----------------------------------------------------

    def _refresh_app_cache(self, current_app: Dict[str, float]) -> None:
        """Re-run Algorithm 2 from the per-query windows (when fittable)."""
        contexts: List[QueryTuningContext] = []
        app_names = self.app_space.names
        for plan, optimizer in zip(self.plans, self._optimizers):
            window = optimizer.observations
            if len(window.window) < 3:
                continue
            model = fit_window_model(window, default_window_model_factory)
            p = window.latest.data_size

            def score_fn(v, w, _model=model, _p=p, _app=current_app):
                # The window model H sees query-level features only; the
                # app-level candidate perturbs the predicted time through a
                # parallelism ratio (more cores -> proportionally faster for
                # the shuffle/scan-bound share of the plan).
                row = np.concatenate([w, [_p]])[None, :]
                base = float(_model.predict(row)[0])
                cores_now = max(
                    _app.get("spark.executor.instances", 4)
                    * _app.get("spark.executor.cores", 4), 1.0,
                )
                candidate = self.app_space.to_dict(np.asarray(v))
                cores_new = max(
                    candidate.get("spark.executor.instances", 4)
                    * candidate.get("spark.executor.cores", 4), 1.0,
                )
                return -base * (cores_now / cores_new) ** 0.7

            contexts.append(QueryTuningContext(
                query_space=self.query_space,
                centroid=optimizer.centroid,
                score_fn=score_fn,
            ))
        if not contexts:
            return
        best = optimize_app_config(
            self.app_space,
            self.app_space.to_vector(current_app),
            contexts,
            rng=self._rng,
        )
        self.app_cache.put(AppCacheEntry(
            artifact_id=self.artifact_id,
            config=self.app_space.to_dict(best),
            n_queries=len(contexts),
        ))
