"""Shared experiment machinery.

The paper's convergence figures plot, per iteration, the median **true**
performance of the *suggested* configuration across many independent runs,
with a 5th–95th percentile band.  :func:`run_replicated` produces that runs
matrix for any optimizer on any synthetic objective, and
:class:`ConvergenceBands` summarizes it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import telemetry
from ..core.observation import Observation
from ..core.optimizer_base import Optimizer
from ..workloads.dynamics import ConstantSize, DataSizeProcess
from ..workloads.synthetic import SyntheticObjective
from .lockstep import LockstepCompatibilityError, LockstepReplicatedRuns

__all__ = ["ConvergenceBands", "ExperimentResult", "run_replicated", "run_single"]


@dataclass
class ConvergenceBands:
    """Median + (p5, p95) band of a runs matrix, per iteration.

    The runs matrix is copied and frozen on construction: report code reads
    ``median``/``p5``/``p95`` repeatedly, so each percentile is computed
    once and cached.
    """

    runs: np.ndarray  # (n_runs, n_iterations)

    def __post_init__(self) -> None:
        self.runs = np.atleast_2d(np.array(self.runs, dtype=float, copy=True))
        self.runs.setflags(write=False)
        self._percentile_cache: Dict[float, np.ndarray] = {}

    @property
    def n_runs(self) -> int:
        return self.runs.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.runs.shape[1]

    def _percentile(self, q: float) -> np.ndarray:
        cached = self._percentile_cache.get(q)
        if cached is None:
            cached = np.percentile(self.runs, q, axis=0)
            cached.setflags(write=False)
            self._percentile_cache[q] = cached
        return cached

    @property
    def median(self) -> np.ndarray:
        return self._percentile(50.0)

    @property
    def p5(self) -> np.ndarray:
        return self._percentile(5.0)

    @property
    def p95(self) -> np.ndarray:
        return self._percentile(95.0)

    def final_median(self, tail: int = 10) -> float:
        """Median across runs of the mean of each run's last ``tail`` values."""
        tail = min(tail, self.n_iterations)
        return float(np.median(self.runs[:, -tail:].mean(axis=1)))

    def final_p95(self, tail: int = 10) -> float:
        tail = min(tail, self.n_iterations)
        return float(np.percentile(self.runs[:, -tail:].mean(axis=1), 95.0))


@dataclass
class ExperimentResult:
    """Output of one paper figure/table reproduction."""

    name: str
    description: str
    series: Dict[str, object] = field(default_factory=dict)   # label -> bands/arrays
    scalars: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def scalar(self, key: str) -> float:
        return self.scalars[key]


def run_single(
    optimizer: Optimizer,
    objective: SyntheticObjective,
    n_iterations: int,
    size_process: Optional[DataSizeProcess] = None,
    rng: Optional[np.random.Generator] = None,
    track: str = "true",
) -> np.ndarray:
    """One tuning run on a synthetic objective.

    Args:
        optimizer: a fresh optimizer instance.
        objective: the synthetic objective (carries the noise model).
        n_iterations: loop length.
        size_process: data-size dynamics (default constant at the
            objective's reference size).
        rng: noise RNG.
        track: ``"true"`` (noiseless value of the suggested config),
            ``"normed"`` (true / data size, the Fig.-11 view), or
            ``"gap"`` (optimality gap along the most impactful dimension).

    Returns:
        array of length ``n_iterations`` with the tracked quantity.
    """
    if track not in ("true", "normed", "gap"):
        raise ValueError(f"unknown track mode {track!r}")
    size_process = size_process or ConstantSize(objective.reference_size)
    rng = rng or np.random.default_rng()
    out = np.empty(n_iterations)
    impactful = objective.most_impactful_dimension
    for t in range(n_iterations):
        p = size_process(t)
        vector = optimizer.suggest(data_size=p)
        observed = objective.observe(vector, p, rng)
        optimizer.observe(
            Observation(config=vector, data_size=p, performance=observed, iteration=t)
        )
        if track == "true":
            out[t] = objective.true_value(vector, objective.reference_size)
        elif track == "normed":
            out[t] = objective.true_value(vector, p) / p
        else:
            out[t] = objective.optimality_gap(vector, dimension=impactful)
    return out


def run_replicated(
    optimizer_factory: Callable[[int], Optimizer],
    objective: SyntheticObjective,
    n_iterations: int,
    n_runs: int,
    size_process_factory: Optional[Callable[[int], DataSizeProcess]] = None,
    seed: int = 0,
    track: str = "true",
    collect: Optional[Callable[[Optimizer], Any]] = None,
) -> Union[ConvergenceBands, Tuple[ConvergenceBands, List[Any]]]:
    """Repeat :func:`run_single` over ``n_runs`` independent seeds.

    Run ``i`` owns the optimizer ``optimizer_factory(i)``, the size process
    ``size_process_factory(i)`` and a noise RNG seeded ``seed*10007 + i``;
    each factory is called once per run.  When every run is a
    default-structured Centroid Learning session (one shared workload
    family), the runs advance in lock-step on the vectorized engine in
    :mod:`repro.experiments.lockstep`, bit-identical to the plain loop by
    construction.  Other populations (other optimizer types, custom
    selectors, robust guardrails) run one after another in this process.

    Args:
        optimizer_factory: ``run_index -> fresh optimizer``.
        objective: shared synthetic objective.
        n_iterations: iterations per run.
        n_runs: replication count (the paper uses 100–200).
        size_process_factory: ``run_index -> size process`` (default constant).
        seed: base seed; run ``i`` draws noise from ``seed*10007 + i``.
        track: see :func:`run_single`.
        collect: optional ``finished optimizer -> payload`` hook; when
            given, the return value becomes ``(bands, payloads)`` with one
            payload per run, in run order.
    """
    if n_runs < 1 or n_iterations < 1:
        raise ValueError("n_runs and n_iterations must be >= 1")
    if track not in ("true", "normed", "gap"):
        raise ValueError(f"unknown track mode {track!r}")
    optimizers = [optimizer_factory(i) for i in range(n_runs)]
    processes = [
        size_process_factory(i) if size_process_factory
        else ConstantSize(objective.reference_size)
        for i in range(n_runs)
    ]
    rngs = [np.random.default_rng(seed * 10007 + i) for i in range(n_runs)]
    try:
        # Validation raises before the engine touches any optimizer, size
        # process or RNG, so a rejected population runs from the same state.
        lockstep = LockstepReplicatedRuns(optimizers, objective, processes, rngs)
    except LockstepCompatibilityError:
        rows = []
        for optimizer, process, rng in zip(optimizers, processes, rngs):
            started = time.perf_counter() if telemetry.enabled() else None
            rows.append(run_single(
                optimizer, objective, n_iterations,
                size_process=process, rng=rng, track=track,
            ))
            telemetry.counter("experiments.runs").inc()
            if started is not None:
                telemetry.histogram("experiments.run_seconds").observe(
                    time.perf_counter() - started
                )
        runs = np.stack(rows)
    else:
        lockstep.advance(n_iterations)
        # A lock-step run has no wall time of its own: count it, time none.
        telemetry.counter("experiments.runs").inc(n_runs)
        runs = lockstep.runs(track)
    bands = ConvergenceBands(runs)
    if collect is not None:
        return bands, [collect(optimizer) for optimizer in optimizers]
    return bands
