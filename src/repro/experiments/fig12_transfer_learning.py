"""Figure 12: transfer-learning warm starts with 100/500/1000 samples.

Contextual BO on the V0 platform (pre-recorded candidate sets, cached
results).  The baseline model is trained on rows sampled from all queries
*except* the optimization target (leave-one-query-out), and fine-tuned with
the target's accumulating observations.

The paper's headline: 500 samples converge to a *better* configuration than
1000 (gains of 15% vs 7%) because "additional samples beyond 500 reduce the
model's adaptability" — the benchmark rows swamp the query-specific
observations — while 100 samples give too weak a warm start.  The
:class:`~repro.offline.transfer.FineTunedSurrogate` reproduces this
mechanism directly: query rows are up-weighted by a fixed replication
factor, so a larger benchmark table dilutes them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..offline.transfer import FineTunedSurrogate
from ..ml.boosting import GradientBoostingRegressor
from ..sparksim.configs import query_level_space
from ..sparksim.noise import NoiseModel
from .platform_v0 import PrerecordedQuery, build_v0_platform, platform_training_table
from .runner import ExperimentResult

__all__ = ["run", "tune_on_platform"]

FULL_SAMPLE_SIZES = (100, 500, 1000)
QUICK_SAMPLE_SIZES = (30, 120, 400)


def _model_factory() -> GradientBoostingRegressor:
    return GradientBoostingRegressor(
        n_estimators=40, learning_rate=0.15, max_depth=3, min_samples_leaf=2,
        max_features=32, seed=0,
    )


def tune_on_platform(
    query: PrerecordedQuery,
    base_X: np.ndarray,
    base_y: np.ndarray,
    n_iterations: int,
    rng: np.random.Generator,
    query_weight: int = 5,
) -> np.ndarray:
    """Restricted-candidate CBO loop on one pre-recorded query.

    Each iteration refits the fine-tuned surrogate, scores every unseen
    pre-recorded configuration at the target's embedding/data size, executes
    the predicted-best one from the cache, and records the best-so-far time.
    """
    surrogate = FineTunedSurrogate(
        base_X, base_y, model_factory=_model_factory, query_weight=query_weight
    )
    n = len(query.configs)
    rows = np.array([
        np.concatenate([query.embedding, vector, [query.data_size]])
        for vector in query.configs
    ])
    seen: List[int] = []
    best_so_far = np.empty(n_iterations)
    best = np.inf
    for t in range(n_iterations):
        if not seen:
            index = int(rng.integers(0, n))
        else:
            surrogate.fit(rows[seen], query.times[seen])
            predictions = surrogate.predict(rows)
            predictions[seen] = np.inf  # restrict to unseen cached candidates
            index = int(np.argmin(predictions))
        seen.append(index)
        best = min(best, query.evaluate(index))
        best_so_far[t] = best
    return best_so_far


def run(
    quick: bool = False,
    seed: int = 0,
    sample_sizes: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    query_ids = (2, 7, 13, 21, 40) if quick else tuple(range(1, 19))
    n_configs = 60 if quick else 275
    n_iterations = 10 if quick else 25
    sizes = tuple(
        sample_sizes or (QUICK_SAMPLE_SIZES if quick else FULL_SAMPLE_SIZES)
    )
    space = query_level_space()
    # Recorded with mild measurement noise, as real cluster tables would be.
    platform = build_v0_platform(
        query_ids, benchmark="tpcds", scale_factor=100.0,
        n_configs=n_configs, space=space, seed=seed,
        recording_noise=NoiseModel(fluctuation_level=0.15, spike_level=0.2),
    )

    result = ExperimentResult(
        name="fig12_transfer_learning",
        description=(
            "Leave-one-query-out CBO on the V0 platform: total best-so-far "
            "execution time across target queries, per baseline sample size; "
            "speedup is relative to the manually tuned default (=1.0)."
        ),
    )
    # Folded in order: the builtin sum() compensates since Python 3.12, and
    # these totals reach the committed report.
    total_default = total_best = 0.0
    for q in platform.values():
        total_default += q.default_time
        total_best += q.best_time
    result.scalars["total_default_seconds"] = total_default
    result.scalars["oracle_speedup"] = total_default / total_best

    def trace_for(size_qid) -> np.ndarray:
        size, qid = size_qid
        query = platform[qid]
        table = platform_training_table(platform, space, exclude=qid)
        table = table.subsample(size, np.random.default_rng(seed + size + qid))
        return tune_on_platform(
            query, table.X, table.y, n_iterations,
            rng=np.random.default_rng(seed * 31 + qid),
        )

    # One work item per (sample size, target query).
    items = [(size, qid) for size in sizes for qid in platform]
    traces = [trace_for(item) for item in items]
    for size in sizes:
        totals = np.zeros(n_iterations)
        for (s, _), trace in zip(items, traces):
            if s == size:
                totals += trace
        label = f"samples_{size}"
        result.series[f"{label}_total_seconds"] = totals
        result.series[f"{label}_speedup"] = total_default / totals
        result.scalars[f"{label}_final_speedup"] = float(total_default / totals[-1])
    result.notes.append(
        "Expected shape: the mid sample size converges to the best final "
        "speedup (paper: 500 -> +15%, 1000 -> +7%); the smallest trails."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
