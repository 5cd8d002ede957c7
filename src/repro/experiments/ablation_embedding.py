"""Sec.-6.2 embedding ablation: virtual operators vs plain operator counts.

"We evaluate performance using (1) the workload embeddings proposed in [53]
(counts of operator types) and (2) the embedding method of Sec. 4.1 ...
Starting from iteration 5, these embeddings yield an additional 5–10%
improvement in performance consistently."

Setup: leave-one-query-out baseline models trained on flighting data with
each embedding scheme; the target query is tuned with the baseline guiding
candidate selection through the early iterations.  The finer-grained
virtual-operator embedding lets the baseline distinguish plans whose
operator mixes match but whose cardinalities differ, so its early
suggestions track the target's true response surface more closely.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..core.centroid import CentroidLearning, default_window_model_factory
from ..core.selectors import BaselineModelAdapter, SurrogateSelector
from ..core.session import TuningSession
from ..embedding.embedder import WorkloadEmbedder
from ..offline.baseline import BaselineModelTrainer
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpcds import tpcds_plan
from .platform_v0 import build_v0_platform, platform_training_table
from .runner import ExperimentResult

__all__ = ["run"]

DEFAULT_QUERIES = tuple(range(1, 19))  # "18 TPC-DS queries" (Sec. 6.2)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
) -> ExperimentResult:
    query_ids = query_ids[:5] if quick else query_ids
    n_configs = 40 if quick else 120
    n_iterations = 12 if quick else 30
    scale_factor = 100.0 if quick else 1000.0  # paper: SF = 1000G
    space = query_level_space()
    noise = NoiseModel(fluctuation_level=0.3, spike_level=0.4)

    embedders = {
        "virtual_ops": WorkloadEmbedder(use_virtual_operators=True),
        "plain_ops": WorkloadEmbedder(use_virtual_operators=False),
    }
    result = ExperimentResult(
        name="ablation_embedding",
        description=(
            "Leave-one-query-out warm-start tuning with virtual-operator vs "
            "plain operator-count embeddings: mean true time from iteration "
            "5 on, relative to the default configuration."
        ),
    )
    improvements: Dict[str, list] = {label: [] for label in embedders}
    for label, embedder in embedders.items():
        platform = build_v0_platform(
            query_ids, scale_factor=scale_factor, n_configs=n_configs,
            space=space, embedder=embedder, seed=seed,
        )

        def tune_query(indexed_qid, embedder=embedder):
            k, qid = indexed_qid
            table = platform_training_table(platform, space, exclude=qid)
            baseline = BaselineModelTrainer().train(table)
            adapter = BaselineModelAdapter(baseline, table.embedding_dim)
            selector = SurrogateSelector(
                default_window_model_factory, baseline=adapter, min_observations=6
            )
            optimizer = CentroidLearning(space, selector=selector, seed=seed + k)
            session = TuningSession(
                tpcds_plan(qid, scale_factor),
                SparkSimulator(noise=noise, seed=seed * 3 + k),
                optimizer,
                embedder=embedder,
            )
            trace = session.run(n_iterations)
            default_time = session.default_true_time()
            from_iter5 = float(trace.true[5:].mean())
            return trace.true, (default_time / from_iter5 - 1.0) * 100.0

        per_query = [tune_query(item) for item in enumerate(query_ids)]
        totals = np.zeros(n_iterations)
        for true_trace, improvement in per_query:
            totals += true_trace
            improvements[label].append(improvement)
        result.series[f"{label}_total_true_seconds"] = totals
        result.scalars[f"{label}_mean_improvement_pct"] = float(
            np.mean(improvements[label])
        )
    virtual = result.scalars["virtual_ops_mean_improvement_pct"]
    plain = result.scalars["plain_ops_mean_improvement_pct"]
    result.scalars["virtual_advantage_pct_points"] = virtual - plain
    result.notes.append(
        "Expected shape: both embeddings beat the default from iteration 5; "
        "virtual operators add extra percentage points (paper: +5-10%)."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
