"""Figure 14: TPC-H production tuning with a TPC-DS-trained baseline.

"We evaluate the algorithm using TPC-H workloads with a scale factor of
100 GB, while the baseline model is trained on TPC-DS data" — each of the 22
queries is tuned independently with the three production knobs, under
production noise.  Reported: total execution time per iteration, and the
per-query gain counts the paper cites (10 queries >10%, 6 of those >15%,
three minor regressions attributable to noise).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.centroid import CentroidLearning
from ..core.selectors import BaselineModelAdapter, SurrogateSelector, SurrogateSelector
from ..core.session import TuningSession
from ..embedding.embedder import WorkloadEmbedder
from ..offline.baseline import BaselineModelTrainer
from ..offline.etl import build_training_table
from ..offline.flighting import FlightingConfig, FlightingPipeline
from ..core.centroid import default_window_model_factory
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpch import TPCH_QUERY_IDS, tpch_plan
from .runner import ExperimentResult

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    query_ids: Sequence[int] = TPCH_QUERY_IDS[:6] if quick else TPCH_QUERY_IDS
    n_iterations = 20 if quick else 40
    flight_queries = [1, 5, 9, 13] if quick else list(range(1, 25))
    flight_configs = 6 if quick else 12
    space = query_level_space()
    embedder = WorkloadEmbedder()

    # Offline phase: flight TPC-DS, train the baseline model.
    flight = FlightingPipeline(
        FlightingConfig(
            benchmark="tpcds",
            query_ids=flight_queries,
            scale_factors=[10.0, 100.0],
            n_configs=flight_configs,
            seed=seed,
        ),
        space=space,
        embedder=embedder,
    )
    table = build_training_table(flight.execute(), space)
    baseline = BaselineModelTrainer().train(table)
    adapter = BaselineModelAdapter(baseline, embedder.dim)

    # Online phase: tune each TPC-H query independently under noise.  The
    # production runs show "substantial noise and occasional runtime spikes";
    # FL=0.25/SL=0.3 keeps both visible while leaving the per-iteration knob
    # signal detectable within ~40 runs, as in the deployment.
    noise = NoiseModel(fluctuation_level=0.25, spike_level=0.3)

    def tune_query(indexed_qid):
        k, qid = indexed_qid
        plan = tpch_plan(qid, 100.0)
        selector = SurrogateSelector(
            default_window_model_factory, baseline=adapter, min_observations=4
        )
        optimizer = CentroidLearning(
            space, alpha=0.08, beta=0.15, n_candidates=30,
            selector=selector, seed=seed + k,
        )
        session = TuningSession(
            plan,
            SparkSimulator(noise=noise, seed=seed * 13 + k),
            optimizer,
            embedder=embedder,
        )
        trace = session.run(n_iterations)
        w = max(4, n_iterations // 5)
        first = float(trace.true[:w].mean())
        last = float(trace.true[-w:].mean())
        return trace.observed, trace.true, (qid, first / last - 1.0, first - last)

    # The offline flighting above is one shared pass; the per-query online
    # tuning sessions are independent.
    per_query = [tune_query(item) for item in enumerate(query_ids)]
    observed_total = np.zeros(n_iterations)
    true_total = np.zeros(n_iterations)
    gains = []
    for observed, true, gain in per_query:
        observed_total += observed
        true_total += true
        gains.append(gain)

    result = ExperimentResult(
        name="fig14_tpch_production",
        description=(
            "Total TPC-H (SF=100) execution time across all tuned queries "
            "per iteration; baseline model trained on TPC-DS flighting data."
        ),
        series={
            "observed_total_seconds": observed_total,
            "true_total_seconds": true_total,
        },
    )
    result.scalars["n_queries"] = float(len(query_ids))
    result.scalars["queries_gain_over_10pct"] = float(
        sum(1 for _, g, _ in gains if g > 0.10)
    )
    result.scalars["queries_gain_over_15pct"] = float(
        sum(1 for _, g, _ in gains if g > 0.15)
    )
    result.scalars["queries_minor_regression"] = float(
        sum(1 for _, g, d in gains if g < 0 and abs(d) < 0.7)
    )
    result.scalars["queries_any_regression"] = float(sum(1 for _, g, _ in gains if g < 0))
    w = max(4, n_iterations // 5)
    result.scalars["total_speedup_pct"] = float(
        (true_total[:w].mean() / true_total[-w:].mean() - 1.0) * 100.0
    )
    for qid, g, _ in gains:
        result.scalars[f"tpch_q{qid:02d}_gain_pct"] = float(g * 100.0)
    result.notes.append(
        "Expected shape: total time trends down despite runtime spikes; a "
        "large subset of queries gains >10% (paper: 10 of 22, 6 of them "
        ">15%), with only small noise-level regressions."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
