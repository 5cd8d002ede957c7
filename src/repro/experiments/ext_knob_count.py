"""Extension: tuning 3 vs 7 knobs (the paper's "more configurable parameters").

Production launched "very conservative", tuning only three query-level
knobs; the conclusion names "introduc[ing] more configurable parameters" as
future work.  This experiment quantifies the trade-off on the simulator: the
7-knob space (adding executors, memory, off-heap) has far more *time*
headroom — mostly by buying more parallelism — but that headroom is not
free.  The Sec.-2.1 user study notes teams "with particularly large resource
utilization or fixed budgets also noted the importance of cost", so both
metrics are reported: execution time and core-seconds (time × allocated
cores, a cost proxy).  Expected: 7 knobs win on time, 3 knobs on cost
efficiency — the deployment's conservative choice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.centroid import CentroidLearning
from ..core.observation import Observation
from ..sparksim.cluster import ExecutorLayout
from ..sparksim.configs import manual_study_space, query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run"]

DEFAULT_QUERIES = (8, 27, 51)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
) -> ExperimentResult:
    query_ids = query_ids[:2] if quick else query_ids
    n_iterations = 30 if quick else 80
    noise = NoiseModel(fluctuation_level=0.15, spike_level=0.2)
    spaces = {"knobs_3": query_level_space(), "knobs_7": manual_study_space()}

    result = ExperimentResult(
        name="ext_knob_count",
        description=(
            "3-knob (production) vs 7-knob (user-study) tuning with the same "
            "iteration budget: total true time per iteration and headroom."
        ),
    )
    truth = SparkSimulator(noise=None, seed=0)

    def tune_query(indexed_qid):
        k, qid = indexed_qid
        plan = tpcds_plan(qid, 100.0)
        data_size = max(plan.total_leaf_cardinality, 1.0)
        default_time = truth.true_time(plan, query_level_space().default_dict())
        times = {label: np.zeros(n_iterations) for label in spaces}
        costs = {label: np.zeros(n_iterations) for label in spaces}
        for label, space in spaces.items():
            sim = SparkSimulator(noise=noise, seed=seed * 5 + k)
            cl = CentroidLearning(space, alpha=0.08, beta=0.15, n_candidates=30,
                                  seed=seed + k)
            for t in range(n_iterations):
                vec = cl.suggest(data_size=data_size)
                config = space.to_dict(vec)
                res = sim.run(plan, config)
                cl.observe(Observation(config=vec, data_size=res.data_size,
                                       performance=res.elapsed_seconds, iteration=t))
                times[label][t] = res.true_seconds
                cores = ExecutorLayout.from_config(config, sim.pool).total_cores
                costs[label][t] = res.true_seconds * cores
        return default_time, times, costs

    per_query = [tune_query(item) for item in enumerate(query_ids)]
    totals = {label: np.zeros(n_iterations) for label in spaces}
    cost_totals = {label: np.zeros(n_iterations) for label in spaces}
    default_total = 0.0
    default_cost_total = 0.0
    default_cores = ExecutorLayout.from_config({}).total_cores
    for default_time, times, costs in per_query:
        default_total += default_time
        default_cost_total += default_time * default_cores
        for label in spaces:
            totals[label] += times[label]
            cost_totals[label] += costs[label]

    w = max(3, n_iterations // 6)
    result.scalars["default_total_seconds"] = default_total
    result.scalars["default_core_seconds"] = default_cost_total
    for label in spaces:
        result.series[f"{label}_total_true_seconds"] = totals[label]
        result.series[f"{label}_core_seconds"] = cost_totals[label]
        result.scalars[f"{label}_final_time_gain_pct"] = float(
            (default_total / totals[label][-w:].mean() - 1.0) * 100.0
        )
        result.scalars[f"{label}_final_cost_change_pct"] = float(
            (cost_totals[label][-w:].mean() / default_cost_total - 1.0) * 100.0
        )
    result.notes.append(
        "Expected shape: 7 knobs deliver a much larger *time* gain (buying "
        "parallelism) at a higher core-seconds cost; 3 knobs improve time "
        "without raising cost — the deployment's conservative launch choice."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
