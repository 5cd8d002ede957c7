"""Extension: price-performance tuning over the 7-knob space.

``ext_knob_count`` shows that latency-only tuning of resource knobs buys
time with money.  Here the *objective itself* is changed: Centroid Learning
minimizes the :class:`~repro.core.objective.PricePerformanceObjective` blend
instead of raw latency.  Expected behavior across the weight sweep:

* weight 0 (latency-only): fastest configs, big core bills;
* weight 1 (cost-only): small allocations, slow but cheap;
* intermediate weights: the knee — most of the speed at a fraction of the
  cost (the fixed-budget teams' operating point).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.centroid import CentroidLearning
from ..core.objective import PricePerformanceObjective
from ..core.observation import Observation
from ..sparksim.configs import manual_study_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run"]

DEFAULT_QUERIES = (8, 27, 51)
WEIGHTS = (0.0, 0.5, 1.0)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Sequence[int] = DEFAULT_QUERIES,
    weights: Sequence[float] = WEIGHTS,
) -> ExperimentResult:
    query_ids = query_ids[:2] if quick else query_ids
    n_iterations = 30 if quick else 80
    space = manual_study_space()
    noise = NoiseModel(fluctuation_level=0.15, spike_level=0.2)
    truth = SparkSimulator(noise=None, seed=0)

    result = ExperimentResult(
        name="ext_price_performance",
        description=(
            "CL minimizing the latency/cost blend over 7 knobs: final wall "
            "time and core-seconds cost per objective weight (0 = pure "
            "latency, 1 = pure cost)."
        ),
    )
    w_tail = max(3, n_iterations // 6)
    default_time = 0.0
    default_cost = 0.0
    latency_objective = PricePerformanceObjective(weight=0.0)
    for qid in query_ids:
        plan = tpcds_plan(qid, 100.0)
        t = truth.true_time(plan, space.default_dict())
        default_time += t
        default_cost += PricePerformanceObjective(weight=1.0).cost(
            t, space.default_dict()
        )
    result.scalars["default_total_seconds"] = default_time
    result.scalars["default_core_seconds"] = default_cost

    def tune_one(item):
        weight, k, qid = item
        objective = PricePerformanceObjective(weight=weight)
        plan = tpcds_plan(qid, 100.0)
        data_size = max(plan.total_leaf_cardinality, 1.0)
        sim = SparkSimulator(noise=noise, seed=seed * 5 + k)
        cl = CentroidLearning(space, alpha=0.08, beta=0.15, n_candidates=30,
                              seed=seed + k)
        times = np.empty(n_iterations)
        costs = np.empty(n_iterations)
        for t in range(n_iterations):
            vec = cl.suggest(data_size=data_size)
            config = space.to_dict(vec)
            res = sim.run(plan, config)
            # The optimizer minimizes the blended score, not the latency.
            score = objective.score(res.elapsed_seconds, config, sim.pool)
            cl.observe(Observation(config=vec, data_size=res.data_size,
                                   performance=score, iteration=t))
            times[t] = res.true_seconds
            costs[t] = objective.cost(res.true_seconds, config, sim.pool)
        return times, costs

    items = [
        (weight, k, qid)
        for weight in weights
        for k, qid in enumerate(query_ids)
    ]
    traces = [tune_one(item) for item in items]
    for weight in weights:
        total_time = np.zeros(n_iterations)
        total_cost = np.zeros(n_iterations)
        for (w, _, _), (times, costs) in zip(items, traces):
            if w == weight:
                total_time += times
                total_cost += costs
        label = f"weight_{weight:g}"
        result.series[f"{label}_total_seconds"] = total_time
        result.series[f"{label}_core_seconds"] = total_cost
        result.scalars[f"{label}_final_seconds"] = float(total_time[-w_tail:].mean())
        result.scalars[f"{label}_final_core_seconds"] = float(
            total_cost[-w_tail:].mean()
        )
    result.notes.append(
        "Expected shape: final wall time increases with the cost weight "
        "while core-seconds decrease — weight selects a point on the "
        "price-performance frontier."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
