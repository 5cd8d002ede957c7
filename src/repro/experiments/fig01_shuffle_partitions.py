"""Figure 1: execution time vs ``spark.sql.shuffle.partitions`` per query.

"Varying this parameter can significantly alter execution times, with each
query reaching peak efficiency under different settings."  We sweep the knob
over a log grid for several TPC-DS queries (all other knobs at defaults) and
report the per-query response curves and their distinct optima.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..sparksim.configs import SHUFFLE_PARTITIONS, query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import no_noise
from ..workloads.tpcds import tpcds_plan
from .runner import ExperimentResult

__all__ = ["run"]

# Chosen for diverse per-query optima (≈29 / 13 / 63 / 8 partitions at
# SF=100) and strong knob sensitivity (3-10x worst/best ratios).
DEFAULT_QUERIES = (2, 35, 50, 95)


def run(
    quick: bool = False,
    seed: int = 0,
    query_ids: Optional[Sequence[int]] = None,
    scale_factor: float = 100.0,
) -> ExperimentResult:
    """Sweep shuffle partitions for several queries on the noiseless simulator."""
    query_ids = tuple(query_ids or DEFAULT_QUERIES)
    n_points = 12 if quick else 30
    grid = np.unique(
        np.logspace(
            np.log10(SHUFFLE_PARTITIONS.low),
            np.log10(SHUFFLE_PARTITIONS.high),
            n_points,
        ).round()
    )
    space = query_level_space()
    simulator = SparkSimulator(noise=no_noise(), seed=seed)
    result = ExperimentResult(
        name="fig01_shuffle_partitions",
        description=(
            "Execution time vs spark.sql.shuffle.partitions (other knobs at "
            "defaults); each query has a distinct optimum."
        ),
    )
    result.series["partitions_grid"] = grid

    def sweep(qid: int) -> np.ndarray:
        plan = tpcds_plan(qid, scale_factor)
        base = space.default_dict()
        configs = [
            {**base, "spark.sql.shuffle.partitions": float(partitions)}
            for partitions in grid
        ]
        return simulator.true_time_batch(plan, configs)

    sweeps = [sweep(qid) for qid in query_ids]
    optima: List[float] = []
    for qid, times in zip(query_ids, sweeps):
        label = f"tpcds_q{qid:02d}_seconds"
        result.series[label] = times
        best = float(grid[int(np.argmin(times))])
        optima.append(best)
        result.scalars[f"tpcds_q{qid:02d}_best_partitions"] = best
        result.scalars[f"tpcds_q{qid:02d}_range_ratio"] = float(times.max() / times.min())
    result.scalars["n_distinct_optima"] = float(len(set(optima)))
    result.notes.append(
        "range_ratio = worst/best time over the sweep; the paper's point is "
        "that the optima differ across queries (n_distinct_optima > 1)."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
