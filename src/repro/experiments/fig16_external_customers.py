"""Figure 16: external-customer speed-up distribution + guardrail stats.

From the public-preview analysis (Sec. 6.3): a population of recurring
query signatures tuned with conservative guardrails; "the total execution
time improves by approximately 20%"; a small pathological tail (huge
variance or config-unrelated regressions) exists, and "with further
iterations, the guardrail mechanism automatically disables autotuning for
such queries."  The paper counts 416 signatures, 73 of which kept autotuning
through all iterations under extremely conservative settings.

We reproduce the population-level shape: the speed-up distribution, the
total-time improvement, and the guardrail's disable behavior concentrated
on pathological workloads.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.guardrail import Guardrail
from ..workloads.customer import generate_population
from .fig15_internal_customers import tune_workload
from .runner import ExperimentResult

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_workloads = 16 if quick else 90
    n_iterations = 18 if quick else 50
    guardrail_min = 8 if quick else 30
    population = generate_population(
        n_workloads, seed=seed + 1, pathological_fraction=0.10,
        base_noise=(0.2, 0.6),
    )

    def guardrail_factory() -> Guardrail:
        return Guardrail(min_iterations=guardrail_min, threshold=0.15, patience=2)

    def tune_one(indexed_workload) -> dict:
        i, workload = indexed_workload
        return tune_workload(
            workload, n_iterations, seed=seed * 11 + i,
            guardrail_factory=guardrail_factory,
        )

    per_workload = [tune_one(item) for item in enumerate(population)]
    speedups: List[float] = [s["speedup_pct"] for s in per_workload]
    disabled_flags: List[bool] = [s["disabled"] for s in per_workload]
    pathological_flags: List[bool] = [
        w.pathology is not None for w in population
    ]

    speedups_arr = np.array(speedups)
    disabled = np.array(disabled_flags)
    pathological = np.array(pathological_flags)

    result = ExperimentResult(
        name="fig16_external_customers",
        description=(
            "Speed-up distribution across external-customer recurring "
            "workloads with the production guardrail enabled."
        ),
        series={"speedup_pct_sorted": np.sort(speedups_arr)},
    )
    result.scalars["n_workloads"] = float(n_workloads)
    result.scalars["mean_speedup_pct"] = float(speedups_arr.mean())
    result.scalars["median_speedup_pct"] = float(np.median(speedups_arr))
    result.scalars["n_disabled_by_guardrail"] = float(disabled.sum())
    result.scalars["n_never_disabled"] = float((~disabled).sum())
    result.scalars["n_pathological"] = float(pathological.sum())
    if pathological.any():
        result.scalars["disable_rate_pathological"] = float(
            disabled[pathological].mean()
        )
    if (~pathological).any():
        result.scalars["disable_rate_healthy"] = float(disabled[~pathological].mean())
    result.scalars["fraction_regressed_over_30pct"] = float(
        np.mean(speedups_arr < -30.0)
    )
    result.notes.append(
        "Expected shape: overall mean speed-up around the high teens to 20%; "
        "guardrail disables concentrate on pathological workloads; at most a "
        "tiny fraction regress >30% (paper attributes those to external "
        "factors)."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
