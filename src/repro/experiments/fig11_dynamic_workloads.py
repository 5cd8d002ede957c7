"""Figure 11: Centroid Learning on dynamic workloads.

Two regimes under high noise: data sizes growing linearly over time, and
periodic data sizes (``f(t) = t %% K``).  The paper reports both the
*normed* performance (time / data size) and the optimality gap of the most
impactful knob; CL converges in both regimes because the FIND_BEST /
FIND_GRADIENT models include the data size as a feature.
"""

from __future__ import annotations

from ..core.centroid import CentroidLearning
from ..sparksim.noise import high_noise
from ..workloads.dynamics import LinearGrowth, PeriodicSize
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run"]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    n_runs = 8 if quick else 60
    n_iterations = 80 if quick else 400
    objective = default_synthetic_objective(noise=high_noise(), seed=7)
    space = objective.space
    p0 = objective.reference_size

    regimes = {
        "linear": lambda i: LinearGrowth(initial=p0, slope=p0 * 0.01),
        "periodic": lambda i: PeriodicSize(initial=p0, slope=p0 * 0.05, period=20),
    }

    result = ExperimentResult(
        name="fig11_dynamic_workloads",
        description=(
            "CL with linearly increasing (a, b) and periodic (c, d) data "
            "sizes: normed performance and most-impactful-knob optimality gap."
        ),
    )
    result.scalars["optimal_value"] = objective.optimal_value
    for label, process_factory in regimes.items():
        perf = run_replicated(
            lambda i: CentroidLearning(space, seed=seed + i),
            objective,
            n_iterations,
            n_runs,
            size_process_factory=process_factory,
            seed=seed,
            track="normed",
        )
        gap = run_replicated(
            lambda i: CentroidLearning(space, seed=5000 + seed + i),
            objective,
            n_iterations,
            n_runs,
            size_process_factory=process_factory,
            seed=seed + 1,
            track="gap",
        )
        result.series[f"{label}_normed"] = perf
        result.series[f"{label}_gap"] = gap
        result.scalars[f"{label}_final_normed_median"] = perf.final_median()
        result.scalars[f"{label}_initial_normed_median"] = float(perf.median[0])
        result.scalars[f"{label}_final_gap_median"] = gap.final_median()
        result.scalars[f"{label}_initial_gap_median"] = float(gap.median[:5].mean())
    result.notes.append(
        "Expected shape: normed performance and the optimality gap both "
        "shrink over iterations in each regime despite the shifting data size."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
