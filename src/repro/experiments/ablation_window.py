"""Sec.-4.3 de-noising ablation: window size N and overshoot step α.

"The number of observations N should be sufficiently large (e.g., 10 or 20)
to mitigate the influence of significant noise" — a window of 2 reduces the
gradient to a hill-climbing-style last-two-rounds comparison, exactly what
CL is designed to improve on.  The α sweep probes the momentum-style
overshoot: too small stalls progress, too large oscillates around the
optimum.
"""

from __future__ import annotations

from typing import Sequence

from ..core.centroid import CentroidLearning
from ..sparksim.noise import high_noise
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run"]

WINDOW_SIZES = (2, 5, 10, 20)
ALPHAS = (0.02, 0.05, 0.1, 0.2)


def run(
    quick: bool = False,
    seed: int = 0,
    window_sizes: Sequence[int] = WINDOW_SIZES,
    alphas: Sequence[float] = ALPHAS,
) -> ExperimentResult:
    n_runs = 8 if quick else 50
    n_iterations = 80 if quick else 300
    objective = default_synthetic_objective(noise=high_noise(), seed=7)
    space = objective.space

    result = ExperimentResult(
        name="ablation_window",
        description=(
            "Centroid Learning de-noising knobs under FL=SL=1 noise: window "
            "size N (gradient estimated from last-N observations) and "
            "overshoot step alpha."
        ),
    )
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    for N in window_sizes:
        bands = run_replicated(
            lambda i, n=N: CentroidLearning(space, window_size=n, seed=seed + i),
            objective,
            n_iterations,
            n_runs,
            seed=seed + N,
        )
        result.series[f"window_{N}"] = bands
        result.scalars[f"window_{N}_final_median"] = bands.final_median()
        result.scalars[f"window_{N}_final_p95"] = bands.final_p95()
    for alpha in alphas:
        bands = run_replicated(
            lambda i, a=alpha: CentroidLearning(space, alpha=a, seed=seed + i),
            objective,
            n_iterations,
            n_runs,
            seed=seed + int(alpha * 1000),
        )
        label = f"alpha_{alpha:g}"
        result.series[label] = bands
        result.scalars[f"{label}_final_median"] = bands.final_median()
    result.notes.append(
        "Expected shape: N=10/20 end with lower medians and tighter p95 than "
        "N=2 (the de-noising claim); mid-range alpha beats the extremes."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
