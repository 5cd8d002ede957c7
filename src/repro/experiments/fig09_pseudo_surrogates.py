"""Figure 9: Centroid Learning with Level-X pseudo-surrogate models.

100 runs per level on constant workloads with high noise.  A "Level X" model
always selects the candidate at the ``10·X``-th percentile of *true*
performance; the paper's finding is that CL converges robustly even at
Level 5 (a model no better than a coin flip among the candidate pool),
outperforming vanilla BO (Fig. 2).
"""

from __future__ import annotations

from typing import Sequence

from ..core.centroid import CentroidLearning
from ..core.selectors import PseudoSurrogateSelector
from ..sparksim.noise import high_noise
from ..workloads.synthetic import default_synthetic_objective
from .runner import ExperimentResult, run_replicated

__all__ = ["run", "DEFAULT_LEVELS"]

DEFAULT_LEVELS = (9, 7, 5, 3, 1)


def run(
    quick: bool = False,
    seed: int = 0,
    levels: Sequence[int] = DEFAULT_LEVELS,
) -> ExperimentResult:
    n_runs = 10 if quick else 100
    n_iterations = 80 if quick else 400
    objective = default_synthetic_objective(noise=high_noise(), seed=7)
    space = objective.space

    result = ExperimentResult(
        name="fig09_pseudo_surrogates",
        description=(
            "Centroid Learning convergence with pseudo-surrogates that pick "
            "the 10·X-th percentile candidate (constant workloads, high noise)."
        ),
    )
    result.scalars["optimal_value"] = objective.optimal_value
    result.scalars["default_value"] = objective.true_value(space.default_vector())
    for level in levels:
        selector = PseudoSurrogateSelector(objective.true_value, level)
        bands = run_replicated(
            lambda i, sel=selector: CentroidLearning(space, selector=sel, seed=seed + i),
            objective,
            n_iterations,
            n_runs,
            seed=seed + level,
        )
        result.series[f"level_{level}"] = bands
        result.scalars[f"level_{level}_final_median"] = bands.final_median()
    result.notes.append(
        "Expected shape: lower levels converge closer to the optimum; even "
        "level 5 improves on the default and avoids BO-style divergence."
    )
    return result


if __name__ == "__main__":
    from .report import render_result

    print(render_result(run(quick=True)))
